"""The five optimization strategies over one window-structured loop.

All algorithms share the same round body: sampled clients start from the
current inner model, take local stochastic gradient steps, and the server
aggregates their endpoints by the round's participation weights. They
differ in three switches: the correction added to each local step (none,
a proximal pull, or control variates), the window length after which the
accumulated movement is committed to the global model with amplification
gamma, and whether control variates are refreshed at the commit.

Per-round methods are the window engine with window length 1 and gamma 1;
with control variates enabled that reproduces the classic per-round
variance-reduction update, since committing every round makes the window
average a single round's gradient mean.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import ALGORITHM_KEYS, RunConfig, rng_stream, stream_uniforms
from .objectives import Objective
from .participation import Scheduler

# Doubles of gradient noise addressed at once (128 KB): a chunk adds rounds
# until its sampled clients' rows reach this many, so it holds at most one
# round's rows more, and it holds at least one round.
NOISE_CHUNK = 1 << 14


def control_variate_init(objective: Objective, x0: np.ndarray, seed: int,
                         local_steps: int) -> np.ndarray:
    """Warm-start control variates at the starting model: an (n_clients, dim)
    array whose row i is subtracted in client i's local steps.

    Row i averages local_steps stochastic gradients of client i at x0, so
    with zero noise each client starts at its exact local gradient. Draw k
    of client i reads uniforms k*draws to (k+1)*draws - 1 of the "init"
    stream (seed, i, 0), mapped through `objective.noise` in one call per
    client. For `cv_init = zero` `Simulation` holds zeros instead.
    """
    variates = np.zeros((objective.n_clients, objective.dim))
    d = objective.draws
    for i in range(objective.n_clients):
        noise = objective.noise(rng_stream(seed, "init", i, 0).random(local_steps * d)).tolist()
        total = np.zeros(objective.dim)
        for k in range(local_steps):
            total += objective.stoch_grad_local(i, x0, noise[k * d:(k + 1) * d])
        variates[i] = total / local_steps
    return variates


def client_local_update(objective: Objective, client: int, start: np.ndarray,
                        local_steps: int, eta: float, noise: Sequence[float],
                        correction: np.ndarray | None = None,
                        mu: float = 0.0) -> tuple[np.ndarray, np.ndarray | None]:
    """Run one client's local steps from `start`.

    Each step moves against the stochastic gradient plus the optional fixed
    correction and the optional proximal pull toward the start point.
    Returns the endpoint and, when handed a `correction`, the sum of raw
    (uncorrected) stochastic gradients, else None. Only control-variate
    clients get a correction, and only their refreshes read that sum.

    `noise` holds the client-round's `local_steps * draws` noise values,
    uniforms already mapped through `objective.noise`, and step k's oracle
    call gets `noise[k*draws:(k+1)*draws]`, so each step's noise is fixed
    by its position whatever the other steps read. Like the oracle, the
    update trusts its caller for that length, `client` and `start`.

    Each step is written into the oracle's fresh gradient and the private
    copy of the start, in the order `x - eta * (g + correction + prox)`
    evaluates, so the bits equal that formula's; `start` and `correction`
    are only read. `eta` and `mu` enter as 0-d arrays, the same doubles,
    which numpy takes without converting a Python float on every step.
    """
    d = objective.draws
    x = np.array(start, dtype=float)
    grad_sum = None if correction is None else np.zeros_like(x)
    step = np.array(eta, dtype=float)
    pull = np.array(mu, dtype=float) if mu else None
    for k in range(local_steps):
        g = objective.stoch_grad_local(client, x, noise[k * d:(k + 1) * d])
        if grad_sum is not None:
            grad_sum += g
        if correction is not None:
            g += correction
        if pull is not None:
            g += pull * (x - start)
        g *= step
        x -= g
    return x, grad_sum


def sampled_rounds(objective: Objective, scheduler: Scheduler, cfg: RunConfig):
    """Yield round 0, 1, ... in order: its sorted sampled clients and, per
    client i, its noise row as Python floats: the first `local_steps * draws`
    uniforms of the "gradient-noise" stream (seed, i, r), mapped through
    `objective.noise`. A chunk samples rounds in order, one `sample_round`
    call each, until their rows reach `NOISE_CHUNK` doubles or the run ends
    (past `cfg.rounds`, one round a chunk); one `stream_uniforms` and one
    `objective.noise` call fill it. So a scheduler's error at any round of a
    chunk is raised when the chunk is filled. A module function holds no
    reference to its `Simulation`, which is then freed without the cyclic
    collector.
    """
    per_client = cfg.local_steps * objective.draws
    r = 0
    while True:
        sets = [scheduler.sample_round(r, cfg.seed)]
        offsets = [0, len(sets[0])]
        while offsets[-1] * per_client < NOISE_CHUNK and r + len(sets) < cfg.rounds:
            sets.append(scheduler.sample_round(r + len(sets), cfg.seed))
            offsets.append(offsets[-1] + len(sets[-1]))
        rounds = np.repeat(np.arange(r, r + len(sets), dtype=np.uint64), np.diff(offsets))
        uniforms = stream_uniforms(cfg.seed, "gradient-noise", np.concatenate(sets), rounds,
                                   per_client)
        noise = objective.noise(uniforms)
        for sampled, start, stop in zip(sets, offsets, offsets[1:]):
            # Python floats are the same doubles, and cheaper to hand out one at a time.
            yield sampled, noise[start:stop].tolist()
        r += len(sets)


class Simulation:
    """Mutable server state driving one run round by round.

    The caller owns the loop: call run_round(r) for r = 0..R-1, in order,
    and read `model` whenever a metric evaluation is wanted. Reading the
    model never touches any training randomness. A built run is
    `Simulation(*harness.build_run(cfg), cfg)`; nothing here checks a
    config. Every run setting is read from `cfg` as given, so a hand-built
    config runs what it says: `mu` set on `fedavg` runs the proximal pull.
    Only the switches come from `ALGORITHM_KEYS`: control variates for an
    algorithm that reads `cv_init`, and `window_len`, the pattern's window
    for one that reads `gamma` and 1 otherwise.

    The state is plain arrays: `model`, the live server model that sampled
    clients start from, and `x_global`, the model at the last commit. With
    control variates, `variates` holds client i's estimate in row i and
    `variate_mean` their mean, so client i steps with the correction
    `variate_mean - variates[i]`; over a window `accum[i]` sums client i's
    weighted raw gradients and `qbar[i]` its window-averaged weight. Without
    control variates all four are None. Every `window_len` rounds the commit
    moves `x_global` gamma times the window's movement of `model`, rebases
    `model` there and refreshes the variates of the clients seen.
    """

    def __init__(self, objective: Objective, scheduler: Scheduler, cfg: RunConfig):
        self.objective = objective
        self.cfg = cfg
        reads = ALGORITHM_KEYS[cfg.algorithm]
        self.window_len = scheduler.window if "gamma" in reads else 1
        self.x_global = self.model = np.zeros(objective.dim)
        self.variates = self.variate_mean = self.accum = self.qbar = None
        if "cv_init" in reads:
            if cfg.cv_init == "zero":
                self.variates = np.zeros((objective.n_clients, objective.dim))
            else:
                self.variates = control_variate_init(objective, self.x_global, cfg.seed,
                                                     cfg.local_steps)
            # The mean spelled out: np.add.reduce divided by the count is
            # what `mean` computes, without its dispatch.
            self.variate_mean = np.add.reduce(self.variates, axis=0) / len(self.variates)
            self.accum = np.zeros_like(self.variates)
            self.qbar = np.zeros(objective.n_clients)
        self.uplink_scalars = 0
        self._rounds = sampled_rounds(objective, scheduler, cfg)

    def run_round(self, r: int) -> None:
        """Run round `r`, which must follow the last round run (or be 0)."""
        sampled, noise = next(self._rounds)
        cfg, variates = self.cfg, self.variates
        # Every sampled client weighs 1/S. `sampled` is sorted, so the
        # floating-point reduction always walks clients in index order.
        q = 1.0 / len(sampled)
        weight = np.array(q)
        qbar_step = q / self.window_len
        new_model = np.zeros(self.objective.dim)
        for i, row in zip(sampled.tolist(), noise):
            correction = None if variates is None else self.variate_mean - variates[i]
            end, grad_sum = client_local_update(self.objective, i, self.model, cfg.local_steps,
                                                cfg.eta, row, correction, cfg.mu)
            # Both arrays are this update's own, so they are weighted in place.
            end *= weight
            new_model += end
            if variates is not None:
                grad_sum *= weight
                self.accum[i] += grad_sum
                self.qbar[i] += qbar_step
        self.model = new_model
        self.uplink_scalars += len(sampled) * self.objective.dim * (1 if variates is None else 2)

        if (r + 1) % self.window_len:
            return
        # Both model arrays are only ever rebound, never written in place,
        # so the live and committed models may share one array.
        if cfg.gamma != 1.0:
            self.model = self.x_global + cfg.gamma * (self.model - self.x_global)
        self.x_global = self.model
        if variates is None:
            return
        seen = self.qbar > 0
        denom = self.window_len * self.qbar[seen] * cfg.local_steps
        variates[seen] = self.accum[seen] / denom[:, None]
        # Clients absent for the whole window keep their previous estimate.
        self.variate_mean = np.add.reduce(variates, axis=0) / len(variates)
        self.accum.fill(0.0)
        self.qbar.fill(0.0)
