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
from dataclasses import dataclass

import numpy as np

from .core import ALGORITHM_KEYS, ConfigError, RunConfig, rng_stream, stream_uniforms
from .objectives import Objective
from .participation import Scheduler

# Doubles of gradient noise computed at once (128 KB): the uniforms of every
# client over as many rounds as fit, and at least one round.
NOISE_CHUNK = 1 << 14


@dataclass
class ControlVariates:
    """Per-client gradient estimates plus the window accumulators feeding
    their refresh.

    per_client[i] is subtracted in client i's local steps and global_cv
    (their uniform mean) added back, so the corrections cancel on average.
    accum[i] collects participation-weighted raw gradient sums over the
    current window and qbar[i] the client's window-averaged weight.
    """

    per_client: np.ndarray
    global_cv: np.ndarray
    accum: np.ndarray
    qbar: np.ndarray

    @classmethod
    def zeros(cls, n_clients: int, dim: int) -> "ControlVariates":
        return cls(per_client=np.zeros((n_clients, dim)), global_cv=np.zeros(dim),
                   accum=np.zeros((n_clients, dim)), qbar=np.zeros(n_clients))


def control_variate_init(mode: str, objective: Objective, x0: np.ndarray, seed: int,
                         local_steps: int) -> ControlVariates:
    """Initial control variates at the starting model.

    warm_start draws local_steps stochastic gradients per client at x0 and
    averages them, so with zero noise each client starts at its exact local
    gradient. Draw k of client i reads uniforms k*draws to (k+1)*draws - 1
    of the "init" stream (seed, i, 0). zero leaves everything at 0.
    """
    cv = ControlVariates.zeros(objective.n_clients, objective.dim)
    if mode == "zero":
        return cv
    if mode != "warm_start":
        raise ValueError(f"unknown cv_init mode: {mode!r}")
    d = objective.draws
    for i in range(objective.n_clients):
        uniforms = rng_stream(seed, "init", i, 0).random(local_steps * d).tolist()
        total = np.zeros(objective.dim)
        for k in range(local_steps):
            total += objective.stoch_grad_local(i, x0, uniforms[k * d:(k + 1) * d])
        cv.per_client[i] = total / local_steps
    cv.global_cv = cv.per_client.mean(axis=0)
    return cv


def client_local_update(objective: Objective, client: int, start: np.ndarray,
                        local_steps: int, eta: float, uniforms: Sequence[float],
                        correction: np.ndarray | None = None,
                        mu: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Run one client's local steps from `start`.

    Each step moves against the stochastic gradient plus the optional fixed
    correction and the optional proximal pull toward the start point.
    Returns the endpoint and the sum of raw (uncorrected) stochastic
    gradients, which feeds control-variate refreshes.

    `uniforms` holds the client-round's `local_steps * draws` uniforms, and
    step k's oracle call gets `uniforms[k*draws:(k+1)*draws]`, so each
    step's noise is fixed by its position whatever the other steps read.
    A sequence of any other length raises ValueError.

    Each step is written into the oracle's fresh gradient and the private
    copy of the start, in the order `x - eta * (g + correction + prox)`
    evaluates, so the bits equal that formula's; `start` and `correction`
    are only read.
    """
    if local_steps < 1:
        raise ValueError("local_steps must be >= 1.")
    d = objective.draws
    if len(uniforms) != local_steps * d:
        raise ValueError(f"{local_steps} local steps of {d} draws need {local_steps * d}"
                         f" uniforms, got {len(uniforms)}.")
    x = np.array(start, dtype=float)
    grad_sum = np.zeros_like(x)
    for k in range(local_steps):
        g = objective.stoch_grad_local(client, x, uniforms[k * d:(k + 1) * d])
        grad_sum += g
        if correction is not None:
            g += correction
        if mu:
            g += mu * (x - start)
        g *= eta
        x -= g
    return x, grad_sum


class Simulation:
    """Mutable server state driving one run round by round.

    The caller owns the loop: call run_round(r) for r = 0..R-1 and read
    `model` whenever a metric evaluation is wanted. Reading the model never
    touches any training randomness.

    Client i's local steps in round r read the first `local_steps * draws`
    uniforms of the "gradient-noise" stream (seed, i, r). When r falls
    outside the rounds held, one `stream_uniforms` call computes them for
    every client over the next chunk of rounds, so a round costs no stream
    construction; each sampled client's row goes to `client_local_update`
    as a list.
    """

    def __init__(self, objective: Objective, scheduler: Scheduler, cfg: RunConfig):
        if cfg.n_clients != objective.n_clients:
            raise ConfigError(f"config n_clients = {cfg.n_clients}, but the {cfg.objective}"
                              f" objective has {objective.n_clients} clients.")
        self.objective = objective
        self.scheduler = scheduler
        # An unchecked config may set a key the algorithm does not read; it is ignored.
        reads = ALGORITHM_KEYS[cfg.algorithm]
        self.eta = cfg.eta
        self.mu = cfg.mu if "mu" in reads else 0.0
        self.local_steps = cfg.local_steps
        self.seed = cfg.seed
        self.rounds = cfg.rounds
        self.uses_cv = "cv_init" in reads
        if "gamma" in reads:
            self.window_len = scheduler.params().window
            self.gamma = cfg.gamma
        else:
            self.window_len = 1
            self.gamma = 1.0
        self.x_global = self.w_inner = np.zeros(objective.dim)
        self.cv = None
        if self.uses_cv:
            self.cv = control_variate_init(cfg.cv_init, objective, self.x_global,
                                           cfg.seed, cfg.local_steps)
        self.uplink_scalars = 0
        # Uniforms of rounds [noise_start, noise_start + len(noise)), shaped
        # (rounds, clients, local_steps * draws); filled on first use.
        self._noise = np.empty((0, objective.n_clients, cfg.local_steps * objective.draws))
        self._noise_start = 0

    @property
    def model(self) -> np.ndarray:
        """The live server model (re-based to the global model at commits)."""
        return self.w_inner

    def _fill_noise(self, r: int) -> None:
        n_clients, per_client = self._noise.shape[1:]
        chunk = max(1, NOISE_CHUNK // (n_clients * per_client))
        stop = max(r + 1, min(r + chunk, self.rounds))
        rounds = np.arange(r, stop, dtype=np.uint64)
        clients = np.tile(np.arange(n_clients, dtype=np.uint64), len(rounds))
        uniforms = stream_uniforms(self.seed, "gradient-noise", clients,
                                   np.repeat(rounds, n_clients), per_client)
        self._noise = uniforms.reshape(len(rounds), n_clients, per_client)
        self._noise_start = r

    def _client_work(self, client: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= r - self._noise_start < len(self._noise):
            self._fill_noise(r)
        # Python floats are the same doubles and much cheaper to hand out
        # one at a time; one row at a time keeps the chunk's lists small.
        uniforms = self._noise[r - self._noise_start, client].tolist()
        correction = None
        if self.uses_cv:
            correction = self.cv.global_cv - self.cv.per_client[client]
        return client_local_update(self.objective, client, self.w_inner,
                                   self.local_steps, self.eta, uniforms, correction, self.mu)

    def run_round(self, r: int) -> None:
        sampled = self.scheduler.sample_round(r, self.seed)
        # Every sampled client weighs 1/S. `sampled` is sorted, so the
        # floating-point reduction always walks clients in index order.
        q = 1.0 / len(sampled)
        new_inner = np.zeros(self.objective.dim)
        for i in sampled.tolist():
            end, grad_sum = self._client_work(i, r)
            new_inner += q * end
            if self.uses_cv:
                self.cv.accum[i] += q * grad_sum
                self.cv.qbar[i] += q / self.window_len
        self.w_inner = new_inner
        self.uplink_scalars += len(sampled) * self.objective.dim * (2 if self.uses_cv else 1)

        if (r + 1) % self.window_len == 0:
            self._finalize_window()

    def _finalize_window(self) -> None:
        # Both model arrays are only ever rebound, never written in place,
        # so the inner and global models may share one array.
        if self.gamma != 1.0:
            self.w_inner = self.x_global + self.gamma * (self.w_inner - self.x_global)
        self.x_global = self.w_inner
        if self.uses_cv:
            self._refresh_control_variates()

    def _refresh_control_variates(self) -> None:
        cv = self.cv
        seen = cv.qbar > 0
        if np.any(seen):
            denom = self.window_len * cv.qbar[seen] * self.local_steps
            cv.per_client[seen] = cv.accum[seen] / denom[:, None]
        # Clients absent for the whole window keep their previous estimate.
        cv.global_cv = cv.per_client.mean(axis=0)
        cv.accum[:] = 0.0
        cv.qbar[:] = 0.0
