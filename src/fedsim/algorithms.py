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

from dataclasses import dataclass

import numpy as np

from .core import CV_ALGORITHMS, WINDOW_ALGORITHMS, ConfigError, RunConfig, rng_stream
from .objectives import Objective
from .participation import Scheduler


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
    gradient. zero leaves everything at 0.
    """
    cv = ControlVariates.zeros(objective.n_clients, objective.dim)
    if mode == "zero":
        return cv
    if mode != "warm_start":
        raise ValueError(f"unknown cv_init mode: {mode!r}")
    for i in range(objective.n_clients):
        rng = rng_stream(seed, "init", i, 0)
        total = np.zeros(objective.dim)
        for _ in range(local_steps):
            total += objective.stoch_grad_local(i, x0, rng)
        cv.per_client[i] = total / local_steps
    cv.global_cv = cv.per_client.mean(axis=0)
    return cv


def client_local_update(objective: Objective, client: int, start: np.ndarray,
                        local_steps: int, eta: float, rng: np.random.Generator,
                        correction: np.ndarray | None = None,
                        mu: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Run one client's local steps from `start`.

    Each step moves against the stochastic gradient plus the optional fixed
    correction and the optional proximal pull toward the start point.
    Returns the endpoint and the sum of raw (uncorrected) stochastic
    gradients, which feeds control-variate refreshes.

    Each step is written into the oracle's fresh gradient and the private
    copy of the start, in the order `x - eta * (g + correction + prox)`
    evaluates, so the bits equal that formula's; `start` and `correction`
    are only read.
    """
    if local_steps < 1:
        raise ValueError("local_steps must be >= 1.")
    x = np.array(start, dtype=float)
    grad_sum = np.zeros_like(x)
    for _ in range(local_steps):
        g = objective.stoch_grad_local(client, x, rng)
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
    """

    def __init__(self, objective: Objective, scheduler: Scheduler, cfg: RunConfig):
        if cfg.n_clients != objective.n_clients:
            raise ConfigError(f"config n_clients = {cfg.n_clients}, but the {cfg.objective}"
                              f" objective has {objective.n_clients} clients.")
        self.objective = objective
        self.scheduler = scheduler
        self.algorithm = cfg.algorithm
        self.eta = cfg.eta
        self.mu = cfg.mu if cfg.algorithm == "fedprox" else 0.0
        self.local_steps = cfg.local_steps
        self.seed = cfg.seed
        self.uses_cv = cfg.algorithm in CV_ALGORITHMS
        if cfg.algorithm in WINDOW_ALGORITHMS:
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

    @property
    def model(self) -> np.ndarray:
        """The live server model (re-based to the global model at commits)."""
        return self.w_inner

    def _client_work(self, client: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        rng = rng_stream(self.seed, "gradient-noise", client, r)
        correction = None
        if self.uses_cv:
            correction = self.cv.global_cv - self.cv.per_client[client]
        return client_local_update(self.objective, client, self.w_inner,
                                   self.local_steps, self.eta, rng, correction, self.mu)

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
