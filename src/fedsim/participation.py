"""Per-round client participation schedulers.

Each scheduler maps a round index and a seed to the aggregation weight
vector for that round. Weights are 1/S for each of the S sampled clients
and 0 elsewhere, so they sum to one by construction. Schedulers are
stateless; all randomness comes from the round-addressed sampling stream,
which keeps rounds independent and reproducible under any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, RunConfig, rng_stream

SCA_MAX_RETRIES = 100


@dataclass(frozen=True)
class RoundParticipation:
    """Aggregation weights for one round plus the sampled client set."""

    weights: np.ndarray
    sampled: tuple[int, ...]

    def check(self) -> None:
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("participation weights must sum to 1.")
        if any(self.weights[i] <= 0 for i in self.sampled):
            raise ValueError("sampled clients must carry positive weight.")


@dataclass(frozen=True)
class PatternParams:
    """Closed-form constants of a pattern: weight concentration bound rho_sq,
    window length, and the per-window participation probability lower bound."""

    rho_sq: float
    window: int
    p_sample: float


class Scheduler:
    n_clients: int

    def sample_round(self, r: int, seed: int) -> RoundParticipation:
        raise NotImplementedError

    def params(self) -> PatternParams:
        raise NotImplementedError

    def _emit(self, chosen: np.ndarray) -> RoundParticipation:
        weights = np.zeros(self.n_clients)
        weights[chosen] = 1.0 / len(chosen)
        return RoundParticipation(weights=weights, sampled=tuple(sorted(int(i) for i in chosen)))


class IidScheduler(Scheduler):
    """S of N clients uniformly without replacement, fresh every round."""

    def __init__(self, n_clients: int, s_clients: int):
        if not 1 <= s_clients <= n_clients:
            raise ConfigError("s_clients must be in [1, n_clients].")
        self.n_clients = n_clients
        self.s_clients = s_clients

    def sample_round(self, r: int, seed: int) -> RoundParticipation:
        rng = rng_stream(seed, "sampling", 0, r)
        chosen = rng.permutation(self.n_clients)[: self.s_clients]
        return self._emit(chosen)

    def params(self) -> PatternParams:
        return PatternParams(1.0 / self.s_clients, 1, self.s_clients / self.n_clients)


class CyclicScheduler(Scheduler):
    """Clients split into k_bar contiguous groups; each group stays the only
    eligible group for avail_rounds_g consecutive rounds, in turn, and S
    clients are drawn inside it. The window is avail_rounds_g * k_bar rounds;
    avail_rounds_g = 1 is plain cyclic participation."""

    def __init__(self, n_clients: int, k_bar: int, s_clients: int, avail_rounds_g: int = 1):
        if k_bar < 1 or n_clients % k_bar != 0:
            raise ConfigError("n_clients must be a multiple of k_bar.")
        if not 1 <= s_clients <= n_clients // k_bar:
            raise ConfigError("s_clients must be in [1, n_clients / k_bar].")
        if avail_rounds_g < 1:
            raise ConfigError("avail_rounds_g must be >= 1.")
        self.n_clients = n_clients
        self.k_bar = k_bar
        self.s_clients = s_clients
        self.avail_rounds_g = avail_rounds_g
        self.group_size = n_clients // k_bar

    def active_group(self, r: int) -> int:
        return (r // self.avail_rounds_g) % self.k_bar

    def sample_round(self, r: int, seed: int) -> RoundParticipation:
        rng = rng_stream(seed, "sampling", 0, r)
        base = self.active_group(r) * self.group_size
        chosen = base + rng.permutation(self.group_size)[: self.s_clients]
        return self._emit(chosen)

    def params(self) -> PatternParams:
        return PatternParams(1.0 / self.s_clients, self.avail_rounds_g * self.k_bar,
                             self.s_clients * self.k_bar / self.n_clients)


class RegularizedScheduler(Scheduler):
    """Deterministic round-robin: the client list is cut into window_p slots
    of N / window_p clients and slot (r mod window_p) participates at round r.
    Every client's window-averaged weight is exactly 1/N."""

    def __init__(self, n_clients: int, window_p: int):
        if window_p < 1 or n_clients % window_p != 0:
            raise ConfigError("n_clients must be a multiple of window_p.")
        self.n_clients = n_clients
        self.window_p = window_p
        self.slot_size = n_clients // window_p

    def sample_round(self, r: int, seed: int) -> RoundParticipation:
        base = (r % self.window_p) * self.slot_size
        chosen = np.arange(base, base + self.slot_size)
        return self._emit(chosen)

    def params(self) -> PatternParams:
        return PatternParams(self.window_p / self.n_clients, self.window_p, 1.0)


class ScaScheduler(CyclicScheduler):
    """Grouped-cyclic eligibility with stochastic availability.

    Every client flips an availability coin each round (p_active inside the
    eligible group, p_inactive outside), then S clients are drawn uniformly
    from the available ones. When fewer than S are available they all
    participate with weight 1/|available|; a round with nobody available is
    redrawn with a fresh sub-stream, and persistent emptiness is an error.
    """

    def __init__(self, n_clients: int, k_bar: int, s_clients: int, avail_rounds_g: int,
                 p_active: float = 0.8, p_inactive: float = 0.05):
        super().__init__(n_clients, k_bar, s_clients, avail_rounds_g)
        if not (0 <= p_active <= 1 and 0 <= p_inactive <= 1):
            raise ConfigError("availability probabilities must lie in [0, 1].")
        self.p_active = p_active
        self.p_inactive = p_inactive

    def sample_round(self, r: int, seed: int) -> RoundParticipation:
        group = self.active_group(r)
        in_group = (np.arange(self.n_clients) // self.group_size) == group
        probs = np.where(in_group, self.p_active, self.p_inactive)
        for retry in range(SCA_MAX_RETRIES):
            rng = rng_stream(seed, "sampling", retry, r)
            available = np.flatnonzero(rng.random(self.n_clients) < probs)
            if len(available) == 0:
                continue
            if len(available) <= self.s_clients:
                return self._emit(available)
            chosen = available[rng.permutation(len(available))[: self.s_clients]]
            return self._emit(chosen)
        raise ValueError(
            f"no clients available at round {r} after {SCA_MAX_RETRIES} availability draws.")


def make_scheduler(cfg: RunConfig) -> Scheduler:
    if cfg.pattern == "iid":
        return IidScheduler(cfg.n_clients, cfg.s_clients)
    if cfg.pattern == "cyclic":
        return CyclicScheduler(cfg.n_clients, cfg.k_bar, cfg.s_clients)
    if cfg.pattern == "grouped_cyclic":
        return CyclicScheduler(cfg.n_clients, cfg.k_bar, cfg.s_clients, cfg.avail_rounds_g)
    if cfg.pattern == "regularized":
        return RegularizedScheduler(cfg.n_clients, cfg.window_p)
    if cfg.pattern == "sca":
        return ScaScheduler(cfg.n_clients, cfg.k_bar, cfg.s_clients, cfg.avail_rounds_g,
                            cfg.p_active, cfg.p_inactive)
    raise ConfigError(f"unknown pattern: {cfg.pattern!r}")


def effective_window(cfg: RunConfig, scheduler: Scheduler) -> int:
    """Window length used by the window-structured algorithms."""
    if cfg.window_p > 0:
        return cfg.window_p
    return scheduler.params().window
