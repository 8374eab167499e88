"""Per-round client participation schedulers.

Each scheduler maps a round index and a seed to the sorted int64 indices
of the clients sampled that round. Each of the S sampled clients weighs
1/S, so a round's weights sum to one by construction, and the pattern alone
sets the window. Schedulers are stateless; all randomness comes from the
round-addressed sampling stream, which keeps rounds independent and
reproducible under any execution order. Four of the five patterns are one
cyclic process with different parameters; `sca` adds availability draws.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, RunConfig, reject_unread, rng_stream

SCA_MAX_RETRIES = 100


class Scheduler:
    """A sampling rule and its pattern's closed-form constants: `window` in
    rounds, the weight concentration bound `rho_sq`, and `p_sample`, the
    lower bound on a client's chance to take part in a window."""

    n_clients: int
    window: int
    rho_sq: float
    p_sample: float

    def sample_round(self, r: int, seed: int) -> np.ndarray:
        """Sorted int64 indices of the clients sampled at round r."""
        raise NotImplementedError


class CyclicScheduler(Scheduler):
    """Clients split into k_bar contiguous groups; each group stays the only
    eligible group for avail_rounds_g consecutive rounds, in turn, and S
    clients are drawn inside it. The window is avail_rounds_g * k_bar rounds;
    avail_rounds_g = 1 is plain cyclic participation. With k_bar = 1 it is iid
    sampling, S of N fresh every round; with S = N / k_bar every eligible
    client takes part, the deterministic round-robin of regularized
    participation, whose window-averaged weight is exactly 1/N."""

    def __init__(self, n_clients: int, k_bar: int, s_clients: int, avail_rounds_g: int = 1):
        if k_bar < 1:
            raise ConfigError("k_bar must be >= 1.")
        if n_clients % k_bar != 0:
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
        self.window = avail_rounds_g * k_bar
        self.rho_sq = 1.0 / s_clients
        self.p_sample = s_clients * k_bar / n_clients

    def active_group(self, r: int) -> int:
        return (r // self.avail_rounds_g) % self.k_bar

    def sample_round(self, r: int, seed: int) -> np.ndarray:
        base = self.active_group(r) * self.group_size
        if self.s_clients == self.group_size:
            # The sorted draw is the whole group whatever the permutation, and
            # nothing else reads the sampling stream, so none is opened.
            return np.arange(base, base + self.group_size, dtype=np.int64)
        rng = rng_stream(seed, "sampling", 0, r)
        # Sorting before the offset orders the same; both act in place on
        # the fresh permutation.
        idx = rng.permutation(self.group_size)[: self.s_clients]
        idx.sort()
        idx += base
        return idx


class ScaScheduler(CyclicScheduler):
    """Grouped-cyclic eligibility with stochastic availability.

    Every client flips an availability coin each round (p_active inside the
    eligible group, p_inactive outside), then S clients are drawn uniformly
    from the available ones. When fewer than S are available they all
    participate with weight 1/|available|; a round with nobody available is
    redrawn with a fresh sub-stream, and persistent emptiness is an error.
    The probabilities are not config keys: runs and `verify` use these
    defaults, and only a scheduler built directly sets others.
    """

    def __init__(self, n_clients: int, k_bar: int, s_clients: int, avail_rounds_g: int,
                 p_active: float = 0.8, p_inactive: float = 0.05):
        super().__init__(n_clients, k_bar, s_clients, avail_rounds_g)
        if not (0 <= p_active <= 1 and 0 <= p_inactive <= 1):
            raise ConfigError("availability probabilities must lie in [0, 1].")
        # Row g holds every client's availability probability while group g
        # is the eligible one.
        groups = np.arange(n_clients) // self.group_size
        self._probs = [np.where(groups == g, p_active, p_inactive) for g in range(k_bar)]

    def sample_round(self, r: int, seed: int) -> np.ndarray:
        probs = self._probs[self.active_group(r)]
        for retry in range(SCA_MAX_RETRIES):
            rng = rng_stream(seed, "sampling", retry, r)
            available = (rng.random(self.n_clients) < probs).nonzero()[0]
            if len(available) == 0:
                continue
            if len(available) <= self.s_clients:
                return available
            # Shuffling `available` in place draws what
            # `available[rng.permutation(len(available))]` draws.
            rng.shuffle(available)
            idx = available[: self.s_clients]
            idx.sort()
            return idx
        raise ValueError(
            f"no clients available at round {r} after {SCA_MAX_RETRIES} availability draws.")


def _regularized(n_clients: int, window_p: int) -> CyclicScheduler:
    """Round-robin over window_p slots: every client of the eligible slot
    takes part, so slot r mod window_p participates at round r."""
    if window_p < 1:
        raise ConfigError("window_p must be >= 1.")
    if n_clients % window_p != 0:
        raise ConfigError("n_clients must be a multiple of window_p.")
    return CyclicScheduler(n_clients, window_p, n_clients // window_p)


# The participation keys each pattern reads, in its builder's argument
# order after n_clients. A pattern rejects any other key that is not at its
# RunConfig default, so a value set for another pattern never passes silently.
_PATTERNS = {
    "iid": (lambda n_clients, s_clients: CyclicScheduler(n_clients, 1, s_clients),
            ("s_clients",)),
    "cyclic": (CyclicScheduler, ("k_bar", "s_clients")),
    "grouped_cyclic": (CyclicScheduler, ("k_bar", "s_clients", "avail_rounds_g")),
    "regularized": (_regularized, ("window_p",)),
    "sca": (ScaScheduler, ("k_bar", "s_clients", "avail_rounds_g")),
}
_PARTICIPATION_KEYS = tuple(dict.fromkeys(key for _, keys in _PATTERNS.values() for key in keys))
PATTERNS = tuple(_PATTERNS)


def make_scheduler(cfg: RunConfig) -> Scheduler:
    if cfg.n_clients < 1:
        raise ConfigError("n_clients must be >= 1.")
    if cfg.pattern not in _PATTERNS:
        raise ConfigError(f"unknown pattern: {cfg.pattern!r}")
    build, keys = _PATTERNS[cfg.pattern]
    reject_unread(cfg, f"pattern {cfg.pattern}", keys, _PARTICIPATION_KEYS)
    return build(cfg.n_clients, *(getattr(cfg, key) for key in keys))
