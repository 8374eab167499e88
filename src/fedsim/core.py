"""Shared primitives: keyed random streams, run configuration, metric records.

Randomness is counter-based. Every random value consumed anywhere in the
simulator is addressed by (seed, purpose, client, round, step), so any
execution order over clients and rounds reproduces the same numerics bit
for bit. Configuration is a flat key = value text format with one key per
line and # comments.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

ALGORITHMS = ("fedavg", "fedprox", "scaffold", "amp_fedavg", "amp_scaffold")
# Algorithms that keep control variates, and those that commit once per
# participation window.
CV_ALGORITHMS = ("scaffold", "amp_scaffold")
WINDOW_ALGORITHMS = ("amp_fedavg", "amp_scaffold")
PATTERNS = ("iid", "cyclic", "grouped_cyclic", "regularized", "sca")
OBJECTIVES = ("synthetic_hard", "quadratic", "logistic")
CV_INIT_MODES = ("warm_start", "zero")

PURPOSES = {"gradient-noise": 0, "sampling": 1, "partition": 2, "init": 3}

_U64 = 1 << 64
# Generator.random() can return exactly 0.0, and the inverse normal CDF maps
# 0.0 to -inf, so uniforms fed into it are floored at the smallest positive
# value the 53-bit output can produce.
_MIN_UNIFORM = 2.0 ** -53


class ConfigError(ValueError):
    """Raised for unparsable, unknown, or inconsistent configuration."""


# ---------------------------------------------------------------------------
# Random streams


class _PhiloxKey(ISeedSequence):
    """Seed sequence whose only state is the Philox key [seed, 0]. Philox
    asks it for exactly two uint64 words, once, at construction."""

    def __init__(self, seed: int):
        self._seed = seed

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.array([self._seed, 0], dtype=np.uint64)


def rng_stream(seed: int, purpose: str, client: int = 0, round_idx: int = 0) -> np.random.Generator:
    """Return the generator for one (seed, purpose, client, round) stream.

    The stream is an independent counter-based sequence; its k-th draw is the
    value addressed by step k. Streams never overlap across distinct keys.

    The key reaches Philox through a seed sequence rather than `key=`:
    `Philox(key=...)` first builds a `SeedSequence` from OS entropy and then
    discards it, which costs about half of a stream's construction. The key
    [seed, 0] is exactly the 128-bit key `Philox(key=seed)` stores, so the
    state and every draw are unchanged.
    """
    if purpose not in PURPOSES:
        raise ValueError(f"unknown rng purpose: {purpose!r}")
    # operator.index turns numpy integers into Python ints, whose shifts
    # below cannot overflow, and rejects floats.
    seed, client, round_idx = map(operator.index, (seed, client, round_idx))
    for name, value in (("seed", seed), ("client", client), ("round_idx", round_idx)):
        if not 0 <= value < _U64:
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    counter = (PURPOSES[purpose] << 192) | (client << 128) | (round_idx << 64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed), counter=counter))


# scipy.special.ndtri, the inverse normal CDF, bound on the first Gaussian
# draw: importing scipy.special costs more than the rest of `import fedsim`,
# and commands that draw no Gaussian (`fedsim verify` among them) never pay
# it.
_ndtri = None


def _load_ndtri():
    global _ndtri
    from scipy.special import ndtri
    _ndtri = ndtri
    return ndtri


def gaussians_from(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    """n draws from N(0, sigma^2) using the given stream; sigma=0 gives exact zeros."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0.")
    if sigma == 0:
        rng.random(n)
        return np.zeros(n)
    u = np.maximum(rng.random(n), _MIN_UNIFORM)
    return sigma * (_ndtri or _load_ndtri())(u)


def gaussian_from(rng: np.random.Generator, sigma: float) -> float:
    """One draw from N(0, sigma^2), equal to `gaussians_from(rng, 1, sigma)[0]`;
    sigma=0 gives 0.0 and still consumes the uniform."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0.")
    u = rng.random()
    if sigma == 0:
        return 0.0
    return sigma * float((_ndtri or _load_ndtri())(max(u, _MIN_UNIFORM)))


# ---------------------------------------------------------------------------
# Run configuration


@dataclass
class RunConfig:
    """Flat bag of every tunable for one simulation run.

    Field names double as the keys of the text config format. Defaults here
    are plumbing defaults; algorithm hyperparameters must come from the file
    or from overrides.
    """

    # population and loop structure
    n_clients: int = 0
    rounds: int = -1
    local_steps: int = 1
    algorithm: str = ""
    eta: float = 0.0
    gamma: float = 1.0
    mu: float = 0.0
    cv_init: str = "warm_start"
    # participation pattern
    pattern: str = "iid"
    s_clients: int = 1
    k_bar: int = 1
    avail_rounds_g: int = 1
    window_p: int = 0
    p_active: float = 0.8
    p_inactive: float = 0.05
    # objective
    objective: str = ""
    h: float = 16.0
    kappa: float = 16.0
    sigma: float = 1.0
    c: float = 1.0
    mu_pl: float = 2.0
    centers: str = ""
    l2: float = 0.0
    minibatch: int = 1
    # data source (logistic only)
    dataset: str = "blob"
    images_path: str = ""
    labels_path: str = ""
    test_images_path: str = ""
    test_labels_path: str = ""
    similarity: float = 100.0
    blob_samples: int = 1000
    blob_classes: int = 10
    blob_features: int = 8
    blob_test_samples: int = 0
    # bookkeeping
    seed: int = 0
    eval_every: int = 0
    target_value: float = float("nan")


_REQUIRED_KEYS = ("n_clients", "rounds", "algorithm", "eta", "objective")

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_DEFAULTS = RunConfig()


def reject_unread(cfg: RunConfig, owner: str, reads: tuple[str, ...],
                  keys: tuple[str, ...]) -> None:
    """Reject the first of `keys` that `owner` (a pattern, an objective or a
    dataset kind) does not read and that is not at its RunConfig default, so
    a value set for another choice never passes silently."""
    for key in keys:
        if key not in reads and getattr(cfg, key) != getattr(_DEFAULTS, key):
            raise ConfigError(f"{owner} does not read {key}; leave it unset.")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a raw string mapping.

    Blank lines and # comments are skipped. Duplicate keys keep the last
    occurrence, matching override semantics.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        values[key.strip()] = value.strip()
    return values


def apply_overrides(values: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply key=value override strings on top of parsed values; later wins."""
    out = dict(values)
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"override must look like key=value, got {item!r}")
        out[key.strip()] = value.strip()
    return out


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {kind}") from None
    return value


def build_run_config(values: dict[str, str]) -> RunConfig:
    """Turn raw string values into a validated RunConfig."""
    unknown = sorted(set(values) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]!r}")
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing required config key: {missing[0]!r}")
    cfg = RunConfig(**{k: _coerce(k, v) for k, v in values.items()})
    return validate_run_config(cfg)


def validate_run_config(cfg: RunConfig) -> RunConfig:
    """Check the algorithm and run-loop keys and fill derived defaults.

    The participation keys are checked by building the scheduler. The
    objective and data keys are checked by the code that reads them: the
    objective constructors, `harness.parse_centers`, `harness.load_dataset`,
    `data.partition_indices`, and `Simulation`, which matches `n_clients`
    against the objective. `harness.build_objective` and `load_dataset` also
    reject any key the chosen objective or dataset kind never reads. Returns
    a normalized copy; the input is not modified.
    """
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm: {cfg.algorithm!r}")
    if cfg.cv_init not in CV_INIT_MODES:
        raise ConfigError(f"unknown cv_init mode: {cfg.cv_init!r}")
    if cfg.n_clients < 1:
        raise ConfigError("n_clients must be >= 1.")
    if cfg.rounds < 0:
        raise ConfigError("rounds must be >= 0.")
    if cfg.local_steps < 1:
        raise ConfigError("local_steps must be >= 1.")
    if cfg.eta <= 0:
        raise ConfigError("eta must be > 0.")
    if cfg.gamma < 1:
        raise ConfigError("gamma must be >= 1.")
    if cfg.mu < 0:
        raise ConfigError("mu must be >= 0.")
    if cfg.mu > 0 and cfg.algorithm != "fedprox":
        raise ConfigError("mu is only meaningful for fedprox.")
    if cfg.algorithm not in WINDOW_ALGORITHMS and cfg.gamma != 1.0:
        raise ConfigError(f"{cfg.algorithm} requires gamma = 1.")
    if not 0 <= cfg.seed < _U64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer.")
    if cfg.eval_every < 0:
        raise ConfigError("eval_every must be >= 0.")

    # imported here because participation imports this module
    from .participation import make_scheduler
    make_scheduler(cfg)

    out = dataclasses.replace(cfg)
    if cfg.eval_every == 0:
        out.eval_every = 10 if cfg.objective == "logistic" else 20
    return out


# ---------------------------------------------------------------------------
# Experiment (grid) configuration


@dataclass
class ExperimentSpec:
    """A base configuration plus a Cartesian grid of key overrides and seeds."""

    base: dict[str, str]
    grid: dict[str, list[str]]
    seeds: list[int]

    def cells(self) -> list[dict[str, str]]:
        """Expand the grid to the full Cartesian product, in key order."""
        cells = [{}]
        for key, options in self.grid.items():
            cells = [dict(cell, **{key: opt}) for cell in cells for opt in options]
        return cells


def parse_experiment_text(text: str) -> ExperimentSpec:
    """Parse an experiment file: run keys plus `grid.<key> = v1, v2` and `seeds`."""
    raw = parse_config_text(text)
    base: dict[str, str] = {}
    grid: dict[str, list[str]] = {}
    seeds = [0]
    for key, value in raw.items():
        if key.startswith("grid."):
            name = key[len("grid."):]
            if name not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key in grid: {name!r}")
            options = [v.strip() for v in value.split(",") if v.strip()]
            if not options:
                raise ConfigError(f"grid key {name!r} has no values.")
            grid[name] = options
        elif key == "seeds":
            try:
                seeds = [int(v) for v in value.split(",") if v.strip()]
            except ValueError:
                raise ConfigError(f"cannot parse seeds list: {value!r}") from None
            if not seeds:
                raise ConfigError("seeds list is empty.")
        else:
            base[key] = value
    if not grid:
        raise ConfigError("experiment file defines no grid.* keys.")
    return ExperimentSpec(base=base, grid=grid, seeds=seeds)


# ---------------------------------------------------------------------------
# Metric record


@dataclass
class RunRecord:
    """Time series of evaluation rows for one seeded run.

    Rows are (round, grad_norm, train_loss, test_metric, uplink_scalars),
    strictly increasing in round. test_metric is NaN when the objective has
    no test set. `diverged` is set when the model, the train loss or the
    gradient norm is non-finite at an evaluation mark; the rows then stop
    at the mark before.
    """

    rounds: list[int]
    grad_norms: list[float]
    train_losses: list[float]
    test_metrics: list[float]
    uplink_scalars: list[int]
    diverged: bool = False

    def __post_init__(self) -> None:
        n = len(self.rounds)
        for name in ("grad_norms", "train_losses", "test_metrics", "uplink_scalars"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match rounds.")
        if any(b <= a for a, b in zip(self.rounds, self.rounds[1:])):
            raise ValueError("rounds must be strictly increasing.")

    @property
    def final_loss(self) -> float:
        return self.train_losses[-1] if self.train_losses else float("nan")


def format_value(v) -> str:
    """Shortest round-trip decimal form, so CSV bytes are reproducible."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))
