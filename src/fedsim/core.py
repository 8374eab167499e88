"""Shared primitives: keyed random streams, run configuration, metric records.

Randomness is counter-based. Every random value consumed anywhere in the
simulator is addressed by (seed, purpose, client, round, step), so any
execution order over clients and rounds reproduces the same numerics bit
for bit. `rng_stream` opens one (seed, purpose, client, round) stream as a
numpy Generator. `stream_uniforms` computes the first n uniforms of many
such streams in one vectorized Philox pass, bit for bit equal to the
Generators'. The run loop computes its gradient noise that way, one chunk
of rounds at a time for only the (client, round) pairs it samples, and
maps the chunk through the objective's elementwise noise map. A stochastic
gradient oracle never opens a stream: it is handed its mapped draws by
position. `gaussians_from` maps uniforms to normal draws through `ndtri`,
a port of the Cephes inverse normal CDF that returns the bits of
`scipy.special.ndtri` without importing scipy.

Configuration is a flat key = value text format with one key per line and
# comments.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# The algorithm keys each algorithm reads, which are also its switches: a
# proximal pull (mu), control variates (cv_init) and an amplified commit
# once per participation window (gamma).
ALGORITHM_KEYS = {"fedavg": (), "fedprox": ("mu",), "scaffold": ("cv_init",),
                  "amp_fedavg": ("gamma",), "amp_scaffold": ("gamma", "cv_init")}
ALGORITHMS = tuple(ALGORITHM_KEYS)
CV_INIT_MODES = ("warm_start", "zero")

PURPOSES = {"gradient-noise": 0, "sampling": 1, "partition": 2, "init": 3}

_U64 = 1 << 64
# Generator.random() can return exactly 0.0, where the inverse normal CDF is
# -inf, so uniforms fed into it are floored at the smallest positive value
# the 53-bit output can produce.
_MIN_UNIFORM = 2.0 ** -53


class ConfigError(ValueError):
    """Raised for unparsable, unknown, or inconsistent configuration."""


# ---------------------------------------------------------------------------
# Random streams


class _PhiloxKey(ISeedSequence):
    """Seed sequence whose only state is the Philox key [seed, 0]. Philox
    asks it for exactly two uint64 words, once, at construction, and copies
    them into its state one at a time, so a tuple of the two ints serves
    and no array is built."""

    def __init__(self, seed: int):
        self._seed = seed

    def generate_state(self, n_words: int, dtype=np.uint32) -> tuple[int, int]:
        return (self._seed, 0)


def rng_stream(seed: int, purpose: str, client: int = 0, round_idx: int = 0) -> np.random.Generator:
    """Return the generator for one (seed, purpose, client, round) stream.

    The stream is an independent counter-based sequence; its k-th draw is the
    value addressed by step k. Streams never overlap across distinct keys.

    The key reaches Philox through a seed sequence rather than `key=`:
    `Philox(key=...)` first builds a `SeedSequence` from OS entropy and then
    discards it, which costs about half of a stream's construction. The key
    [seed, 0] is exactly the 128-bit key `Philox(key=seed)` stores, so the
    state and every draw are unchanged.

    The 256-bit counter goes to Philox as its four uint64 words, low first:
    [0, round_idx, client, purpose], the words `stream_uniforms` counts
    with. Given a Python int, Philox splits it into those words itself,
    which takes longer than building the array here; the state is the same.
    """
    if purpose not in PURPOSES:
        raise ValueError(f"unknown rng purpose: {purpose!r}")
    # operator.index turns numpy integers into Python ints and rejects
    # floats, so the range checks below see exact values.
    seed, client, round_idx = map(operator.index, (seed, client, round_idx))
    for name, value in (("seed", seed), ("client", client), ("round_idx", round_idx)):
        if not 0 <= value < _U64:
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    counter = np.array((0, round_idx, client, PURPOSES[purpose]), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed), counter=counter))


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
# 3", SC'11), numpy's `Philox`: the multipliers of counter words 0 and 2,
# and the Weyl increments that bump the two key words between rounds.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _S32


def stream_uniforms(seed: int, purpose: str, clients, rounds, n: int) -> np.ndarray:
    """The first n uniforms of many streams, as a (len(clients), n) array.

    Row j equals `rng_stream(seed, purpose, clients[j], rounds[j]).random(n)`
    bit for bit. The Generator's k-th double is `(word >> 11) * 2**-53` of
    word k % 4 of the Philox block whose counter words, low first, are
    (1 + k // 4, round, client, purpose) under the key (seed, 0); here all
    blocks of all rows go through the ten rounds together. The high half of
    each 64x64-bit product is built from 32-bit limbs, since numpy has no
    wide multiply.
    """
    if purpose not in PURPOSES:
        raise ValueError(f"unknown rng purpose: {purpose!r}")
    seed = operator.index(seed)
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    clients = np.asarray(clients, dtype=np.uint64)
    rounds = np.asarray(rounds, dtype=np.uint64)
    if clients.shape != rounds.shape or clients.ndim != 1:
        raise ValueError("clients and rounds must be 1-D and of equal length.")
    shape = (len(clients), -(-n // 4))
    # x holds counter words 0 and 2, the multiplied ones; y words 1 and 3.
    x = np.stack([np.broadcast_to(np.arange(1, shape[1] + 1, dtype=np.uint64), shape),
                  np.broadcast_to(clients[:, None], shape)])
    y = np.stack([np.broadcast_to(rounds[:, None], shape),
                  np.full(shape, PURPOSES[purpose], dtype=np.uint64)])
    key = [seed, 0]
    for _ in range(10):
        x_lo, x_hi = x & _LO32, x >> _S32
        low_cross = _M_HI * x_lo + ((_M_LO * x_lo) >> _S32)
        mid = (low_cross & _LO32) + _M_LO * x_hi
        hi = _M_HI * x_hi + (low_cross >> _S32) + (mid >> _S32)
        # out = (hi1 ^ y0 ^ key0, lo1, hi0 ^ y1 ^ key1, lo0)
        x, y = hi[::-1] ^ y ^ np.array(key, dtype=np.uint64).reshape(2, 1, 1), (_PHILOX_M * x)[::-1]
        key = [(k + w) % _U64 for k, w in zip(key, _PHILOX_W)]
    words = np.stack((x[0], y[0], x[1], y[1]), axis=-1).reshape(shape[0], 4 * shape[1])[:, :n]
    return (words >> np.uint64(11)) * 2.0 ** -53


# The inverse normal CDF of Moshier's Cephes library (ndtri.c), which
# scipy.special.ndtri compiles. Numerator tables list the coefficients from
# the highest power down; denominator tables start with the leading 1.0 that
# Cephes' p1evl leaves implicit, since 1.0 * x + c == x + c exactly.
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# |y - 0.5| <= 3/8: y + y^3 P0(y^2) / Q0(y^2), scaled by sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tail, x = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# far tail, x >= 8: y below exp(-32)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Horner's rule, one rounding per multiply and per add, as Cephes."""
    acc = coefs[0] * x
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _logs(x: np.ndarray) -> np.ndarray:
    """The C library's log of each element. Cephes calls it; numpy's own
    vectorized log can differ from it in the last bit."""
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=len(x))


def ndtri(y) -> np.ndarray:
    """The inverse normal CDF of each element of `y`, bit for bit equal to
    `scipy.special.ndtri` for 0 < y < 1; 0, 1 and values outside raise
    ValueError.

    Arithmetic and sqrt are correctly rounded in numpy as in C, so only the
    logs of the tail, about 27% of uniform inputs, leave numpy.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    upper = flat > 1.0 - _EXP_M2
    t = np.where(upper, 1.0 - flat, flat)
    out = np.empty_like(t)
    central = t > _EXP_M2
    # The central branch takes its sign from t - 0.5, the tail from `upper`.
    c = t[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0))) * _S2PI
    tail = ~central
    x = np.sqrt(-2.0 * _logs(t[tail]))
    x0 = x - _logs(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    far = x >= 8.0
    zf = z[far]
    x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(y.shape)


def gaussians_from(u, sigma: float) -> np.ndarray:
    """Map the uniforms `u` elementwise to draws from N(0, sigma^2), in an
    array of u's shape; sigma=0 gives exact zeros and sigma < 0 is unchecked."""
    if sigma == 0:
        return np.zeros(np.shape(u))
    return sigma * ndtri(np.maximum(u, _MIN_UNIFORM))


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
    # objective
    objective: str = ""
    kappa: float = 16.0
    sigma: float = 1.0
    centers: str = ""
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
    eval_every: int = 20
    target_value: float = float("nan")


_REQUIRED_KEYS = ("n_clients", "rounds", "algorithm", "eta", "objective")

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_DEFAULTS = RunConfig()


def reject_unread(cfg: RunConfig, owner: str, reads: tuple[str, ...],
                  keys: tuple[str, ...]) -> None:
    """Reject the first of `keys` that `owner` (an algorithm, a pattern, an
    objective or a dataset kind) does not read and is not at its RunConfig
    default, so a value set for another choice never passes silently."""
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
    """Apply override strings on top of parsed values; later wins. The
    overrides are read as the lines of one more config text, so `#` starts
    a comment and a blank override is skipped."""
    return {**values, **parse_config_text("\n".join(overrides))}


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES[key]
    if kind == "str":
        return value
    try:
        number = int(value) if kind == "int" else float(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {kind}") from None
    # NaN passes every range check, so only target_value, whose NaN default
    # means "no target", may be non-finite.
    if kind == "float" and key != "target_value" and not math.isfinite(number):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return number


def build_run_config(values: dict[str, str]) -> RunConfig:
    """Turn raw string values into a RunConfig, rejecting an unknown key, a
    missing required key and a value that does not parse. Ranges and key
    combinations are checked when `harness.build_run` builds the run."""
    unknown = sorted(set(values) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]!r}")
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing required config key: {missing[0]!r}")
    return RunConfig(**{k: _coerce(k, v) for k, v in values.items()})


def check_seed(seed: int) -> None:
    """Reject a run or verify seed outside the sampling streams' key range."""
    if not 0 <= seed < _U64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer.")


def validate_run_config(cfg: RunConfig) -> RunConfig:
    """Check the algorithm and run-loop keys.

    `mu`, `gamma` and `cv_init` are range-checked, then any of them that
    the algorithm does not read (`ALGORITHM_KEYS`) must be at its default.
    `n_clients` and the participation, objective and data keys are checked
    by the code that reads them, which `harness.build_run` calls after this
    check: `participation.make_scheduler` and the scheduler constructors,
    then `harness.build_objective`, the objective constructors,
    `harness.parse_centers`, `harness.load_dataset` and
    `data.partition_indices`. `make_scheduler`, `build_objective` and
    `load_dataset` also reject any key the chosen pattern, objective or
    dataset kind never reads. `build_run` then matches `n_clients` against
    the objective; nothing fills a default. Returns `cfg` itself.
    """
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm: {cfg.algorithm!r}")
    if cfg.cv_init not in CV_INIT_MODES:
        raise ConfigError(f"unknown cv_init mode: {cfg.cv_init!r}")
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
    reject_unread(cfg, f"algorithm {cfg.algorithm}", ALGORITHM_KEYS[cfg.algorithm],
                  ("mu", "gamma", "cv_init"))
    check_seed(cfg.seed)
    if cfg.eval_every < 1:
        raise ConfigError("eval_every must be >= 1.")
    return cfg


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
        return [dict(zip(self.grid, combo)) for combo in itertools.product(*self.grid.values())]


def _list_fields(value: str, what: str, empty: str) -> list[str]:
    """The fields of a comma-separated list, raising `empty` when all are
    empty. A trailing ',' ends the list; any other empty field is an error."""
    fields = [v.strip() for v in value.split(",")]
    fields = fields if fields[-1] else fields[:-1]
    if not any(fields):
        raise ConfigError(empty)
    if not all(fields):
        raise ConfigError(f"{what} has an empty field: {value!r}")
    return fields


def build_experiment_spec(values: dict[str, str]) -> ExperimentSpec:
    """Split the raw values of an experiment file, overrides applied, into
    run keys, `grid.<key> = v1, v2` lists and `seeds`, rejecting an empty
    field and a repeated seed. `harness.run_grid` checks base and grid keys
    alike when it builds the runs, and rejects two equal cells."""
    base: dict[str, str] = {}
    grid: dict[str, list[str]] = {}
    seeds = [0]
    for key, value in values.items():
        if key.startswith("grid."):
            name = key[len("grid."):]
            grid[name] = _list_fields(value, f"grid key {name!r}",
                                      f"grid key {name!r} has no values.")
        elif key == "seeds":
            fields = _list_fields(value, "seeds list", "seeds list is empty.")
            try:
                seeds = [int(v) for v in fields]
            except ValueError:
                raise ConfigError(f"cannot parse seeds list: {value!r}") from None
            if len(set(seeds)) < len(seeds):
                raise ConfigError(f"seeds list repeats a seed: {value!r}")
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


def csv_text(header: str, rows) -> str:
    """The text of a CSV file: `header`, then each row's fields joined by
    ','. A str field is written as given and any number by `format_value`;
    every line ends in a newline."""
    lines = [header]
    lines.extend(",".join(v if isinstance(v, str) else format_value(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"
