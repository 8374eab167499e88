"""End-to-end runs: build the pieces from a config, loop over rounds,
record metrics, run the grid an experiment file describes, and serialize
results as CSV.

Evaluation never consumes training randomness (metric computation is
deterministic and the random streams are purpose-tagged), so changing the
evaluation schedule cannot change a trajectory. Floats are serialized in
shortest round-trip form, which makes re-runs byte-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algorithms import Simulation
from .core import (ConfigError, RunConfig, RunRecord, build_run_config, csv_text,
                   reject_unread, validate_run_config)
from .data import load_idx, make_blobs, partition_by_similarity
from .objectives import Logistic, Objective, Quadratic, SyntheticHard
from .participation import Scheduler, make_scheduler

RUN_CSV_HEADER = "round,grad_norm,train_loss,test_metric,uplink_scalars"


def parse_centers(text: str) -> np.ndarray:
    """Parse per-client center vectors: clients split by ';', coordinates by
    ','. A trailing ';' ends the last client; any other empty field is an
    error."""
    clients = text.split(";")
    if not clients[-1].strip():
        clients.pop()
    try:
        rows = [[float(v) for v in part.split(",")] for part in clients]
    except ValueError:
        raise ConfigError(f"cannot parse centers: {text!r}") from None
    if not rows:
        raise ConfigError("quadratic objective requires centers.")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError("centers must give every client the same number of coordinates.")
    return np.array(rows)


# The data keys each dataset kind reads and the objective and data keys each
# objective reads. Like a participation key under `make_scheduler`, any
# other such key must stay at its RunConfig default.
_DATASETS = {
    "blob": ("blob_samples", "blob_classes", "blob_features", "blob_test_samples"),
    "idx": ("images_path", "labels_path", "test_images_path", "test_labels_path"),
}
_DATASET_KEYS = tuple(key for keys in _DATASETS.values() for key in keys)
_OBJECTIVES = {
    "synthetic_hard": ("kappa", "sigma"),
    "quadratic": ("centers", "sigma"),
    "logistic": ("dataset", "similarity", *_DATASET_KEYS),
}
_OBJECTIVE_KEYS = tuple(dict.fromkeys(key for keys in _OBJECTIVES.values() for key in keys))
OBJECTIVES = tuple(_OBJECTIVES)


def build_objective(cfg: RunConfig) -> Objective:
    """The objective `cfg` names, after rejecting an unknown objective and
    any objective or data key that the objective never reads."""
    if cfg.objective not in _OBJECTIVES:
        raise ConfigError(f"unknown objective: {cfg.objective!r}")
    reject_unread(cfg, f"objective {cfg.objective}", _OBJECTIVES[cfg.objective], _OBJECTIVE_KEYS)
    if cfg.objective == "synthetic_hard":
        return SyntheticHard(cfg.kappa, cfg.sigma)
    if cfg.objective == "quadratic":
        return Quadratic(parse_centers(cfg.centers), cfg.sigma)
    train, test = load_dataset(cfg)
    shards = partition_by_similarity(train[0], train[1], cfg.n_clients, cfg.similarity, cfg.seed)
    num_classes = cfg.blob_classes if cfg.dataset == "blob" else int(train[1].max()) + 1
    return Logistic(shards, num_classes, test)


def load_dataset(cfg: RunConfig):
    """Training set and optional test set for the logistic objective."""
    if cfg.dataset not in _DATASETS:
        raise ConfigError(f"unknown dataset kind: {cfg.dataset!r}")
    reject_unread(cfg, f"dataset {cfg.dataset}", _DATASETS[cfg.dataset], _DATASET_KEYS)
    if cfg.dataset == "blob":
        if cfg.blob_test_samples < 0:
            raise ConfigError("the held-out sample count (blob_test_samples) must be >= 0.")
        train = make_blobs(cfg.blob_samples, cfg.blob_classes, cfg.blob_features, cfg.seed)
        test = None
        if cfg.blob_test_samples > 0:
            test = make_blobs(cfg.blob_test_samples, cfg.blob_classes, cfg.blob_features,
                              cfg.seed, stream_index=2)
        return train, test
    if not cfg.images_path or not cfg.labels_path:
        raise ConfigError("dataset = idx requires images_path and labels_path.")
    if bool(cfg.test_images_path) != bool(cfg.test_labels_path):
        raise ConfigError("a held-out set needs both test_images_path and test_labels_path.")
    train = load_idx(cfg.images_path, cfg.labels_path)
    test = None
    if cfg.test_images_path:
        test = load_idx(cfg.test_images_path, cfg.test_labels_path)
    return train, test


def build_run(cfg: RunConfig) -> tuple[Objective, Scheduler]:
    """The one construction path of a run: validate `cfg`, build its
    scheduler, build its objective, then match `n_clients` against the
    objective. A config with several faults raises at the first of these
    steps that checks one.

    Returns the objective and the scheduler, which run `cfg` as written:
    `Simulation(*build_run(cfg), cfg)`.
    """
    validate_run_config(cfg)
    scheduler = make_scheduler(cfg)
    objective = build_objective(cfg)
    if cfg.n_clients != objective.n_clients:
        raise ConfigError(f"config n_clients = {cfg.n_clients}, but the {cfg.objective}"
                          f" objective has {objective.n_clients} clients.")
    return objective, scheduler


def run_once(cfg: RunConfig) -> RunRecord:
    """Execute one seeded run and return its metric record: `simulate` on
    `cfg` and the pieces `build_run` makes of it."""
    return simulate(cfg, *build_run(cfg))


def simulate(cfg: RunConfig, objective: Objective, scheduler: Scheduler) -> RunRecord:
    """Run `cfg`'s rounds in order on the pieces `build_run(cfg)` made,
    recording a row at round 0, every `eval_every` rounds and the last round.

    The run diverges at the first evaluation mark where the model, the
    train loss or the gradient norm is non-finite. Its rows then stop at
    the mark before and `diverged` is set; nothing is raised.
    """
    sim = Simulation(objective, scheduler, cfg)

    rounds: list[int] = []
    grad_norms: list[float] = []
    losses: list[float] = []
    test_metrics: list[float] = []
    uplink: list[int] = []

    def record(round_idx: int) -> bool:
        x = sim.model
        if not np.isfinite(x).all():
            return False
        loss = objective.eval_global(x)
        gnorm = float(np.linalg.norm(objective.grad_global(x)))
        if not (math.isfinite(loss) and math.isfinite(gnorm)):
            return False
        rounds.append(round_idx)
        grad_norms.append(gnorm)
        losses.append(loss)
        test_metrics.append(objective.test_metric(x))
        uplink.append(sim.uplink_scalars)
        return True

    # A non-finite model never becomes finite again: every sampled client
    # starts from the inner model, the server averages their endpoints, and
    # a commit adds to the inner model. So checking only at the marks stops
    # the rows where a check after every local step would.
    with np.errstate(over="ignore", invalid="ignore"):
        diverged = not record(0)
        if not diverged:
            for r in range(cfg.rounds):
                sim.run_round(r)
                if ((r + 1) % cfg.eval_every == 0 or r + 1 == cfg.rounds) and not record(r + 1):
                    diverged = True
                    break
    return RunRecord(rounds=rounds, grad_norms=grad_norms, train_losses=losses,
                     test_metrics=test_metrics, uplink_scalars=uplink, diverged=diverged)


def rounds_to_target(record: RunRecord, target: float) -> int | None:
    """First recorded round whose train loss is at or below the target."""
    for round_idx, loss in zip(record.rounds, record.train_losses):
        if loss <= target:
            return round_idx
    return None


def run_record_csv(record: RunRecord) -> str:
    return csv_text(RUN_CSV_HEADER, zip(record.rounds, record.grad_norms, record.train_losses,
                                        record.test_metrics, record.uplink_scalars))


# ---------------------------------------------------------------------------
# Experiment files and the grid runner


@dataclass
class GridCellResult:
    overrides: dict[str, str]
    mean_final_loss: float
    std_final_loss: float
    mean_rounds_to_target: float
    diverged_runs: int


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


def run_grid(values: dict[str, str]) -> tuple[list[int], list[GridCellResult]]:
    """Run the experiment file whose raw values, overrides applied, are
    `values`: run keys, `grid.<key> = v1, v2` lists and `seeds` (default 0).
    Returns the seeds and one result per cell, with the cells expanded to
    the Cartesian product of the grid lists in key order.

    Each run's seed comes from `seeds`, so a `seed` key in the base config
    (file or override) or in the grid is rejected rather than silently
    replaced, as are an empty list field, a repeated seed, a key set in both
    the base and the grid, and two cells whose configs are equal (`0.1` and
    `1e-1` are one value, as are the centers `1;3` and `1.0; 3.0`).

    Every (cell, seed) run is built by `build_run`, and so checked, before
    the first run starts, so a bad cell fails before any run's time is
    spent. Every built objective is held until its run, which for the
    logistic objective means every run's data shards at once.
    """
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
    for key in ("seed", "grid.seed"):
        if key in values:
            raise ConfigError(f"a grid takes its seeds from 'seeds', not from {key}.")
    twice = sorted(base.keys() & grid.keys())
    if twice:
        raise ConfigError(f"{twice[0]} is set both in the base config and in grid.{twice[0]}.")
    cells = [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]
    configs = [[build_run_config({**base, **cell, "seed": str(seed)}) for seed in seeds]
               for cell in cells]
    runs = [[(cfg, *build_run(cfg)) for cfg in cell_configs] for cell_configs in configs]
    # Equal values have one repr (0.1 and 1e-1, NaN and NaN), so equal cells do
    # too once centers is parsed: a built run's centers parse, or are unset.
    reprs = [repr({**vars(cfg), "centers": cfg.centers and parse_centers(cfg.centers).tolist()})
             for cfg, *_ in configs]
    twins = [(reprs.index(text), k) for k, text in enumerate(reprs) if reprs.index(text) != k]
    if twins:
        raise ConfigError(f"grid cells {twins[0][0]} and {twins[0][1]} run the same config.")
    results = []
    for cell, cell_runs in zip(cells, runs):
        finals, reached, diverged = [], [], 0
        for cfg, objective, scheduler in cell_runs:
            record = simulate(cfg, objective, scheduler)
            finals.append(record.final_loss)
            diverged += int(record.diverged)
            hit = rounds_to_target(record, cfg.target_value)
            if hit is not None:
                reached.append(hit)
        results.append(GridCellResult(
            overrides=cell, mean_final_loss=float(np.mean(finals)),
            std_final_loss=float(np.std(finals)), diverged_runs=diverged,
            mean_rounds_to_target=float(np.mean(reached)) if reached else float("nan")))
    return seeds, results


def grid_csv(results: list[GridCellResult]) -> str:
    """grid.csv: one row per cell, numbered from 0, its grid values in key order."""
    keys = list(results[0].overrides)
    header = "cell_id," + ",".join(keys) + ",mean_final_loss,std_final_loss,mean_rounds_to_target"
    return csv_text(header, ([cell_id, *cell.overrides.values(), cell.mean_final_loss,
                              cell.std_final_loss, cell.mean_rounds_to_target]
                             for cell_id, cell in enumerate(results)))
