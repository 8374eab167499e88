"""Command-line entry point.

Subcommands: run (one seeded run to run.csv), grid (sweep an experiment
file to grid.csv), verify (participation pattern diagnostics to
verify.csv) and partition-report (label histogram of the client shards,
to partition.csv). Every file is written atomically.

Exit codes: 0 on success with no failed check, 1 when verify finds a
failed check, 2 on any error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .core import (
    ConfigError,
    RunConfig,
    apply_overrides,
    build_run_config,
    check_seed,
    format_value,
    parse_config_text,
    parse_experiment_text,
)
from .data import atomic_write, label_histogram
from .diagnostics import assumption_suite, checks_to_csv_rows, format_report
from .harness import build_run, grid_csv, rounds_to_target, run_grid, run_once, run_record_csv
from .participation import PATTERNS, make_scheduler


def _load_values(args: argparse.Namespace) -> dict[str, str]:
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    return apply_overrides(parse_config_text(text), args.override)


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_run(args: argparse.Namespace) -> int:
    values = _load_values(args)
    if args.seed is not None:
        values["seed"] = str(args.seed)
    cfg = build_run_config(values)
    record = run_once(cfg)
    path = _out_path(args, "run.csv")
    atomic_write(path, run_record_csv(record).encode())

    print(f"run: algorithm={cfg.algorithm} objective={cfg.objective} pattern={cfg.pattern}"
          f" rounds={cfg.rounds} eta={format_value(cfg.eta)} gamma={format_value(cfg.gamma)}"
          f" mu={format_value(cfg.mu)} seed={cfg.seed}")
    if record.rounds:
        print(f"final: round={record.rounds[-1]} train_loss={format_value(record.final_loss)}"
              f" grad_norm={format_value(record.grad_norms[-1])}"
              f" test_metric={format_value(record.test_metrics[-1])}"
              f" uplink_scalars={record.uplink_scalars[-1]}")
    else:
        print("final: no finite evaluation")
    if not math.isnan(cfg.target_value):
        hit = rounds_to_target(record, cfg.target_value)
        print(f"rounds_to_target: {hit if hit is not None else 'none'}")
    if record.diverged:
        print("warning: trajectory left the finite range and was truncated.")
    print(f"wrote {path}")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        spec = parse_experiment_text(fh.read())
    if args.override:
        spec = replace(spec, base=apply_overrides(spec.base, args.override))
    if args.seed is not None:
        spec = replace(spec, seeds=[args.seed])
    results = run_grid(spec)
    grid_keys = list(spec.grid)
    path = _out_path(args, "grid.csv")
    atomic_write(path, grid_csv(results, grid_keys).encode())

    print(f"grid: {len(results)} cells x {len(spec.seeds)} seeds")
    for cell in results:
        desc = " ".join(f"{k}={cell.overrides[k]}" for k in grid_keys)
        print(f"cell {cell.cell_id}: {desc} mean_final_loss={format_value(cell.mean_final_loss)}"
              f" std={format_value(cell.std_final_loss)}"
              f" mean_rounds_to_target={format_value(cell.mean_rounds_to_target)}"
              f" diverged={cell.diverged_runs}/{len(spec.seeds)}")
    print(f"wrote {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # A full-group pattern opens no sampling stream, which would reject the seed.
    check_seed(args.seed)
    scheduler = make_scheduler(RunConfig(
        n_clients=args.n, pattern=args.pattern, s_clients=args.s, k_bar=args.k_bar,
        avail_rounds_g=args.g, window_p=args.window_p))
    checks = assumption_suite(scheduler, args.trials, seed=args.seed)
    print(format_report(checks))
    path = _out_path(args, "verify.csv")
    atomic_write(path, ("\n".join(checks_to_csv_rows(checks)) + "\n").encode())
    print(f"wrote {path}")
    return 0 if all(c.passed for c in checks) else 1


def cmd_partition_report(args: argparse.Namespace) -> int:
    cfg, objective, _ = build_run(build_run_config(_load_values(args)))
    if cfg.objective != "logistic":
        raise ConfigError("partition-report needs a config with objective = logistic.")
    labels = objective.labels
    rows = label_histogram(labels)
    path = _out_path(args, "partition.csv")
    lines = ["client,label,count"] + [f"{c},{label},{n}" for c, label, n in rows]
    atomic_write(path, ("\n".join(lines) + "\n").encode())

    sizes = [len(shard) for shard in labels]
    print(f"partition: {cfg.n_clients} clients, {sum(sizes)} samples,"
          f" similarity={format_value(cfg.similarity)}")
    print(f"shard sizes: min={min(sizes)} max={max(sizes)}")
    print(f"wrote {path}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="config file path")
    sub.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key; repeatable, later wins")
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic simulator for federated optimization under periodic client participation.")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="execute one seeded run and write run.csv")
    _add_common(run)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.set_defaults(func=cmd_run)

    grid = subs.add_parser("grid", help="run an experiment grid and write grid.csv")
    _add_common(grid)
    grid.add_argument("--seed", type=int, default=None, help="replace the seed list with one seed")
    grid.set_defaults(func=cmd_grid)

    verify = subs.add_parser("verify", help="participation diagnostics; exit 1 on a failed check")
    verify.add_argument("--pattern", required=True, choices=PATTERNS)
    verify.add_argument("--n", type=int, required=True, help="number of clients")
    # The defaults are RunConfig's, which the scheduler factory requires for
    # every key the pattern does not read.
    verify.add_argument("--s", type=int, default=RunConfig.s_clients, help="clients sampled per round")
    verify.add_argument("--k-bar", type=int, default=RunConfig.k_bar, help="number of cyclic groups")
    verify.add_argument("--g", type=int, default=RunConfig.avail_rounds_g,
                        help="rounds each group stays eligible")
    verify.add_argument("--window-p", type=int, default=RunConfig.window_p,
                        help="round-robin window length")
    verify.add_argument("--trials", type=int, default=10000, help="windows to sample")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=".")
    verify.set_defaults(func=cmd_verify)

    report = subs.add_parser("partition-report", help="label histogram of the client shards")
    _add_common(report)
    report.set_defaults(func=cmd_partition_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
