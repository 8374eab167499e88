import collections
import math
from pathlib import Path

import numpy as np
import pytest

from fedsim import algorithms, harness
from fedsim.core import ConfigError, ExperimentSpec, RunConfig, build_run_config, parse_config_text
from fedsim.harness import (
    RUN_CSV_HEADER,
    build_objective,
    build_run,
    grid_csv,
    load_dataset,
    parse_centers,
    rounds_to_target,
    run_grid,
    run_once,
    run_record_csv,
)
from fedsim.data import make_blobs
from fedsim.objectives import Quadratic
from fedsim.participation import CyclicScheduler

from checks import write_idx


def _quad(**kw) -> RunConfig:
    values = {"n_clients": "2", "s_clients": "2", "rounds": "8", "algorithm": "fedavg",
              "eta": "0.1", "objective": "quadratic", "centers": "1; 3", "sigma": "0",
              "eval_every": "2"}
    values.update({k: str(v) for k, v in kw.items()})
    return build_run_config(values)


def test_eval_schedule_covers_start_marks_and_finish():
    assert run_once(_quad(rounds=45, eval_every=20)).rounds == [0, 20, 40, 45]
    assert run_once(_quad(rounds=40, eval_every=20)).rounds == [0, 20, 40]
    assert run_once(_quad(rounds=5, eval_every=10)).rounds == [0, 5]
    assert run_once(_quad(rounds=0, eval_every=10)).rounds == [0]


def test_run_records_the_expected_rows():
    record = run_once(_quad())
    assert record.rounds == [0, 2, 4, 6, 8]
    assert not record.diverged
    # fedavg with 2 clients of dimension 1 uploads 2 scalars per round
    assert record.uplink_scalars == [2 * r for r in record.rounds]
    assert all(b < a for a, b in zip(record.train_losses, record.train_losses[1:]))
    assert record.grad_norms[-1] < record.grad_norms[0]
    assert all(math.isnan(m) for m in record.test_metrics)
    assert record.final_loss == record.train_losses[-1]


def test_rounds_to_target_scans_recorded_rows():
    record = run_once(_quad())
    assert rounds_to_target(record, record.train_losses[0]) == 0
    assert rounds_to_target(record, record.train_losses[3]) == record.rounds[3]
    assert rounds_to_target(record, 0.0) is None


def test_rounds_zero_records_only_the_start():
    record = run_once(_quad(rounds=0))
    assert record.rounds == [0]
    assert not record.diverged


def test_rerun_is_byte_identical():
    cfg = _quad(sigma=1.0, rounds=12)
    assert run_record_csv(run_once(cfg)) == run_record_csv(run_once(cfg))


def test_eval_schedule_does_not_change_the_trajectory():
    dense = run_once(_quad(sigma=0.5, eval_every=1))
    sparse = run_once(_quad(sigma=0.5, eval_every=8))
    assert sparse.rounds == [0, 8]
    assert dense.final_loss == sparse.final_loss
    assert dense.uplink_scalars[-1] == sparse.uplink_scalars[-1]


def test_diverged_run_is_truncated_not_raised():
    record = run_once(_quad(eta=1e8, local_steps=10, rounds=10, eval_every=1))
    assert record.diverged
    assert len(record.rounds) < 11
    assert all(math.isfinite(v) for v in record.train_losses)
    csv = run_record_csv(record)
    assert csv.count("\n") == len(record.rounds) + 1


@pytest.mark.parametrize("algorithm,extra", [
    ("fedavg", {}),
    ("amp_scaffold", dict(gamma=2, pattern="cyclic", k_bar=2, s_clients=1)),
], ids=["fedavg", "amp_scaffold"])
def test_sparse_evaluation_stops_a_diverged_run_at_the_dense_rows(algorithm, extra):
    def run(eval_every):
        return run_once(_quad(algorithm=algorithm, eta=10, local_steps=10, rounds=60,
                              eval_every=eval_every, **extra))

    dense = run(1)
    assert dense.diverged
    assert len(dense.rounds) > 6
    dense_lines = run_record_csv(dense).splitlines()
    # At every 3 the loss overflows first; by mark 35 the model itself is
    # NaN, so both halves of the rule are exercised.
    for every in (3, 35):
        sparse = run(every)
        assert sparse.diverged
        kept = [line for line, r in zip(dense_lines[1:], dense.rounds) if r % every == 0]
        assert run_record_csv(sparse).splitlines() == [dense_lines[0]] + kept


def test_a_non_finite_model_diverges_even_when_its_metrics_are_finite(monkeypatch):
    class Blind(Quadratic):
        def eval_global(self, x):
            return 0.0

        def grad_global(self, x):
            return np.zeros_like(x)

    monkeypatch.setattr(harness, "build_objective", lambda cfg: Blind(parse_centers(cfg.centers)))
    record = run_once(_quad(eta=10, local_steps=10, rounds=60, eval_every=1))
    assert record.diverged
    # the model is first non-finite at mark 33
    assert record.rounds == list(range(33))


class _FailingScheduler:
    """Hands every attribute on to the built scheduler, and raises at round
    `fail_at` instead of sampling it."""

    def __init__(self, inner, fail_at: int):
        self._inner = inner
        self.fail_at = fail_at

    def sample_round(self, r, seed):
        if r == self.fail_at:
            raise ValueError(f"no clients at round {r}")
        return self._inner.sample_round(r, seed)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("fail_at", [0, 5, 19])
def test_a_scheduler_error_reaches_the_caller(monkeypatch, fail_at):
    # Sampling is read up to one chunk ahead, so the error may come before
    # its round runs, but it always comes.
    make = harness.make_scheduler
    monkeypatch.setattr(harness, "make_scheduler",
                        lambda cfg: _FailingScheduler(make(cfg), fail_at))
    with pytest.raises(ValueError, match=f"no clients at round {fail_at}"):
        run_once(_quad(rounds=20, sigma=0.5))


def test_uplink_doubles_with_control_variates():
    plain = run_once(_quad())
    cv = run_once(_quad(algorithm="scaffold", eta=0.05))
    assert cv.uplink_scalars[-1] == 2 * plain.uplink_scalars[-1]


def test_run_csv_format():
    record = run_once(_quad())
    lines = run_record_csv(record).splitlines()
    assert lines[0] == RUN_CSV_HEADER
    assert len(lines) == len(record.rounds) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == "0"
    assert float(first[2]) == record.train_losses[0]


def test_parse_centers():
    np.testing.assert_array_equal(parse_centers("1,2; 3,4"), [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(parse_centers("1; 2;"), [[1.0], [2.0]])
    for text in ("a,b", "1,,2; 3,4", "1,2;;3,4"):
        with pytest.raises(ConfigError, match="cannot parse centers"):
            parse_centers(text)
    with pytest.raises(ConfigError, match="same number of coordinates"):
        parse_centers("1,2; 3")
    with pytest.raises(ConfigError, match="requires centers"):
        parse_centers(" ")


def test_build_objective_errors():
    with pytest.raises(ConfigError, match="unknown objective"):
        build_objective(RunConfig(objective="nope"))


_SYNTHETIC = {"n_clients": "2", "rounds": "10", "algorithm": "fedavg", "eta": "0.1",
              "objective": "synthetic_hard"}


def test_validation_rejects_inconsistent_combinations():
    with pytest.raises(ConfigError):
        build_run(RunConfig(n_clients=2, rounds=1, algorithm="sgd", eta=0.1,
                            objective="quadratic", centers="0"))
    with pytest.raises(ConfigError, match="algorithm scaffold does not read gamma"):
        build_run(build_run_config(dict(_SYNTHETIC, algorithm="scaffold", gamma="2")))
    with pytest.raises(ConfigError, match="algorithm fedavg does not read mu"):
        build_run(build_run_config(dict(_SYNTHETIC, mu="0.5")))
    with pytest.raises(ConfigError, match="multiple of k_bar"):
        build_run(build_run_config(dict(_SYNTHETIC, n_clients="5", objective="quadratic",
                                        centers="0;0;0;0;0", pattern="cyclic", k_bar="2")))
    # the engine takes the client count as build_run matched it
    with pytest.raises(ConfigError) as exc:
        build_run(_quad(n_clients=3))
    assert str(exc.value) == "config n_clients = 3, but the quadratic objective has 2 clients."


# After build_run's check the engine re-checks none of these keys.
@pytest.mark.parametrize("key, value, message", [
    ("rounds", "-1", "rounds must be >= 0."),
    ("local_steps", "0", "local_steps must be >= 1."),
    ("gamma", "0.5", "gamma must be >= 1."),
    ("mu", "-1", "mu must be >= 0."),
    ("eval_every", "-1", "eval_every must be >= 1."),
    ("eval_every", "0", "eval_every must be >= 1."),
    ("cv_init", "cold", "unknown cv_init mode: 'cold'"),
])
def test_build_run_rejects_a_run_loop_or_algorithm_key_out_of_range(key, value, message):
    with pytest.raises(ConfigError) as exc:
        build_run(_quad(**{key: value}))
    assert str(exc.value) == message


def test_eval_every_defaults_to_20_for_every_objective():
    # build_run fills nothing in: a run reads its config as written.
    for objective in ({"objective": "synthetic_hard"},
                      {"objective": "quadratic", "centers": "1; 3"},
                      {"objective": "logistic", "blob_samples": "40", "blob_classes": "3",
                       "blob_features": "4"}):
        cfg = build_run_config(dict(_SYNTHETIC, rounds="45", **objective))
        assert run_once(cfg).rounds == [0, 20, 40, 45], objective["objective"]
    assert set(harness.OBJECTIVES) == {"synthetic_hard", "quadratic", "logistic"}


def test_blob_dataset_split():
    cfg = build_run_config({
        "n_clients": "4", "rounds": "1", "algorithm": "fedavg", "eta": "0.1",
        "objective": "logistic", "dataset": "blob", "blob_samples": "200",
        "blob_classes": "3", "blob_features": "4", "blob_test_samples": "50",
    })
    train, test = load_dataset(cfg)
    assert train[0].shape == (200, 4) and train[1].shape == (200,)
    assert test[0].shape == (50, 4)
    assert not np.array_equal(train[0][:50], test[0])
    cfg_no_test = build_run_config({
        "n_clients": "4", "rounds": "1", "algorithm": "fedavg", "eta": "0.1",
        "objective": "logistic", "dataset": "blob", "blob_samples": "200",
        "blob_classes": "3", "blob_features": "4",
    })
    assert load_dataset(cfg_no_test)[1] is None


@pytest.mark.parametrize("test_samples", ["0", "100"])
def test_a_blob_run_trains_the_classes_its_config_sets(test_samples):
    # make_blobs labels sample k with k % blob_classes, so 8 training samples
    # hold only 8 of the 10 classes, while a held-out set of 100 holds all 10.
    cfg = build_run_config({
        "n_clients": "2", "s_clients": "2", "rounds": "1", "algorithm": "fedavg", "eta": "0.1",
        "objective": "logistic", "dataset": "blob", "blob_samples": "8", "blob_classes": "10",
        "blob_features": "8", "blob_test_samples": test_samples,
    })
    objective, _ = build_run(cfg)
    assert (objective.num_classes, objective.dim) == (10, 90)
    assert run_once(cfg).rounds == [0, 1]


def test_idx_dataset_needs_both_held_out_paths(tmp_path):
    paths = {name: str(tmp_path / f"{name}.idx") for name in ("images", "labels", "ti", "tl")}
    test = make_blobs(10, 2, 3, seed=0, stream_index=2)
    write_idx(paths["images"], paths["labels"], *make_blobs(40, 2, 3, seed=0))
    write_idx(paths["ti"], paths["tl"], *test)
    values = {"n_clients": "2", "rounds": "1", "algorithm": "fedavg", "eta": "0.1",
              "objective": "logistic", "dataset": "idx", "images_path": paths["images"],
              "labels_path": paths["labels"]}
    assert load_dataset(build_run_config(values))[1] is None
    both = build_run_config(dict(values, test_images_path=paths["ti"], test_labels_path=paths["tl"]))
    np.testing.assert_array_equal(load_dataset(both)[1][1], test[1])
    for key in ("test_images_path", "test_labels_path"):
        half = build_run_config(dict(values, **{key: paths["ti"]}))
        with pytest.raises(ConfigError, match="both test_images_path and test_labels_path"):
            load_dataset(half)


def _grid_spec(**base_extra) -> ExperimentSpec:
    base = {"n_clients": "2", "s_clients": "2", "rounds": "5", "algorithm": "fedavg",
            "objective": "quadratic", "centers": "1; 3", "sigma": "0", "eval_every": "5"}
    base.update({k: str(v) for k, v in base_extra.items()})
    return ExperimentSpec(
        base=base,
        grid={"eta": ["0.05", "0.2"], "local_steps": ["1", "2"]},
        seeds=[0, 1],
    )


def test_grid_expands_in_key_order_and_aggregates():
    results = run_grid(_grid_spec())
    assert [c.cell_id for c in results] == [0, 1, 2, 3]
    assert [c.overrides for c in results] == [
        {"eta": "0.05", "local_steps": "1"},
        {"eta": "0.05", "local_steps": "2"},
        {"eta": "0.2", "local_steps": "1"},
        {"eta": "0.2", "local_steps": "2"},
    ]
    for cell in results:
        # no noise, so the two seeds coincide
        assert cell.std_final_loss == 0.0
        assert math.isnan(cell.mean_rounds_to_target)
        assert cell.diverged_runs == 0
    # The largest step and the most local steps end lowest on the noiseless
    # quadratic.
    assert min(results, key=lambda c: c.mean_final_loss).overrides == {"eta": "0.2",
                                                                       "local_steps": "2"}


@pytest.mark.parametrize("grid, error, message", [
    ({"eta": ["0.1", "-1"]}, ConfigError, "eta must be > 0"),
    ({"sigma": ["0", "-1"]}, ValueError, "sigma must be >= 0"),
    ({"n_clients": ["2", "3"]}, ConfigError, "n_clients = 3"),
    ({"bogus": ["1"]}, ConfigError, "unknown config key: 'bogus'"),
], ids=["run-key", "objective-key", "n-clients", "unknown-key"])
def test_grid_checks_every_config_before_the_first_run(monkeypatch, grid, error, message):
    calls = []
    monkeypatch.setattr(harness, "simulate", lambda *run: calls.append(run))
    # The base leaves the grid's key to the grid: a key set in both is an error.
    base = {key: value for key, value in _grid_spec(eta=0.1).base.items() if key not in grid}
    spec = ExperimentSpec(base=base, grid=grid, seeds=[0, 1])
    with pytest.raises(error, match=message):
        run_grid(spec)
    assert calls == []


def test_grid_records_rounds_to_target():
    spec = _grid_spec(target_value=2.0, eval_every=1)
    results = run_grid(spec)
    hit = [c for c in results if not math.isnan(c.mean_rounds_to_target)]
    assert hit
    assert all(c.mean_rounds_to_target >= 0 for c in hit)
    keys = list(spec.grid)
    lines = grid_csv(results, keys).splitlines()
    assert lines[0] == "cell_id,eta,local_steps,mean_final_loss,std_final_loss,mean_rounds_to_target"
    assert len(lines) == 5
    assert lines[1].startswith("0,0.05,1,")


def _counted(counts: collections.Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class _DelegatingObjective:
    """Hands every attribute on to the built objective, of whose class it is
    no instance, as the traced benchmark's objective proxy does; it wraps
    only the four oracle methods, counting `stoch_grad_local` calls and
    `eval_global`, `grad_global` and `test_metric` calls together as
    "eval"."""

    def __init__(self, inner, counts: collections.Counter):
        self._inner = inner
        self.stoch_grad_local = _counted(counts, "stoch_grad_local", inner.stoch_grad_local)
        self.eval_global = _counted(counts, "eval", inner.eval_global)
        self.grad_global = _counted(counts, "eval", inner.grad_global)
        self.test_metric = _counted(counts, "eval", inner.test_metric)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _shipped_config(config_name: str, rounds: int | None = None) -> RunConfig:
    """A shipped config, cut to `rounds` rounds when given."""
    config = Path(__file__).resolve().parent.parent / "configs" / f"{config_name}.cfg"
    values = parse_config_text(config.read_text(encoding="utf-8"))
    if rounds is not None:
        values["rounds"] = str(rounds)
    return build_run_config(values)


def _counted_run(monkeypatch, config_name: str, rounds: int) -> collections.Counter:
    """Run a shipped config for `rounds` rounds, counting the calls at the
    boundaries the traced benchmark counts: the objective's oracle methods
    behind a delegating objective, `client_local_update` and
    `CyclicScheduler.sample_round`."""
    counts = collections.Counter()
    build = harness.build_objective
    monkeypatch.setattr(harness, "build_objective",
                        lambda cfg: _DelegatingObjective(build(cfg), counts))
    monkeypatch.setattr(algorithms, "client_local_update",
                        _counted(counts, "client_local_update", algorithms.client_local_update))
    monkeypatch.setattr(CyclicScheduler, "sample_round",
                        _counted(counts, "sample_round", CyclicScheduler.sample_round))
    run_once(_shipped_config(config_name, rounds))
    return counts


def test_desk_run_calls_the_oracle_once_per_local_step(monkeypatch):
    """The traced benchmark counts one `stoch_grad_local` call per local step
    and one `client_local_update` per sampled client; batching either call
    needs the benchmark's spans moved first."""
    counts = _counted_run(monkeypatch, "desk_amp_scaffold", 20)
    # 20 rounds x 10 sampled x 30 local steps, plus 50 clients x 30 warm-start
    # draws; three evaluation calls at each of the marks 0, 10 and 20.
    assert counts == {"stoch_grad_local": 20 * 10 * 30 + 50 * 30, "client_local_update": 20 * 10,
                      "sample_round": 20, "eval": 9}


def test_synthetic_run_calls_the_oracle_once_per_local_step(monkeypatch):
    """The synthetic twin of the desk count: S = 1, so one client update and
    one `sample_round` per round, even though the full group needs no draw."""
    counts = _counted_run(monkeypatch, "synthetic_amp_scaffold", 480)
    # 480 rounds x 1 sampled x 10 local steps, plus 2 clients x 10 warm-start
    # draws; three evaluation calls at each of the 25 marks 0, 20, ..., 480.
    assert counts == {"stoch_grad_local": 480 * 10 + 2 * 10, "client_local_update": 480,
                      "sample_round": 480, "eval": 75}


@pytest.mark.parametrize("config_name, rounds", [("desk_amp_scaffold", 20),
                                                 ("synthetic_scaffold", None)])
def test_a_delegating_objective_writes_the_same_bytes(monkeypatch, config_name, rounds):
    """The traced benchmark hands the run a proxy that is no instance of the
    objective's class; the run must not tell the two apart."""
    cfg = _shipped_config(config_name, rounds)
    plain = run_record_csv(run_once(cfg))
    build = harness.build_objective
    monkeypatch.setattr(harness, "build_objective",
                        lambda cfg: _DelegatingObjective(build(cfg), collections.Counter()))
    assert run_record_csv(run_once(cfg)) == plain
