import collections
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from fedsim import ALGORITHMS, cli, harness
from fedsim.cli import build_parser, main
from fedsim.core import ConfigError, RunConfig, build_run_config
from fedsim.data import make_blobs
from fedsim.diagnostics import assumption_suite, checks_csv
from fedsim.harness import build_run
from fedsim.objectives import SyntheticHard
from fedsim.participation import CyclicScheduler, ScaScheduler

from checks import patch_sca, pattern_scheduler, write_idx

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

QUAD_CFG = """\
# small deterministic run
n_clients = 2
s_clients = 2
rounds = 6
algorithm = fedavg
eta = 0.1
objective = quadratic
centers = 1; 3
sigma = 0
eval_every = 3
"""

LOGISTIC_CFG = """\
n_clients = 4
s_clients = 4
rounds = 2
algorithm = fedavg
eta = 0.5
objective = logistic
dataset = blob
blob_samples = 200
blob_classes = 3
blob_features = 4
similarity = 50
"""

# The logistic run without its data keys, for configs that pick the data.
LOGISTIC_RUN_CFG = LOGISTIC_CFG.split("dataset = blob")[0]

# A logistic run on IDX files in the working directory, its held-out pair
# short of test_labels_path.
IDX_CFG = LOGISTIC_RUN_CFG + """\
dataset = idx
images_path = train-images.idx
labels_path = train-labels.idx
test_images_path = empty-images.idx
"""

SYNTHETIC_CFG = """\
n_clients = 2
rounds = 2
algorithm = fedavg
eta = 0.1
objective = synthetic_hard
"""

# The quadratic run without its eta, for grids that sweep eta.
QUAD_GRID_BASE = QUAD_CFG.replace("eta = 0.1\n", "")

GRID_CFG = QUAD_GRID_BASE + """\
grid.eta = 0.05, 0.2
seeds = 0, 1
"""


# The shipped desk run on 20000 clients, each group large enough to sample 4000.
DESK_WIDE_CFG = (CONFIGS / "desk_fedavg.cfg").read_text().replace(
    "s_clients = 10", "s_clients = 4000")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parser_identity():
    parser = build_parser()
    assert parser.prog == "fedsim"
    with pytest.raises(SystemExit):
        main([])


def test_docs_name_exactly_the_registered_subcommands():
    # README's CLI block and the module docstring list the subcommands by hand.
    registered = re.search(r"\{(.*?)\}", build_parser().format_usage()).group(1).split(",")
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI\n", 1)[1].split("```")[1]
    in_readme = [line.split()[1] for line in block.splitlines() if line.startswith("fedsim ")]
    listed = cli.__doc__.split("Subcommands:", 1)[1].split("\n\n", 1)[0]
    in_docstring = re.findall(r"([\w-]+) \(", listed)
    assert sorted(in_readme) == sorted(in_docstring) == sorted(registered)


def test_readme_config_format_names_exactly_the_run_config_fields():
    # The section lists the required keys, the bulleted keys and "the knobs
    # listed above", the `Knobs:` of each objective; a key removed from
    # RunConfig must leave the docs with it.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    objectives = readme.split("\n## Objectives\n", 1)[1].split("\n## ", 1)[0]
    knobs = {name for listed in re.findall(r"Knobs: ([^.]*)\.", objectives)
             for name in re.findall(r"`(\w+)`", listed)}
    section = readme.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    required = re.search(r"Required keys: ([^.]*)\.", section).group(1)
    bullets = section.split("Commonly set:\n\n", 1)[1].split("\n\n", 1)[0]
    assert "the knobs listed above" in bullets
    named = re.findall(r"`(\w+)`", required + bullets)
    assert len(named) == len(set(named)) and not knobs & set(named)
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert sorted(knobs | set(named)) == sorted(fields)


def test_run_writes_csv_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", QUAD_CFG)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "run: algorithm=fedavg objective=quadratic pattern=iid rounds=6" in captured.out
    assert "final: round=6" in captured.out
    assert f"wrote {out / 'run.csv'}" in captured.out
    lines = (out / "run.csv").read_text().splitlines()
    assert lines[0] == "round,grad_norm,train_loss,test_metric,uplink_scalars"
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "3", "6"]


def test_run_override_changes_the_config(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", QUAD_CFG)
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
               "--override", "algorithm=fedprox", "--override", "mu=10.0"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "algorithm=fedprox" in captured.out
    assert "mu=10.0" in captured.out


# An override is read as one more config line: `#` starts a comment, a
# blank override is skipped, and one without `=` is a malformed line.
@pytest.mark.parametrize("override, rc, line", [
    ("eta=0.2 # try", 0, "eta=0.2"),
    ("", 0, "eta=0.1"),
    ("eta0.2", 2, "error: line 1: expected 'key = value', got 'eta0.2'"),
], ids=["comment", "blank", "malformed"])
def test_run_reads_an_override_as_a_config_line(tmp_path, capsys, override, rc, line):
    cfg = _write(tmp_path, "run.cfg", QUAD_CFG)
    assert main(["run", "--config", cfg, "--override", override,
                 "--out", str(tmp_path / "o")]) == rc
    captured = capsys.readouterr()
    if rc:
        assert captured.err == line + "\n"
        assert not (tmp_path / "o" / "run.csv").exists()
    else:
        assert f" {line} " in captured.out.splitlines()[0]


def test_run_seed_flag_changes_the_bytes(tmp_path):
    cfg = _write(tmp_path, "run.cfg", QUAD_CFG)
    for seed, name in ((0, "a"), (0, "b"), (1, "c")):
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / name),
                   "--override", "sigma=1.0", "--override", f"seed={seed}"])
        assert rc == 0
    a = (tmp_path / "a" / "run.csv").read_bytes()
    assert a == (tmp_path / "b" / "run.csv").read_bytes()
    assert a != (tmp_path / "c" / "run.csv").read_bytes()


def test_run_reports_rounds_to_target(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", QUAD_CFG)
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
               "--override", "target_value=2.4"])
    assert rc == 0
    assert "rounds_to_target: " in capsys.readouterr().out
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o2"),
               "--override", "target_value=0.0"])
    assert rc == 0
    assert "rounds_to_target: none" in capsys.readouterr().out


def test_run_bad_inputs_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", QUAD_CFG)
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
               "--override", "bogus_key=1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    rc = main(["run", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    incomplete = _write(tmp_path, "partial.cfg", "n_clients = 2\nrounds = 1\n")
    rc = main(["run", "--config", incomplete, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing required" in capsys.readouterr().err


NOBODY_AVAILABLE = "error: no clients available at round 0 after 100 availability draws.\n"


def test_run_with_nobody_available_exits_2_and_writes_no_csv(monkeypatch, tmp_path, capsys):
    # `sca` with both availability probabilities at 0 builds, and its first
    # round can sample nobody.
    patch_sca(monkeypatch, p_active=0.0, p_inactive=0.0)
    text = QUAD_CFG.replace("s_clients = 2", "s_clients = 1") + "pattern = sca\n"
    out = tmp_path / "o"
    rc = main(["run", "--config", _write(tmp_path, "sca.cfg", text), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == NOBODY_AVAILABLE
    assert not (out / "run.csv").exists()


# A run that diverges still exits 0: its rows stop at the last finite mark,
# and its summary says so.
@pytest.mark.parametrize("config, overrides, rows, line", [
    # eta = 1 leaves the finite range before the first mark after round 0
    (CONFIGS / "synthetic_fedavg.cfg", ["eta=1"], ["0"],
     "warning: trajectory left the finite range and was truncated."),
    # the start model's loss 0.5 * (1e200)^2 overflows already at round 0
    (None, ["centers=1e200; -1e200"], [], "final: no finite evaluation"),
], ids=["after-round-0", "at-round-0"])
def test_run_reports_a_divergence(tmp_path, capsys, config, overrides, rows, line):
    config = config or _write(tmp_path, "run.cfg", QUAD_CFG)
    flags = [arg for item in overrides for arg in ("--override", item)]
    rc = main(["run", "--config", str(config), *flags, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert line in out
    assert "warning: trajectory left the finite range and was truncated." in out
    lines = (tmp_path / "o" / "run.csv").read_text().splitlines()
    assert lines[0] == "round,grad_norm,train_loss,test_metric,uplink_scalars"
    assert [row.split(",")[0] for row in lines[1:]] == rows


# NaN passes every range check, so each of these ran to exit 0 (eta and h
# diverging silently) until non-finite values were rejected at parsing.
@pytest.mark.parametrize("key, value", [("mu", "nan"), ("eta", "nan"), ("h", "nan"), ("gamma", "inf")])
def test_run_rejects_a_non_finite_value_by_name(tmp_path, capsys, key, value):
    rc = main(["run", "--config", str(CONFIGS / "synthetic_amp_scaffold.cfg"), "--override", "rounds=40",
               "--override", f"{key}={value}", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: config key {key!r} must be finite, got {value!r}\n"


def test_run_accepts_a_nan_target_value(tmp_path, capsys):
    # target_value's NaN default means "no target".
    cfg = _write(tmp_path, "run.cfg", QUAD_CFG)
    assert main(["run", "--config", cfg, "--override", "target_value=nan",
                 "--out", str(tmp_path / "o")]) == 0
    assert "rounds_to_target" not in capsys.readouterr().out


# One bad objective or data key per case and the key its error names (None:
# the run is accepted). Each rule is checked by the code that reads the key.
@pytest.mark.parametrize("base, override, key", [
    (SYNTHETIC_CFG, "pattern=bogus", "pattern"),
    (SYNTHETIC_CFG, "objective=bogus", "objective"),
    (SYNTHETIC_CFG, "n_clients=4", "n_clients = 4, but the synthetic_hard objective has 2 clients"),
    (SYNTHETIC_CFG, "h=0", "h"),
    (SYNTHETIC_CFG, "mu_pl=0", "mu_pl"),
    (SYNTHETIC_CFG, "kappa=-1", "kappa"),
    (SYNTHETIC_CFG, "sigma=-1", "sigma"),
    (QUAD_CFG, "sigma=-1", "sigma"),
    (QUAD_CFG, "centers=", "centers"),
    (QUAD_CFG, "centers=1; 2; 3", "n_clients = 2, but the quadratic objective has 3 clients"),
    (QUAD_CFG, "centers=nan; 3", "centers"),
    (QUAD_CFG, "centers=,", "centers"),
    (LOGISTIC_CFG, "dataset=bogus", "dataset"),
    (LOGISTIC_RUN_CFG, "dataset=idx", "images_path"),
    (LOGISTIC_CFG, "similarity=101", "similarity"),
    # logistic has no penalty and draws one sample per step, so both keys
    # are unknown, named in quotes
    (LOGISTIC_CFG, "minibatch=1", "minibatch"),
    (LOGISTIC_CFG, "l2=0", "l2"),
    (IDX_CFG, "test_labels_path=empty-labels.idx", "the test set has no samples"),
    (DESK_WIDE_CFG, "n_clients=20000", "cannot split 10000 samples across 20000 clients"),
    # logistic never reads sigma
    (LOGISTIC_CFG, "sigma=-1", "objective logistic does not read sigma"),
], ids=["pattern", "objective", "synthetic-n_clients", "h", "mu_pl", "kappa", "synthetic-sigma",
        "quadratic-sigma", "centers-empty", "centers-count", "centers-nan", "centers-no-coordinates",
        "dataset", "idx-paths", "similarity", "minibatch", "l2", "empty-test-pair",
        "more-clients-than-samples", "logistic-sigma"])
def test_run_rejects_a_bad_objective_key_by_name(tmp_path, capsys, monkeypatch, base, override, key):
    # IDX_CFG's files: 200 training samples and a held-out pair with none.
    monkeypatch.chdir(tmp_path)
    write_idx("train-images.idx", "train-labels.idx", *make_blobs(200, 3, 4, seed=0))
    write_idx("empty-images.idx", "empty-labels.idx", np.zeros((0, 4)), np.zeros(0, dtype=int))
    cfg = _write(tmp_path, "run.cfg", base)
    rc = main(["run", "--config", cfg, "--override", override, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if key is None:
        assert (rc, err) == (0, "")
        return
    assert rc == 2
    assert err.startswith("error:")
    assert re.search(rf"\b{re.escape(key)}\b", err)


# A value other than the RunConfig default for every objective and data key,
# and the keys each objective, and each dataset kind of logistic, reads.
OBJECTIVE_KEY_VALUES = {
    "h": "2", "kappa": "2", "sigma": "0.5", "c": "2", "mu_pl": "3", "centers": "0; 1",
    "dataset": "idx", "similarity": "50", "blob_samples": "300",
    "blob_classes": "3", "blob_features": "5", "blob_test_samples": "10", "images_path": "x",
    "labels_path": "x", "test_images_path": "x", "test_labels_path": "x",
}
DATASET_READS = {"blob": ("blob_samples", "blob_classes", "blob_features", "blob_test_samples"),
                 "idx": ("images_path", "labels_path", "test_images_path", "test_labels_path")}
OBJECTIVE_READS = {
    "synthetic_hard": ("h", "kappa", "sigma", "c", "mu_pl"),
    "quadratic": ("centers", "sigma"),
    "logistic": ("dataset", "similarity", *DATASET_READS["blob"], *DATASET_READS["idx"]),
}


@pytest.mark.parametrize("objective, dataset", [
    ("synthetic_hard", None), ("quadratic", None), ("logistic", "blob"), ("logistic", "idx"),
], ids=["synthetic_hard", "quadratic", "logistic-blob", "logistic-idx"])
def test_run_rejects_a_key_its_objective_never_reads(tmp_path, capsys, objective, dataset):
    # Each key the objective, or its dataset kind, never reads exits 2 and is
    # named; a key it reads may fail on its value, but never as unread.
    base = {"synthetic_hard": SYNTHETIC_CFG, "quadratic": QUAD_CFG,
            "logistic": LOGISTIC_CFG}[objective]
    if dataset == "idx":
        images, labels = tmp_path / "train-images.idx", tmp_path / "train-labels.idx"
        write_idx(images, labels, *make_blobs(200, 3, 4, seed=0))
        base = (LOGISTIC_RUN_CFG + "dataset = idx\n"
                f"images_path = {images}\nlabels_path = {labels}\n")
    cfg = _write(tmp_path, "run.cfg", base)
    unread = {key: f"objective {objective}" for key in OBJECTIVE_KEY_VALUES
              if key not in OBJECTIVE_READS[objective]}
    for kind, keys in DATASET_READS.items():
        if dataset not in (None, kind):
            unread.update((key, f"dataset {dataset}") for key in keys)
    capsys.readouterr()
    for key, value in OBJECTIVE_KEY_VALUES.items():
        rc = main(["run", "--config", cfg, "--override", f"{key}={value}",
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if key in unread:
            assert (rc, err) == (2, f"error: {unread[key]} does not read {key}; leave it unset.\n")
        else:
            assert f"does not read {key};" not in err


# A value other than the RunConfig default for every algorithm key, and the
# keys each algorithm reads.
ALGORITHM_KEY_VALUES = {"mu": "0.5", "gamma": "2", "cv_init": "zero"}
ALGORITHM_READS = {"fedavg": (), "fedprox": ("mu",), "scaffold": ("cv_init",),
                   "amp_fedavg": ("gamma",), "amp_scaffold": ("gamma", "cv_init")}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_rejects_a_key_its_algorithm_never_reads(tmp_path, capsys, algorithm):
    # Each algorithm key the algorithm never reads exits 2 and is named; a
    # key it reads is never reported as unread.
    cfg = _write(tmp_path, "run.cfg", QUAD_CFG)
    for key, value in ALGORITHM_KEY_VALUES.items():
        rc = main(["run", "--config", cfg, "--override", f"algorithm={algorithm}",
                   "--override", f"{key}={value}", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if key in ALGORITHM_READS[algorithm]:
            assert f"does not read {key};" not in err
        else:
            assert (rc, err) == (2, f"error: algorithm {algorithm} does not read {key}; leave it unset.\n")


def test_grid_writes_csv_and_one_line_per_cell(tmp_path, capsys):
    cfg = _write(tmp_path, "grid.cfg", GRID_CFG)
    out = tmp_path / "out"
    rc = main(["grid", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == "grid: 2 cells x 2 seeds"
    assert [line.split(":")[0] for line in captured.out.splitlines()[1:]] == [
        "cell 0", "cell 1", f"wrote {out / 'grid.csv'}"]
    assert all(line.endswith(" diverged=0/2") for line in captured.out.splitlines()[1:3])
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "cell_id,eta,mean_final_loss,std_final_loss,mean_rounds_to_target"
    assert len(lines) == 3


def test_grid_prints_how_many_runs_of_a_cell_diverged(tmp_path, capsys):
    # eta = 1e8 multiplies the distance to the center by about 1e8 a step,
    # so the loss overflows within the 6 rounds of 30 steps.
    cfg = _write(tmp_path, "grid.cfg",
                 QUAD_GRID_BASE + "local_steps = 30\ngrid.eta = 0.05, 1e8\nseeds = 0, 1, 2\n")
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--out", str(out)]) == 0
    cells = capsys.readouterr().out.splitlines()[1:3]
    assert [line.split(" diverged=")[1] for line in cells] == ["0/3", "3/3"]
    assert (out / "grid.csv").read_text().splitlines()[0] == (
        "cell_id,eta,mean_final_loss,std_final_loss,mean_rounds_to_target")


@pytest.mark.parametrize("command", ["run", "grid"])
def test_the_seed_is_set_only_through_the_config(tmp_path, capsys, command):
    # `--override seed=N` (run) and `--override seeds=N` (grid) set it.
    cfg = _write(tmp_path, "grid.cfg", GRID_CFG if command == "grid" else QUAD_CFG)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_grid_without_grid_keys_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "plain.cfg", QUAD_CFG)
    rc = main(["grid", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (QUAD_CFG + "grid.eta = ,\n", "grid key 'eta' has no values."),
    (GRID_CFG.replace("seeds = 0, 1", "seeds = ,"), "seeds list is empty."),
], ids=["grid-values", "seeds"])
def test_grid_rejects_an_empty_list(tmp_path, capsys, text, message):
    rc = main(["grid", "--config", _write(tmp_path, "grid.cfg", text),
               "--out", str(tmp_path / "o")])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, message", [
    ("grid.eta = 0.1,,0.2", "grid key 'eta' has an empty field: '0.1,,0.2'"),
    ("grid.eta = , 0.1", "grid key 'eta' has an empty field: ', 0.1'"),
    ("seeds = 0,,1", "seeds list has an empty field: '0,,1'"),
    ("seeds = 0, 0", "seeds list repeats a seed: '0, 0'"),
    ("grid.eta = 0.1, 0.1", "grid cells 0 and 1 run the same config."),
    ("grid.eta = 0.2, 0.1, 1e-1", "grid cells 1 and 2 run the same config."),
], ids=["grid-empty-field", "grid-leading-empty", "seeds-empty-field", "seeds-repeat",
        "grid-repeat", "grid-equal-values"])
def test_grid_rejects_an_empty_field_or_a_repeat_before_any_cell(tmp_path, capsys, monkeypatch,
                                                                  line, message):
    # An empty field is not dropped and a repeat is not run twice without a word.
    def never(*run):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(harness, "simulate", never)
    text = QUAD_GRID_BASE + line + "\n" + ("" if "grid." in line else "grid.eta = 0.1\n")
    rc = main(["grid", "--config", _write(tmp_path, "grid.cfg", text),
               "--out", str(tmp_path / "o")])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert not (tmp_path / "o").exists()


def test_a_trailing_comma_ends_a_grid_list(tmp_path, capsys):
    text = QUAD_GRID_BASE + "grid.eta = 0.05, 0.2,\nseeds = 0, 1,\n"
    rc = main(["grid", "--config", _write(tmp_path, "grid.cfg", text),
               "--out", str(tmp_path / "o")])
    assert (rc, capsys.readouterr().out.splitlines()[0]) == (0, "grid: 2 cells x 2 seeds")


@pytest.mark.parametrize("extra, override, key", [
    ("seed = 7\n", [], "seed"),
    ("grid.seed = 3, 4\n", [], "grid.seed"),
    ("", ["--override", "seed=5"], "seed"),
], ids=["file", "grid", "override"])
def test_grid_rejects_a_seed_key_before_any_cell(tmp_path, capsys, monkeypatch, extra, override, key):
    def never(*run):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(harness, "simulate", never)
    cfg = _write(tmp_path, "grid.cfg", GRID_CFG + extra)
    rc = main(["grid", "--config", cfg, *override, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: a grid takes its seeds from 'seeds', not from {key}.\n")
    assert not (tmp_path / "o" / "grid.csv").exists()


@pytest.mark.parametrize("config, override", [
    (GRID_CFG + "eta = 0.5\n", []),
    (GRID_CFG, ["--override", "eta=0.5"]),
    ((CONFIGS / "grid_synthetic_scaffold.cfg").read_text(),
     ["--override", "eta=0.5", "--override", "rounds=40"]),
], ids=["file", "override", "shipped"])
def test_grid_rejects_a_key_set_in_the_base_and_the_grid(tmp_path, capsys, monkeypatch, config,
                                                         override):
    # Every cell would replace the base's eta without a word.
    def never(*run):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(harness, "simulate", never)
    rc = main(["grid", "--config", _write(tmp_path, "grid.cfg", config), *override,
               "--out", str(tmp_path / "o")])
    assert (rc, capsys.readouterr().err) == (
        2, "error: eta is set both in the base config and in grid.eta.\n")
    assert not (tmp_path / "o" / "grid.csv").exists()


@pytest.mark.parametrize("override, header, etas", [
    (["seeds=3"], "grid: 4 cells x 1 seeds", ["1e-06", "1e-05", "0.0001", "0.001"]),
    (["grid.eta=0.001"], "grid: 1 cells x 2 seeds", ["0.001"]),
], ids=["seeds", "grid-key"])
def test_grid_reads_an_override_as_a_line_of_the_experiment_file(tmp_path, capsys, override,
                                                                 header, etas):
    out = tmp_path / "o"
    rc = main(["grid", "--config", str(CONFIGS / "grid_synthetic_scaffold.cfg"),
               *(arg for value in override for arg in ("--override", value)),
               "--override", "rounds=40", "--out", str(out)])
    assert (rc, capsys.readouterr().out.splitlines()[0]) == (0, header)
    assert [line.split(",")[1] for line in (out / "grid.csv").read_text().splitlines()[1:]] == etas


def _count_inits(monkeypatch, *classes) -> collections.Counter:
    """Count the instances of each class built from here on, however the
    builder reached the class."""
    counts = collections.Counter()

    def counted(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)
        return wrapper

    for cls in classes:
        monkeypatch.setattr(cls, "__init__", counted(cls))
    return counts


@pytest.mark.parametrize("command, config, runs", [
    ("run", "synthetic_scaffold.cfg", 1),
    ("grid", "grid_synthetic_scaffold.cfg", 8),
])
def test_each_run_builds_one_scheduler_and_one_objective(tmp_path, capsys, monkeypatch, command,
                                                         config, runs):
    counts = _count_inits(monkeypatch, CyclicScheduler, SyntheticHard)
    rc = main([command, "--config", str(CONFIGS / config), "--override", "rounds=20",
               "--out", str(tmp_path)])
    assert rc == 0
    assert counts == {"CyclicScheduler": runs, "SyntheticHard": runs}


def test_verify_passes_on_iid(tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["verify", "--pattern", "iid", "--n", "8", "--s", "2",
               "--trials", "80", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "checks passed." in captured.out
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[0] == "check,statistic,expected,observed,pass"
    assert all(row.endswith(",True") for row in lines[1:])


@pytest.mark.parametrize("flags, scheduler", [
    (["--pattern", "iid", "--n", "10", "--s", "3"], pattern_scheduler("iid", 10, s_clients=3)),
    (["--pattern", "cyclic", "--n", "12", "--k-bar", "3", "--s", "2"],
     CyclicScheduler(12, 3, 2)),
    (["--pattern", "grouped_cyclic", "--n", "12", "--k-bar", "3", "--s", "2", "--g", "2"],
     CyclicScheduler(12, 3, 2, avail_rounds_g=2)),
    (["--pattern", "regularized", "--n", "12", "--window-p", "4"],
     pattern_scheduler("regularized", 12, window_p=4)),
    (["--pattern", "sca", "--n", "12", "--k-bar", "3", "--s", "2", "--g", "2"],
     ScaScheduler(12, 3, 2, 2)),
], ids=["iid", "cyclic", "grouped_cyclic", "regularized", "sca"])
def test_verify_flags_build_the_named_scheduler(tmp_path, capsys, flags, scheduler):
    rc = main(["verify", *flags, "--trials", "60", "--seed", "5", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc in (0, 1)
    expected = checks_csv(assumption_suite(scheduler, 60, seed=5))
    assert (tmp_path / "verify.csv").read_text() == expected


@pytest.mark.parametrize("flags, same_process", [
    (["--pattern", "regularized", "--n", "12", "--window-p", "4"],
     ["--pattern", "cyclic", "--n", "12", "--k-bar", "4", "--s", "3"]),
    (["--pattern", "iid", "--n", "8", "--s", "2"],
     ["--pattern", "cyclic", "--n", "8", "--k-bar", "1", "--s", "2"]),
], ids=["regularized", "iid"])
def test_verify_reports_one_process_alike_under_either_name(tmp_path, capsys, flags,
                                                            same_process):
    # regularized is cyclic participation in which every eligible client
    # takes part, and iid is cyclic participation with one group: each pair
    # samples the same windows, so it gets the same checks and the same report.
    reports = []
    for name, args in (("named", flags), ("cyclic", same_process)):
        rc = main(["verify", *args, "--trials", "60", "--seed", "2", "--out", str(tmp_path / name)])
        assert rc == 0
        reports.append((tmp_path / name / "verify.csv").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_verify_reports_regularized_exactness(tmp_path, capsys):
    rc = main(["verify", "--pattern", "regularized", "--n", "8", "--window-p", "2",
               "--trials", "40", "--out", str(tmp_path / "v")])
    assert rc == 0
    assert "regularized_qbar_exact" in capsys.readouterr().out


def test_verify_exit_1_on_failed_check(tmp_path, capsys):
    rc = main(["verify", "--pattern", "cyclic", "--n", "4", "--k-bar", "2",
               "--s", "1", "--trials", "1", "--out", str(tmp_path / "v")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.out
    assert (tmp_path / "v" / "verify.csv").exists()


def test_verify_bad_arguments_exit_2(monkeypatch, tmp_path, capsys):
    rc = main(["verify", "--pattern", "cyclic", "--n", "5", "--k-bar", "2",
               "--s", "1", "--trials", "10", "--out", str(tmp_path / "v")])
    assert rc == 2
    assert "k_bar" in capsys.readouterr().err
    rc = main(["verify", "--pattern", "iid", "--n", "4", "--s", "1",
               "--trials", "0", "--out", str(tmp_path / "v")])
    assert rc == 2
    capsys.readouterr()
    patch_sca(monkeypatch, p_active=0.0, p_inactive=0.0)
    rc = main(["verify", "--pattern", "sca", "--n", "8", "--k-bar", "2", "--s", "1",
               "--g", "1", "--trials", "10", "--out", str(tmp_path / "v")])
    assert rc == 2
    assert capsys.readouterr().err == NOBODY_AVAILABLE


VERIFY_FLAGS = {"n_clients": "--n", "s_clients": "--s", "k_bar": "--k-bar",
                "avail_rounds_g": "--g", "window_p": "--window-p"}


@pytest.mark.parametrize("pattern, keys, reason", [
    ("cyclic", {"n_clients": "6", "k_bar": "4"}, "multiple of k_bar"),
    ("grouped_cyclic", {"n_clients": "6", "k_bar": "3", "avail_rounds_g": "0"}, "avail_rounds_g"),
    ("regularized", {"n_clients": "5", "window_p": "2"}, "multiple of window_p"),
    ("iid", {"n_clients": "6", "s_clients": "7"}, "s_clients must be in"),
    ("iid", {"n_clients": "0"}, "n_clients must be >= 1"),
    ("regularized", {"n_clients": "12"}, "window_p must be >= 1."),
    ("regularized", {"n_clients": "12", "window_p": "-2"}, "window_p must be >= 1."),
    ("cyclic", {"n_clients": "12", "k_bar": "0"}, "k_bar must be >= 1."),
    ("cyclic", {"n_clients": "12", "k_bar": "-3"}, "k_bar must be >= 1."),
    # keys the pattern does not read
    ("grouped_cyclic", {"n_clients": "6", "k_bar": "3", "window_p": "3"}, "does not read window_p"),
    ("cyclic", {"n_clients": "6", "k_bar": "3", "avail_rounds_g": "2"},
     "does not read avail_rounds_g"),
    ("regularized", {"n_clients": "6", "window_p": "3", "k_bar": "2"}, "does not read k_bar"),
    ("regularized", {"n_clients": "6", "window_p": "3", "s_clients": "2"},
     "does not read s_clients"),
], ids=["cyclic", "grouped_cyclic", "regularized", "iid", "iid-n_clients",
        "regularized-window_p-unset", "regularized-window_p-negative", "cyclic-k_bar-0",
        "cyclic-k_bar-negative", "grouped_cyclic-window_p",
        "cyclic-avail_rounds_g", "regularized-k_bar", "regularized-s_clients"])
def test_run_config_and_verify_reject_bad_participation_alike(tmp_path, capsys, pattern, keys,
                                                              reason):
    flags = [arg for key, value in keys.items() for arg in (VERIFY_FLAGS[key], value)]
    rc = main(["verify", "--pattern", pattern, *flags, "--trials", "10", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert reason in err
    values = {"rounds": "1", "algorithm": "fedavg", "eta": "0.1", "objective": "quadratic",
              "centers": "0", "pattern": pattern, **keys}
    with pytest.raises(ConfigError) as exc:
        build_run(build_run_config(values))
    assert err == f"error: {exc.value}\n"


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("pattern, keys", [
    ("iid", {"n_clients": "5", "s_clients": "5"}),
    ("cyclic", {"n_clients": "12", "k_bar": "3", "s_clients": "2"}),
    ("grouped_cyclic", {"n_clients": "12", "k_bar": "3", "s_clients": "2", "avail_rounds_g": "2"}),
    ("regularized", {"n_clients": "12", "window_p": "4"}),
    ("sca", {"n_clients": "12", "k_bar": "3", "s_clients": "2", "avail_rounds_g": "2"}),
], ids=["iid", "cyclic", "grouped_cyclic", "regularized", "sca"])
def test_verify_rejects_a_seed_out_of_range_on_every_pattern(tmp_path, capsys, pattern, keys, seed):
    # iid with S = N and regularized take every eligible client and open no
    # sampling stream, so only the config check can reject their seed.
    flags = [arg for key, value in keys.items() for arg in (VERIFY_FLAGS[key], value)]
    rc = main(["verify", "--pattern", pattern, *flags, "--trials", "10", "--seed", str(seed),
               "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "verify.csv").exists()
    values = {"rounds": "1", "algorithm": "fedavg", "eta": "0.1", "objective": "quadratic",
              "centers": "0", "pattern": pattern, "seed": str(seed), **keys}
    with pytest.raises(ConfigError) as exc:
        build_run(build_run_config(values))
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert "seed" in str(exc.value)


def test_partition_report(tmp_path, capsys):
    cfg = _write(tmp_path, "log.cfg", LOGISTIC_CFG)
    out = tmp_path / "p"
    rc = main(["partition-report", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "shard sizes:" in captured.out
    lines = (out / "partition.csv").read_text().splitlines()
    assert lines[0] == "client,label,count"
    counts = [int(row.split(",")[2]) for row in lines[1:]]
    assert sum(counts) == 200


def test_partition_report_needs_logistic(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", QUAD_CFG)
    rc = main(["partition-report", "--config", cfg, "--out", str(tmp_path / "p")])
    assert rc == 2
    assert "logistic" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    (["sigma=-1", "h=0"], "objective logistic does not read h; leave it unset."),
    (["l2=0"], "unknown config key: 'l2'"),
    (["minibatch=1"], "unknown config key: 'minibatch'"),
    (["similarity=101"], "similarity is a percentage in [0, 100]."),
    (["dataset=bogus"], "unknown dataset kind: 'bogus'"),
    (["cv_init=zero"], "algorithm fedavg does not read cv_init; leave it unset."),
], ids=["unread_key", "l2", "minibatch", "similarity", "dataset", "cv_init"])
def test_partition_report_rejects_a_key_as_run_does(tmp_path, capsys, overrides, message):
    # Both commands validate the config and build the objective the same
    # way: a logistic config that sets keys only synthetic_hard reads, a
    # removed key, a data key out of range, or an algorithm key fedavg
    # never reads, exits 2 with the same message.
    cfg = _write(tmp_path, "log.cfg", LOGISTIC_CFG)
    flags = [arg for item in overrides for arg in ("--override", item)]
    results = []
    for command in ("run", "partition-report"):
        rc = main([command, "--config", cfg, *flags, "--out", str(tmp_path / command)])
        results.append((rc, capsys.readouterr().err))
    assert results[0] == results[1] == (2, f"error: {message}\n")
    assert not (tmp_path / "partition-report" / "partition.csv").exists()


@pytest.mark.parametrize("key, value", [("l2", "0"), ("minibatch", "1")])
def test_removed_logistic_keys_are_unknown_in_a_config_file(tmp_path, capsys, key, value):
    # Logistic has no penalty and draws one sample per step, so these keys
    # are gone: a config line with even the old default exits 2 rather
    # than pass silently. test_partition_report_rejects_a_key_as_run_does
    # covers them as overrides.
    cfg = _write(tmp_path, "log.cfg", LOGISTIC_CFG + f"{key} = {value}\n")
    for command in ("run", "partition-report"):
        out = tmp_path / command
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (2, f"error: unknown config key: {key!r}\n")
        assert not out.exists()


def test_run_rejects_a_negative_held_out_count(tmp_path, capsys):
    rc = main(["run", "--config", str(CONFIGS / "desk_fedavg.cfg"), "--override", "rounds=2",
               "--override", "blob_test_samples=-5", "--out", str(tmp_path)])
    assert rc == 2
    assert "held-out sample count" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_run_rejects_an_eval_every_of_0(tmp_path, capsys):
    # The schedule records a row every eval_every rounds; there is no 0 meaning "a default".
    rc = main(["run", "--config", _write(tmp_path, "run.cfg", QUAD_CFG), "--override",
               "eval_every=0", "--out", str(tmp_path / "o")])
    assert (rc, capsys.readouterr().err) == (2, "error: eval_every must be >= 1.\n")
    assert not (tmp_path / "o").exists()
