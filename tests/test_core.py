import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsim import harness, participation
from fedsim.core import (
    ALGORITHM_KEYS,
    PURPOSES,
    ConfigError,
    ExperimentSpec,
    RunConfig,
    RunRecord,
    apply_overrides,
    build_experiment_spec,
    build_run_config,
    csv_text,
    format_value,
    gaussians_from,
    ndtri,
    parse_config_text,
    rng_stream,
    stream_uniforms,
)
from fedsim.harness import build_run

SRC = Path(__file__).resolve().parents[1] / "src"


def test_stream_is_reproducible():
    a = rng_stream(42, "gradient-noise", client=3, round_idx=7).random(16)
    b = rng_stream(42, "gradient-noise", client=3, round_idx=7).random(16)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("other", [
    dict(seed=43), dict(purpose="sampling"), dict(client=4), dict(round_idx=8),
])
def test_distinct_keys_give_distinct_streams(other):
    base = dict(seed=42, purpose="gradient-noise", client=3, round_idx=7)
    changed = dict(base, **other)
    a = rng_stream(base["seed"], base["purpose"], base["client"], base["round_idx"]).random(8)
    b = rng_stream(changed["seed"], changed["purpose"], changed["client"], changed["round_idx"]).random(8)
    assert not np.array_equal(a, b)


def test_streams_do_not_collide_at_scale():
    """A million draws across many (client, round) streams are all distinct."""
    blocks = []
    for client in range(20):
        for round_idx in range(10):
            blocks.append(rng_stream(0, "gradient-noise", client, round_idx).random(5000))
    values = np.concatenate(blocks)
    assert values.size == 1_000_000
    assert np.unique(values).size == values.size


_EDGES = (0, 7, 2**64 - 1)


@pytest.mark.parametrize("purpose", sorted(PURPOSES))
def test_stream_state_equals_philox_keyed_by_seed(purpose):
    """rng_stream builds exactly the Philox state `Philox(key=seed)` builds."""
    for seed in (0, 1, 2**64 - 1):
        for client in _EDGES:
            for round_idx in _EDGES:
                counter = (PURPOSES[purpose] << 192) | (client << 128) | (round_idx << 64)
                got = rng_stream(seed, purpose, client, round_idx).bit_generator.state
                want = np.random.Philox(key=seed, counter=counter).state
                assert got["bit_generator"] == want["bit_generator"] == "Philox"
                for field in ("counter", "key"):
                    assert got["state"][field].dtype == want["state"][field].dtype
                    assert np.array_equal(got["state"][field], want["state"][field])
                assert np.array_equal(got["buffer"], want["buffer"])
                for field in ("buffer_pos", "has_uint32", "uinteger"):
                    assert got[field] == want[field]
                draws = rng_stream(seed, purpose, client, round_idx).random(3)
                reference = np.random.Generator(np.random.Philox(key=seed, counter=counter)).random(3)
                assert draws.tobytes() == reference.tobytes()


def test_live_streams_with_one_key_share_no_state():
    first = rng_stream(3, "sampling", 2, 9)
    second = rng_stream(3, "sampling", 2, 9)
    first.random(5)
    assert second.random() == rng_stream(3, "sampling", 2, 9).random()


def test_uniforms_are_uniform():
    u = rng_stream(123, "sampling").random(100_000)
    counts, _ = np.histogram(u, bins=100, range=(0.0, 1.0))
    expected = 1000.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    # chi-square with 99 degrees of freedom: mean 99, sd sqrt(198)
    assert abs(stat - 99.0) <= 3.0 * math.sqrt(198.0)


def test_gaussian_moments():
    z = gaussians_from(rng_stream(7, "gradient-noise").random(100_000), 1.0)
    assert abs(float(z.mean())) < 0.02
    assert 0.98 < float(z.var()) < 1.02


def test_gaussian_sigma_zero_is_exact():
    z = gaussians_from(rng_stream(5, "gradient-noise").random(6), 0.0)
    assert z.tobytes() == np.zeros(6).tobytes()


def test_ndtri_returns_the_bits_of_scipy():
    from scipy.special import ndtri as scipy_ndtri

    # exp(-2) bounds the central branch on both sides. Near exp(-32) the
    # tail switches from the P1/Q1 to the P2/Q2 rational function where
    # sqrt(-2 log y) reaches 8.0, which y's nearest neighbours all round
    # to, so that edge is crossed by a sweep of about 100 ulps each way.
    edges = [math.exp(-2), 1.0 - math.exp(-2), math.exp(-32)]
    far = math.exp(-32) * (1.0 + np.linspace(-1e-13, 1e-13, 201))
    x = np.sqrt([-2.0 * math.log(v) for v in far])
    assert (x < 8.0).any() and (x >= 8.0).any()
    y = np.concatenate([
        np.maximum(rng_stream(21, "gradient-noise", 4, 2).random(1_000_000), 2.0 ** -53),
        [2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), far,
    ])
    got = ndtri(y)
    assert np.isfinite(got).all()
    assert got.view(np.uint64).tolist() == scipy_ndtri(y).view(np.uint64).tolist()


def test_ndtri_keeps_the_shape_and_rejects_the_ends():
    y = rng_stream(2, "gradient-noise").random(24).reshape(2, 3, 4)
    assert ndtri(y).tobytes() == ndtri(y.ravel()).tobytes()
    assert ndtri(y).shape == (2, 3, 4)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            ndtri([0.25, bad])


def _fresh_interpreter(code: str) -> dict:
    """Run `code` in a new interpreter with src/ first on the path and
    return the JSON object it prints last."""
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_fedsim_does_not_load_scipy():
    got = _fresh_interpreter(
        "import json, fedsim, fedsim.cli\n"
        "print(json.dumps({'loaded': 'scipy.special' in sys.modules}))")
    assert got == {"loaded": False}


def test_verify_does_not_load_scipy(tmp_path):
    argv = ["verify", "--pattern", "cyclic", "--n", "12", "--k-bar", "3", "--s", "2",
            "--trials", "20", "--out", str(tmp_path)]
    got = _fresh_interpreter(
        "import json\nfrom fedsim import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'loaded': 'scipy.special' in sys.modules}))")
    assert got == {"code": 0, "loaded": False}
    assert (tmp_path / "verify.csv").exists()


def test_runs_never_import_scipy(tmp_path):
    # Every noisy run maps its uniforms through `ndtri`, and the desk run
    # also draws its blob features through it.
    configs = Path(__file__).resolve().parents[1] / "configs"
    argvs = [["run", "--config", str(configs / f"{name}.cfg"), "--override", "rounds=30",
              "--out", str(tmp_path / name)]
             for name in ("desk_amp_scaffold", "synthetic_amp_scaffold")]
    got = _fresh_interpreter(
        f"import json\nfrom fedsim import cli\ncodes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps({'codes': codes, 'scipy': sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')}))")
    assert got == {"codes": [0, 0], "scipy": []}
    for name in ("desk_amp_scaffold", "synthetic_amp_scaffold"):
        assert (tmp_path / name / "run.csv").exists()


def test_batched_draws_equal_sequential_draws():
    # The k-th draw of a stream is the value addressed by step k, however
    # the draws are grouped into calls.
    batch = rng_stream(11, "sampling", client=2, round_idx=9).random(7)
    rng = rng_stream(11, "sampling", client=2, round_idx=9)
    sequential = np.array([rng.random() for _ in range(7)])
    assert np.array_equal(batch, sequential)


_U64_MAX = 2**64 - 1


@pytest.mark.parametrize("purpose", sorted(PURPOSES))
@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 5, _U64_MAX])
def test_stream_uniforms_equal_each_streams_first_draws(seed, purpose):
    # An n that is not a multiple of 4 leaves unused words at the end of the
    # last Philox block of every row.
    clients = [0, 1, 7, 2**32, 2**63, _U64_MAX, 5]
    rounds = [0, _U64_MAX, 3, 2**32 + 1, 9, _U64_MAX, 2**63]
    for n in (1, 3, 4, 5, 10, 30):
        got = stream_uniforms(seed, purpose, clients, rounds, n)
        want = np.stack([rng_stream(seed, purpose, c, r).random(n) for c, r in zip(clients, rounds)])
        assert got.shape == want.shape == (len(clients), n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stream_uniforms_of_an_empty_batch():
    got = stream_uniforms(3, "gradient-noise", [], [], 5)
    assert got.shape == (0, 5) and got.dtype == np.float64


def test_stream_uniforms_key_checks():
    with pytest.raises(ValueError):
        stream_uniforms(0, "no-such-purpose", [0], [0], 1)
    with pytest.raises(ValueError):
        stream_uniforms(1 << 64, "sampling", [0], [0], 1)
    with pytest.raises(ValueError):
        stream_uniforms(0, "sampling", [0, 1], [0], 1)


def test_stream_key_range_checks():
    with pytest.raises(ValueError):
        rng_stream(-1, "sampling")
    with pytest.raises(ValueError):
        rng_stream(0, "sampling", client=1 << 64)
    with pytest.raises(ValueError):
        rng_stream(0, "no-such-purpose")


def test_numpy_integer_keys_address_the_same_stream():
    want = rng_stream(0, "gradient-noise", 3, 7).random(4)
    got = rng_stream(np.uint64(0), "gradient-noise", np.int64(3), np.int64(7)).random(4)
    assert np.array_equal(got, want)
    with pytest.raises(TypeError):
        rng_stream(0, "gradient-noise", 3.0, 7)


# ---------------------------------------------------------------------------
# Configuration


BASE = {
    "n_clients": "2",
    "rounds": "10",
    "algorithm": "fedavg",
    "eta": "0.1",
    "objective": "synthetic_hard",
}


def test_parse_config_text_comments_and_duplicates():
    text = """
    # leading comment
    n_clients = 4   # trailing comment
    eta = 0.1
    eta = 0.2
    """
    values = parse_config_text(text)
    assert values == {"n_clients": "4", "eta": "0.2"}


def test_parse_config_text_rejects_malformed_line():
    with pytest.raises(ConfigError):
        parse_config_text("n_clients 4")
    with pytest.raises(ConfigError):
        parse_config_text("= 4")


def test_overrides_later_wins():
    values = apply_overrides({"eta": "0.1"}, ["eta=0.2", "eta=0.3", "seed=5"])
    assert values == {"eta": "0.3", "seed": "5"}
    with pytest.raises(ConfigError):
        apply_overrides({}, ["eta0.2"])


def test_build_run_config_errors():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_run_config(dict(BASE, nonsense="1"))
    with pytest.raises(ConfigError, match="missing required"):
        build_run_config({k: v for k, v in BASE.items() if k != "eta"})
    with pytest.raises(ConfigError, match="cannot parse"):
        build_run_config(dict(BASE, rounds="ten"))


# The keys the run loop itself reads. Every other RunConfig field is read by
# the choice a table names: an algorithm, a pattern, or an objective or its
# dataset kind.
RUN_LOOP_KEYS = ("n_clients", "rounds", "local_steps", "algorithm", "eta", "pattern",
                 "objective", "seed", "eval_every", "target_value")


def test_every_config_key_has_exactly_one_owner():
    # A field with no owner would pass every unread-key rule whatever its
    # value, and a field with two owners would be rejected by one of them.
    owners = {
        "run loop": RUN_LOOP_KEYS,
        "core.ALGORITHM_KEYS": tuple(key for keys in ALGORITHM_KEYS.values() for key in keys),
        "participation table": participation._PARTICIPATION_KEYS,
        "objective and data tables": harness._OBJECTIVE_KEYS,
    }
    fields = [field.name for field in dataclasses.fields(RunConfig)]
    owned_by = {name: [owner for owner, keys in owners.items() if name in keys] for name in fields}
    assert {name: found for name, found in owned_by.items() if len(found) != 1} == {}
    assert {key for keys in owners.values() for key in keys} <= set(fields)


def test_regularized_pattern_rejects_s_clients():
    values = dict(BASE, n_clients="8", objective="quadratic", centers="0;0;0;0;0;0;0;0",
                  pattern="regularized", window_p="4")
    assert build_run_config(values).s_clients == 1
    with pytest.raises(ConfigError, match="does not read s_clients"):
        build_run(build_run_config(dict(values, s_clients="7")))


def test_experiment_grid_expansion_order():
    spec = ExperimentSpec(base={}, grid={"eta": ["a", "b"], "gamma": ["1", "2", "3"]},
                          seeds=[0])
    cells = spec.cells()
    assert len(cells) == 6
    assert cells[0] == {"eta": "a", "gamma": "1"}
    assert cells[1] == {"eta": "a", "gamma": "2"}
    assert cells[-1] == {"eta": "b", "gamma": "3"}


def test_parse_experiment_text():
    def parse(text):
        return build_experiment_spec(parse_config_text(text))

    spec = parse("eta = 0.1\ngrid.gamma = 1, 2\nseeds = 0, 3\n")
    assert spec.base == {"eta": "0.1"}
    assert spec.grid == {"gamma": ["1", "2"]}
    assert spec.seeds == [0, 3]
    with pytest.raises(ConfigError, match="no grid"):
        parse("eta = 0.1")
    with pytest.raises(ConfigError, match="seeds"):
        parse("grid.eta = 1\nseeds = x")


def test_run_record_validation():
    with pytest.raises(ValueError, match="length"):
        RunRecord(rounds=[0, 1], grad_norms=[0.0], train_losses=[0.0, 0.0],
                  test_metrics=[0.0, 0.0], uplink_scalars=[0, 0])
    with pytest.raises(ValueError, match="increasing"):
        RunRecord(rounds=[0, 0], grad_norms=[0.0, 0.0], train_losses=[0.0, 0.0],
                  test_metrics=[0.0, 0.0], uplink_scalars=[0, 0])
    record = RunRecord(rounds=[0], grad_norms=[1.0], train_losses=[2.5],
                       test_metrics=[float("nan")], uplink_scalars=[0])
    assert record.final_loss == 2.5


def test_format_value_round_trips():
    assert format_value(3) == "3"
    assert format_value(0.1) == "0.1"
    assert format_value(1e-05) == "1e-05"
    assert format_value(float("nan")) == "nan"
    assert float(format_value(1 / 3)) == 1 / 3


def test_csv_text_writes_strings_as_given_and_numbers_in_round_trip_form():
    assert csv_text("h", []) == "h\n"
    rows = [["0.10", 3, np.int64(4), 1 / 3], ["x", 0.1, float("nan"), float("inf")]]
    assert csv_text("a,b,c,d", rows) == (
        "a,b,c,d\n0.10,3,4,0.3333333333333333\nx,0.1,nan,inf\n")
