import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsim.core import (
    PURPOSES,
    ConfigError,
    ExperimentSpec,
    RunConfig,
    RunRecord,
    apply_overrides,
    build_run_config,
    format_value,
    gaussians_from,
    parse_config_text,
    parse_experiment_text,
    rng_stream,
    validate_run_config,
)

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
    z = gaussians_from(rng_stream(7, "gradient-noise"), 100_000, 1.0)
    assert abs(float(z.mean())) < 0.02
    assert 0.98 < float(z.var()) < 1.02


def test_gaussian_sigma_zero_is_exact_and_consumes_the_stream():
    rng = rng_stream(5, "gradient-noise")
    z = gaussians_from(rng, 6, 0.0)
    assert np.array_equal(z, np.zeros(6))
    # the zeros still advanced the stream by six draws
    tail = rng.random(2)
    reference = rng_stream(5, "gradient-noise").random(8)[6:]
    assert np.array_equal(tail, reference)


def test_gaussian_rejects_negative_sigma():
    with pytest.raises(ValueError):
        gaussians_from(rng_stream(0, "gradient-noise"), 1, -0.5)


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


def test_first_gaussian_draw_loads_scipy_and_keeps_its_bits():
    got = _fresh_interpreter("""
import json
import numpy as np
from fedsim.core import _MIN_UNIFORM, gaussian_from, gaussians_from, rng_stream
before = 'scipy.special' in sys.modules
rng = rng_stream(0, "gradient-noise")
value = gaussian_from(rng, 1.0)
after = 'scipy.special' in sys.modules
more = [gaussian_from(rng, 0.7) for _ in range(200)]
batch = gaussians_from(rng_stream(3, "gradient-noise", 1, 2), 200, 2.5)
import scipy.special
twin = np.maximum(rng_stream(0, "gradient-noise").random(201), _MIN_UNIFORM)
us = np.maximum(rng_stream(3, "gradient-noise", 1, 2).random(200), _MIN_UNIFORM)
print(json.dumps({
    "before": before, "after": after,
    "first": np.float64(value).tobytes() == np.float64(1.0 * scipy.special.ndtri(twin[0])).tobytes(),
    "more": np.array(more).tobytes() == (0.7 * scipy.special.ndtri(twin[1:])).tobytes(),
    "batch": batch.tobytes() == (2.5 * scipy.special.ndtri(us)).tobytes(),
}))
""")
    assert got == {"before": False, "after": True, "first": True, "more": True, "batch": True}


def test_batched_draws_equal_sequential_draws():
    # The k-th draw of a stream is the value addressed by step k, however
    # the draws are grouped into calls.
    batch = rng_stream(11, "sampling", client=2, round_idx=9).random(7)
    rng = rng_stream(11, "sampling", client=2, round_idx=9)
    sequential = np.array([rng.random() for _ in range(7)])
    assert np.array_equal(batch, sequential)


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


def test_validation_rejects_inconsistent_combinations():
    with pytest.raises(ConfigError):
        validate_run_config(RunConfig(n_clients=2, rounds=1, algorithm="sgd", eta=0.1,
                                      objective="quadratic", centers="0"))
    with pytest.raises(ConfigError, match="gamma = 1"):
        build_run_config(dict(BASE, algorithm="scaffold", gamma="2"))
    with pytest.raises(ConfigError, match="fedprox"):
        build_run_config(dict(BASE, mu="0.5"))
    with pytest.raises(ConfigError, match="multiple of k_bar"):
        build_run_config(dict(BASE, n_clients="5", objective="quadratic",
                              centers="0;0;0;0;0", pattern="cyclic", k_bar="2"))


def test_regularized_pattern_rejects_s_clients():
    values = dict(BASE, n_clients="8", objective="quadratic", centers="0;0;0;0;0;0;0;0",
                  pattern="regularized", window_p="4")
    assert build_run_config(values).s_clients == 1
    with pytest.raises(ConfigError, match="does not read s_clients"):
        build_run_config(dict(values, s_clients="7"))


def test_eval_every_defaults_by_objective():
    cfg = build_run_config(BASE)
    assert cfg.eval_every == 20
    logistic = build_run_config(dict(BASE, objective="logistic"))
    assert logistic.eval_every == 10
    explicit = build_run_config(dict(BASE, eval_every="7"))
    assert explicit.eval_every == 7


def test_experiment_grid_expansion_order():
    spec = ExperimentSpec(base={}, grid={"eta": ["a", "b"], "gamma": ["1", "2", "3"]},
                          seeds=[0])
    cells = spec.cells()
    assert len(cells) == 6
    assert cells[0] == {"eta": "a", "gamma": "1"}
    assert cells[1] == {"eta": "a", "gamma": "2"}
    assert cells[-1] == {"eta": "b", "gamma": "3"}


def test_parse_experiment_text():
    spec = parse_experiment_text("eta = 0.1\ngrid.gamma = 1, 2\nseeds = 0, 3\n")
    assert spec.base == {"eta": "0.1"}
    assert spec.grid == {"gamma": ["1", "2"]}
    assert spec.seeds == [0, 3]
    with pytest.raises(ConfigError, match="no grid"):
        parse_experiment_text("eta = 0.1")
    with pytest.raises(ConfigError, match="unknown config key in grid"):
        parse_experiment_text("grid.bogus = 1, 2")
    with pytest.raises(ConfigError, match="seeds"):
        parse_experiment_text("grid.eta = 1\nseeds = x")


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
