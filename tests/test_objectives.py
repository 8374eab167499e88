import math
from collections.abc import Sequence

import numpy as np
import pytest

from fedsim.core import gaussians_from, rng_stream, stream_uniforms
from fedsim.data import make_blobs, partition_by_similarity
from fedsim.objectives import Logistic, Quadratic, SyntheticHard

from checks import logistic_reference, softmax_loss_and_grad

X2_STAR = math.sqrt(2.0) / 4.0


class Recording(Sequence):
    """Noise values handed to an oracle that remember which positions it
    read; reading past the end raises IndexError, as a list does."""

    def __init__(self, values):
        self._values = list(values)
        self.read = set()

    def __len__(self):
        return len(self._values)

    def __getitem__(self, k):
        value = self._values[k]
        positions = range(len(self._values))
        self.read.update(positions[k] if isinstance(k, slice) else [positions[k]])
        return value

    def __iter__(self):
        self.read.update(range(len(self._values)))
        return iter(self._values)


def test_synthetic_values_at_origin():
    obj = SyntheticHard()
    x0 = np.zeros(4)
    assert obj.eval_local(0, x0) == 2.0
    assert obj.eval_local(1, x0) == 2.0
    assert obj.eval_global(x0) == 2.0


def test_synthetic_minimum_value():
    obj = SyntheticHard()
    x_star = np.array([1.0, X2_STAR, 0.0, 0.0])
    assert obj.eval_global(x_star) == 0.0
    assert obj.eval_local(0, x_star) == 0.0


def test_synthetic_global_gradient_at_origin():
    obj = SyntheticHard()
    g = obj.grad_global(np.zeros(4))
    np.testing.assert_allclose(g, [-2.0, -4.0 * math.sqrt(2.0), 0.0, 0.0], atol=1e-15)


def test_synthetic_one_sided_curvature():
    """The third coordinate is twice as curved on the positive side."""
    obj = SyntheticHard()
    down = obj.grad_local(0, np.array([0.0, 0.0, -1.0, 0.0]))[2]
    up = obj.grad_local(0, np.array([0.0, 0.0, 1.0, 0.0]))[2]
    assert down == -4.0
    assert up == 8.0
    at_kink = obj.grad_local(0, np.zeros(4))[2]
    assert at_kink == 0.0


def test_synthetic_opposite_linear_slopes():
    obj = SyntheticHard()
    x = np.zeros(4)
    assert obj.grad_local(0, x)[3] == 16.0
    assert obj.grad_local(1, x)[3] == -16.0
    assert obj.grad_global(x)[3] == 0.0


def test_synthetic_noise_only_on_third_coordinate():
    obj = SyntheticHard(sigma=1.0)
    x = np.array([0.3, -0.2, 0.7, 0.1])
    g = obj.stoch_grad_local(0, x, obj.noise(rng_stream(1, "gradient-noise").random(1)))
    exact = obj.grad_local(0, x)
    assert np.array_equal(g[[0, 1, 3]], exact[[0, 1, 3]])
    assert g[2] != exact[2]
    quiet = SyntheticHard(sigma=0.0)
    g0 = quiet.stoch_grad_local(0, x, quiet.noise(rng_stream(1, "gradient-noise").random(1)))
    assert np.array_equal(g0, quiet.grad_local(0, x))


def test_synthetic_gd_reaches_the_minimum():
    obj = SyntheticHard(sigma=0.0)
    x = np.zeros(4)
    for _ in range(4000):
        x = x - 0.05 * obj.grad_global(x)
    assert obj.eval_global(x) <= 1e-10


def test_synthetic_stoch_grad_is_unbiased():
    obj = SyntheticHard(sigma=1.0)
    x = np.array([0.5, 0.5, -0.5, 0.0])
    z = obj.noise(rng_stream(9, "gradient-noise").random(4000))
    draws = np.stack([obj.stoch_grad_local(1, x, z[k:k + 1]) for k in range(4000)])
    np.testing.assert_allclose(draws.mean(axis=0), obj.grad_local(1, x), atol=4.0 / math.sqrt(4000))


def _reference_synthetic_grad(obj, client, x):
    """SyntheticHard's gradient computed element by element on numpy scalars."""
    x = np.asarray(x, dtype=float)
    g = np.empty(4)
    g[0] = obj.mu_pl * (x[0] - obj.c)
    g[1] = obj.h * (x[1] - np.sqrt(obj.mu_pl) * obj.c / np.sqrt(obj.h))
    g[2] = 0.25 * obj.h * x[2]
    if x[2] > 0:
        g[2] += 0.25 * obj.h * x[2]
    g[3] = obj.kappa if client == 0 else -obj.kappa
    return g


@pytest.mark.parametrize("params", [{}, dict(kappa=0.25)])
@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_synthetic_oracle_matches_reference_math(params, sigma):
    obj = SyntheticHard(sigma=sigma, **params)
    for client in (0, 1):
        for x2 in (-1.5, -0.0, 0.0, 5e-324, 2.0):
            for head in ((0.3, -0.2), (1.0, obj._x2_star)):
                x = np.array([*head, x2, 1.1])
                assert obj.grad_local(client, x).tobytes() == _reference_synthetic_grad(obj, client, x).tobytes()
                rng = rng_stream(4, "gradient-noise", client, 11)
                for _ in range(3):
                    u = rng.random(1)
                    want = _reference_synthetic_grad(obj, client, x)
                    want[2] += gaussians_from(u, obj.sigma)[0]
                    recorded = Recording(obj.noise(u))
                    assert obj.stoch_grad_local(client, x, recorded).tobytes() == want.tobytes()
                    # each draw read exactly its one noise value
                    assert recorded.read == {0}


def test_quadratic_closed_form():
    obj = Quadratic(np.array([[1.0], [-1.0]]))
    x0 = np.zeros(1)
    assert obj.eval_global(x0) == 0.5
    assert obj.grad_global(x0)[0] == 0.0
    np.testing.assert_array_equal(obj.grad_local(0, x0), [-1.0])
    np.testing.assert_array_equal(obj.grad_local(1, x0), [1.0])


def test_quadratic_oracle_pins_the_bits_of_gradient_plus_noise():
    # No golden digest runs quadratic. The oracle computes (x - b_i) + z
    # itself; zero centers and -0.0 entries pin the sign of each zero.
    rng = rng_stream(8, "init")
    obj = Quadratic(np.hstack([np.zeros((5, 3)), rng.standard_normal((5, 4))]), sigma=0.7)
    for i in range(obj.n_clients):
        x = rng.standard_normal(obj.dim)
        x[[0, 1, 3]] = -0.0
        z = obj.noise(rng.random(obj.draws))
        z[[0, 2, 3]] = -0.0
        z[1] = 0.0
        z = z.tolist()
        want = (x - obj.centers[i]) + np.asarray(z)
        assert obj.stoch_grad_local(i, x, z).tobytes() == want.tobytes()
        assert math.copysign(1.0, want[0]) == -1.0 and math.copysign(1.0, want[1]) == 1.0


def test_quadratic_validation():
    with pytest.raises(ValueError):
        Quadratic(np.zeros((2, 2)), sigma=-1.0)
    obj = Quadratic(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape"):
        obj.eval_local(0, np.zeros(4))
    with pytest.raises(ValueError, match="client index"):
        obj.grad_local(2, np.zeros(3))


def _tiny_logistic():
    feats = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    labels = np.array([0, 1, 1, 0])
    shards = [(feats[:2], labels[:2]), (feats[2:], labels[2:])]
    return Logistic(shards, num_classes=2)


def test_logistic_loss_at_zero_is_log_classes():
    obj = _tiny_logistic()
    assert abs(obj.eval_global(np.zeros(obj.dim)) - math.log(2.0)) < 1e-15


def test_logistic_single_sample_stoch_grad_equals_full_grad():
    feats = np.array([[0.5, -1.0]])
    labels = np.array([1])
    obj = Logistic([(feats, labels)], num_classes=3)
    x = rng_stream(2, "init").random(obj.dim)
    g = obj.stoch_grad_local(0, x, rng_stream(3, "gradient-noise").random(1))
    np.testing.assert_allclose(g, obj.grad_local(0, x), atol=1e-15)


def test_logistic_validation_errors():
    feats = np.zeros((2, 3))
    labels = np.zeros(2, dtype=int)
    with pytest.raises(ValueError, match="client 0 has no samples"):
        Logistic([(np.zeros((0, 3)), np.zeros(0, dtype=int))], num_classes=2)
    with pytest.raises(ValueError, match="features"):
        Logistic([(feats, labels), (np.zeros((2, 4)), labels)], num_classes=2)
    # Indexing would wrap -1 to the last class; 2 would fail only at the
    # first gradient.
    for bad in ([0, -1], [0, 2]):
        with pytest.raises(ValueError, match=r"client 1 has labels outside \[0, 2\)"):
            Logistic([(feats, labels), (feats, np.array(bad))], num_classes=2)


def test_logistic_rejects_a_test_set_out_of_range():
    feats = np.zeros((2, 3))
    labels = np.zeros(2, dtype=int)
    # Such a held-out label would only ever count as a miss.
    for bad in ([0, -1], [0, 7]):
        with pytest.raises(ValueError, match=r"test set has labels outside \[0, 2\)"):
            Logistic([(feats, labels)], num_classes=2, test_set=(feats, np.array(bad)))


def test_logistic_rejects_a_test_set_with_other_features():
    feats = np.zeros((2, 3))
    labels = np.zeros(2, dtype=int)
    with pytest.raises(ValueError, match="test set has 4 features, expected 3"):
        Logistic([(feats, labels)], num_classes=2, test_set=(np.zeros((2, 4)), labels))


def test_logistic_test_metric():
    feats = np.array([[1.0], [0.0]])
    labels = np.array([1, 0])
    obj = Logistic([(feats, labels)], num_classes=2, test_set=(feats, labels))
    # weights that route feature 1 to class 1 strongly
    w = np.array([[0.0, 0.1], [5.0, -0.1]])
    assert obj.test_metric(w.ravel()) == 1.0
    assert math.isnan(Logistic([(feats, labels)], num_classes=2).test_metric(w.ravel()))


def test_logistic_gd_separates_blobs():
    features, labels = make_blobs(400, 4, 6, seed=2)
    shards = partition_by_similarity(features, labels, 2, 100.0, seed=2)
    obj = Logistic(shards, num_classes=4)
    x = np.zeros(obj.dim)
    for _ in range(300):
        x = x - 1.0 * obj.grad_global(x)
    accuracy = np.mean([
        np.mean(np.argmax(np.hstack([f, np.ones((len(y), 1))]) @ x.reshape(4, -1).T, axis=1) == y)
        for f, y in shards
    ])
    assert accuracy >= 0.95


def _reference_shards():
    """Shards of 1, 2, 37 and 260 rows of four-class blobs, every fourth
    feature row from row 3 on all zero."""
    features, labels = make_blobs(300, 4, 5, seed=4)
    features[3::4] = 0.0
    return [(features[:1], labels[:1]), (features[1:3], labels[1:3]),
            (features[3:40], labels[3:40]), (features[40:], labels[40:])]


# Saturating scales drive probabilities to exactly 0.0.
_REFERENCE_SCALES = (0.0, 1.0, 20.0, 1e3, 1e6)


def test_logistic_oracle_matches_reference_math():
    """Every oracle output equals the reference math bit for bit, and each
    stochastic gradient reads exactly its one uniform.

    Saturating scales drive probabilities to exactly 0.0, and all-zero
    feature rows make -0.0 products in the one-sample outer product, where
    the matrix product gives 0.0. The test asserts that the draws reach
    both cases."""
    shards = _reference_shards()
    scales = _REFERENCE_SCALES
    obj = Logistic(shards, num_classes=4)
    x_rng = rng_stream(5, "init", 1)
    reached = set()
    for trial in range(3 * len(shards) * len(scales)):
        client = trial % len(shards)
        x = x_rng.standard_normal(obj.dim) * scales[trial % len(scales)]
        w = x.reshape(4, -1)
        feats = np.hstack([shards[client][0], np.ones((len(shards[client][1]), 1))])
        ys = shards[client][1]

        loss, grad, _, _ = softmax_loss_and_grad(w, feats, ys)
        assert obj.eval_local(client, x) == loss + 0.0
        assert obj.grad_local(client, x).tobytes() == (grad + 0.0).ravel().tobytes()

        u = rng_stream(trial, "gradient-noise", 1).random(1)
        recorded = Recording(u)
        got = obj.stoch_grad_local(client, x, recorded)
        n = len(ys)
        idx = np.minimum((u * n).astype(np.int64), n - 1)
        _, grad, probs, delta = softmax_loss_and_grad(w, feats[idx], ys[idx])
        assert got.tobytes() == (grad + 0.0).ravel().tobytes()
        assert recorded.read == {0}

        product = np.multiply.outer(delta[0], feats[idx[0]])
        if (probs == 0.0).any():
            reached.add("p == 0.0")
        if ((product == 0.0) & np.signbit(product)).any():
            reached.add("-0.0 product")
    assert reached == {"p == 0.0", "-0.0 product"}


def _multi_pass_shards():
    """Shards of 1, 2, 37, 2500, 1, 3000 and 459 rows of four-class blobs:
    evaluation passes of the first, of the next two, then of each other one
    alone."""
    features, labels = make_blobs(6000, 4, 5, seed=7)
    features[3::4] = 0.0
    cuts = np.cumsum([1, 2, 37, 2500, 1, 3000])
    return list(zip(np.split(features, cuts), np.split(labels, cuts)))


@pytest.mark.parametrize("shards, passes", [(_reference_shards, 2), (_multi_pass_shards, 6)],
                         ids=["two-passes", "six-passes"])
def test_logistic_global_passes_match_the_per_client_loops(shards, passes):
    """`eval_global` and `grad_global` score runs of clients in one logits
    pass each, and `eval_local` and `grad_local` run the same code on one
    block; all four equal the client-by-client reference bit for bit, with
    one-row shards first and between larger shards, all-zero feature rows
    and saturating scales. Every one-row shard is alone in its pass, whose
    one-row product is the reference's."""
    shards = shards()
    obj = Logistic(shards, num_classes=4)
    assert len(obj._passes) == passes
    for _, labels, bounds in obj._passes:
        assert len(labels) == 1 or all(b - a > 1 for a, b in zip(bounds, bounds[1:]))
    x_rng = rng_stream(6, "init", passes)
    for trial in range(6 * len(_REFERENCE_SCALES)):
        x = x_rng.standard_normal(obj.dim) * _REFERENCE_SCALES[trial % len(_REFERENCE_SCALES)]
        losses, grads, loss, grad = logistic_reference(shards, 4, x)
        got = np.array([obj.eval_local(i, x) for i in range(len(shards))])
        assert got.tobytes() == np.array(losses).tobytes()
        for i, want in enumerate(grads):
            assert obj.grad_local(i, x).tobytes() == want.tobytes()
        assert np.float64(obj.eval_global(x)).tobytes() == np.float64(loss).tobytes()
        assert obj.grad_global(x).tobytes() == grad.tobytes()


def test_an_exactly_fitted_shard_has_no_negative_zero():
    # Each row sits at least 500 from the boundary, on its label's side, so
    # its label's log-probability is exactly 0.0 and the other class's
    # probability underflows to 0.0. The loss is then a negated sum of
    # zeros and every gradient entry a sum of 0.0 times features that are
    # negative in the second column: -0.0 each, until the +0.0 that every
    # loss and gradient adds.
    feats = np.array([[-1e3, -1.0], [1e3, -2.0], [-2e3, -1.0], [5e2, -3.0]])
    labels = np.array([0, 1, 0, 1])
    obj = Logistic([(feats[:2], labels[:2]), (feats[2:], labels[2:])], num_classes=2)
    x = np.array([-1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    losses = [obj.eval_local(0, x), obj.eval_local(1, x), obj.eval_global(x)]
    assert np.array(losses).tobytes() == np.zeros(3).tobytes()
    grads = [obj.grad_local(0, x), obj.grad_local(1, x), obj.grad_global(x)]
    grads += [obj.stoch_grad_local(i, x, [u]) for i in range(2) for u in (0.0, 0.5)]
    for grad in grads:
        assert grad.tobytes() == np.zeros(obj.dim).tobytes()


@pytest.mark.parametrize("classes", [1, 2, 3, 8, 9, 10, 11, 17])
def test_log_softmax_equals_the_row_reduce_spelling(classes):
    # The column chain may keep the other zero of a 0.0/-0.0 tie than
    # numpy's row reduce does (here from 9 columns on); the output must not
    # show it. Rows mix signed zeros, infinities, NaN of one sign, and values
    # whose exp underflows, so that a lone zero peak leaves a sum of exactly 1.
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, -800.0, -1e300])
    rng = rng_stream(8, "init", classes)
    rows = values[rng.integers(0, len(values), (4000, classes))]
    rows[::3] = np.where(rng.random((len(rows[::3]), classes)) < 0.5, 0.0, -0.0)
    rows[1::3] = np.where(rng.random((len(rows[1::3]), classes)) < 0.7, -800.0, rows[1::3])
    with np.errstate(invalid="ignore"):
        shifted = rows - np.maximum.reduce(rows, axis=1, keepdims=True)
        want = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
        got = Logistic._log_softmax(rows.copy())
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("build, draws", [
    (lambda: SyntheticHard(sigma=0.0), 1),
    (lambda: SyntheticHard(sigma=1.0), 1),
    (lambda: Quadratic(np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 4.0]]), sigma=0.0), 3),
    (lambda: Quadratic(np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 4.0]]), sigma=0.5), 3),
    (_tiny_logistic, 1),
], ids=["synthetic-sigma0", "synthetic", "quadratic-sigma0", "quadratic", "logistic"])
def test_each_call_consumes_exactly_its_declared_draws(build, draws):
    # The run loop hands each step exactly `draws` noise values by position,
    # and an oracle reads all of them, zeros included, and nothing past the
    # end, where the sequence raises.
    obj = build()
    assert obj.draws == draws
    z = Recording(obj.noise(rng_stream(6, "gradient-noise", 1, 4).random(draws)))
    obj.stoch_grad_local(1, np.full(obj.dim, 0.3), z)
    assert z.read == set(range(draws))


@pytest.mark.parametrize("build", [
    lambda: SyntheticHard(sigma=0.0),
    lambda: SyntheticHard(sigma=1.3),
    lambda: Quadratic(np.zeros((7, 3)), sigma=0.5),
    _tiny_logistic,
], ids=["synthetic-sigma0", "synthetic", "quadratic", "logistic"])
def test_noise_is_elementwise(build):
    # The run loop maps a whole chunk of rounds at once, and the chunk's
    # bounds depend on NOISE_CHUNK and n_clients, so each row must map to
    # the same bits whatever it is mapped with.
    obj = build()
    rows = stream_uniforms(3, "gradient-noise", np.arange(40) % 7, np.arange(40) // 7, 30)
    chunk = obj.noise(rows.reshape(4, 10, 30))
    assert chunk.shape == (4, 10, 30) and chunk.dtype == np.float64
    by_row = np.stack([obj.noise(row) for row in rows])
    assert chunk.tobytes() == by_row.tobytes()
    if getattr(obj, "sigma", 0.0) > 0:
        assert chunk.tobytes() == gaussians_from(rows, obj.sigma).tobytes()
