import math

import numpy as np
import pytest

from fedsim.core import gaussian_from, gaussians_from, rng_stream
from fedsim.data import make_blobs, partition_by_similarity
from fedsim.objectives import Logistic, Quadratic, SyntheticHard

X2_STAR = math.sqrt(2.0) / 4.0


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
    g = obj.stoch_grad_local(0, x, rng_stream(1, "gradient-noise"))
    exact = obj.grad_local(0, x)
    assert np.array_equal(g[[0, 1, 3]], exact[[0, 1, 3]])
    assert g[2] != exact[2]
    quiet = SyntheticHard(sigma=0.0)
    g0 = quiet.stoch_grad_local(0, x, rng_stream(1, "gradient-noise"))
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
    rng = rng_stream(9, "gradient-noise")
    draws = np.stack([obj.stoch_grad_local(1, x, rng) for _ in range(4000)])
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


@pytest.mark.parametrize("params", [{}, dict(h=3.7, kappa=0.25, c=-1.3, mu_pl=0.6)])
@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_synthetic_oracle_matches_reference_math(params, sigma):
    obj = SyntheticHard(sigma=sigma, **params)
    for client in (0, 1):
        for x2 in (-1.5, -0.0, 0.0, 5e-324, 2.0):
            for head in ((0.3, -0.2), (1.0, obj._x2_star)):
                x = np.array([*head, x2, 1.1])
                assert obj.grad_local(client, x).tobytes() == _reference_synthetic_grad(obj, client, x).tobytes()
                rng = rng_stream(4, "gradient-noise", client, 11)
                twin = rng_stream(4, "gradient-noise", client, 11)
                by_hand = rng_stream(4, "gradient-noise", client, 11)
                for _ in range(3):
                    want = _reference_synthetic_grad(obj, client, x)
                    want[2] += gaussians_from(twin, 1, obj.sigma)[0]
                    assert obj.stoch_grad_local(client, x, rng).tobytes() == want.tobytes()
                    by_hand.random()
                # each draw consumed exactly one uniform
                assert rng.random() == by_hand.random()


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 3.0])
def test_gaussian_from_equals_one_batched_draw(sigma):
    one, batch = rng_stream(9, "gradient-noise", 1, 2), rng_stream(9, "gradient-noise", 1, 2)
    for _ in range(50):
        value = gaussian_from(one, sigma)
        assert isinstance(value, float)
        assert np.float64(value).tobytes() == gaussians_from(batch, 1, sigma)[0].tobytes()
    assert one.random() == batch.random()
    with pytest.raises(ValueError, match="sigma"):
        gaussian_from(one, -0.5)


def test_quadratic_closed_form():
    obj = Quadratic(np.array([[1.0], [-1.0]]))
    x0 = np.zeros(1)
    assert obj.eval_global(x0) == 0.5
    assert obj.grad_global(x0)[0] == 0.0
    np.testing.assert_array_equal(obj.grad_local(0, x0), [-1.0])
    np.testing.assert_array_equal(obj.grad_local(1, x0), [1.0])


def test_quadratic_validation():
    with pytest.raises(ValueError):
        Quadratic(np.zeros((2, 2)), sigma=-1.0)
    obj = Quadratic(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape"):
        obj.eval_local(0, np.zeros(4))
    with pytest.raises(ValueError, match="client index"):
        obj.grad_local(2, np.zeros(3))


def _tiny_logistic(l2=0.0, minibatch=1):
    feats = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    labels = np.array([0, 1, 1, 0])
    shards = [(feats[:2], labels[:2]), (feats[2:], labels[2:])]
    return Logistic(shards, num_classes=2, l2=l2, minibatch=minibatch)


def test_logistic_loss_at_zero_is_log_classes():
    obj = _tiny_logistic()
    assert abs(obj.eval_global(np.zeros(obj.dim)) - math.log(2.0)) < 1e-15


def test_logistic_single_sample_stoch_grad_equals_full_grad():
    feats = np.array([[0.5, -1.0]])
    labels = np.array([1])
    obj = Logistic([(feats, labels)], num_classes=3)
    x = rng_stream(2, "init").random(obj.dim)
    g = obj.stoch_grad_local(0, x, rng_stream(3, "gradient-noise"))
    np.testing.assert_allclose(g, obj.grad_local(0, x), atol=1e-15)


def test_logistic_penalty_skips_bias():
    obj = _tiny_logistic(l2=10.0)
    # weight matrix with only the bias column set
    w = np.zeros((2, 3))
    w[:, -1] = 5.0
    base = _tiny_logistic(l2=0.0)
    assert obj.eval_local(0, w.ravel()) == base.eval_local(0, w.ravel())
    np.testing.assert_array_equal(obj.grad_local(0, w.ravel()), base.grad_local(0, w.ravel()))


def test_logistic_validation_errors():
    feats = np.zeros((2, 3))
    labels = np.zeros(2, dtype=int)
    with pytest.raises(ValueError, match="empty"):
        Logistic([(np.zeros((0, 3)), np.zeros(0, dtype=int))], num_classes=2)
    with pytest.raises(ValueError, match="features"):
        Logistic([(feats, labels), (np.zeros((2, 4)), labels)], num_classes=2)
    with pytest.raises(ValueError):
        Logistic([(feats, labels)], num_classes=2, minibatch=0)
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


def test_logistic_minibatch_indices_stay_in_range():
    obj = _tiny_logistic(minibatch=64)
    x = np.zeros(obj.dim)
    for trial in range(50):
        g = obj.stoch_grad_local(0, x, rng_stream(trial, "gradient-noise"))
        assert np.all(np.isfinite(g))


def _reference_loss_and_grad(w, feats, labels):
    """The softmax loss and gradient as first written: full log-softmax,
    fancy-indexed label pick and label subtraction. Also returns the
    probabilities and the label-subtracted rows the gradient is built from."""
    logits = feats @ w.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    n = len(labels)
    loss = -float(logp[np.arange(n), labels].mean())
    probs = np.exp(logp)
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    return loss, delta.T @ feats / n, probs, delta


def test_logistic_oracle_matches_reference_math():
    """Every oracle output equals the reference math bit for bit, and each
    stochastic gradient consumes exactly `minibatch` uniforms.

    Saturating scales drive probabilities to exactly 0.0, and all-zero
    feature rows make -0.0 products in the one-sample outer product, where
    the matrix product gives 0.0; some of them meet a -0.0 penalty entry
    from a zero-scaled model. The test asserts that the one-sample draws
    reach all three cases."""
    features, labels = make_blobs(300, 4, 5, seed=4)
    features[::4] = 0.0
    shards = [(features[:1], labels[:1]), (features[1:3], labels[1:3]),
              (features[3:40], labels[3:40]), (features[40:], labels[40:])]
    scales = (0.0, 1.0, 20.0, 1e3, 1e6)
    for l2 in (0.0, 0.5):
        for minibatch in (1, 3, 64):
            obj = Logistic(shards, num_classes=4, l2=l2, minibatch=minibatch)
            x_rng = rng_stream(5, "init", minibatch)
            reached = set()
            for trial in range(3 * len(shards) * len(scales)):
                client = trial % len(shards)
                x = x_rng.standard_normal(obj.dim) * scales[trial % len(scales)]
                w = x.reshape(4, -1)
                feats = np.hstack([shards[client][0], np.ones((len(shards[client][1]), 1))])
                ys = shards[client][1]
                penalty_grad = np.zeros_like(w)
                penalty = 0.0
                if l2:
                    penalty_grad[:, :-1] = l2 * w[:, :-1]
                    penalty = 0.5 * l2 * float(np.sum(w[:, :-1] ** 2))

                loss, grad, _, _ = _reference_loss_and_grad(w, feats, ys)
                assert obj.eval_local(client, x) == loss + penalty
                assert obj.grad_local(client, x).tobytes() == (grad + penalty_grad).ravel().tobytes()

                rng = rng_stream(trial, "gradient-noise", minibatch)
                twin = rng_stream(trial, "gradient-noise", minibatch)
                got = obj.stoch_grad_local(client, x, rng)
                n = len(ys)
                idx = np.minimum((twin.random(minibatch) * n).astype(np.int64), n - 1)
                _, grad, probs, delta = _reference_loss_and_grad(w, feats[idx], ys[idx])
                assert got.tobytes() == (grad + penalty_grad).ravel().tobytes()
                assert rng.random() == twin.random()

                if minibatch == 1:
                    product = np.multiply.outer(delta[0], feats[idx[0]])
                    negative_zero = (product == 0.0) & np.signbit(product)
                    if (probs == 0.0).any():
                        reached.add("p == 0.0")
                    if negative_zero.any():
                        reached.add("-0.0 product")
                    if (negative_zero & np.signbit(penalty_grad)).any():
                        reached.add("-0.0 product and -0.0 penalty")
            if minibatch == 1:
                expected = {"p == 0.0", "-0.0 product"}
                if l2:
                    expected.add("-0.0 product and -0.0 penalty")
                assert expected <= reached
