import numpy as np
import pytest

from fedsim.algorithms import (
    ControlVariates,
    Simulation,
    client_local_update,
    control_variate_init,
)
from fedsim.core import RunConfig, rng_stream
from fedsim.objectives import Quadratic
from fedsim.participation import make_scheduler


def _cfg(**kw) -> RunConfig:
    base = dict(n_clients=2, rounds=10, local_steps=1, algorithm="fedavg", eta=0.1,
                objective="quadratic", centers="1; -1", sigma=0.0, pattern="iid",
                s_clients=2, seed=0)
    base.update(kw)
    return RunConfig(**base)


def _sim(cfg: RunConfig, centers) -> Simulation:
    objective = Quadratic(np.asarray(centers, dtype=float), cfg.sigma)
    return Simulation(objective, make_scheduler(cfg), cfg)


def test_single_local_step_endpoint_and_gradient_sum():
    obj = Quadratic(np.array([[1.0]]))
    end, grad_sum = client_local_update(obj, 0, np.zeros(1), local_steps=1, eta=0.1,
                                        rng=rng_stream(0, "gradient-noise"))
    assert end[0] == 0.1
    assert grad_sum[0] == -1.0


def test_local_steps_compound():
    obj = Quadratic(np.array([[1.0]]))
    end, grad_sum = client_local_update(obj, 0, np.zeros(1), local_steps=2, eta=0.1,
                                        rng=rng_stream(0, "gradient-noise"))
    # second step starts from 0.1, gradient is 0.1 - 1 = -0.9
    assert abs(end[0] - 0.19) < 1e-15
    assert abs(grad_sum[0] - (-1.9)) < 1e-15


def test_proximal_pull_shrinks_the_step():
    obj = Quadratic(np.array([[1.0]]))
    plain, _ = client_local_update(obj, 0, np.zeros(1), 3, 0.1,
                                   rng_stream(0, "gradient-noise"))
    prox, _ = client_local_update(obj, 0, np.zeros(1), 3, 0.1,
                                  rng_stream(0, "gradient-noise"), mu=5.0)
    assert 0 < prox[0] < plain[0]


@pytest.mark.parametrize("with_correction, mu", [(True, 0.0), (False, 5.0)],
                         ids=["correction", "mu"])
def test_local_update_equals_the_out_of_place_formula(with_correction, mu):
    # The steps write into the oracle's gradient and a private model; the
    # inputs stay as they were and every bit equals the written formula.
    objective = Quadratic(rng_stream(1, "init").random((2, 3)), sigma=1.0)
    start = rng_stream(1, "init", 1).standard_normal(3)
    correction = rng_stream(1, "init", 2).standard_normal(3) if with_correction else None
    before = start.copy(), None if correction is None else correction.copy()
    end, grad_sum = client_local_update(objective, 1, start, 7, 0.3,
                                        rng_stream(1, "gradient-noise", 1, 2), correction, mu)
    assert start.tobytes() == before[0].tobytes()
    if correction is not None:
        assert correction.tobytes() == before[1].tobytes()

    rng = rng_stream(1, "gradient-noise", 1, 2)
    x = start
    expected_sum = np.zeros(3)
    for _ in range(7):
        g = objective.stoch_grad_local(1, x, rng)
        expected_sum = expected_sum + g
        step = g
        if correction is not None:
            step = step + correction
        if mu:
            step = step + mu * (x - start)
        x = x - 0.3 * step
    assert end.tobytes() == x.tobytes()
    assert grad_sum.tobytes() == expected_sum.tobytes()


def test_round_aggregates_by_participation_weight():
    cfg = _cfg()
    sim = _sim(cfg, [[1.0], [-1.0]])
    ends = []
    for client in range(2):
        end, _ = client_local_update(sim.objective, client, np.zeros(1), 1, 0.1,
                                     rng_stream(0, "gradient-noise", client, 0))
        ends.append(end)
    sim.run_round(0)
    assert sim.model[0] == 0.5 * (ends[0][0] + ends[1][0])


def test_commit_amplifies_beyond_the_window_average():
    cfg = _cfg(n_clients=1, s_clients=1, algorithm="amp_fedavg", gamma=2.0, eta=0.5)
    sim = _sim(cfg, [[-1.0]])
    sim.run_round(0)
    # inner model moved to -0.5; the commit doubles the movement
    assert sim.x_global[0] == -1.0
    assert sim.model[0] == -1.0


def test_amp_fedavg_with_gamma_one_matches_fedavg_exactly():
    kw = dict(n_clients=4, s_clients=1, pattern="grouped_cyclic", k_bar=2,
              avail_rounds_g=3, sigma=1.0, rounds=24)
    centers = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    a = _sim(_cfg(algorithm="fedavg", **kw), centers)
    b = _sim(_cfg(algorithm="amp_fedavg", gamma=1.0, **kw), centers)
    for r in range(24):
        a.run_round(r)
        b.run_round(r)
        assert np.array_equal(a.model, b.model)


def test_fedprox_with_zero_mu_matches_fedavg_exactly():
    kw = dict(sigma=1.0, local_steps=5, rounds=12)
    a = _sim(_cfg(algorithm="fedavg", **kw), [[1.0], [-1.0]])
    b = _sim(_cfg(algorithm="fedprox", mu=0.0, **kw), [[1.0], [-1.0]])
    for r in range(12):
        a.run_round(r)
        b.run_round(r)
        assert np.array_equal(a.model, b.model)


def test_warm_start_control_variates_without_noise():
    obj = Quadratic(np.array([[1.0, 2.0], [3.0, -4.0], [0.0, 0.0]]))
    cv = control_variate_init("warm_start", obj, np.zeros(2), seed=0, local_steps=3)
    for i in range(3):
        np.testing.assert_array_equal(cv.per_client[i], obj.grad_local(i, np.zeros(2)))
    np.testing.assert_array_equal(cv.global_cv, cv.per_client.mean(axis=0))
    zero = control_variate_init("zero", obj, np.zeros(2), seed=0, local_steps=3)
    assert not zero.per_client.any() and not zero.global_cv.any()
    with pytest.raises(ValueError):
        control_variate_init("cold", obj, np.zeros(2), 0, 1)


def test_refresh_uses_window_average_of_raw_gradients():
    cfg = _cfg(algorithm="amp_scaffold", cv_init="zero", pattern="cyclic", k_bar=2,
               s_clients=1, local_steps=2, eta=0.01)
    sim = _sim(cfg, [[1.0], [-1.0]])
    # with zero initial variates round 0 is plain local SGD for client 0
    _, grad_sum = client_local_update(sim.objective, 0, np.zeros(1), 2, 0.01,
                                      rng_stream(0, "gradient-noise", 0, 0))
    sim.run_round(0)
    sim.run_round(1)
    assert sim.cv.per_client[0][0] == grad_sum[0] / 2
    # the accumulators reset at the commit
    assert not sim.cv.accum.any() and not sim.cv.qbar.any()


def test_clients_absent_all_window_keep_their_variate():
    cfg = _cfg(n_clients=4, algorithm="amp_scaffold", pattern="cyclic", k_bar=2,
               s_clients=1, seed=3)
    centers = [[1.0], [2.0], [-1.0], [-2.0]]
    sim = _sim(cfg, centers)
    before = sim.cv.per_client.copy()
    sim.run_round(0)
    sim.run_round(1)
    sampled_over_window = {0, 1} | {2, 3}
    quiet = sampled_over_window - set(
        make_scheduler(cfg).sample_round(0, 3).tolist()
    ) - set(make_scheduler(cfg).sample_round(1, 3).tolist())
    assert len(quiet) == 2
    for i in quiet:
        np.testing.assert_array_equal(sim.cv.per_client[i], before[i])


def test_global_variate_stays_the_mean_after_every_refresh():
    cfg = _cfg(n_clients=4, algorithm="amp_scaffold", pattern="grouped_cyclic",
               k_bar=2, s_clients=2, avail_rounds_g=2, sigma=0.5, rounds=20)
    centers = [[1.0, 1.0], [2.0, -1.0], [-1.0, 0.5], [-2.0, 0.0]]
    sim = _sim(cfg, centers)
    for r in range(20):
        sim.run_round(r)
        if (r + 1) % sim.window_len == 0:
            gap = np.linalg.norm(sim.cv.global_cv - sim.cv.per_client.mean(axis=0))
            assert gap <= 1e-12
            corrections = sum(sim.cv.global_cv - sim.cv.per_client[i] for i in range(4))
            assert np.linalg.norm(corrections) <= 1e-12


def test_scaffold_correction_is_applied():
    # one client far from the others drifts under plain averaging; the
    # correction keeps a sampled client honest about the global pull
    cfg_plain = _cfg(algorithm="fedavg", pattern="cyclic", k_bar=2, s_clients=1,
                     local_steps=10, eta=0.05)
    cfg_cv = _cfg(algorithm="scaffold", pattern="cyclic", k_bar=2, s_clients=1,
                  local_steps=10, eta=0.05)
    plain = _sim(cfg_plain, [[1.0], [-1.0]])
    corrected = _sim(cfg_cv, [[1.0], [-1.0]])
    plain.run_round(0)
    corrected.run_round(0)
    # client 0 alone pulls toward +1; the variates cancel most of that pull
    assert abs(corrected.model[0]) < abs(plain.model[0])


def test_gd_equivalence_window_one():
    centers = np.array([[1.0, 0.0, -2.0], [-1.0, 2.0, 0.5], [0.25, -0.75, 1.5]])
    cfg = _cfg(n_clients=3, s_clients=3, algorithm="amp_scaffold", gamma=1.0,
               eta=0.1, local_steps=1)
    sim = _sim(cfg, centers)
    x = np.zeros(3)
    for r in range(20):
        sim.run_round(r)
        x = x - 0.1 * (x - centers.mean(axis=0))
        assert np.abs(sim.model - x).max() <= 1e-12


@pytest.mark.parametrize("algorithm,extra", [
    ("fedavg", {}),
    ("amp_fedavg", dict(gamma=2.0, pattern="cyclic", k_bar=2, s_clients=1)),
    ("amp_scaffold", dict(gamma=2.0, pattern="cyclic", k_bar=2, s_clients=1)),
], ids=["fedavg", "amp_fedavg", "amp_scaffold"])
def test_non_finite_model_stays_non_finite(algorithm, extra):
    # run_once looks for divergence only at evaluation marks, which is exact
    # because no later round or commit makes a non-finite coordinate finite.
    cfg = _cfg(algorithm=algorithm, eta=10.0, local_steps=10, rounds=60, **extra)
    sim = _sim(cfg, [[1.0, 0.0], [3.0, -1.0]])
    bad = np.zeros(2, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(cfg.rounds):
            sim.run_round(r)
            now = ~np.isfinite(sim.model)
            assert now[bad].all(), f"round {r}: a non-finite coordinate became finite"
            bad = now
    assert bad.all()


def test_client_updates_do_not_depend_on_execution_order():
    # Each update reads only its own (seed, client, round) stream, so running
    # one round's sampled clients in reverse order changes no bit.
    cfg = _cfg(n_clients=8, s_clients=5, sigma=1.0, local_steps=5, seed=4)
    objective = Quadratic(rng_stream(4, "init").random((8, 3)), cfg.sigma)
    sampled = make_scheduler(cfg).sample_round(3, cfg.seed).tolist()
    start = np.full(3, 0.5)

    def update(client):
        return client_local_update(objective, client, start, cfg.local_steps, cfg.eta,
                                   rng_stream(cfg.seed, "gradient-noise", client, 3))

    forward = {i: update(i) for i in sampled}
    backward = {i: update(i) for i in reversed(sampled)}
    for i in sampled:
        assert np.array_equal(forward[i][0], backward[i][0])
        assert np.array_equal(forward[i][1], backward[i][1])


def test_uplink_accounting():
    plain = _sim(_cfg(rounds=3), [[1.0, 0.0], [0.0, 1.0]])
    cv = _sim(_cfg(algorithm="scaffold", rounds=3), [[1.0, 0.0], [0.0, 1.0]])
    for r in range(3):
        plain.run_round(r)
        cv.run_round(r)
    assert plain.uplink_scalars == 3 * 2 * 2
    assert cv.uplink_scalars == 3 * 2 * 2 * 2


def test_mismatched_population_is_rejected():
    cfg = _cfg(n_clients=3, s_clients=2)
    with pytest.raises(ValueError, match="n_clients"):
        _sim(cfg, [[1.0], [-1.0]])


def test_control_variates_zeros_shape():
    cv = ControlVariates.zeros(5, 3)
    assert cv.per_client.shape == (5, 3)
    assert cv.global_cv.shape == (3,)
    assert cv.accum.shape == (5, 3)
    assert cv.qbar.shape == (5,)
