import numpy as np
import pytest

from fedsim import algorithms
from fedsim.algorithms import (
    NOISE_CHUNK,
    Simulation,
    client_local_update,
    control_variate_init,
)
from fedsim.core import RunConfig, rng_stream, stream_uniforms
from fedsim.harness import build_run
from fedsim.objectives import Logistic, Quadratic
from fedsim.participation import make_scheduler

from checks import (TurnsScheduler, full_participation_window_factor, patch_sca,
                    scaffold_round_map)


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
    noise = obj.noise(rng_stream(0, "gradient-noise").random(1))
    end, grad_sum = client_local_update(obj, 0, np.zeros(1), local_steps=1, eta=0.1,
                                        noise=noise, correction=np.zeros(1))
    assert end[0] == 0.1
    assert grad_sum[0] == -1.0
    # the sum comes only with a correction, which only control-variate clients get
    plain, no_sum = client_local_update(obj, 0, np.zeros(1), local_steps=1, eta=0.1, noise=noise)
    assert plain.tobytes() == end.tobytes() and no_sum is None


def test_local_steps_compound():
    obj = Quadratic(np.array([[1.0]]))
    end, grad_sum = client_local_update(obj, 0, np.zeros(1), local_steps=2, eta=0.1,
                                        noise=obj.noise(rng_stream(0, "gradient-noise").random(2)),
                                        correction=np.zeros(1))
    # second step starts from 0.1, gradient is 0.1 - 1 = -0.9
    assert abs(end[0] - 0.19) < 1e-15
    assert abs(grad_sum[0] - (-1.9)) < 1e-15


def test_proximal_pull_shrinks_the_step():
    obj = Quadratic(np.array([[1.0]]))
    noise = obj.noise(rng_stream(0, "gradient-noise").random(3))
    plain, _ = client_local_update(obj, 0, np.zeros(1), 3, 0.1, noise)
    prox, _ = client_local_update(obj, 0, np.zeros(1), 3, 0.1, noise, mu=5.0)
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
    noise = objective.noise(rng_stream(1, "gradient-noise", 1, 2).random(7 * 3))
    end, grad_sum = client_local_update(objective, 1, start, 7, 0.3, noise, correction, mu)
    assert start.tobytes() == before[0].tobytes()
    if correction is not None:
        assert correction.tobytes() == before[1].tobytes()

    rng = rng_stream(1, "gradient-noise", 1, 2)
    x = start
    expected_sum = np.zeros(3)
    for _ in range(7):
        # step k's noise maps the stream's k-th block of `draws` uniforms
        g = objective.stoch_grad_local(1, x, objective.noise(rng.random(objective.draws)))
        expected_sum = expected_sum + g
        step = g
        if correction is not None:
            step = step + correction
        if mu:
            step = step + mu * (x - start)
        x = x - 0.3 * step
    assert end.tobytes() == x.tobytes()
    # the raw-gradient sum comes exactly when a correction is handed in
    if correction is None:
        assert grad_sum is None
    else:
        assert grad_sum.tobytes() == expected_sum.tobytes()


def test_round_aggregates_by_participation_weight():
    cfg = _cfg()
    sim = _sim(cfg, [[1.0], [-1.0]])
    ends = []
    for client in range(2):
        noise = sim.objective.noise(rng_stream(0, "gradient-noise", client, 0).random(1))
        end, _ = client_local_update(sim.objective, client, np.zeros(1), 1, 0.1, noise)
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
    variates = control_variate_init(obj, np.zeros(2), seed=0, local_steps=3)
    assert variates.shape == (3, 2)
    for i in range(3):
        np.testing.assert_array_equal(variates[i], obj.grad_local(i, np.zeros(2)))
    # the engine holds the same variates and their mean, and zeros for cv_init = zero
    cfg = _cfg(n_clients=3, algorithm="scaffold", local_steps=3)
    sim = Simulation(obj, make_scheduler(cfg), cfg)
    np.testing.assert_array_equal(sim.variates, variates)
    np.testing.assert_array_equal(sim.variate_mean, variates.mean(axis=0))
    cfg.cv_init = "zero"
    zero = Simulation(obj, make_scheduler(cfg), cfg)
    assert zero.variates.shape == (3, 2) and not zero.variates.any()
    assert not zero.variate_mean.any()


def test_refresh_uses_window_average_of_raw_gradients():
    cfg = _cfg(algorithm="amp_scaffold", cv_init="zero", pattern="cyclic", k_bar=2,
               s_clients=1, local_steps=2, eta=0.01)
    sim = _sim(cfg, [[1.0], [-1.0]])
    # with zero initial variates round 0 is plain local SGD for client 0
    noise = sim.objective.noise(rng_stream(0, "gradient-noise", 0, 0).random(2))
    _, grad_sum = client_local_update(sim.objective, 0, np.zeros(1), 2, 0.01, noise,
                                      correction=np.zeros(1))
    sim.run_round(0)
    sim.run_round(1)
    assert sim.variates[0][0] == grad_sum[0] / 2
    # the accumulators reset at the commit
    assert not sim.accum.any() and not sim.qbar.any()


def test_clients_absent_all_window_keep_their_variate():
    cfg = _cfg(n_clients=4, algorithm="amp_scaffold", pattern="cyclic", k_bar=2,
               s_clients=1, seed=3)
    centers = [[1.0], [2.0], [-1.0], [-2.0]]
    sim = _sim(cfg, centers)
    before = sim.variates.copy()
    sim.run_round(0)
    sim.run_round(1)
    sampled_over_window = {0, 1} | {2, 3}
    quiet = sampled_over_window - set(
        make_scheduler(cfg).sample_round(0, 3).tolist()
    ) - set(make_scheduler(cfg).sample_round(1, 3).tolist())
    assert len(quiet) == 2
    for i in quiet:
        np.testing.assert_array_equal(sim.variates[i], before[i])


def test_global_variate_stays_the_mean_after_every_refresh():
    cfg = _cfg(n_clients=4, algorithm="amp_scaffold", pattern="grouped_cyclic",
               k_bar=2, s_clients=2, avail_rounds_g=2, sigma=0.5, rounds=20)
    centers = [[1.0, 1.0], [2.0, -1.0], [-1.0, 0.5], [-2.0, 0.0]]
    sim = _sim(cfg, centers)
    for r in range(20):
        sim.run_round(r)
        if (r + 1) % sim.window_len == 0:
            gap = np.linalg.norm(sim.variate_mean - sim.variates.mean(axis=0))
            assert gap <= 1e-12
            corrections = sum(sim.variate_mean - sim.variates[i] for i in range(4))
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


@pytest.mark.parametrize("algorithm, gamma, window", [
    ("fedavg", 1.0, 1), ("scaffold", 1.0, 1),
    ("amp_fedavg", 1.0, 4), ("amp_fedavg", 1.5, 4), ("amp_fedavg", 3.0, 4),
    ("amp_scaffold", 1.0, 4), ("amp_scaffold", 1.5, 4), ("amp_scaffold", 3.0, 4),
])
def test_full_participation_windows_contract_by_the_exact_factor(algorithm, gamma, window):
    # Both clients take part in every round of a 4-round window; the optimum
    # is the mean center 1, so |model - 1| starts at 1 and each commit scales
    # it by the closed-form factor.
    cfg = _cfg(algorithm=algorithm, gamma=gamma, pattern="grouped_cyclic", k_bar=1,
               s_clients=2, avail_rounds_g=4, local_steps=3, eta=0.05, rounds=5 * window)
    sim = _sim(cfg, [[2.0], [0.0]])
    assert sim.window_len == window
    factor = full_participation_window_factor(gamma, 0.05, 3, window)
    distance = 1.0
    for r in range(cfg.rounds):
        sim.run_round(r)
        if (r + 1) % window == 0:
            now = abs(sim.model[0] - 1.0)
            assert abs(now / distance - factor) <= 1e-12 * factor, f"window ending at round {r + 1}"
            distance = now


@pytest.mark.parametrize("eta, radius", [
    (1e-4, 0.599), (3e-4, 0.157), (1e-3, 0.157), (3e-3, 0.889), (1e-2, 1.000),
])
def test_scaffold_long_phases_follow_the_exact_round_map(eta, radius):
    # Client 0 alone for 240 rounds, then client 1 alone, and so on; the
    # optimum is the mean center 1. The warm start sets c_i = -b_i at x = 0.
    g = 240
    cfg = _cfg(algorithm="scaffold", pattern="grouped_cyclic", k_bar=2, s_clients=1,
               avail_rounds_g=g, local_steps=10, eta=eta, cv_init="warm_start", rounds=10 * g)
    sim = _sim(cfg, [[2.0], [0.0]])
    phases = [np.linalg.matrix_power(scaffold_round_map(eta, 10, [2.0, 0.0], p), g)
              for p in (0, 1)]
    # The linear part of two phases, on (x, c_0, c_1), gives the rate per
    # 480-round window.
    two_phases = (phases[1] @ phases[0])[:3, :3]
    assert round(float(np.abs(np.linalg.eigvals(two_phases)).max()), 3) == radius
    state = np.array([0.0, -2.0, 0.0, 1.0])
    errors = []
    for phase in range(10):
        for r in range(phase * g, (phase + 1) * g):
            sim.run_round(r)
        state = phases[phase % 2] @ state
        assert abs(sim.model[0] - state[0]) <= 1e-12, f"phase {phase}"
        errors.append(sim.model[0] - 1.0)
    if eta == 1e-2:
        # The model flips to the mirror of where the absent client's variate
        # was taken, so the error changes sign every phase without decaying.
        assert all(a * b < 0 for a, b in zip(errors, errors[1:]))
        assert min(map(abs, errors)) > 0.999


# Client 0 alone in even rounds and clients 1-3 in odd ones gives client 0
# half of every window; the equal turns {0, 1}, {2, 3} give each client a
# quarter. The centers are 1, 0, 0, 0, so the optimum is 0.25.
_TURNS = {"unequal": [[0], [1, 2, 3]], "equal": [[0, 1], [2, 3]]}


@pytest.mark.parametrize("turns, fedavg_end", [("unequal", 0.474768), ("equal", 0.237384)])
def test_control_variates_reach_the_optimum_under_unequal_turns(turns, fedavg_end):
    ends = {}
    for algorithm, gamma in (("fedavg", 1.0), ("scaffold", 1.0), ("amp_scaffold", 1.5)):
        cfg = _cfg(n_clients=4, algorithm=algorithm, gamma=gamma, eta=0.02, local_steps=5,
                   rounds=4000)
        objective = Quadratic(np.array([[1.0], [0.0], [0.0], [0.0]]), cfg.sigma)
        sim = Simulation(objective, TurnsScheduler(4, _TURNS[turns]), cfg)
        for r in range(cfg.rounds):
            sim.run_round(r)
        ends[algorithm] = sim.x_global[0]
    assert abs(ends["scaffold"] - 0.25) <= 1e-12
    assert abs(ends["amp_scaffold"] - 0.25) <= 1e-12
    # Each round maps x to rho * x + (1 - rho) * m, rho = (1 - eta)^K and m
    # the round's mean center: 1 or 1/2 in even rounds, 0 in odd ones. The
    # two-round map's fixed point, read after an odd round, is
    # m * rho / (1 + rho), the participation-weighted point.
    rho = 0.98 ** 5
    pulled = {"unequal": 1.0, "equal": 0.5}[turns]
    assert abs(ends["fedavg"] - pulled * rho / (1 + rho)) <= 1e-12
    assert round(ends["fedavg"], 6) == fedavg_end


@pytest.mark.parametrize("algorithm, key", [
    ("scaffold", dict(gamma=2.0)), ("fedavg", dict(mu=0.5)), ("fedavg", dict(cv_init="zero")),
], ids=["scaffold-gamma", "fedavg-mu", "fedavg-cv_init"])
def test_a_key_the_algorithm_does_not_read_is_ignored(algorithm, key):
    # An unchecked config reaches the engine without validate_run_config's
    # rejection; the key then changes no bit of any round's model.
    kw = dict(algorithm=algorithm, n_clients=4, s_clients=2, pattern="grouped_cyclic", k_bar=2,
              avail_rounds_g=2, sigma=0.5, local_steps=3, rounds=16)
    centers = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [2.0, -1.0]]
    plain, keyed = _sim(_cfg(**kw), centers), _sim(_cfg(**kw, **key), centers)
    for r in range(16):
        plain.run_round(r)
        keyed.run_round(r)
        assert keyed.model.tobytes() == plain.model.tobytes(), f"round {r}"


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
    correction = np.full(3, 0.25)

    def update(client):
        uniforms = rng_stream(cfg.seed, "gradient-noise", client, 3).random(cfg.local_steps * 3)
        return client_local_update(objective, client, start, cfg.local_steps, cfg.eta,
                                   objective.noise(uniforms), correction)

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
    # build_run holds the client-count check; Simulation takes its count as given
    cfg = _cfg(n_clients=3, s_clients=2)
    with pytest.raises(ValueError, match="n_clients"):
        build_run(cfg)


def _chunked_objective(kind: str):
    if kind == "quadratic":
        # draws = dim: one Gaussian vector per step
        return Quadratic(rng_stream(2, "init").standard_normal((12, 40)), sigma=0.5)
    # one uniform per step, which picks the sample: the desk path
    shards = [(rng_stream(2, "init", i).standard_normal((15, 3)),
               rng_stream(2, "init", i, 1).integers(0, 4, 15)) for i in range(12)]
    return Logistic(shards, 4)


# Participation keys of the chunked-noise test. Its `sca` scheduler is
# patched to availability 0.5 in the eligible group and 0.02 outside, so
# few of the eligible group show up: rounds sample from 1 to 3 clients,
# and rounds with fewer than 3 available take them all.
_CHUNK_PATTERNS = {
    "iid": {},
    "grouped_cyclic": {"k_bar": 3, "avail_rounds_g": 2},
    "sca": {"k_bar": 3, "avail_rounds_g": 2},
}


@pytest.mark.parametrize("pattern", list(_CHUNK_PATTERNS))
@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_chunked_noise_equals_a_stream_per_client_round(monkeypatch, kind, pattern):
    # The golden bytes cover only one uniform per step (synthetic and
    # logistic); the quadratic cases pin draws > 1 across refills, and every
    # case pins that a chunk samples each of its rounds once, in order, and
    # adds rounds until its sampled rows reach NOISE_CHUNK doubles.
    objective = _chunked_objective(kind)
    if pattern == "sca":
        patch_sca(monkeypatch, p_active=0.5, p_inactive=0.02)
    cfg = _cfg(n_clients=12, s_clients=3, local_steps=4, eta=0.05, seed=9, pattern=pattern,
               objective=kind, **_CHUNK_PATTERNS[pattern])
    row = cfg.local_steps * objective.draws
    reference = make_scheduler(cfg)
    # The first round of each of three chunks; the run ends 3 rounds into the third.
    starts, doubles, r = [], NOISE_CHUNK, 0
    while len(starts) < 3:
        if doubles >= NOISE_CHUNK:
            starts.append(r)
            doubles = 0
        doubles += len(reference.sample_round(r, cfg.seed)) * row
        r += 1
    cfg.rounds = starts[-1] + 3
    fills = []
    monkeypatch.setattr(algorithms, "stream_uniforms",
                        lambda *args: fills.append((int(args[3][0]), len(args[2]) * row))
                        or stream_uniforms(*args))
    scheduler = make_scheduler(cfg)
    sampled_rounds = []
    sample_round = scheduler.sample_round
    monkeypatch.setattr(scheduler, "sample_round",
                        lambda r, seed: sampled_rounds.append(r) or sample_round(r, seed))
    sim = Simulation(objective, scheduler, cfg)
    sizes = set()
    x = np.zeros(objective.dim)
    for r in range(cfg.rounds):
        sim.run_round(r)
        sampled = reference.sample_round(r, cfg.seed)
        sizes.add(len(sampled))
        new = np.zeros(objective.dim)
        for i in sampled.tolist():
            uniforms = rng_stream(cfg.seed, "gradient-noise", i, r).random(
                cfg.local_steps * objective.draws)
            end, _ = client_local_update(objective, i, x, cfg.local_steps, cfg.eta,
                                         objective.noise(uniforms))
            new += (1.0 / len(sampled)) * end
        x = new
        assert sim.model.tobytes() == x.tobytes()
    assert [start for start, _ in fills] == starts
    assert max(computed for _, computed in fills) <= NOISE_CHUNK + cfg.s_clients * row
    assert sampled_rounds == list(range(cfg.rounds))
    assert sizes == ({1, 2, 3} if pattern == "sca" else {3})


def test_an_objective_that_overdraws_raises_instead_of_reading_the_next_stream():
    # Reading z[draws] would be the next step's first noise value; each call
    # is handed exactly its own `draws`, so the read fails on the first call,
    # in the run loop and in the warm start alike.
    class Overdrawing(Quadratic):
        def stoch_grad_local(self, client, x, z):
            z[self.draws]
            return super().stoch_grad_local(client, x, z)

    objective = Overdrawing(np.array([[1.0], [-1.0]]), sigma=1.0)
    cfg = _cfg(sigma=1.0, local_steps=3)
    sim = Simulation(objective, make_scheduler(cfg), cfg)
    with pytest.raises(IndexError):
        sim.run_round(0)
    with pytest.raises(IndexError):
        control_variate_init(objective, np.zeros(1), seed=0, local_steps=3)


def test_each_step_reads_its_own_uniforms_whatever_the_other_steps_read():
    # An oracle that ignores its noise on even steps still gets, on odd step
    # k, the k-th block of `draws` uniforms of its client-round stream,
    # mapped.
    class OddStepsOnly(Quadratic):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = 0
            self.seen = []

        def stoch_grad_local(self, client, x, z):
            step, self.calls = self.calls % 5, self.calls + 1
            if step % 2 == 0:
                return self.grad_local(client, x)
            self.seen.append((client, step, np.array(z)))
            return super().stoch_grad_local(client, x, z)

    cfg = _cfg(n_clients=4, s_clients=2, local_steps=5, sigma=0.5, seed=7, rounds=3)
    objective = OddStepsOnly(rng_stream(7, "init").random((4, 3)), sigma=0.5)
    sim = Simulation(objective, make_scheduler(cfg), cfg)
    for r in range(cfg.rounds):
        objective.seen.clear()
        sim.run_round(r)
        sampled = make_scheduler(cfg).sample_round(r, cfg.seed).tolist()
        assert [(i, k) for i, k, _ in objective.seen] == [(i, k) for i in sampled for k in (1, 3)]
        for i, k, z in objective.seen:
            want = objective.noise(rng_stream(cfg.seed, "gradient-noise", i, r).random(5 * 3))
            assert z.tobytes() == want[k * 3:(k + 1) * 3].tobytes()


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_warm_start_equals_a_stream_per_client(kind):
    # The warm start's draw k reads the k-th block of `draws` uniforms of
    # the client's "init" stream, mapped. The golden bytes cover only one
    # uniform per draw; the quadratic case pins draws > 1.
    objective = _chunked_objective(kind)
    x0 = rng_stream(3, "init", 99).standard_normal(objective.dim)
    variates = control_variate_init(objective, x0, seed=5, local_steps=4)
    for i in range(objective.n_clients):
        rng = rng_stream(5, "init", i, 0)
        total = np.zeros(objective.dim)
        for _ in range(4):
            total += objective.stoch_grad_local(i, x0, objective.noise(rng.random(objective.draws)))
        assert variates[i].tobytes() == (total / 4).tobytes()
    cfg = _cfg(n_clients=12, algorithm="scaffold", local_steps=4, seed=5, objective=kind)
    sim = Simulation(objective, make_scheduler(cfg), cfg)
    assert sim.variate_mean.tobytes() == sim.variates.mean(axis=0).tobytes()
