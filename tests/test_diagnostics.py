import collections
import itertools

import numpy as np
import pytest

from fedsim import diagnostics
from fedsim.data import make_blobs, partition_by_similarity
from fedsim.diagnostics import (
    BURN_IN,
    ParticipationHistory,
    assumption_suite,
    checks_csv,
    cyclic_qbar_variance,
    format_report,
    monte_carlo_stats,
    sample_window,
    window_stats,
)
from fedsim.objectives import Logistic, Quadratic, SyntheticHard
from fedsim.participation import (
    CyclicScheduler,
    ScaScheduler,
    Scheduler,
)

from checks import (
    TurnsScheduler,
    cyclic_v_sq_lambda_mean,
    cyclic_w_mean,
    grad_check,
    pattern_scheduler,
    window_stats_reference,
)


def _one_hot_window(first: int, second: int) -> np.ndarray:
    q = np.zeros((2, 4))
    q[0, first] = 1.0
    q[1, second] = 1.0
    return q


class _StuckScheduler(Scheduler):
    """Always the same single client, for negative checks."""

    def __init__(self, n_clients: int):
        self.n_clients = n_clients
        self.window = 1
        self.rho_sq = 1.0
        self.p_sample = 1.0 / n_clients

    def sample_round(self, r: int, seed: int) -> np.ndarray:
        return np.array([0])


def test_uniform_window_is_perfectly_regular():
    # One client a round, in turn, weighs each client as evenly as a full window.
    eye = window_stats(np.eye(2), ParticipationHistory(2, 2))
    np.testing.assert_array_equal(eye.qbar, [0.5, 0.5])
    q = np.full((2, 2), 0.5)
    stats = window_stats(q, ParticipationHistory(2, 2))
    np.testing.assert_array_equal(stats.qbar, [0.5, 0.5])
    np.testing.assert_allclose(stats.w, [0.5, 0.5])
    assert stats.v_sq_lambda == 0.0
    assert stats.rho_sq_rounds.max() == 0.5
    assert np.mean(stats.qbar > 0) == 1.0


def test_single_client_window_statistics():
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    history = ParticipationHistory(2, 2)
    history.observe(q)
    stats = window_stats(q, history)
    np.testing.assert_array_equal(stats.qbar, [1.0, 0.0])
    np.testing.assert_allclose(stats.w, [0.5, 0.0])
    # only client 0 carries history: (1 - 1/2)^2 * lambda with lambda = 1
    assert stats.v_sq_lambda == 0.25
    assert stats.rho_sq_rounds.max() == 1.0
    assert np.mean(stats.qbar > 0) == 0.5


def _cyclic_windows(sched: CyclicScheduler) -> list[np.ndarray]:
    """Every aligned window the cyclic scheduler can emit, one per choice of
    s clients in each round's eligible group."""
    size = sched.group_size
    per_round = []
    for r in range(sched.k_bar):
        base = sched.active_group(r) * size
        per_round.append(list(itertools.combinations(range(base, base + size), sched.s_clients)))
    windows = []
    for picks in itertools.product(*per_round):
        q = np.zeros((sched.k_bar, sched.n_clients))
        for r, chosen in enumerate(picks):
            q[r, list(chosen)] = 1.0 / sched.s_clients
        windows.append(q)
    return windows


def test_cyclic_windows_enumerated_exactly():
    outcomes = [_one_hot_window(a, b) for a in (0, 1) for b in (2, 3)]
    # every client's history column is one-hot: e_0 for clients 0 and 2,
    # e_1 for clients 1 and 3
    history = ParticipationHistory(4, 2)
    history.observe(_one_hot_window(0, 1))
    history.observe(_one_hot_window(2, 3))
    np.testing.assert_array_equal(history.z, np.eye(2)[np.arange(4) % 2])
    for q in outcomes:
        stats = window_stats(q, history)
        # every outcome: two sampled clients at w = 1/4, so the client
        # average is 1/8 regardless of which clients were drawn
        assert abs(float(stats.w.mean()) - 0.125) <= 1e-15
        # one-hot history columns give lambda = 2 and |v| = 1/4 everywhere
        assert stats.v_sq_lambda == 0.5
        assert stats.rho_sq_rounds.max() == 1.0
    assert cyclic_w_mean(4, 2, 1) == 0.125
    assert cyclic_v_sq_lambda_mean(4, 2, 1) == 0.5
    assert cyclic_qbar_variance(4, 2, 1, 2) == 1 / 16

    # each sampled client has w = 1/n and s*k_bar of the n clients are
    # sampled; the patterns tell s*k_bar/n^2 apart from s/n^2 and k_bar/n^2,
    # and the last one, sampling a third of the clients, from 1/(2n)
    for sched, count, expected in ((CyclicScheduler(6, 3, 1), 8, 1 / 12),
                                   (CyclicScheduler(8, 2, 2), 36, 1 / 16),
                                   (CyclicScheduler(6, 2, 1), 9, 1 / 18)):
        windows = _cyclic_windows(sched)
        assert len(windows) == count
        for q in windows:
            stats = window_stats(q, ParticipationHistory(sched.n_clients, sched.k_bar))
            assert abs(float(stats.w.mean()) - expected) <= 1e-15
        assert abs(cyclic_w_mean(sched.n_clients, sched.k_bar, sched.s_clients)
                   - expected) <= 1e-15
        # once every client has history, the regularity statistic averages
        # to its closed form over the equally likely windows
        history = ParticipationHistory(sched.n_clients, sched.k_bar)
        for q in windows:
            history.observe(q)
        assert history.z.any(axis=1).all()
        mean_v = np.mean([window_stats(q, history).v_sq_lambda for q in windows])
        closed = cyclic_v_sq_lambda_mean(sched.n_clients, sched.k_bar, sched.s_clients)
        assert abs(mean_v - closed) <= 1e-12
        # the enumeration covers what the scheduler actually draws
        for t in range(10):
            drawn = sample_window(sched, t, 0)
            assert any(np.array_equal(drawn, q) for q in windows)


def test_previous_window_reference_counts_only_its_participants():
    history = ParticipationHistory(4, 2)
    history.observe(_one_hot_window(0, 2))
    stats = window_stats(_one_hot_window(1, 3), history)
    # clients 0 and 2 have history; both sit at v^2 = 1/16 with lambda = 2
    assert stats.v_sq_lambda == 0.25


def _loop_v_sq_lambda(q, history):
    """The regularity statistic as a per-client loop: the definition the
    vectorized window_stats must match bit for bit."""
    n_clients = q.shape[1]
    v = q.mean(axis=0) - 1.0 / n_clients
    total = 0.0
    for i in range(n_clients):
        z_mean = history.z[i].mean()
        if z_mean <= 0:
            continue
        total += v[i] ** 2 * ((history.z[i] ** 2).mean() / z_mean ** 2)
    return total


def test_v_sq_lambda_matches_the_client_loop_bit_for_bit():
    rng = np.random.default_rng(2024)
    # Window lengths on both sides of numpy's 8- and 128-element pairwise
    # summation blocks.
    for window_len in (1, 5, 8, 9, 15, 129, 480):
        for n_clients in (1, 4, 250):
            for _ in range(4):
                q = rng.random((window_len, n_clients)) * (rng.random((window_len, n_clients)) < 0.3)
                history = ParticipationHistory(n_clients, window_len)
                history.z = rng.random((n_clients, window_len)) * (
                    rng.random((n_clients, window_len)) < 0.5)
                # all-zero rows: clients without history
                history.z[rng.random(n_clients) < 0.2] = 0.0
                got = window_stats(q, history).v_sq_lambda
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(_loop_v_sq_lambda(q, history)).tobytes()
            # no client with history at all
            got = window_stats(q, ParticipationHistory(n_clients, window_len)).v_sq_lambda
            assert type(got) is float and got == 0.0


@pytest.mark.parametrize("sched", [
    pattern_scheduler("iid", 12, s_clients=3),
    pattern_scheduler("cyclic", 12, k_bar=4, s_clients=2),
    pattern_scheduler("grouped_cyclic", 12, k_bar=3, s_clients=2, avail_rounds_g=3),
    pattern_scheduler("regularized", 12, window_p=4),
    ScaScheduler(12, 3, 3, 2, p_active=0.3, p_inactive=0.05),
    CyclicScheduler(250, 5, 10),
    ScaScheduler(100, 5, 10, 3),
], ids=["iid", "cyclic", "grouped_cyclic", "regularized", "sca-sparse", "verify-cyclic",
        "verify-sca"])
def test_window_stats_matches_its_reference_bit_for_bit(sched):
    """Over a run of sampled windows, history included, every statistic
    has the bytes of the np.mean and ** 2 spelling. The first window meets
    an all-zero history, later ones a history where some clients are still
    unseen; iid windows are one round long, and the sparse sca windows
    hold fallback rounds."""
    window_len = sched.window
    history = ParticipationHistory(sched.n_clients, window_len)
    unseen_counts = set()
    fallback_rounds = 0
    for t in range(40):
        q = sample_window(sched, t, 0)
        got = window_stats(q, history)
        want = window_stats_reference(q, history)
        for field in ("qbar", "w", "rho_sq_rounds"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert type(got.v_sq_lambda) is float
        assert got.v_sq_lambda.hex() == want.v_sq_lambda.hex()
        unseen_counts.add(int((~history.z.any(axis=1)).sum()))
        fallback_rounds += int((got.rho_sq_rounds > sched.rho_sq + 1e-12).sum())
        history.observe(q)
    assert sched.n_clients in unseen_counts
    if isinstance(sched, ScaScheduler) and sched.n_clients == 12:
        assert fallback_rounds > 0
        assert any(0 < unseen < sched.n_clients for unseen in unseen_counts)


def test_monte_carlo_makes_one_window_stats_call_per_window(monkeypatch):
    """The benchmark counts one window_stats call per window and one
    sample_round call per round; batching across trials moves both counts."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(diagnostics, "window_stats",
                        counted("window_stats", diagnostics.window_stats))
    monkeypatch.setattr(CyclicScheduler, "sample_round",
                        counted("sample_round", CyclicScheduler.sample_round))
    monte_carlo_stats(CyclicScheduler(250, 5, 10), trials=20, seed=0)
    assert counts == {"window_stats": 20, "sample_round": 20 * 5}


def test_history_tracker_keeps_the_latest_participated_window():
    history = ParticipationHistory(3, 2)
    assert not history.z.any()
    history.observe(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]))
    assert history.z.any(axis=1).tolist() == [True, True, False]
    np.testing.assert_array_equal(history.z[0], [0.5, 0.5])
    history.observe(np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]))
    assert history.z.any(axis=1).all()
    np.testing.assert_array_equal(history.z[0], [0.5, 0.5])
    np.testing.assert_array_equal(history.z[1], [0.5, 0.0])
    np.testing.assert_array_equal(history.z[2], [0.5, 1.0])


def test_sample_window_is_aligned_and_deterministic():
    sched = CyclicScheduler(6, 3, 1)
    q = sample_window(sched, 2, seed=9)
    # one client per round, at weight 1
    manual = np.zeros((3, 6))
    for row, r in enumerate((6, 7, 8)):
        manual[row, sched.sample_round(r, 9)] = 1.0
    np.testing.assert_array_equal(q, manual)
    np.testing.assert_array_equal(q, sample_window(sched, 2, 9))


def test_regularized_windows_are_exactly_uniform():
    sched = pattern_scheduler("regularized", 4, window_p=2)
    q = sample_window(sched, 0, seed=0)
    stats = window_stats(q, ParticipationHistory(4, 2))
    np.testing.assert_array_equal(stats.qbar, np.full(4, 0.25))
    np.testing.assert_allclose(stats.w, np.full(4, 0.25))
    assert stats.v_sq_lambda == 0.0
    mc = monte_carlo_stats(sched, trials=30, seed=0)
    assert float(np.abs(mc.qbar_mean - 0.25).max()) == 0.0
    assert float(mc.qbar_var.max()) == 0.0
    assert mc.v_sq_lambda_mean == 0.0


def test_monte_carlo_matches_the_cyclic_closed_forms():
    sched = CyclicScheduler(4, 2, 1)
    mc = monte_carlo_stats(sched, trials=2000, seed=7)
    assert mc.sum_q_max_dev <= 1e-12
    assert mc.rho_sq_max == 1.0
    assert mc.fallback_rounds == 0
    assert mc.qbar_pos_freq.mean() == 0.5
    assert abs(float(mc.w_mean.mean()) - cyclic_w_mean(4, 2, 1)) <= 1e-12
    var = float(mc.qbar_var.mean())
    assert abs(var - cyclic_qbar_variance(4, 2, 1, 2)) <= 0.05 * (1 / 16)
    assert abs(mc.v_sq_lambda_mean - cyclic_v_sq_lambda_mean(4, 2, 1)) <= 0.1 * 0.5
    assert mc.v_sq_lambda_count == 2000 - BURN_IN
    np.testing.assert_allclose(mc.qbar_pos_freq, 0.5, atol=0.06)


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials"):
        monte_carlo_stats(pattern_scheduler("iid", 4, s_clients=2), trials=0, seed=0)


def _by_name(checks):
    return {c.check: c for c in checks}


_COMMON_CHECKS = ["sum_q_exact", "rho_sq_bound", "window_unbiasedness", "p_sample_floor",
                  "w_mean_bound", "v_sq_lambda_bound"]


# Each case is a scheduler and the pattern checks its process gets: the exact
# check when every eligible client takes part, the closed form for a sampled
# group over a window longer than one round, and neither for iid.
@pytest.mark.parametrize("sched", [
    (pattern_scheduler("iid", 12, s_clients=3), []),
    (CyclicScheduler(12, 3, 2), ["qbar_variance_closed_form"]),
    (CyclicScheduler(12, 3, 2, avail_rounds_g=2), ["qbar_variance_closed_form"]),
    (pattern_scheduler("regularized", 12, window_p=4), ["regularized_qbar_exact"]),
])
def test_assumption_suite_passes_on_every_pattern(sched):
    scheduler, pattern_checks = sched
    checks = assumption_suite(scheduler, trials=400, seed=1)
    assert [c.check for c in checks] == _COMMON_CHECKS + pattern_checks
    for c in checks:
        assert c.passed, c.check


def test_assumption_suite_flags_availability_fallbacks():
    sched = ScaScheduler(12, 3, 2, 1, p_active=0.3, p_inactive=0.0)
    checks = _by_name(assumption_suite(sched, trials=300, seed=2))
    assert "sca_fallback_rounds" in checks
    assert checks["sca_fallback_rounds"].statistic > 0
    assert checks["rho_sq_bound"].passed


def test_assumption_suite_rejects_a_stuck_scheduler():
    checks = _by_name(assumption_suite(_StuckScheduler(4), trials=50, seed=0))
    assert not checks["window_unbiasedness"].passed
    assert not checks["p_sample_floor"].passed


def test_assumption_suite_fails_turns_that_favour_one_client():
    # Client 0 alone in even rounds and clients 1-3 in odd ones: every
    # window weighs client 0 by 1/2, not 1/4, so window unbiasedness fails;
    # the equal turns {0, 1}, {2, 3} weigh every client 1/4 and pass it.
    unequal = _by_name(assumption_suite(TurnsScheduler(4, [[0], [1, 2, 3]]), trials=50))
    assert not unequal["window_unbiasedness"].passed
    assert unequal["window_unbiasedness"].observed == 0.25
    equal = _by_name(assumption_suite(TurnsScheduler(4, [[0, 1], [2, 3]]), trials=50))
    assert equal["window_unbiasedness"].passed


def test_variance_check_skips_a_one_round_window():
    # At a one-round window qbar_i is 0 or 1/S, so its variance follows from
    # its mean and the closed form would repeat window_unbiasedness.
    checks = _by_name(assumption_suite(CyclicScheduler(8, 2, 2), trials=800, seed=3))
    assert checks["qbar_variance_closed_form"].passed
    checks = _by_name(assumption_suite(pattern_scheduler("iid", 8, s_clients=2), trials=10))
    assert "qbar_variance_closed_form" not in checks


def test_grad_check_quadratic_is_tight():
    obj = Quadratic(np.array([[1.0, 2.0], [-1.0, 0.5]]))
    check = grad_check(obj, n_points=20)
    assert check.passed
    assert check.statistic <= 1e-9


def test_grad_check_synthetic_and_logistic():
    assert grad_check(SyntheticHard(), n_points=30).passed
    features, labels = make_blobs(60, 3, 4, seed=1)
    shards = partition_by_similarity(features, labels, 3, 100.0, seed=1)
    obj = Logistic(shards, num_classes=3)
    assert grad_check(obj, n_points=30).passed
    with pytest.raises(ValueError, match="h must be > 0"):
        grad_check(obj, h=0.0)


def test_grad_check_catches_a_wrong_gradient():
    class Biased(Quadratic):
        def grad_local(self, client, x):
            return super().grad_local(client, x) + 0.01

    assert not grad_check(Biased(np.array([[1.0, 2.0]])), n_points=5).passed


def test_report_and_csv_formats():
    checks = assumption_suite(pattern_scheduler("iid", 6, s_clients=2), trials=50, seed=0)
    report = format_report(checks)
    assert "PASS" in report
    assert report.strip().endswith("checks passed.")
    text = checks_csv(checks)
    assert text.endswith("\n")
    rows = text.splitlines()
    assert rows[0] == "check,statistic,expected,observed,pass"
    assert len(rows) == len(checks) + 1
    assert all(row.count(",") == 4 for row in rows[1:])
    assert rows[1].split(",")[0] == checks[0].check
    # The pass column reads True or False, not the 1 or 0 a number would.
    assert [row.split(",")[4] for row in rows[1:]] == [str(c.passed) for c in checks]
