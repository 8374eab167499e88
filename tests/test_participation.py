import numpy as np
import pytest

from fedsim import participation
from fedsim.core import ConfigError, RunConfig, rng_stream
from fedsim.participation import (
    CyclicScheduler,
    ScaScheduler,
    Scheduler,
    make_scheduler,
)

from checks import pattern_scheduler


def test_iid_samples_without_replacement():
    sch = pattern_scheduler("iid", 10, s_clients=4)
    sampled = sch.sample_round(0, seed=1)
    assert len(sampled) == 4
    assert len(set(sampled.tolist())) == 4


def test_cyclic_round_four_stays_in_its_group():
    sch = CyclicScheduler(6, 3, 1)
    sampled = sch.sample_round(4, seed=0)
    # round 4 activates group 4 mod 3 = 1, clients {2, 3}
    assert len(sampled) == 1
    assert set(sampled.tolist()) <= {2, 3}


def test_grouped_cyclic_holds_each_group_for_g_rounds():
    sch = CyclicScheduler(6, 3, 2, avail_rounds_g=2)
    assert [sch.active_group(r) for r in range(8)] == [0, 0, 1, 1, 2, 2, 0, 0]
    assert sch.sample_round(4, seed=0).tolist() == [4, 5]


def test_regularized_is_deterministic_and_exact():
    sch = pattern_scheduler("regularized", 4, window_p=2)
    assert sch.sample_round(0, seed=0).tolist() == [0, 1]
    assert sch.sample_round(1, seed=99).tolist() == [2, 3]
    # the window-averaged weight is 1/N for every client, any seed
    qbar = np.zeros(4)
    for r in range(2):
        sampled = sch.sample_round(r, 7)
        qbar[sampled] += 1.0 / len(sampled) / 2
    np.testing.assert_array_equal(qbar, np.full(4, 0.25))


@pytest.mark.parametrize("sch,expected", [
    (pattern_scheduler("iid", 12, s_clients=3), (1 / 3, 1, 0.25)),
    (CyclicScheduler(12, 3, 2), (0.5, 3, 0.5)),
    (CyclicScheduler(12, 3, 2, avail_rounds_g=4), (0.5, 12, 0.5)),
    (pattern_scheduler("regularized", 12, window_p=4), (1 / 3, 4, 1.0)),
    # sca inherits the cyclic constants, which its availability draws break:
    # a fallback round concentrates weight beyond 1/S. ROADMAP item 8 gives
    # sca its own values, and that change must show here.
    (ScaScheduler(12, 3, 2, 2), (0.5, 6, 0.5)),
])
def test_pattern_constants(sch, expected):
    assert (sch.rho_sq, sch.window, sch.p_sample) == expected


@pytest.mark.parametrize("sch", [
    pattern_scheduler("iid", 9, s_clients=3),
    CyclicScheduler(8, 2, 3),
    CyclicScheduler(8, 2, 3, avail_rounds_g=5),
    pattern_scheduler("regularized", 9, window_p=3),
    ScaScheduler(8, 2, 3, 5),
])
def test_weights_sum_to_one_and_respect_concentration(sch):
    # The contract of sample_round: sorted, unique int64 client indices in
    # [0, n), each weighing 1/len, so the weights sum to one by construction.
    rho_sq = sch.rho_sq
    is_sca = isinstance(sch, ScaScheduler)
    for r in range(25):
        sampled = sch.sample_round(r, seed=3)
        assert sampled.dtype == np.int64 and sampled.ndim == 1
        assert len(sampled) > 0
        assert np.all(np.diff(sampled) > 0)
        assert 0 <= sampled[0] and sampled[-1] < sch.n_clients
        if is_sca:
            assert len(sampled) <= sch.s_clients
        else:
            assert len(sampled) == sch.s_clients
            assert 1.0 / len(sampled) <= rho_sq


@pytest.mark.parametrize("n, s", [(1, 1), (4, 1), (9, 3), (10, 4), (12, 12), (50, 10)])
def test_iid_round_is_the_first_s_of_a_permutation(n, s):
    # The definition of iid sampling: round r takes the first S entries of
    # a permutation of all N clients drawn from its own sampling stream.
    sch = make_scheduler(_cfg(n_clients=n, pattern="iid", s_clients=s))
    for seed in (0, 1, 7):
        for r in range(40):
            expected = np.sort(rng_stream(seed, "sampling", 0, r).permutation(n)[:s])
            got = sch.sample_round(r, seed)
            assert got.dtype == expected.dtype == np.int64
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("n, window_p", [(1, 1), (4, 2), (9, 3), (12, 4), (6, 6), (8, 1)])
def test_regularized_round_is_its_slot(n, window_p):
    # The definition of regularized participation: the clients are cut into
    # window_p slots of N / window_p, and slot r mod window_p takes part in
    # round r, whatever the seed.
    sch = make_scheduler(_cfg(n_clients=n, pattern="regularized", window_p=window_p))
    size = n // window_p
    for seed in (0, 5):
        for r in range(40):
            slot = r % window_p
            got = sch.sample_round(r, seed)
            assert got.dtype == np.int64
            assert got.tolist() == list(range(slot * size, (slot + 1) * size))


def test_sampling_is_seed_deterministic():
    sch = CyclicScheduler(20, 2, 4)
    first, again = (tuple(sch.sample_round(5, seed=8).tolist()) for _ in range(2))
    assert first == again
    draws = {tuple(sch.sample_round(5, seed=s).tolist()) for s in range(20)}
    assert len(draws) > 1


@pytest.mark.parametrize("sch", [
    CyclicScheduler(2, 2, 1, avail_rounds_g=240),
    CyclicScheduler(50, 5, 10, avail_rounds_g=4),
    CyclicScheduler(6, 3, 2),
    CyclicScheduler(12, 3, 2, avail_rounds_g=2),
])
def test_cyclic_sample_round_equals_the_permutation_draw(sch):
    for seed in (0, 1):
        for r in range(60):
            base = sch.active_group(r) * sch.group_size
            stream = rng_stream(seed, "sampling", 0, r)
            expected = np.sort(base + stream.permutation(sch.group_size)[: sch.s_clients])
            got = sch.sample_round(r, seed)
            assert got.dtype == expected.dtype == np.int64
            assert np.array_equal(got, expected)


def test_full_group_opens_no_sampling_stream(monkeypatch):
    def refuse(*args):
        raise AssertionError("a full group needs no sampling stream")

    monkeypatch.setattr(participation, "rng_stream", refuse)
    assert CyclicScheduler(50, 5, 10, avail_rounds_g=4).sample_round(7, seed=0).tolist() == list(range(10, 20))
    with pytest.raises(AssertionError, match="no sampling stream"):
        CyclicScheduler(12, 3, 2).sample_round(0, seed=0)


def test_sca_full_availability_matches_group():
    sch = ScaScheduler(8, 2, 4, 1, p_active=1.0, p_inactive=0.0)
    assert sch.sample_round(0, seed=0).tolist() == [0, 1, 2, 3]


def test_sca_fallback_weights_when_few_available():
    sch = ScaScheduler(40, 2, 10, 1, p_active=0.05, p_inactive=0.0)
    saw_fallback = False
    for r in range(0, 200, 2):
        sampled = sch.sample_round(r, seed=1)
        if 0 < len(sampled) < 10:
            saw_fallback = True
            # with p_inactive = 0 only the eligible group, clients 0..19 at
            # even rounds, can show up
            assert np.all(sampled < 20)
    assert saw_fallback


def _sca_reference_round(sch, r, seed):
    """`ScaScheduler.sample_round` in its plainest spelling: a fresh stream
    per retry, np.flatnonzero and np.sort of the permuted draw. Also returns
    the retry count and whether the round fell back to every available
    client."""
    probs = sch._probs[sch.active_group(r)]
    for retry in range(participation.SCA_MAX_RETRIES):
        rng = rng_stream(seed, "sampling", retry, r)
        available = np.flatnonzero(rng.random(sch.n_clients) < probs)
        if len(available) == 0:
            continue
        if len(available) <= sch.s_clients:
            return available, retry, True
        return np.sort(available[rng.permutation(len(available))[: sch.s_clients]]), retry, False
    raise AssertionError("every availability draw was empty")


def test_sca_sample_round_equals_the_reference_draw():
    sch = ScaScheduler(12, 3, 2, 2, p_active=0.3, p_inactive=0.05)
    retried = fallbacks = sampled = 0
    for seed in range(3):
        for r in range(200):
            expected, retries, fallback = _sca_reference_round(sch, r, seed)
            got = sch.sample_round(r, seed)
            assert got.dtype == expected.dtype == np.int64
            assert got.tobytes() == expected.tobytes()
            retried += retries > 0
            fallbacks += fallback
            sampled += not fallback
    assert retried and fallbacks and sampled


@pytest.mark.parametrize("sch", [
    ScaScheduler(12, 3, 2, 2, p_active=0.3, p_inactive=0.05),
    CyclicScheduler(12, 3, 2),
    CyclicScheduler(12, 3, 4),
], ids=["sca", "cyclic-sampled", "cyclic-full-group"])
def test_returned_rounds_share_no_memory(sch):
    """The in-place sort and offset act on arrays no later call sees."""
    for r in range(40):
        expected = sch.sample_round(r, 5).copy()
        sch.sample_round(r, 5)[:] = -1
        assert np.array_equal(sch.sample_round(r, 5), expected)


def test_sca_gives_up_when_nobody_can_show_up():
    sch = ScaScheduler(4, 2, 1, 1, p_active=0.0, p_inactive=0.0)
    for r in (0, 7):
        with pytest.raises(ValueError, match=f"no clients available at round {r} after 100"
                                             " availability draws"):
            sch.sample_round(r, seed=0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        pattern_scheduler("iid", 4, s_clients=5)
    with pytest.raises(ValueError, match="multiple of k_bar"):
        CyclicScheduler(5, 2, 1)
    with pytest.raises(ValueError, match="s_clients must be in"):
        CyclicScheduler(6, 3, 3)
    with pytest.raises(ValueError):
        CyclicScheduler(6, 3, 1, avail_rounds_g=0)
    with pytest.raises(ValueError, match="window_p"):
        pattern_scheduler("regularized", 5, window_p=2)
    with pytest.raises(ValueError):
        ScaScheduler(6, 3, 1, 1, p_active=1.5)


def _cfg(**kw) -> RunConfig:
    base = dict(n_clients=12, rounds=1, algorithm="fedavg", eta=0.1,
                objective="quadratic", centers="0")
    base.update(kw)
    return RunConfig(**base)


def test_factory_builds_the_right_scheduler():
    # iid is one group of all N clients; regularized takes every client of
    # each of its window_p groups
    iid = make_scheduler(_cfg(pattern="iid", s_clients=3))
    assert type(iid) is CyclicScheduler
    assert (iid.k_bar, iid.s_clients, iid.avail_rounds_g) == (1, 3, 1)
    assert isinstance(make_scheduler(_cfg(pattern="cyclic", k_bar=3, s_clients=2)), CyclicScheduler)
    # cyclic holds each group one round, grouped_cyclic avail_rounds_g rounds
    for pattern, g, window in (("cyclic", 1, 3), ("grouped_cyclic", 4, 12)):
        sch = make_scheduler(_cfg(pattern=pattern, k_bar=3, s_clients=2, avail_rounds_g=g))
        assert type(sch) is CyclicScheduler
        assert sch.window == window
    # cyclic does not read avail_rounds_g, nor regularized s_clients
    with pytest.raises(ConfigError, match="pattern cyclic does not read avail_rounds_g"):
        make_scheduler(_cfg(pattern="cyclic", k_bar=3, s_clients=2, avail_rounds_g=4))
    sca = make_scheduler(_cfg(pattern="sca", k_bar=3, s_clients=2, avail_rounds_g=2))
    assert isinstance(sca, ScaScheduler)
    reg = make_scheduler(_cfg(pattern="regularized", window_p=4))
    assert type(reg) is CyclicScheduler
    assert (reg.k_bar, reg.s_clients, reg.avail_rounds_g) == (4, 3, 1)
    with pytest.raises(ConfigError, match="pattern regularized does not read s_clients"):
        make_scheduler(_cfg(pattern="regularized", window_p=4, s_clients=3))


def test_base_scheduler_is_abstract():
    with pytest.raises(NotImplementedError):
        Scheduler().sample_round(0, 0)
