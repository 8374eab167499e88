"""Empirical verification of the participation assumptions.

The statistics here summarize windows of participation weights: how close
each client's window-averaged weight is to uniform, how concentrated the
per-round weights are, and how regular each client's recent participation
looks. A Monte Carlo driver compares the statistics against a closed form
and confidence bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import csv_text, format_value
from .participation import CyclicScheduler, ScaScheduler, Scheduler

_EXACT_TOL = 1e-12
# Windows the Monte Carlo samples before it averages the regularity
# statistic, while the participation history warms up.
BURN_IN = 10


@dataclass
class WindowStats:
    """Statistics of one window of participation weights."""

    qbar: np.ndarray
    w: np.ndarray
    v_sq_lambda: float
    # each round's concentration, the sum of its squared weights
    rho_sq_rounds: np.ndarray


@dataclass
class CheckResult:
    """One verification line: the decision statistic, what was expected,
    what was observed, and the verdict."""

    check: str
    statistic: float
    expected: float
    observed: float
    passed: bool


class ParticipationHistory:
    """Tracks, per client, the weight column of its most recent window with
    any participation. A client never seen keeps an all-zero row."""

    def __init__(self, n_clients: int, window_len: int):
        self.z = np.zeros((n_clients, window_len))

    def observe(self, q: np.ndarray) -> None:
        """Record a (rounds, clients) weight matrix."""
        if q.shape != (self.z.shape[1], self.z.shape[0]):
            raise ValueError("window shape does not match the history tracker.")
        participated = np.add.reduce(q, axis=0) > 0
        self.z[participated] = q[:, participated].T


def window_stats(q: np.ndarray, history: ParticipationHistory) -> WindowStats:
    """Compute the window statistics of a (rounds, clients) weight matrix.

    history supplies each client's reference weights for the regularity
    ratio: the weight column of its most recent participated window. A
    client whose history row is all zero is excluded from that term. The
    regularity statistic v_sq_lambda adds the per-client terms one at a
    time, in client order.
    """
    if q.ndim != 2:
        raise ValueError("window matrix must be two dimensional.")
    window_len, n_clients = q.shape
    # A mean is np.add.reduce over the axis divided by the count, and a
    # float square is the product with itself; spelled out, they skip
    # np.mean's and the power's dispatch and give the same bits.
    qbar = np.add.reduce(q, axis=0) / window_len

    # w_i averages, over reference clients j, the weight overlap between i
    # and j within the window, normalized by j's total participation.
    overlap = q.T @ q
    coef = np.zeros(n_clients)
    seen = qbar > 0
    coef[seen] = 1.0 / (window_len * qbar[seen])
    w = overlap @ coef / n_clients

    z = history.z
    if z.shape != (n_clients, window_len):
        raise ValueError("history shape does not match the window.")
    z_mean = np.add.reduce(z, axis=1) / window_len
    use = z_mean > 0
    v = qbar[use] - 1.0 / n_clients
    z, z_mean = z[use], z_mean[use]
    terms = v * v * ((np.add.reduce(z * z, axis=1) / window_len) / (z_mean * z_mean))
    # cumsum adds sequentially; np.sum would sum pairwise and round
    # differently.
    v_sq_lambda = np.cumsum(terms)[-1] if len(terms) else 0.0

    return WindowStats(
        qbar=qbar,
        w=w,
        v_sq_lambda=float(v_sq_lambda),
        rho_sq_rounds=np.add.reduce(q * q, axis=1),
    )


# ---------------------------------------------------------------------------
# Closed form (cyclic family with aligned windows)


def cyclic_qbar_variance(n_clients: int, k_bar: int, s_clients: int, window_len: int) -> float:
    """Variance of a client's window-averaged weight.

    In an aligned window of P = g * k_bar rounds, a client's group is
    eligible in g of them, and each of those rounds draws s of its
    n / k_bar members independently. So the client is sampled a
    Binomial(g, p) number of times, p = s * k_bar / n, at weight 1/s each,
    and qbar_i is that count over s * P. Its variance is
    g * p * (1 - p) / (s * P)^2 = (1 - s * k_bar / n) / (s * n * P).
    """
    return (1.0 / (s_clients * n_clients * window_len)) * (1.0 - s_clients * k_bar / n_clients)


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class MonteCarloStats:
    """Aggregates over independently sampled windows."""

    trials: int
    qbar_mean: np.ndarray
    qbar_var: np.ndarray
    qbar_pos_freq: np.ndarray
    w_mean: np.ndarray
    w_var: np.ndarray
    v_sq_lambda_mean: float
    v_sq_lambda_var: float
    v_sq_lambda_count: int
    rho_sq_max: float
    sum_q_max_dev: float
    fallback_rounds: int


def sample_window(scheduler: Scheduler, window_index: int, seed: int, window_len: int) -> np.ndarray:
    """Weight matrix of the aligned window [t*P, (t+1)*P): each client
    sampled in a round weighs 1/S there, S the round's sample size."""
    q = np.zeros((window_len, scheduler.n_clients))
    for row in range(window_len):
        idx = scheduler.sample_round(window_index * window_len + row, seed)
        q[row, idx] = 1.0 / len(idx)
    return q


def monte_carlo_stats(scheduler: Scheduler, trials: int, seed: int) -> MonteCarloStats:
    """Sample `trials` aligned windows and aggregate every window statistic.

    The regularity statistic needs participation history, so its average
    skips the first `BURN_IN` windows while the tracker warms up.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1.")
    n = scheduler.n_clients
    window_len = scheduler.window
    history = ParticipationHistory(n, window_len)

    qbar_sum = np.zeros(n)
    qbar_sq_sum = np.zeros(n)
    qbar_pos = np.zeros(n)
    w_sum = np.zeros(n)
    w_sq_sum = np.zeros(n)
    vsl_sum = 0.0
    vsl_sq_sum = 0.0
    vsl_count = 0
    rho_sq_max = 0.0
    sum_q_max_dev = 0.0
    fallback = 0

    for t in range(trials):
        q = sample_window(scheduler, t, seed, window_len)
        stats = window_stats(q, history)
        history.observe(q)

        qbar, w = stats.qbar, stats.w
        qbar_sum += qbar
        qbar_sq_sum += qbar * qbar
        qbar_pos += qbar > 0
        w_sum += w
        w_sq_sum += w * w
        if t >= BURN_IN:
            vsl_sum += stats.v_sq_lambda
            vsl_sq_sum += stats.v_sq_lambda ** 2
            vsl_count += 1
        rho_sq_max = max(rho_sq_max, float(stats.rho_sq_rounds.max()))
        sum_q_max_dev = max(sum_q_max_dev, float(np.abs(q.sum(axis=1) - 1.0).max()))
        # A fallback round concentrates weight on fewer clients than the
        # nominal draw size, pushing the per-round concentration above the
        # pattern constant.
        fallback += np.count_nonzero(stats.rho_sq_rounds > scheduler.rho_sq + _EXACT_TOL)

    qbar_mean = qbar_sum / trials
    w_mean = w_sum / trials
    vsl_mean = vsl_sum / vsl_count if vsl_count else 0.0
    vsl_var = vsl_sq_sum / vsl_count - vsl_mean ** 2 if vsl_count else 0.0
    return MonteCarloStats(
        trials=trials,
        qbar_mean=qbar_mean,
        qbar_var=np.maximum(qbar_sq_sum / trials - qbar_mean ** 2, 0.0),
        qbar_pos_freq=qbar_pos / trials,
        w_mean=w_mean,
        w_var=np.maximum(w_sq_sum / trials - w_mean ** 2, 0.0),
        v_sq_lambda_mean=vsl_mean,
        v_sq_lambda_var=max(vsl_var, 0.0),
        v_sq_lambda_count=vsl_count,
        rho_sq_max=rho_sq_max,
        sum_q_max_dev=sum_q_max_dev,
        fallback_rounds=fallback,
    )


def _ratio(dev: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Deviation in standard-error units.

    A zero SE means the statistic was constant across trials: agreement
    within tolerance maps to 0 and any real deviation to a signed infinity,
    so one-sided checks keep their direction.
    """
    out = np.zeros_like(dev)
    zero = se == 0
    out[~zero] = dev[~zero] / se[~zero]
    stuck = zero & (np.abs(dev) > _EXACT_TOL)
    out[stuck] = np.sign(dev[stuck]) * np.inf
    return out


def assumption_suite(scheduler: Scheduler, trials: int, seed: int = 0) -> list[CheckResult]:
    """Check the participation assumptions and both regularity bounds."""
    n = scheduler.n_clients
    mc = monte_carlo_stats(scheduler, trials, seed)
    checks = []

    checks.append(CheckResult(
        check="sum_q_exact", statistic=mc.sum_q_max_dev, expected=_EXACT_TOL,
        observed=mc.sum_q_max_dev, passed=mc.sum_q_max_dev <= _EXACT_TOL))

    is_sca = isinstance(scheduler, ScaScheduler)
    rho_ok = mc.rho_sq_max <= scheduler.rho_sq + _EXACT_TOL or is_sca
    checks.append(CheckResult(
        check="rho_sq_bound", statistic=mc.rho_sq_max, expected=scheduler.rho_sq,
        observed=mc.rho_sq_max, passed=rho_ok))
    if is_sca:
        checks.append(CheckResult(
            check="sca_fallback_rounds", statistic=float(mc.fallback_rounds),
            expected=float("nan"), observed=float(mc.fallback_rounds), passed=True))

    se = np.sqrt(mc.qbar_var / mc.trials)
    dev_ratio = _ratio(mc.qbar_mean - 1.0 / n, se)
    worst = float(np.abs(dev_ratio).max())
    checks.append(CheckResult(
        check="window_unbiasedness", statistic=worst, expected=4.0,
        observed=float(np.abs(mc.qbar_mean - 1.0 / n).max()), passed=worst <= 4.0))

    freq = mc.qbar_pos_freq
    se = np.sqrt(np.maximum(freq * (1 - freq), 0.0) / mc.trials)
    short = _ratio(freq - scheduler.p_sample, se)
    worst = float(short.min())
    checks.append(CheckResult(
        check="p_sample_floor", statistic=worst, expected=-4.0,
        observed=float(freq.min()), passed=worst >= -4.0))

    se = np.sqrt(mc.w_var / mc.trials)
    bound = scheduler.window ** 2 / n
    excess = float(_ratio(mc.w_mean - bound, se).max())
    checks.append(CheckResult(
        check="w_mean_bound", statistic=excess, expected=4.0,
        observed=float(mc.w_mean.max()), passed=excess <= 4.0))

    if mc.v_sq_lambda_count:
        se_v = float(np.sqrt(mc.v_sq_lambda_var / mc.v_sq_lambda_count))
        stat = _ratio(np.array([mc.v_sq_lambda_mean - scheduler.rho_sq]), np.array([se_v]))[0]
        checks.append(CheckResult(
            check="v_sq_lambda_bound", statistic=float(stat), expected=4.0,
            observed=mc.v_sq_lambda_mean, passed=stat <= 4.0))

    if isinstance(scheduler, CyclicScheduler):
        if scheduler.s_clients == scheduler.group_size and not is_sca:
            # Every eligible client takes part, so each window weighs every
            # client exactly 1/N.
            dev = float(np.abs(mc.qbar_mean - 1.0 / n).max())
            exact = dev <= _EXACT_TOL and float(mc.qbar_var.max()) <= _EXACT_TOL
            checks.append(CheckResult(
                check="regularized_qbar_exact", statistic=dev, expected=_EXACT_TOL,
                observed=dev, passed=exact))
        elif is_sca or scheduler.window > 1:
            # At a one-round window qbar_i is 0 or 1/S, so its variance
            # m/S - m^2 follows from its mean m, which window_unbiasedness
            # already tests.
            expected = cyclic_qbar_variance(n, scheduler.k_bar, scheduler.s_clients,
                                            scheduler.window)
            observed = float(mc.qbar_var.mean())
            rel = abs(observed - expected) / expected if expected else abs(observed)
            checks.append(CheckResult(
                check="qbar_variance_closed_form", statistic=rel, expected=expected,
                observed=observed, passed=rel <= 0.05))
    return checks


# ---------------------------------------------------------------------------
# Reporting


def format_report(checks: list[CheckResult]) -> str:
    lines = []
    for c in checks:
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(f"{verdict}  {c.check:32s} statistic={format_value(c.statistic):<24s} "
                     f"expected={format_value(c.expected):<24s} observed={format_value(c.observed)}")
    failed = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - failed} of {len(checks)} checks passed.")
    return "\n".join(lines)


def checks_csv(checks: list[CheckResult]) -> str:
    return csv_text("check,statistic,expected,observed,pass",
                    ([c.check, c.statistic, c.expected, c.observed, str(c.passed)] for c in checks))
