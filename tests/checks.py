"""Reference checks used only by the tests: a finite-difference gradient
checker and the cyclic pattern's closed forms for the window statistics
that `fedsim verify` does not check against a closed form."""

import numpy as np

from fedsim.core import gaussians_from, rng_stream
from fedsim.diagnostics import CheckResult
from fedsim.objectives import Objective


def cyclic_v_sq_lambda_mean(n_clients: int, k_bar: int, s_clients: int) -> float:
    """Expected regularity statistic under plain cyclic participation
    (avail_rounds_g = 1, so the window is k_bar rounds), once every client
    has history.

    A client's group is eligible in exactly one round of an aligned window.
    Its weight column is 1/s in that round and 0 elsewhere when it is
    sampled, and all zero when it is not, so its history column is always
    that one-hot column, whose lambda = mean(z^2) / mean(z)^2 is k_bar. Its
    qbar_i is 1/(s*k_bar) with probability p = s*k_bar/n and 0 otherwise,
    so E[qbar_i] = 1/n and E[(qbar_i - 1/n)^2] = p*(1-p)/(s*k_bar)^2
    = (1 - s*k_bar/n) / (s*k_bar*n). Summing k_bar times that over the n
    clients gives (1/s) * (1 - s*k_bar/n). Verified by exact enumeration
    of every window of several cyclic patterns in the tests.
    """
    return (1.0 / s_clients) * (1.0 - s_clients * k_bar / n_clients)


def cyclic_w_mean(n_clients: int, k_bar: int, s_clients: int) -> float:
    """Expected non-uniformity statistic per client.

    In an aligned window of the cyclic family each group is eligible in
    exactly one round. There a sampled client i shares weight 1/s with the
    s sampled clients j, each with P*qbar_j = 1/s, so
    w_i = (1/n) * s * (1/s^2) * s = 1/n, and w_i = 0 for every other
    client. Client i is sampled with probability s*k_bar/n (s of the n/k_bar
    clients in its group), so E[w_i] = s*k_bar/n^2 exactly. Verified by
    exact enumeration of every window of several cyclic patterns in the
    tests.
    """
    return s_clients * k_bar / n_clients ** 2


def grad_check(objective: Objective, n_points: int = 50, h: float = 1e-5,
               tol: float = 1e-6, seed: int = 0) -> CheckResult:
    """Max relative error of analytic gradients against central differences.

    Points are standard normal draws; clients rotate across points so every
    local gradient is exercised, not just the average.
    """
    if h <= 0:
        raise ValueError("h must be > 0.")
    rng = rng_stream(seed, "init", 0, 1)
    worst = 0.0
    for point in range(n_points):
        x = gaussians_from(rng, objective.dim, 1.0)
        client = point % objective.n_clients
        analytic = objective.grad_local(client, x)
        fd = np.empty_like(analytic)
        for j in range(objective.dim):
            bump = np.zeros(objective.dim)
            bump[j] = h
            fd[j] = (objective.eval_local(client, x + bump)
                     - objective.eval_local(client, x - bump)) / (2 * h)
        scale = max(float(np.linalg.norm(analytic)), 1e-8)
        worst = max(worst, float(np.linalg.norm(fd - analytic)) / scale)
    return CheckResult(check="grad_check", statistic=worst, expected=tol,
                       observed=worst, passed=worst <= tol)
