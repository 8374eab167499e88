"""Reference checks used only by the tests: a finite-difference gradient
checker, the cyclic pattern's closed forms for the window statistics
that `fedsim verify` does not check against a closed form, the window
statistics in their plainest spelling, the exact window factor of
the noiseless quadratic under full participation and scaffold's exact
round map there with one client present, a shorthand for the scheduler a
pattern name builds, and an IDX pair writer."""

import struct
from pathlib import Path

import numpy as np

from fedsim.core import RunConfig, gaussians_from, rng_stream
from fedsim.data import IMAGE_MAGIC, LABEL_MAGIC
from fedsim.diagnostics import CheckResult, ParticipationHistory, WindowStats
from fedsim.objectives import Objective
from fedsim.participation import Scheduler, make_scheduler


def pattern_scheduler(pattern: str, n_clients: int, **keys) -> Scheduler:
    """The scheduler `make_scheduler` builds for `pattern` on n_clients, with
    the given participation keys set."""
    return make_scheduler(RunConfig(n_clients=n_clients, pattern=pattern, **keys))


def write_idx(images_path, labels_path, features, labels) -> None:
    """Write the IDX pair `data.load_idx` reads: one image row of bytes
    (feature * 255, rounded) per sample, and one byte per label. Nothing is
    checked."""
    features = np.asarray(features)
    header = struct.pack(">IIII", IMAGE_MAGIC, len(features), 1, features.shape[1])
    Path(images_path).write_bytes(header + np.rint(features * 255).astype(np.uint8).tobytes())
    header = struct.pack(">II", LABEL_MAGIC, len(labels))
    Path(labels_path).write_bytes(header + np.asarray(labels).astype(np.uint8).tobytes())


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


def window_stats_reference(q: np.ndarray, history: ParticipationHistory) -> WindowStats:
    """`diagnostics.window_stats` in its plainest spelling, with `np.mean`
    and `** 2`. The two must agree bit for bit."""
    window_len, n_clients = q.shape
    qbar = q.mean(axis=0)
    overlap = q.T @ q
    coef = np.zeros(n_clients)
    seen = qbar > 0
    coef[seen] = 1.0 / (window_len * qbar[seen])
    w = overlap @ coef / n_clients
    z = history.z
    v = qbar - 1.0 / n_clients
    z_mean = z.mean(axis=1)
    use = z_mean > 0
    terms = v[use] ** 2 * ((z[use] ** 2).mean(axis=1) / z_mean[use] ** 2)
    v_sq_lambda = np.cumsum(terms)[-1] if len(terms) else 0.0
    return WindowStats(
        qbar=qbar,
        w=w,
        v_sq_lambda=float(v_sq_lambda),
        rho_sq_rounds=(q ** 2).sum(axis=1),
    )


def full_participation_window_factor(gamma: float, eta: float, local_steps: int,
                                     window: int) -> float:
    """Exact factor by which one window shrinks the distance to the optimum
    on the noiseless quadratic f_i(x) = 0.5 * ||x - b_i||^2 when every
    client takes part in every round.

    With b the mean center, each local step maps x - b_i to
    (1 - eta) * (x - b_i). Without control variates a round's average of the
    endpoints is then b + (1 - eta)^K * (x - b), K = local_steps. With
    control variates, every client's correction is b_i - b under a warm start
    and after every refresh (all clients see the same models), so each
    step is x - eta * (x - b) and the round map is the same. A window of
    rounds therefore maps the committed model x_g to an inner model
    b + a * (x_g - b) with a = (1 - eta)^(K * window), and the commit
    x_g + gamma * (inner - x_g) leaves b + (1 - gamma * (1 - a)) * (x_g - b).
    """
    return abs(1 - gamma * (1 - (1 - eta) ** (local_steps * window)))


def scaffold_round_map(eta: float, local_steps: int, centers, present: int) -> np.ndarray:
    """Exact affine map of one `scaffold` round on the noiseless 1-D
    quadratic f_i(x) = 0.5 * (x - b_i)^2 when client p = `present` alone
    takes part.

    The map acts on the state (x, c_0, ..., c_{n-1}, 1): the model, the
    variates, and a constant 1 that carries the offsets. Client p steps
    with the correction delta = mean(c) - c_p, so each local step maps
    x - (b_p - delta) to (1 - eta) * (x - (b_p - delta)), and K =
    local_steps of them send x to rho * x + (1 - rho) * (b_p - delta) with
    rho = (1 - eta)^K. Its raw gradients x_k - b_p = -delta + (1 - eta)^k *
    (x - b_p + delta) sum to -K * delta + (1 - rho) / eta * (x - b_p + delta),
    so the refresh sets c_p to their mean, beta * (x - b_p) - (1 - beta) *
    delta with beta = (1 - rho) / (eta * K). Every absent variate is left
    as it was.
    """
    n = len(centers)
    rho = (1 - eta) ** local_steps
    beta = (1 - rho) / (eta * local_steps)
    x = np.zeros(n + 2)
    x[0] = 1.0
    b_p = np.zeros(n + 2)
    b_p[-1] = centers[present]
    delta = np.zeros(n + 2)
    delta[1:-1] = 1.0 / n
    delta[1 + present] -= 1.0
    m = np.eye(n + 2)
    m[0] = rho * x + (1 - rho) * (b_p - delta)
    m[1 + present] = beta * (x - b_p) - (1 - beta) * delta
    return m


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
        x = gaussians_from(rng.random(objective.dim), 1.0)
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
