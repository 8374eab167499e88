"""Client objectives with exact gradients and stochastic gradient oracles.

Three families are provided. A four-dimensional two-client construction
whose heterogeneity makes naive averaging drift, a quadratic with per-client
centers used as a closed-form oracle in tests, and multinomial logistic
regression over per-client datasets.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import gaussian_from, gaussians_from


class Objective:
    """Oracle interface for the per-client losses f_i and their average f.

    `draws` is the number of uniforms one `stoch_grad_local` call reads.
    """

    dim: int
    n_clients: int
    draws: int

    def eval_local(self, client: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad_local(self, client: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stoch_grad_local(self, client: int, x: np.ndarray, u: Sequence[float]) -> np.ndarray:
        """One stochastic gradient draw from the uniforms `u`.

        `u` is a sequence of exactly `draws` floats in [0, 1), the uniforms
        the caller addressed to this call; the oracle reads them by position
        and never opens a stream, so reading `u[draws]` raises IndexError.

        Returns a new array that shares memory with nothing else, so the
        caller may overwrite it (the local step does, in place).
        """
        raise NotImplementedError

    def eval_global(self, x: np.ndarray) -> float:
        return float(np.mean([self.eval_local(i, x) for i in range(self.n_clients)]))

    def grad_global(self, x: np.ndarray) -> np.ndarray:
        total = np.zeros(self.dim)
        for i in range(self.n_clients):
            total += self.grad_local(i, x)
        return total / self.n_clients

    def test_metric(self, x: np.ndarray) -> float:
        """Held-out metric; NaN when the objective has no test set."""
        return float("nan")

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected parameter vector of shape ({self.dim},), got {x.shape}")
        return x

    def _check_client(self, client: int) -> None:
        if not 0 <= client < self.n_clients:
            raise ValueError(f"client index {client} out of range [0, {self.n_clients})")


class SyntheticHard(Objective):
    """Two-client nonsmooth construction on R^4, coordinates x[0]..x[3].

    Client i's loss is mu_pl/2 * (x[0] - c)^2 + h/2 * (x[1] - x1*)^2
    + h/8 * (x[2]^2 + max(x[2], 0)^2) + s_i * kappa * x[3], with s_0 = 1,
    s_1 = -1 and x1* = c * sqrt(mu_pl / h); all gradient noise is on x[2].
    The +-kappa slopes on x[3] make the global objective flat there but
    enter no other coordinate's gradient, so heterogeneity never reaches
    the loss."""

    dim = 4
    n_clients = 2
    draws = 1

    def __init__(self, h: float = 16.0, kappa: float = 16.0, sigma: float = 1.0,
                 c: float = 1.0, mu_pl: float = 2.0):
        if h <= 0 or mu_pl <= 0:
            raise ValueError("h and mu_pl must be > 0.")
        if sigma < 0 or kappa < 0:
            raise ValueError("sigma and kappa must be >= 0.")
        self.h = h
        self.kappa = kappa
        self.sigma = sigma
        self.c = c
        self.mu_pl = mu_pl
        self._x2_star = float(np.sqrt(mu_pl) * c / np.sqrt(h))

    def eval_local(self, client: int, x: np.ndarray) -> float:
        self._check_client(client)
        x = self._check_x(x)
        relu3 = max(x[2], 0.0)
        value = (
            0.5 * self.mu_pl * (x[0] - self.c) ** 2
            + 0.5 * self.h * (x[1] - self._x2_star) ** 2
            + 0.125 * self.h * (x[2] ** 2 + relu3 ** 2)
        )
        sign = 1.0 if client == 0 else -1.0
        return float(value + sign * self.kappa * x[3])

    def grad_local(self, client: int, x: np.ndarray) -> np.ndarray:
        self._check_client(client)
        # Python floats are the same IEEE doubles as numpy scalars and much
        # cheaper to operate on one at a time.
        x0, x1, x2, _ = self._check_x(x).tolist()
        # The one-sided square is differentiable at 0 with derivative 0, so
        # the strict inequality handles the kink.
        g2 = 0.25 * self.h * x2
        if x2 > 0:
            g2 += 0.25 * self.h * x2
        return np.array([self.mu_pl * (x0 - self.c), self.h * (x1 - self._x2_star), g2,
                         self.kappa if client == 0 else -self.kappa])

    def stoch_grad_local(self, client: int, x: np.ndarray, u: Sequence[float]) -> np.ndarray:
        g = self.grad_local(client, x)
        g[2] += gaussian_from(u[0], self.sigma)
        return g


class Quadratic(Objective):
    """f_i(x) = 0.5 * ||x - b_i||^2 with isotropic gradient noise."""

    def __init__(self, centers: np.ndarray, sigma: float = 0.0):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if centers.ndim != 2:
            raise ValueError("centers must be an (n_clients, dim) array.")
        if centers.shape[1] == 0:
            raise ValueError("centers must give each client at least one coordinate.")
        if not np.isfinite(centers).all():
            raise ValueError("centers must be finite.")
        if sigma < 0:
            raise ValueError("sigma must be >= 0.")
        self.centers = centers
        self.sigma = sigma
        self.n_clients = centers.shape[0]
        self.dim = self.draws = centers.shape[1]

    def eval_local(self, client: int, x: np.ndarray) -> float:
        self._check_client(client)
        x = self._check_x(x)
        diff = x - self.centers[client]
        return float(0.5 * diff @ diff)

    def grad_local(self, client: int, x: np.ndarray) -> np.ndarray:
        self._check_client(client)
        x = self._check_x(x)
        return x - self.centers[client]

    def stoch_grad_local(self, client: int, x: np.ndarray, u: Sequence[float]) -> np.ndarray:
        return self.grad_local(client, x) + gaussians_from(u, self.sigma)


class Logistic(Objective):
    """Multinomial softmax regression over per-client sample sets.

    Parameters are a (num_classes, num_features + 1) weight matrix stored
    flat; the trailing column is a bias fed by a constant 1 feature. The
    optional l2 penalty applies to weights only, never the bias. Stochastic
    gradients average `minibatch` uniformly drawn local samples and include
    the full penalty term. `labels[i]` holds client i's labels, which
    `fedsim partition-report` counts.

    Every gradient subtracts 1.0 from the softmax at each row's label. One
    helper, `_grad`, does so for `grad_local` on the full shard and for
    `stoch_grad_local` on the drawn rows when `minibatch > 1`. `eval_local`
    computes the loss alone, with no gradient.

    With `minibatch == 1`, `stoch_grad_local` works on the drawn row as 1-D
    arrays, which skips most of the small-array overhead, and returns the
    same bits as `_grad` on that row:
    - the logits `w @ f` go through the same matrix-vector kernel as `f @ w.T`;
    - each entry of `np.multiply.outer(delta, f)` is the one exact multiply
      of the k = 1 matrix product, and `+= 0.0` turns its -0.0 into the
      product's 0.0 before any penalty is added;
    - the mean over one row skips the divide, since `x / 1 == x`.
    """

    def __init__(self, shards: list[tuple[np.ndarray, np.ndarray]], num_classes: int,
                 l2: float = 0.0, minibatch: int = 1,
                 test_set: tuple[np.ndarray, np.ndarray] | None = None):
        if not shards:
            raise ValueError("at least one client shard is required.")
        if l2 < 0:
            raise ValueError("l2 must be >= 0.")
        if minibatch < 1:
            raise ValueError("minibatch must be >= 1.")
        num_features = shards[0][0].shape[1]
        self._features = []
        self.labels = []
        for idx, (feats, labels) in enumerate(shards):
            labels = np.asarray(labels, dtype=int)
            if len(labels) == 0:
                raise ValueError(f"client {idx} has an empty dataset.")
            if feats.shape[1] != num_features:
                raise ValueError(f"client {idx} has {feats.shape[1]} features, expected {num_features}.")
            # Negative labels would wrap around when indexing, silently
            # training on the last classes.
            if labels.min() < 0 or labels.max() >= num_classes:
                raise ValueError(f"client {idx} has labels outside [0, {num_classes}).")
            self._features.append(np.hstack([feats, np.ones((feats.shape[0], 1))]))
            self.labels.append(labels)
        self.num_classes = num_classes
        self.num_features = num_features
        self.l2 = l2
        self.draws = minibatch
        self.n_clients = len(shards)
        self.dim = num_classes * (num_features + 1)
        if test_set is not None:
            feats, labels = test_set
            labels = np.asarray(labels, dtype=int)
            if len(labels) == 0:
                raise ValueError("the test set has no samples.")
            if feats.shape[1] != num_features:
                raise ValueError(f"the test set has {feats.shape[1]} features, expected {num_features}.")
            # A label the model cannot predict would only ever count as a miss.
            if labels.min() < 0 or labels.max() >= num_classes:
                raise ValueError(f"the test set has labels outside [0, {num_classes}).")
            self._test = (np.hstack([feats, np.ones((feats.shape[0], 1))]), labels)
        else:
            self._test = None

    def _weights(self, x: np.ndarray) -> np.ndarray:
        return self._check_x(x).reshape(self.num_classes, self.num_features + 1)

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
        return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))

    def _penalty(self, w: np.ndarray) -> float:
        if self.l2 == 0:
            return 0.0
        return 0.5 * self.l2 * float(np.sum(w[:, :-1] ** 2))

    def _penalty_grad(self, w: np.ndarray) -> np.ndarray:
        g = np.zeros_like(w)
        g[:, :-1] = self.l2 * w[:, :-1]
        return g

    def _grad(self, w: np.ndarray, feats: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Mean cross-entropy gradient over `feats` plus the penalty, raveled.

        `+= 0.0` turns -0.0 into 0.0 exactly as adding a zero penalty would.
        """
        delta = np.exp(self._log_softmax(feats @ w.T))
        delta[np.arange(len(labels)), labels] -= 1.0
        grad = delta.T @ feats / len(feats)
        if self.l2:
            return (grad + self._penalty_grad(w)).ravel()
        grad += 0.0
        return grad.ravel()

    def eval_local(self, client: int, x: np.ndarray) -> float:
        self._check_client(client)
        w = self._weights(x)
        logp = self._log_softmax(self._features[client] @ w.T)
        labels = self.labels[client]
        return -float(logp[np.arange(len(labels)), labels].mean()) + self._penalty(w)

    def grad_local(self, client: int, x: np.ndarray) -> np.ndarray:
        self._check_client(client)
        return self._grad(self._weights(x), self._features[client], self.labels[client])

    def stoch_grad_local(self, client: int, x: np.ndarray, u: Sequence[float]) -> np.ndarray:
        self._check_client(client)
        w = self._weights(x)
        labels = self.labels[client]
        n = len(labels)
        # int() truncates like a cast to int64, as 0 <= u * n < 2**53; min()
        # catches u * n rounding up to n. Plain lists skip small-array costs.
        if self.draws > 1:
            idx = [min(int(u[k] * n), n - 1) for k in range(self.draws)]
            return self._grad(w, self._features[client].take(idx, axis=0), labels.take(idx))
        i = min(int(u[0] * n), n - 1)
        f = self._features[client][i]
        logits = w @ f
        shifted = logits - np.maximum.reduce(logits)
        delta = np.exp(shifted - np.log(np.add.reduce(np.exp(shifted))))
        delta[labels[i]] -= 1.0
        grad = np.multiply.outer(delta, f)
        grad += 0.0
        if self.l2:
            grad += self._penalty_grad(w)
        return grad.ravel()

    def test_metric(self, x: np.ndarray) -> float:
        if self._test is None:
            return float("nan")
        feats, labels = self._test
        predicted = np.argmax(feats @ self._weights(x).T, axis=1)
        return float(np.mean(predicted == labels))
