"""Client objectives with exact gradients and stochastic gradient oracles.

Three families are provided. A four-dimensional two-client nonsmooth
construction whose heterogeneity, opposing slopes on a coordinate of their
own, never reaches the other coordinates; a quadratic with per-client
centers used as a closed-form oracle in tests; and multinomial logistic
regression over per-client datasets.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from .core import gaussians_from

# +0.0 as a 0-d array: adding it turns -0.0 into 0.0 like adding the Python
# float, without converting that float on every call.
_ZERO = np.array(0.0)

# Logits one evaluation pass holds at most (64 KB). A pass this small stays
# in cache, and its temporaries stay under glibc's default 128 KB threshold
# for mapping fresh pages: one pass over all 10,000 desk rows allocates
# 800 KB arrays, which cost about 700 page faults a mark when so mapped.
_PASS_DOUBLES = 1 << 13


class Objective:
    """Oracle interface for the per-client losses f_i and their average f.

    `draws` is the number of noise values one `stoch_grad_local` call
    reads. Each is a uniform passed through `noise`, which the caller
    applies once to a whole block of uniforms.
    """

    dim: int
    n_clients: int
    draws: int

    def eval_local(self, client: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad_local(self, client: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def noise(self, u: np.ndarray) -> np.ndarray:
        """Map an array of uniforms in [0, 1) elementwise, keeping its shape,
        to the noise values `stoch_grad_local` reads: N(0, sigma^2) draws with
        the objective's `sigma`, unless an objective overrides this map.
        Elementwise means a block maps to the same bits whatever else is
        mapped with it."""
        return gaussians_from(u, self.sigma)

    def stoch_grad_local(self, client: int, x: np.ndarray, z: Sequence[float]) -> np.ndarray:
        """One stochastic gradient draw from the noise values `z`.

        `z` holds exactly `draws` floats, the uniforms the caller addressed to
        this call mapped through `noise`, read by position: the oracle opens no
        stream, and reading `z[draws]` raises IndexError. The caller ensures,
        unchecked, a `client` in [0, n_clients) and a float64 `x` of shape (dim,).

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
    the loss. h = 16, c = 1 and mu_pl = 2 are fixed constants; ROADMAP
    item 1 changes them in code, with the derivation that chooses them."""

    dim = 4
    n_clients = 2
    draws = 1

    def __init__(self, kappa: float = 16.0, sigma: float = 1.0):
        if sigma < 0 or kappa < 0:
            raise ValueError("sigma and kappa must be >= 0.")
        self.kappa = kappa
        self.sigma = sigma
        # Instance attributes: the oracle reads them every call, and CPython
        # 3.11 reads a class attribute through `self` more slowly.
        self.h = 16.0
        self.c = 1.0
        self.mu_pl = 2.0
        self._x2_star = float(np.sqrt(self.mu_pl) * self.c / np.sqrt(self.h))

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
        # Adding -0.0 returns every double unchanged, -0.0 included.
        return self.stoch_grad_local(client, self._check_x(x), (-0.0,))

    def stoch_grad_local(self, client: int, x: np.ndarray, z: Sequence[float]) -> np.ndarray:
        # Python floats are the same IEEE doubles as numpy scalars and much
        # cheaper to operate on one at a time.
        x0, x1, x2, _ = x.tolist()
        # The one-sided square is differentiable at 0 with derivative 0, so
        # the strict inequality handles the kink.
        g2 = 0.25 * self.h * x2
        if x2 > 0:
            g2 += 0.25 * self.h * x2
        return np.array([self.mu_pl * (x0 - self.c), self.h * (x1 - self._x2_star), g2 + z[0],
                         self.kappa if client == 0 else -self.kappa])


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

    def stoch_grad_local(self, client: int, x: np.ndarray, z: Sequence[float]) -> np.ndarray:
        return x - self.centers[client] + z


class Logistic(Objective):
    """Multinomial softmax regression over per-client sample sets.

    Parameters are a (num_classes, num_features + 1) weight matrix stored
    flat; the trailing column is a bias fed by a constant 1 feature. A
    stochastic gradient is the gradient on one uniformly drawn local
    sample. `labels[i]` holds client i's labels, which
    `fedsim partition-report` counts.

    All clients' rows sit in one bias-extended feature matrix and one label
    vector, client i's shard being its i-th row block; `labels[i]` is a view
    of that block. Two helpers work on any rows split into blocks: `_losses`
    gives each block's mean loss and `_grads` each block's mean gradient.
    `eval_local` and `grad_local` call them on one client's block, and
    `eval_global` and `grad_global` on each evaluation pass: a run of
    consecutive clients with at most `_PASS_DOUBLES` logits, or one larger
    client, or one client of a single row. A pass over many blocks computes
    one matrix of logits and one log-softmax, then reduces each block as a
    pass over that block alone would: rows of a matrix product are
    independent, the loss is `np.mean`'s own arithmetic, `np.add.reduce`
    over the block divided by its length, and each gradient is its block's
    own product. So the global values keep the bits of a loop over clients.
    Every loss and gradient adds +0.0 last, which turns -0.0 into 0.0: the
    loss of a block the model fits exactly is 0.0, and no gradient entry is
    -0.0.

    `stoch_grad_local` works on the drawn row as 1-D arrays, which skips
    most of the small-array overhead, and returns the same bits as `_grads`
    on that row:
    - the logits `w.dot(f)` go through the same matrix-vector kernel as a
      one-row `f @ w.T`;
    - each entry of `np.multiply.outer(delta, f)` is the one exact multiply
      of the k = 1 matrix product, and `+= 0.0` turns its -0.0 into the
      product's 0.0;
    - the mean over one row skips the divide, since `x / 1 == x`.
    """

    draws = 1

    def __init__(self, shards: list[tuple[np.ndarray, np.ndarray]], num_classes: int,
                 test_set: tuple[np.ndarray, np.ndarray] | None = None):
        if not shards:
            raise ValueError("at least one client shard is required.")
        num_features = shards[0][0].shape[1]

        def checked(name: str, feats: np.ndarray, labels: np.ndarray):
            """The features and the labels as ints, once both are checked."""
            labels = np.asarray(labels, dtype=int)
            if len(labels) == 0:
                raise ValueError(f"{name} has no samples.")
            if feats.shape[1] != num_features:
                raise ValueError(f"{name} has {feats.shape[1]} features, expected {num_features}.")
            # A negative label would wrap around when indexing, silently
            # training on the last classes; a held-out label the model cannot
            # predict would only ever count as a miss.
            if labels.min() < 0 or labels.max() >= num_classes:
                raise ValueError(f"{name} has labels outside [0, {num_classes}).")
            return feats, labels

        def with_bias(feats: np.ndarray) -> np.ndarray:
            return np.hstack([feats, np.ones((feats.shape[0], 1))])

        feats, labels = zip(*(checked(f"client {idx}", *shard) for idx, shard in enumerate(shards)))
        bounds = [0, *itertools.accumulate(len(y) for y in labels)]
        feats, labels = with_bias(np.vstack(feats)), np.concatenate(labels)
        self._features = [feats[a:b] for a, b in zip(bounds, bounds[1:])]
        self.labels = [labels[a:b] for a, b in zip(bounds, bounds[1:])]
        # Evaluation passes: runs of consecutive clients whose logits fit
        # _PASS_DOUBLES, a larger client alone, and a one-row client alone:
        # numpy multiplies a one-row matrix with its matrix-vector kernel,
        # whose sums round otherwise than the matrix product's. Each pass is
        # held as its rows, their labels and its clients' bounds within it.
        firsts = [0]
        for i in range(1, len(shards)):
            if (1 in (bounds[i + 1] - bounds[i], bounds[i] - bounds[i - 1])
                    or (bounds[i + 1] - bounds[firsts[-1]]) * num_classes > _PASS_DOUBLES):
                firsts.append(i)
        self._passes = []
        for first, stop in zip(firsts, firsts[1:] + [len(shards)]):
            a, b = bounds[first], bounds[stop]
            self._passes.append((feats[a:b], labels[a:b], [k - a for k in bounds[first:stop + 1]]))
        self._test = None
        if test_set is not None:
            test_feats, test_labels = checked("the test set", *test_set)
            self._test = with_bias(test_feats), test_labels
        self.num_classes = num_classes
        self.num_features = num_features
        self.n_clients = len(shards)
        self.dim = num_classes * (num_features + 1)

    def _weights(self, x: np.ndarray) -> np.ndarray:
        return self._check_x(x).reshape(self.num_classes, self.num_features + 1)

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        """Row-wise log-softmax of a 2-D array, computed in place."""
        # The row max as a chain of whole-column maxima, since numpy's axis=1
        # reduce runs one short loop per row. Max is exact, so the chain can
        # differ from that reduce only in which of several equal values it
        # keeps. For a tie of 0.0 and -0.0 the output hides it: both add
        # exp(0) = 1 to the sum, whose log is then positive. Logits of a
        # finite model hold no NaNs of two signs, the one other such case.
        # The row sum stays the reduce, whose pairwise order sets the bits.
        peak = logits[:, 0].copy()
        for column in logits.T[1:]:
            np.maximum(peak, column, out=peak)
        logits -= peak[:, None]
        logits -= np.log(np.add.reduce(np.exp(logits), axis=1, keepdims=True))
        return logits

    def _losses(self, w: np.ndarray, feats: np.ndarray, labels: np.ndarray,
                bounds: Sequence[int]) -> list[float]:
        """Mean cross-entropy of each block of rows."""
        picked = self._log_softmax(feats @ w.T)[np.arange(len(labels)), labels]
        return [-float(np.add.reduce(picked[a:b]) / (b - a)) + 0.0
                for a, b in zip(bounds, bounds[1:])]

    def _grads(self, w: np.ndarray, feats: np.ndarray, labels: np.ndarray,
               bounds: Sequence[int]) -> list[np.ndarray]:
        """Mean cross-entropy gradient of each block of rows, raveled."""
        delta = self._log_softmax(feats @ w.T)
        np.exp(delta, out=delta)
        delta[np.arange(len(labels)), labels] -= 1.0
        grads = []
        for a, b in zip(bounds, bounds[1:]):
            grad = delta[a:b].T @ feats[a:b] / (b - a)
            # OpenBLAS starts each sum of this product from +0.0, so an
            # all-zero column of `delta` already gives 0.0; a BLAS kernel that
            # starts from the first product would give -0.0 for a negative
            # feature, and this add keeps the bits the same on such a kernel.
            grad += _ZERO
            grads.append(grad.ravel())
        return grads

    def eval_local(self, client: int, x: np.ndarray) -> float:
        self._check_client(client)
        labels = self.labels[client]
        return self._losses(self._weights(x), self._features[client], labels, (0, len(labels)))[0]

    def grad_local(self, client: int, x: np.ndarray) -> np.ndarray:
        self._check_client(client)
        labels = self.labels[client]
        return self._grads(self._weights(x), self._features[client], labels, (0, len(labels)))[0]

    def eval_global(self, x: np.ndarray) -> float:
        w = self._weights(x)
        return float(np.mean([loss for block in self._passes for loss in self._losses(w, *block)]))

    def grad_global(self, x: np.ndarray) -> np.ndarray:
        w = self._weights(x)
        total = np.zeros(self.dim)
        for block in self._passes:
            for grad in self._grads(w, *block):
                total += grad
        return total / self.n_clients

    def noise(self, u: np.ndarray) -> np.ndarray:
        # The draw picks a sample, so it stays a uniform.
        return u

    def stoch_grad_local(self, client: int, x: np.ndarray, u: Sequence[float]) -> np.ndarray:
        w = x.reshape(self.num_classes, self.num_features + 1)
        labels = self.labels[client]
        n = len(labels)
        # int() truncates like a cast to int64, as 0 <= u * n < 2**53; min()
        # catches u * n rounding up to n.
        i = min(int(u[0] * n), n - 1)
        f = self._features[client][i]
        # `dot` calls the kernel `@` calls without the ufunc dispatch.
        logits = w.dot(f)
        shifted = logits - np.maximum.reduce(logits)
        delta = np.exp(shifted - np.log(np.add.reduce(np.exp(shifted))))
        delta[labels[i]] -= 1.0
        grad = np.multiply.outer(delta, f)
        grad += _ZERO
        return grad.ravel()

    def test_metric(self, x: np.ndarray) -> float:
        if self._test is None:
            return float("nan")
        feats, labels = self._test
        predicted = np.argmax(feats @ self._weights(x).T, axis=1)
        return float(np.mean(predicted == labels))
