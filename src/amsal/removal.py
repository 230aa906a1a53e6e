"""Erasure operators fitted from an alignment.

Spectral removal keeps only the left singular directions of the
cross-covariance with the smallest singular values: projecting inputs
onto that subspace drives their covariance with the guarded records to
the discarded singular values, exactly. Nullspace removal repeatedly
trains a linear probe for the guarded labels and projects the data onto
the orthogonal complement of the accumulated probe directions. The probe is
full-batch softmax regression laid out class-major: weights and bias are
one (c, d + 1) matrix on the augmented design [x, 1], so an epoch is two
GEMMs and a softmax reduced over the short class axis.

Both erasers subtract the means stored at fit time and then apply an
orthogonal projection, so the output stays in the original coordinate
system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import (RANK_RTOL, _fix_signs, _matmul, _rank, as_matrix, center_columns,
                     cross_covariance)

SAL = "sal"
INLP = "inlp"

# fixed probe budget: full-batch gradient descent with a decaying step,
# shared by the INLP rounds, probe_accuracy and the pipeline's task probe
PROBE_EPOCHS = 500
PROBE_STEP = 0.1
INLP_STOP_SLACK = 0.02
INLP_ROUNDS = 10  # default cap on the INLP probe rounds


@dataclass(frozen=True, eq=False)
class Eraser:
    """A fitted removal operator.

    kind "sal": basis is d x (d - removed) with orthonormal columns and
    the eraser maps x to (x - means) B B^T. kind "inlp": projection is a
    d x d symmetric idempotent matrix and the eraser maps x to
    (x - means) P.
    """

    kind: str
    input_means: np.ndarray
    basis: np.ndarray | None = None
    removed: int | None = None
    projection: np.ndarray | None = None
    iterations: int | None = None

    def __post_init__(self):
        if self.kind not in (SAL, INLP):
            raise InvalidInput(f"unknown eraser kind {self.kind!r}")
        matrix = self.basis if self.kind == SAL else self.projection
        if matrix.shape[0] != self.dim:
            raise InvalidInput(f"{self.dim} input means for {matrix.shape[0]} matrix rows")
        if self.kind == INLP and matrix.shape != (self.dim, self.dim):
            raise InvalidInput(f"nullspace projection must be square, got {matrix.shape}")
        # a huge or non-finite entry makes a check value inf or nan, which fails
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == SAL:
                gram = _matmul(matrix.T, matrix)
                if not np.abs(gram - np.eye(matrix.shape[1])).max() <= 1e-10:
                    raise InvalidInput("spectral basis columns are not orthonormal")
            else:
                if not np.abs(matrix - matrix.T).max() <= 1e-10:
                    raise InvalidInput("nullspace projection is not symmetric")
                if not np.sqrt(np.sum((_matmul(matrix, matrix) - matrix) ** 2)) <= 1e-8:
                    raise InvalidInput("nullspace projection is not idempotent")

    @property
    def dim(self):
        return self.input_means.shape[0]

    @property
    def matrix(self):
        """The d x d projection applied after centering."""
        if self.kind == SAL:
            return _matmul(self.basis, self.basis.T)
        return self.projection


def fit_sal(x, records, pi, r="auto"):
    """Spectral eraser from the cross-covariance under the map pi.

    r is the number of leading directions to drop; "auto" uses the
    numerical rank of the cross-covariance, clamped to [1, d'] (the
    protocol removed between 2 and 6 directions this way). The retained
    basis is the orthogonal complement of the dropped directions, so
    erased inputs keep their ambient dimension.
    """
    x = as_matrix(x, "x")
    n, d = x.shape
    x_c, means = center_columns(x)
    omega = cross_covariance(x_c, records.z, pi)
    u_full, sigma, _ = np.linalg.svd(omega, full_matrices=True)
    if r == "auto":
        rank = _rank(sigma)
        if rank == 0:
            raise InvalidInput("cross-covariance is zero; nothing to remove")
        r = min(rank, records.dim)
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise InvalidInput(f"r must be a positive count or 'auto', got {r!r}")
    if r >= d:
        raise InvalidInput(f"cannot remove r={r} of d={d} directions")
    u_full, _ = _fix_signs(u_full)  # the svd sign convention, for the kept columns too
    return Eraser(kind=SAL, input_means=means, basis=u_full[:, r:], removed=int(r))


def fit_inlp(x, z_labels, max_rounds):
    """Iterative nullspace eraser against per-sample guarded class ids.

    Each round fits a softmax probe on the projected data, stops once its
    accuracy is within INLP_STOP_SLACK of the majority baseline, and
    otherwise adds the probe's discriminative directions to the removed
    subspace. The composed projection is symmetric and idempotent by
    construction (complement of an orthonormal basis).
    """
    x = as_matrix(x, "x")
    y = np.asarray(z_labels)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise InvalidInput("z_labels must give one class id per row of x")
    classes, y = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise InvalidInput("nullspace removal needs at least 2 classes")
    if max_rounds < 0:
        raise InvalidInput("max_rounds must be non-negative")
    n, d = x.shape
    x_c, means = center_columns(x)
    majority = float(np.bincount(y).max()) / n

    removed = np.zeros((d, 0))
    x_proj = x_c
    rounds = 0
    for _ in range(max_rounds):
        w, b = fit_logistic_probe(x_proj, y, classes.size)
        acc = float(np.mean((x_proj @ w.T + b).argmax(axis=1) == y))
        if acc <= majority + INLP_STOP_SLACK:
            break
        dirs = (w - w.mean(axis=0)).T  # (d, c); row shifts do not change the probe
        dirs = dirs - removed @ (removed.T @ dirs)
        q, s, _ = np.linalg.svd(dirs, full_matrices=False)
        keep = s > max(1e-12, RANK_RTOL * s[0]) if s.size and s[0] > 0 else np.zeros(0, bool)
        if not keep.any():
            break
        removed = np.hstack([removed, q[:, keep]])
        if removed.shape[1] >= d:
            removed = removed[:, :d]
            x_proj = np.zeros_like(x_c)
            rounds += 1
            break
        x_proj = x_c - (x_c @ removed) @ removed.T
        rounds += 1
    projection = np.eye(d) - removed @ removed.T
    projection = (projection + projection.T) / 2.0
    return Eraser(kind=INLP, input_means=means, projection=projection, iterations=rounds)


def apply_eraser(eraser, x):
    """Center with the fit-time means and project; the output keeps the
    ambient dimension."""
    x = as_matrix(x, "x")
    if x.shape[1] != eraser.dim:
        raise InvalidInput(f"x has {x.shape[1]} columns, eraser expects {eraser.dim}")
    return _matmul(x - eraser.input_means, eraser.matrix)


def fit_logistic_probe(x, y, num_classes):
    """Full-batch softmax regression with the fixed training budget.

    Deterministic (zero init); returns (weights (c, d), bias (c,)). Runs
    class-major on [x, 1]: (c, n) logits reduce over axis 0, and one
    GEMM gives the weight and the bias gradient together.
    """
    n, d = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    wa = np.zeros((num_classes, d + 1))
    onehot = np.zeros((num_classes, n))
    onehot[y, np.arange(n)] = 1.0
    for t in range(PROBE_EPOCHS):
        p = wa @ xa.T
        p -= p.max(axis=0)
        np.exp(p, out=p)
        p /= p.sum(axis=0)
        p -= onehot
        wa -= (PROBE_STEP / (1.0 + t / 100.0) / n) * (p @ xa)
    return wa[:, :d].copy(), wa[:, d].copy()


def probe_accuracy(x, y):
    """Training accuracy of a freshly fitted probe; the in-sample yardstick
    used to judge whether guarded information survived erasure."""
    x = as_matrix(x, "x")
    y = np.asarray(y)
    classes, y = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise InvalidInput("probe needs at least 2 classes")
    w, b = fit_logistic_probe(x, y, classes.size)
    return float(np.mean((x @ w.T + b).argmax(axis=1) == y))
