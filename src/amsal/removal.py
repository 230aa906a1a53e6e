"""Erasure operators fitted from an alignment.

Spectral removal keeps only the left singular directions of the
cross-covariance with the smallest singular values: projecting inputs
onto that subspace drives their covariance with the guarded records to
the discarded singular values, exactly. Nullspace removal repeatedly
trains a linear probe for the guarded labels and projects the data onto
the orthogonal complement of the accumulated probe directions.

The probe, shared by the INLP rounds, `probe_accuracy` and the pipeline's
task probe, is ridge softmax regression on standardized features trained
to convergence, as INLP trains its probes: its answer depends neither on
the scale or offset of a column nor on an epoch budget. It descends with
Nesterov momentum that restarts whenever a step goes uphill, which needs
no estimate of the objective's curvature.

Both erasers subtract the means stored at fit time and then apply an
orthogonal projection, so the output stays in the original coordinate
system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import (RANK_RTOL, _check_cross_scale, _fix_signs, _gram, _matmul, _rank,
                     _top_eigenvalue_bound, as_matrix, center_columns, cross_covariance)

SAL = "sal"
INLP = "inlp"

# the probe: ridge weight on the standardized weights, the gradient
# tolerance relative to the gradient at zero, and the cap on its epochs.
# Both were chosen on the tests' probe corpus against an exact Newton solve:
# a tolerance of 1e-4 still flips near-tied predictions (logit margins of
# 2e-4) on features of magnitude 20 to 30.
PROBE_L2 = 1e-2
PROBE_TOL = 1e-5
PROBE_EPOCHS = 500
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
    _check_cross_scale(x_c, records.z)
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
    """Ridge softmax regression on standardized features, trained to
    convergence; returns (weights (c, d), bias (c,)) in the coordinates of x.

    Each column is centered and divided by its standard deviation; a column
    whose deviation is at most 1e-12 of its largest magnitude is constant
    up to rounding and gets weight 0. The probe minimizes the mean softmax
    cross-entropy plus PROBE_L2 / 2 times the squared norm of the
    standardized weights (the bias is not penalized), so its predictions do
    not depend on the scale or offset of any column. Nesterov's accelerated
    gradient descent runs from zero at the step 1/L, where L bounds the
    gradient's Lipschitz constant from above through
    linalg._top_eigenvalue_bound. Its momentum is (t_k - 1) / t_{k+1} with
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2 and t_0 = 1, and t falls back to 1
    whenever a step points uphill: the gradient at the look-ahead point has
    a positive inner product with the step (the gradient restart of
    O'Donoghue and Candes, 2015). The restart adapts to the objective's
    curvature, which a class of one member makes far smaller than PROBE_L2
    along its bias. It stops once the largest gradient entry is at most
    PROBE_TOL of its value at zero, or after PROBE_EPOCHS epochs. The work
    is class-major on one (n, d + 1) buffer [xs, 1]: (c, n) logits reduce
    over axis 0, and one GEMM gives the weight and the bias gradient
    together.

    Raises InvalidInput unless x is a finite matrix, num_classes an integer
    of at least 2 and y one integer class id in [0, num_classes) per row.
    """
    x = as_matrix(x, "x")
    n, d = x.shape
    if not isinstance(num_classes, (int, np.integer)) or num_classes < 2:
        raise InvalidInput(f"num_classes must be an integer of at least 2, got {num_classes!r}")
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != n:
        raise InvalidInput(f"y must give one class id per row of x: shape {y.shape} "
                           f"for {n} rows")
    if not np.issubdtype(y.dtype, np.integer):
        raise InvalidInput(f"y must hold integer class ids, got dtype {y.dtype}")
    bad = (y < 0) | (y >= num_classes)
    if bad.any():
        r = int(np.argmax(bad))
        raise InvalidInput(f"y row {r}: class id {y[r]} outside [0, {num_classes})")

    xa = np.empty((n, d + 1))
    xs = xa[:, :d]
    means = x.mean(axis=0)
    np.subtract(x, means, out=xs)
    scale = np.sqrt(np.einsum("ij,ij->j", xs, xs) / n)
    active = scale > 1e-12 * np.maximum(x.max(axis=0), -x.min(axis=0))
    inv = np.divide(1.0, scale, out=np.zeros(d), where=active)
    xs *= inv
    xa[:, d] = 1.0
    # xs is centered, so the Gram matrix of [xs, 1] / n is block-diagonal
    # with blocks xs^T xs / n and 1, and the softmax cross-entropy's Hessian
    # in the logits is at most 1/2
    lip = max(_top_eigenvalue_bound(_gram(xs)) / n, 1.0) / 2.0 + PROBE_L2

    onehot = np.zeros((num_classes, n))
    onehot[y, np.arange(n)] = 1.0
    wa = np.zeros((num_classes, d + 1))
    move = np.zeros_like(wa)  # the last step, x_k - x_{k-1}
    t, momentum = 1.0, 0.0
    first = None
    for _ in range(PROBE_EPOCHS):
        ahead = wa + momentum * move
        p = ahead @ xa.T
        p -= p.max(axis=0)
        np.exp(p, out=p)
        p /= p.sum(axis=0)
        p -= onehot
        grad = p @ xa
        grad /= n
        grad[:, :d] += PROBE_L2 * ahead[:, :d]
        size = np.abs(grad).max()
        if first is None:
            first = size
        if size <= PROBE_TOL * first:
            wa = ahead
            break
        new = ahead - grad / lip
        move, wa = new - wa, new
        if np.vdot(grad, move) > 0.0:  # the step points uphill: restart the momentum
            t = 1.0
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = (t - 1.0) / t_next
        t = t_next
    w = wa[:, :d] * inv
    return w, wa[:, d] - w @ means


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
