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

Both erasers store the orthonormal directions they remove and apply one
operator, x -> (x - means)(I - R R^T), with the means stored at fit time,
so the output stays in the original coordinate system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import (_check_cross_scale, _fix_signs, _gram, _matmul, _rank,
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
    """A fitted removal operator: it maps x to (x - input_means)(I - R R^T),
    where R = directions is d x r with orthonormal columns.

    kind "sal": R holds the r leading left singular directions of the
    cross-covariance, and iterations is 0. kind "inlp": R holds the
    directions the probes found in `iterations` rounds.
    """

    kind: str
    input_means: np.ndarray
    directions: np.ndarray
    iterations: int

    def __post_init__(self):
        if self.kind not in (SAL, INLP):
            raise InvalidInput(f"unknown eraser kind {self.kind!r}")
        means, dirs = self.input_means, self.directions
        if np.ndim(means) != 1 or not np.all(np.isfinite(means)):
            raise InvalidInput(f"input means must be a finite vector, got shape "
                               f"{np.shape(means)}")
        if np.ndim(dirs) != 2 or dirs.shape[0] != means.shape[0]:
            raise InvalidInput(f"{means.shape[0]} input means for directions of shape "
                               f"{np.shape(dirs)}")
        if not isinstance(self.iterations, (int, np.integer)) or not 0 <= self.iterations < 2**32:
            raise InvalidInput(f"iterations must be a count below 2**32, got {self.iterations!r}")
        if self.kind == SAL and self.iterations != 0:
            raise InvalidInput(f"a spectral eraser has 0 iterations, got {self.iterations}")
        # a huge or non-finite entry makes the check value inf or nan, which fails
        with np.errstate(over="ignore", invalid="ignore"):
            gram = _matmul(dirs.T, dirs)
            if not np.abs(gram - np.eye(dirs.shape[1])).max(initial=0.0) <= 1e-10:
                raise InvalidInput("removed directions are not orthonormal")

    @property
    def dim(self):
        return self.input_means.shape[0]

    @property
    def removed(self):
        """The number of removed directions."""
        return self.directions.shape[1]


def _project_out(x, directions):
    """x - (x R) R^T: the rows of x with the span of R's orthonormal columns removed."""
    return x - _matmul(_matmul(x, directions), directions.T)


def fit_sal(x, records, pi, r="auto"):
    """Spectral eraser from the cross-covariance under the map pi.

    r is the number of leading left singular directions to remove, any
    count below d; "auto" uses the numerical rank of the cross-covariance,
    clamped to [1, d'] (the protocol removed between 2 and 6 directions
    this way).
    """
    x = as_matrix(x, "x")
    n, d = x.shape
    x_c, means = center_columns(x)
    _check_cross_scale(x_c, records.z)
    omega = cross_covariance(x_c, records.z, pi)
    used = np.unique(getattr(pi, "map", pi)).size
    if used < 2:  # centered x against one record row: omega is rounding noise
        raise InvalidInput(f"spectral removal needs inputs in at least 2 records; "
                           f"the map uses {used}")
    u_full, sigma, _ = np.linalg.svd(omega, full_matrices=True)
    if r == "auto":
        rank = _rank(sigma)
        if rank == 0:
            raise InvalidInput("cross-covariance is zero; nothing to remove")
        r = min(rank, records.dim)
    _check_rank(r, d)
    directions, _ = _fix_signs(u_full[:, :r])
    return Eraser(kind=SAL, input_means=means, directions=directions, iterations=0)


def _check_rank(r, d=None, name="r"):
    """Refuse a SAL rank `name` that is neither "auto" nor a count in
    [1, d) (any positive count where d is None)."""
    if r == "auto":
        return
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise InvalidInput(f"{name} must be a positive count or 'auto', got {r!r}")
    if d is not None and r >= d:
        raise InvalidInput(f"cannot remove {name}={r} of d={d} directions")


def _check_rounds(max_rounds, name="max_rounds"):
    """Refuse a negative INLP round cap `name`."""
    if max_rounds < 0:
        raise InvalidInput(f"{name} must be non-negative, got {max_rounds}")


def fit_inlp(x, z_labels, max_rounds):
    """Iterative nullspace eraser against per-sample guarded class ids.

    Each round fits a softmax probe on the projected data, stops once its
    accuracy is within INLP_STOP_SLACK of the majority baseline, and
    otherwise adds the probe's discriminative directions, made orthogonal
    to those already removed, to the removed set. The eraser stores that
    set, so unless the round cap is hit or all d directions are removed,
    erasing x gives exactly the inputs the last probe saw.
    """
    x = as_matrix(x, "x")
    y = np.asarray(z_labels)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise InvalidInput("z_labels must give one class id per row of x")
    classes, y = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise InvalidInput("nullspace removal needs at least 2 classes")
    _check_rounds(max_rounds)
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
        floor = 1e-6 * np.linalg.norm(dirs)  # less than this outside the removed span is rounding
        for _ in range(2):  # one pass leaves them skew where the probe rescaled columns
            dirs = dirs - removed @ (removed.T @ dirs)
        q, s, _ = np.linalg.svd(dirs, full_matrices=False)
        keep = s > floor
        if not keep.any():
            break
        removed = np.hstack([removed, q[:, keep]])[:, :d]
        rounds += 1
        if removed.shape[1] == d:
            break
        x_proj = _project_out(x_c, removed)
    return Eraser(kind=INLP, input_means=means, directions=removed, iterations=rounds)


def apply_eraser(eraser, x):
    """Center with the fit-time means and remove the eraser's directions;
    the output keeps the ambient dimension."""
    x = as_matrix(x, "x")
    if x.shape[1] != eraser.dim:
        raise InvalidInput(f"x has {x.shape[1]} columns, eraser expects {eraser.dim}")
    return _project_out(x - eraser.input_means, eraser.directions)


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
