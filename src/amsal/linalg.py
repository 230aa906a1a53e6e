"""Dense matrix core: SVD with a fixed sign convention, norms, centering,
and the empirical cross-covariance between inputs and aligned records.

All functions are pure and never mutate their arguments; matrices are
64-bit float, row-major, with rows as samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

# A singular value sigma[i] counts toward the numerical rank iff
# sigma[i] > RANK_RTOL * sigma[0].
RANK_RTOL = 1e-10


def as_matrix(a, name="matrix"):
    """Validate and return *a* as a finite 2-d float64 array."""
    if isinstance(a, np.ndarray) and np.iscomplexobj(a):
        raise InvalidInput(f"{name} must be real, got complex entries")
    try:
        out = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be a numeric matrix: {exc}") from None
    if out.ndim != 2:
        raise InvalidInput(f"{name} must be 2-d, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise InvalidInput(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(out)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return out


def _as_index_map(pi, n, m=None):
    """Accept an Assignment or a plain index array; return int64 indices of length n.

    Errors name the first bad row: a missing or extra one, or a record id
    outside [0, m).
    """
    idx = np.asarray(getattr(pi, "map", pi))
    if idx.ndim != 1:
        raise InvalidInput(f"assignment must be a 1-d index array, got shape {idx.shape}")
    if idx.shape[0] != n:
        k = idx.shape[0]
        raise InvalidInput(f"row {min(k, n)}: the map has {k} rows, expected {n}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise InvalidInput("assignment indices must be integers")
    idx = idx.astype(np.int64)
    if idx.min() < 0 or (m is not None and idx.max() >= m):
        if m is None:
            r = int(np.argmax(idx < 0))
            raise InvalidInput(f"row {r}: record id {idx[r]} is negative")
        r = int(np.argmax((idx < 0) | (idx >= m)))
        raise InvalidInput(f"row {r}: record id {idx[r]} outside [0, {m})")
    return idx


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD a = u @ diag(sigma) @ v.T with sigma sorted descending.

    u has orthonormal columns (rows x r), v likewise (cols x r),
    r = min(rows, cols). The sign of each singular pair is fixed so the
    largest-magnitude entry of every column of u is positive (first such
    entry on ties), which makes repeated runs reproducible.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self):
        """Numerical rank: count of sigma[i] > RANK_RTOL * sigma[0]."""
        return _rank(self.sigma)


def _rank(sigma):
    """Count of sigma[i] > RANK_RTOL * sigma[0] for descending sigma."""
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int(np.sum(sigma > RANK_RTOL * sigma[0]))


def _fix_signs(u):
    """Copy of u with each column flipped so its largest-magnitude entry
    (the first on ties) is positive, and the mask of flipped columns."""
    peak = np.abs(u).argmax(axis=0)
    flip = u[peak, np.arange(u.shape[1])] < 0.0
    u = u.copy()
    u[:, flip] *= -1.0
    return u, flip


# OpenBLAS spreads a product of more than 2**18 multiply-adds over its
# threads, and the workers then busy-wait for about 0.1 s after the call,
# taking a core from the single-threaded code that follows. A product whose
# rows split into blocks of at least MIN_BLOCK_ROWS under that size is run
# block by block on the calling thread; the bits are the same, since BLAS
# splits rows and columns among threads, never the summed axis. numpy's
# eigvalsh wakes the threads too once the matrix is larger than 64 x 64,
# so a bound on the top eigenvalue is taken from products instead.
ONE_THREAD_MADDS = 1 << 18
MIN_BLOCK_ROWS = 16
EIG_SQUARINGS = 7


def _matmul(a, b):
    """a @ b for 2-d arrays, on the calling thread where row blocks allow."""
    rows = ONE_THREAD_MADDS // max(1, a.shape[1] * b.shape[1])
    if rows < MIN_BLOCK_ROWS or a.shape[0] <= rows:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for i in range(0, a.shape[0], rows):
        np.matmul(a[i:i + rows], b, out=out[i:i + rows])
    return out


def _gram(a):
    """a.T @ a for a 2-d array, summed over row blocks on the calling thread
    where they allow; unlike _matmul's, the bits can differ from a.T @ a."""
    rows = ONE_THREAD_MADDS // max(1, a.shape[1] * a.shape[1])
    if rows < MIN_BLOCK_ROWS or a.shape[0] <= rows:
        return a.T @ a
    out = np.zeros((a.shape[1], a.shape[1]), dtype=a.dtype)
    for i in range(0, a.shape[0], rows):
        block = a[i:i + rows]
        out += block.T @ block
    return out


def _top_eigenvalue_bound(gram):
    """An upper bound on the largest eigenvalue of a symmetric positive
    semidefinite matrix: trace(gram^p)^(1/p) for p = 2**EIG_SQUARINGS, by
    repeated squaring with _matmul. For a matrix of order d it exceeds the
    eigenvalue by a factor of at most d^(1/p) (1.039 at d = 128; equality
    for the identity), and it is 0 for the zero matrix."""
    total = float(np.trace(gram))
    if not total > 0.0:
        return 0.0
    power = gram / total
    log_bound = 0.0
    for k in range(1, EIG_SQUARINGS + 1):
        power = _matmul(power, power)
        t = np.trace(power)
        power /= t
        log_bound += np.log(t) / 2 ** k
    return total * float(np.exp(log_bound))


def svd(a):
    """Thin SVD of *a* with the deterministic sign convention.

    Raises InvalidInput on non-finite input.
    """
    a = as_matrix(a, "a")
    return _signed_svd(*np.linalg.svd(a, full_matrices=False))


def _signed_svd(u, s, vt):
    """SvdResult of the thin factors np.linalg.svd returns, with the
    sign convention applied."""
    u, flip = _fix_signs(u)
    v = vt.T.copy()
    v[:, flip] *= -1.0
    return SvdResult(u=u, sigma=s, v=v)


def cross_covariance(x, z, pi):
    """Empirical cross-covariance sum_i x_i z_{pi(i)}^T (an unnormalized sum).

    x is n x d, z is m x d', pi maps [n] into [m]. The raw sum is kept
    because every downstream use (singular directions, assignment argmax)
    is invariant to a positive rescaling.
    """
    x = as_matrix(x, "x")
    z = as_matrix(z, "z")
    idx = _as_index_map(pi, x.shape[0], z.shape[0])
    return x.T @ z[idx]


def _check_cross_scale(x, z):
    """Raise InvalidInput unless the cross-covariance of x and the record
    rows z stays finite under every map, and so do the scores and the
    objective built from it: each entry of any of them is at most the sum
    of |x| times the largest row sum of |z|."""
    with np.errstate(over="ignore"):
        mass, row = np.abs(x).sum(), np.abs(z).sum(axis=1).max()
        bound = mass * row
    if not bound <= np.finfo(np.float64).max / 2:
        raise InvalidInput(f"the cross-covariance of x and the records overflows float64: "
                           f"x sums to {mass:.3g} in magnitude and a record row to "
                           f"{row:.3g}; rescale the inputs")


def _check_distance_scale(x):
    """Raise InvalidInput unless the column sums of |x| stay finite, and so
    does n times the squared diameter of the rows' bounding box, which holds
    every k-means center: that bounds any total of their squared distances."""
    with np.errstate(over="ignore"):
        width, mass = x.max(axis=0) - x.min(axis=0), np.abs(x).sum(axis=0).max()
        bound = max(x.shape[0] * np.sum(width * width), mass)
    if not bound <= np.finfo(np.float64).max / 2:
        raise InvalidInput(f"the squared distances between the rows of x overflow float64: "
                           f"a column spans up to {width.max():.3g} and sums to {mass:.3g} "
                           f"in magnitude; rescale the inputs")


def center_columns(x):
    """Subtract per-column means; returns (centered, means)."""
    x = as_matrix(x, "x")
    means = x.mean(axis=0)
    return x - means, means


def spectral_norm(a):
    """Largest singular value."""
    a = as_matrix(a, "a")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def singular_value_sum(a):
    """Sum of all singular values (the nuclear norm)."""
    a = as_matrix(a, "a")
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))

