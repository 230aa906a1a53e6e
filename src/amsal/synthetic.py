"""Planted-data generator and empirical checks of the alignment theory.

Data follows a latent mixture: a hidden state h is drawn from the given
priors and both views are noisy images of per-state means,

    x_i = mu_x(h_i) + x_noise * eps,   z_i = mu_z(h_i) + z_noise * eps',

with entries clipped to a bound B so products of coordinates stay
bounded (the boundedness assumption the concentration argument needs).
State means sit on a randomly oriented regular simplex of circumradius
`separation` (two states are antipodal at distance 2 * separation) and
are recentred under the priors, so the population means are zero;
finite samples only approximate the conditional zero-mean assumption,
which these diagnostics tolerate by design.

The checks: a random permutation of a linked sample should have a
smaller singular-value sum of the cross-covariance than the identity
alignment (checked by Monte Carlo), perturbing a matrix moves each
singular value by at most the spectral norm of the perturbation, and
the aligned part of a permuted cross-covariance concentrates around its
analytic expectation at a rate governed by the usual exponential bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assignment import PRIOR_SLACK, Assignment, GuardedRecords, bounds_from_priors
from .errors import InvalidInput
from .linalg import as_matrix, center_columns, singular_value_sum, spectral_norm

CLIP_SIGMAS = 6.0  # default clipping radius in noise standard deviations


@dataclass(frozen=True)
class LatentSpec:
    """Parameters of the planted latent-mixture dataset."""

    n: int
    d: int
    d_prime: int
    num_states: int = 2
    state_priors: tuple = (0.5, 0.5)
    x_noise: float = 1.0
    z_noise: float = 1.0
    separation: float = 3.0
    bound_b: float | None = None  # None: wide enough that clipping rarely binds
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.n, self.d, self.d_prime, self.num_states) < 1:
            raise InvalidInput("n, d, d_prime and num_states must be positive")
        priors = np.asarray(self.state_priors, dtype=np.float64)
        if priors.shape != (self.num_states,):
            raise InvalidInput("state_priors must have one entry per state")
        if priors.min() < 0 or abs(priors.sum() - 1.0) > 1e-9:
            raise InvalidInput("state_priors must be non-negative and sum to 1")
        if self.x_noise < 0 or self.z_noise < 0 or self.separation < 0:
            raise InvalidInput("noise levels and separation must be non-negative")
        if self.bound_b is not None and self.bound_b <= 0:
            raise InvalidInput("bound_b must be positive")


@dataclass(frozen=True, eq=False)
class PlantedDataset:
    """Generated sample with its ground truth.

    truth is the identity alignment over the n rows; state_means_* are
    the recentred per-state means, kept so diagnostics can evaluate
    analytic expectations. clip_bound is the effective entry bound B.
    """

    spec: LatentSpec
    x: np.ndarray
    z: np.ndarray
    states: np.ndarray
    truth: Assignment
    state_means_x: np.ndarray
    state_means_z: np.ndarray
    clip_bound: float

    @property
    def n(self):
        return self.x.shape[0]

    def expected_cross_covariance(self):
        """Per-sample analytic E[x z^T] = sum_h p_h mu_x(h) mu_z(h)^T."""
        p = np.asarray(self.spec.state_priors)
        return (self.state_means_x * p[:, None]).T @ self.state_means_z


def _simplex_vertices(k):
    """k unit vectors in R^(k-1): centered regular simplex of circumradius 1."""
    if k == 1:
        return np.zeros((1, 1))
    a = np.eye(k) - np.full((k, k), 1.0 / k)
    u = np.linalg.svd(a)[0][:, : k - 1]
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _state_directions(dim, num_states, rng):
    raw = rng.standard_normal((dim, max(num_states - 1, 1)))
    if num_states - 1 <= dim:
        q = np.linalg.qr(raw)[0][:, : max(num_states - 1, 1)]
        return _simplex_vertices(num_states) @ q.T
    raw = rng.standard_normal((dim, num_states))
    return (raw / np.linalg.norm(raw, axis=0)).T


def generate_latent(spec):
    """Sample a PlantedDataset; a pure function of the spec (seed included)."""
    rng = np.random.default_rng(spec.rng_seed)
    priors = np.asarray(spec.state_priors, dtype=np.float64)
    means_x = spec.separation * _state_directions(spec.d, spec.num_states, rng)
    means_z = spec.separation * _state_directions(spec.d_prime, spec.num_states, rng)
    means_x = means_x - priors @ means_x
    means_z = means_z - priors @ means_z

    if spec.bound_b is not None:
        bound = spec.bound_b
    else:
        reach_x = float(np.abs(means_x).max()) + CLIP_SIGMAS * spec.x_noise
        reach_z = float(np.abs(means_z).max()) + CLIP_SIGMAS * spec.z_noise
        bound = max(reach_x, reach_z, 1e-12)

    states = rng.choice(spec.num_states, size=spec.n, p=priors)
    x = means_x[states] + spec.x_noise * rng.standard_normal((spec.n, spec.d))
    z = means_z[states] + spec.z_noise * rng.standard_normal((spec.n, spec.d_prime))
    np.clip(x, -bound, bound, out=x)
    np.clip(z, -bound, bound, out=z)
    return PlantedDataset(
        spec=spec,
        x=x,
        z=z,
        states=states,
        truth=Assignment(np.arange(spec.n, dtype=np.int64)),
        state_means_x=means_x,
        state_means_z=means_z,
        clip_bound=float(bound),
    )


def as_records(data, slack=PRIOR_SLACK):
    """Collapse the z rows to unique guarded records with prior-derived bounds.

    Returns (records, truth) where truth maps each input to its record.
    Meaningful when z_noise is 0, so the z rows take one value per state.
    """
    z_unique, inverse = np.unique(data.z, axis=0, return_inverse=True)
    inverse = inverse.ravel()  # 2-d on numpy 2.0.x when axis is given
    counts = np.bincount(inverse, minlength=z_unique.shape[0])
    lower, upper = bounds_from_priors(counts / data.n, data.n, slack)
    records = GuardedRecords(z_unique, lower, upper)
    return records, Assignment(inverse.astype(np.int64))


def random_permutation_assignment(n, fixed_points, rng):
    """Uniform permutation with the requested number of fixed points.

    fixed_points = 0 draws a derangement, fixed_points = n the identity;
    a count of n - 1 is impossible, so it rounds up to the identity (the
    only permutation with at least n - 1 fixed points). The sampler
    picks the fixed set uniformly and fills the rest with a rejection-
    sampled derangement, which is uniform over the conditioned set.
    """
    rng = np.random.default_rng(rng)
    if not 0 <= fixed_points <= n:
        raise InvalidInput(f"fixed_points must lie in [0, {n}]")
    if fixed_points >= n - 1:
        return Assignment(np.arange(n, dtype=np.int64))
    fixed = np.sort(rng.choice(n, size=fixed_points, replace=False))
    rest = np.setdiff1d(np.arange(n), fixed)
    q = rest.size
    while True:
        shuffle = rng.permutation(q)
        if not np.any(shuffle == np.arange(q)):
            break
    perm = np.arange(n, dtype=np.int64)
    perm[rest] = rest[shuffle]
    return Assignment(perm)


def uniform_permutation(n, rng):
    """Plain uniform permutation as an Assignment."""
    rng = np.random.default_rng(rng)
    return Assignment(rng.permutation(n).astype(np.int64))


def fixed_point_set(pi):
    """Indices i with pi(i) = i."""
    return np.flatnonzero(pi.map == np.arange(pi.n))


def restricted_cross_covariance(x, z, pi, subset):
    """sum over i in subset of x_i z_{pi(i)}^T (zero matrix for an empty subset)."""
    x = as_matrix(x, "x")
    z = as_matrix(z, "z")
    subset = np.asarray(subset, dtype=np.int64)
    if subset.size == 0:
        return np.zeros((x.shape[1], z.shape[1]))
    return x[subset].T @ z[pi.map[subset]]


def proposition1_check(data, trials, rng):
    """Fraction of uniform permutations whose cross-covariance has a smaller
    singular-value sum than the identity alignment (both views centered)."""
    if trials < 1:
        raise InvalidInput("trials must be at least 1")
    rng = np.random.default_rng(rng)
    x, _ = center_columns(data.x)
    z, _ = center_columns(data.z)
    baseline = singular_value_sum(x.T @ z)
    wins = 0
    for _ in range(trials):
        perm = rng.permutation(data.n)
        if singular_value_sum(x.T @ z[perm]) < baseline:
            wins += 1
    return wins / trials


def concentration_diagnostic(data, pi):
    """(empirical deviation, analytic bound) for the aligned part of pi.

    The deviation is the largest entry of the aligned-part sum minus its
    analytic expectation. The bound is the closing exponential
    4 d d' exp(-(n - k) (sigma+)^2 / (d d' B)^2) with sigma+ the
    singular-value sum of the expected full-sample cross-covariance, k
    the number of non-fixed points, and B the coordinate product bound
    (the entry clip bound squared). It is a probability estimate for
    inspection, not a deterministic ceiling on the deviation.
    """
    n = data.n
    d, dp = data.spec.d, data.spec.d_prime
    aligned = fixed_point_set(pi)
    k = n - aligned.size
    per_sample = data.expected_cross_covariance()
    omega_aligned = restricted_cross_covariance(data.x, data.z, pi, aligned)
    empirical_dev = float(np.abs(omega_aligned - aligned.size * per_sample).max())

    sigma_plus = singular_value_sum(n * per_sample)
    b_product = data.clip_bound**2
    exponent = -(n - k) * sigma_plus**2 / (d * dp * b_product) ** 2
    bound_prob = 4.0 * d * dp * math.exp(exponent)
    return empirical_dev, bound_prob


def weyl_check(trials, dims, rng):
    """Largest observed violation of |sigma_i(A) - sigma_i(A + E)| <= ||E||_2
    over random trials; must stay at rounding-noise level."""
    if trials < 1:
        raise InvalidInput("trials must be at least 1")
    rng = np.random.default_rng(rng)
    rows, cols = dims
    worst = -math.inf
    for _ in range(trials):
        a = rng.standard_normal((rows, cols))
        e = rng.standard_normal((rows, cols)) * rng.uniform(0.01, 2.0)
        sa = np.linalg.svd(a, compute_uv=False)
        sae = np.linalg.svd(a + e, compute_uv=False)
        worst = max(worst, float((np.abs(sa - sae) - spectral_norm(e)).max()))
    return worst


def reference_spec(n=500, rng_seed=0):
    """The standing strong-signal spec used by the validation suite:
    n x 8 inputs, 2-dim guarded view, two states at separation 3, unit noise."""
    return LatentSpec(
        n=n,
        d=8,
        d_prime=2,
        num_states=2,
        state_priors=(0.7, 0.3),
        x_noise=1.0,
        z_noise=1.0,
        separation=3.0,
        rng_seed=rng_seed,
    )


def reference_records_spec(n=500, rng_seed=0):
    """reference_spec with a noiseless guarded view, so the z rows collapse
    to two unique records and alignment recovery is well posed."""
    return replace(reference_spec(n, rng_seed), z_noise=0.0)
