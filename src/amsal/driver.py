"""Coordinate-ascent driver that alternates assignment and covariance steps.

One iteration takes the current map pi, computes the SVD of the
cross-covariance under pi (the maximization step), rescores all
input/record pairs in the projected space, and re-solves the bounded
assignment (the assignment step). Both half-steps maximize the same
objective sum_i <U_k^T x_i, V_k^T z_{pi(i)}> with the other block held
fixed, so the objective never decreases along a run.

`am_iterate` is that iteration as a checked public function. `run_amsal`
checks its inputs once and runs the same core, `_am_step`, on plain int64
maps; it skips the sign convention of the SVD, which changes no score.
The A-step inside stays the public, checked `solve_assignment`, so a
tracer that wraps the public functions (`bench/spans.py`) sees every
A-step; its checks are linear in the n x m score matrix.

The driver repeats this from several random feasible starts, scores every
(seed, iteration) iterate as it arrives and keeps the best so far: the
largest objective (unsupervised) or the one most consistent with a small
labeled seed set (partial supervision). A k-means baseline that replaces
the alternating steps with Lloyd clustering is included for comparison.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .assignment import Assignment, GuardedRecords, _objective, _scores, solve_assignment
from .errors import InvalidInput
from .linalg import (SvdResult, _as_index_map, _check_cross_scale, _check_distance_scale,
                     _signed_svd, as_matrix, center_columns, cross_covariance, svd)

LLOYD_SWEEPS = 100  # cap on the Lloyd sweeps of the k-means baseline


@dataclass(frozen=True)
class AmsalConfig:
    """Run parameters; the defaults mirror the evaluation protocol defaults
    (three random starts, at most a hundred iterations). The count bounds,
    and with them the prior slack, come with the GuardedRecords.

    seed_labels, a pair of index and record-id arrays giving the known
    alignment of a few inputs, turns on partial selection: the candidate
    most consistent with them wins. Without them the largest objective does.
    """

    max_iterations: int = 100
    num_seeds: int = 3
    score_k: int | str = "full"
    seed_labels: tuple | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInput("max_iterations must be at least 1")
        if self.num_seeds < 1:
            raise InvalidInput("num_seeds must be at least 1")
        if self.score_k != "full" and (not isinstance(self.score_k, int) or self.score_k < 1):
            raise InvalidInput("score_k must be a positive count or 'full'")
        if self.rng_seed < 0:
            raise InvalidInput(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass(frozen=True)
class TraceRow:
    seed: int
    iteration: int
    objective: float
    assignment_hash: str
    accuracy: float  # nan when no ground truth was supplied


@dataclass(frozen=True)
class AmsalTrace:
    rows: tuple[TraceRow, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class AmsalResult:
    assignment: Assignment
    projection: SvdResult  # SVD of the cross-covariance under `assignment`
    trace: AmsalTrace
    seed: int
    objective: float


def _effective_k(cfg, r):
    """The scoring dimensions of cfg.score_k when r directions exist."""
    if cfg.score_k == "full":
        return r
    if cfg.score_k > r:
        raise InvalidInput(f"score_k={cfg.score_k} exceeds the {r} available directions")
    return cfg.score_k


def _hash_map(pi):
    return hashlib.sha256(pi.astype("<i8").tobytes()).hexdigest()[:16]


def am_iterate(x, records, pi, cfg, prices=None):
    """One M-step then one A-step; returns (new pi, projection, objective).

    The objective is scored after the A-step, under the projection that
    produced the new map. The A-step starts from the record prices
    `prices` (None for zero) and overwrites them with its optimal duals,
    the start for the next A-step; the start changes how fast the A-step
    runs, never the map it returns.
    """
    x, k = _checked_step_inputs(x, records, cfg)
    pi = _as_index_map(pi, x.shape[0], records.m)
    new_pi, factors, objective = _am_step(x, records, pi, k, prices)
    return Assignment(new_pi), _signed_svd(*factors), objective


def _checked_step_inputs(x, records, cfg):
    """The checks of the inputs every step of a search shares: x as a
    finite matrix, bounds feasible for its n rows, a cross-covariance that
    stays finite, and the scoring dimensions. Returns (x, k)."""
    x = as_matrix(x, "x")
    n, d = x.shape
    records.check_feasible(n)
    _check_cross_scale(x, records.z)
    return x, _effective_k(cfg, min(d, records.dim))


def _am_step(x, records, pi, k, prices):
    """am_iterate's core on checked x and records and the int64 map pi:
    returns the new int64 map, the thin factors (u, sigma, vt) of the SVD
    of the cross-covariance under pi, and the objective. The A-step is
    the public solve_assignment, which checks the scores and the prices.

    The factors skip the sign convention. Flipping a singular pair
    negates a column of x U_k and the same column of z V_k, and each
    term of a score is then (-a)(-b) = ab exactly, so the scores, the
    map and the objective are the same bits either way.
    """
    u, sigma, vt = np.linalg.svd(x.T @ records.z[pi], full_matrices=False)
    s = _scores(x, records.z, u, vt.T.copy(), k)  # v laid out as SvdResult.v
    new_pi = solve_assignment(s, records, prices).map
    return new_pi, (u, sigma, vt), _objective(s, new_pi)


def random_feasible_assignment(records, n, rng):
    """Random start: meet every lower bound, fill the rest proportionally
    to the bound midpoints (capped at the upper bounds), then shuffle.

    Units are drawn as Generator.choice draws them, one uniform each
    through the normalised cdf of the open records' weights. All the
    uniforms are drawn at once, and each chunk of them goes through the
    cdf of the records open at its start: a chunk ends with the first
    unit that fills a record, so the open set cannot change inside it,
    and there are at most m + 1 chunks.
    """
    records.check_feasible(n)
    upper = records.upper_bounds
    counts = records.lower_bounds.copy()
    weights = (records.lower_bounds + upper) / 2.0
    draws = rng.random(n - int(counts.sum()))
    while draws.size:
        open_j = np.flatnonzero(counts < upper)
        w = weights[open_j]  # an open record has upper >= 1, so w.sum() > 0
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        picks = cdf.searchsorted(draws, side="right")
        # the unit that fills record j is its room-th pick: the room-th
        # entry of j's block in a stable sort of the picks by record
        room = upper[open_j] - counts[open_j]
        held = np.bincount(picks, minlength=open_j.size)
        full = np.flatnonzero(held >= room)
        cut = draws.size
        if full.size:
            order = np.argsort(picks, kind="stable")
            cut = int(order[(np.cumsum(held) - held + room - 1)[full]].min()) + 1
        counts[open_j] += np.bincount(picks[:cut], minlength=open_j.size)
        draws = draws[cut:]
    slots = np.repeat(np.arange(records.m), counts)
    rng.shuffle(slots)
    return Assignment(slots)


def alignment_accuracy(pi, truth):
    """Fraction of inputs mapped to their true record."""
    if pi.n != truth.n:
        raise InvalidInput("assignment and truth must have equal length")
    return _accuracy(pi.map, truth.map)


def _accuracy(pi, truth):
    """alignment_accuracy's core on index arrays of equal length."""
    return float(np.mean(pi == truth))


def run_amsal(x, records, cfg, truth=None):
    """Full multi-start alternating run that keeps the best iterate so far.

    The inputs are centered defensively (both x and the record rows) and
    checked once, before the search. The loop then runs `_am_step`,
    am_iterate's core without its input checks, on plain int64 maps, and
    only the selected map becomes an Assignment. A seed stops early once
    the A-step returns the map unchanged; every iterate is scored and the
    best so far kept (the earliest on ties), and the final projection is
    recomputed from the selected map so it always matches the returned
    assignment. Each A-step of a seed starts from the previous one's
    optimal prices (the first from zero), which leaves less bound repair
    and the same maps. Per-seed RNG streams are split from cfg.rng_seed,
    so the result is a pure function of (inputs, cfg).
    """
    x_c, _ = center_columns(x)
    z_c, _ = center_columns(records.z)
    centered = GuardedRecords(z_c, records.lower_bounds, records.upper_bounds)
    x_c, k = _checked_step_inputs(x_c, centered, cfg)
    n = x_c.shape[0]
    if truth is not None and truth.n != n:
        raise InvalidInput("assignment and truth must have equal length")
    seed_labels = None
    if cfg.seed_labels is not None:
        seed_labels = _checked_seed_labels(cfg.seed_labels, n, records.m)

    rows = []
    best = best_key = None  # best: (seed, objective, pi)
    for seed_idx, child in enumerate(np.random.SeedSequence(cfg.rng_seed).spawn(cfg.num_seeds)):
        rng = np.random.default_rng(child)
        pi = random_feasible_assignment(centered, n, rng).map
        prices = np.zeros(centered.m)
        for iteration in range(1, cfg.max_iterations + 1):
            new_pi, _, objective = _am_step(x_c, centered, pi, k, prices)
            acc = _accuracy(new_pi, truth.map) if truth is not None else float("nan")
            rows.append(TraceRow(seed_idx, iteration, objective, _hash_map(new_pi), acc))
            key = _candidate_key(objective, new_pi, seed_labels)
            if best is None or key > best_key:
                best, best_key = (seed_idx, objective, new_pi), key
            if np.array_equal(new_pi, pi):
                break
            pi = new_pi

    seed_idx, objective, pi = best
    pi = Assignment(pi)
    projection = svd(cross_covariance(x_c, z_c, pi))
    return AmsalResult(
        assignment=pi,
        projection=projection,
        trace=AmsalTrace(rows=tuple(rows)),
        seed=seed_idx,
        objective=objective,
    )


def _checked_seed_labels(seed_labels, n, m):
    """Seed pairs as int64 (indices, record ids), each index in [0, n) and
    given once, each record id in [0, m); InvalidInput names the first
    bad pair, and for a repeated index the pair it repeats."""
    idx, values = (np.asarray(a, dtype=np.int64) for a in seed_labels)
    if idx.ndim != 1 or idx.size < 1 or idx.shape != values.shape:
        raise InvalidInput("seed labels need equal non-empty lists of indices and "
                           f"record ids, got shapes {idx.shape} and {values.shape}")
    bad = np.flatnonzero((idx < 0) | (idx >= n) | (values < 0) | (values >= m))
    if bad.size:
        k = int(bad[0])
        raise InvalidInput(f"seed label pair {k} ({idx[k]}, {values[k]}): index must "
                           f"be in [0, {n}) and record id in [0, {m})")
    first = {}  # input index -> first pair that gives it
    for k, i in enumerate(idx.tolist()):
        j = first.setdefault(i, k)
        if j != k:
            raise InvalidInput(f"seed label pair {k} ({i}, {values[k]}) repeats the "
                               f"index of pair {j} ({i}, {values[j]})")
    return idx, values


def _candidate_key(objective, pi, seed_labels):
    """Selection key of one iterate with the int64 map pi: its objective,
    or with checked seed pairs its accuracy on them with the objective
    next."""
    if seed_labels is None:
        return (objective,)
    idx, values = seed_labels
    return float(np.mean(pi[idx] == values)), objective


def kmeans_assign(x, records, cfg):
    """Lloyd clustering as a drop-in replacement for the alternating steps.

    Clusters are matched to records by descending size against descending
    bound mass (or by majority vote of labeled members when cfg has seed
    labels). Each record takes its cluster's center, and the exact
    bounded solver assigns the points with the least total squared
    distance to their record's center.
    """
    x = as_matrix(x, "x")
    _check_distance_scale(x)
    n = x.shape[0]
    m = records.m
    records.check_feasible(n)
    rng = np.random.default_rng(cfg.rng_seed)

    labels, centers = _lloyd(x, m, rng)
    order_clusters = np.lexsort((np.arange(m), -np.bincount(labels, minlength=m)))
    mass = records.lower_bounds + records.upper_bounds
    order_records = np.lexsort((np.arange(m), -mass))

    cluster_to_record = np.full(m, -1, dtype=np.int64)
    taken = np.zeros(m, dtype=bool)
    if cfg.seed_labels is not None:
        idx, values = _checked_seed_labels(cfg.seed_labels, n, m)
        for cl in order_clusters:
            in_cl = labels[idx] == cl
            if not in_cl.any():
                continue
            votes = np.bincount(values[in_cl], minlength=m)
            rec = int(np.argmax(votes))
            if not taken[rec]:
                cluster_to_record[cl] = rec
                taken[rec] = True
    free_records = [r for r in order_records if not taken[r]]
    for cl in order_clusters:
        if cluster_to_record[cl] < 0:
            cluster_to_record[cl] = free_records.pop(0)
    record_centers = centers[np.argsort(cluster_to_record)]
    return solve_assignment(-_sq_dists(x, record_centers), records)


def _sq_dists(x, centers):
    """(n, k) squared distances from the rows of x to the centers, one (n, d)
    temporary at a time; bit-identical to the (n, k, d) broadcast's sums."""
    return np.stack([((x - c) ** 2).sum(axis=1) for c in centers], axis=1)


def _lloyd(x, k, rng):
    """k centers via a farthest-point start, then plain Lloyd sweeps."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = _sq_dists(x, centers[:1])[:, 0]
    for j in range(1, k):
        centers[j] = x[int(np.argmax(d2))]
        d2 = np.minimum(d2, _sq_dists(x, centers[j:j + 1])[:, 0])
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(LLOYD_SWEEPS):
        new_labels = _sq_dists(x, centers).argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = x[mask].mean(axis=0)
            else:
                # re-seed an empty cluster from the farthest point
                far = _sq_dists(x, centers).min(axis=1)
                centers[j] = x[int(np.argmax(far))]
                new_labels[int(np.argmax(far))] = j
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return labels, centers
