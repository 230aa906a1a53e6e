"""Bounded many-to-one assignment of inputs to guarded records.

The optimization is: choose pi maximizing sum_i s[i, pi(i)] subject to
per-record count bounds lower[j] <= #{i: pi(i) = j} <= upper[j]. The
constraint matrix of this program is totally unimodular, so the integer
optimum coincides with the LP optimum and can be found by network-flow
reasoning instead of a general ILP. Both phases of the solver work on
the condensed residual graph: one node per record (plus a slack node for
the bounds), where arc u -> v carries the best gain of moving a single
input from record u to record v. One `_MoveGains` object keeps those arc
gains for both phases, and every move of an input goes through it.

1. `_initial_optimum` starts from a price start: the row-wise argmax of
   c - phi, where one vectorized pass sets the price phi[j] of each
   record whose count is out of bounds so that its count lands on the
   violated bound (a dual start in the spirit of auction methods for
   transportation problems; Bertsekas & Castanon, 1989). Any such
   argmax is optimal among the maps with its own counts. The bound
   repair then shifts one unit of count at a time along the best chain
   of moves between two records until the bounds hold and no shift
   gains (successive shortest paths; Ahuja, Magnanti & Orlin, Network
   Flows, 1993, ch. 9); after the price start it has few units left.
2. `_lex_refine` continues from the same `_MoveGains` and rewrites that
   optimum into the lexicographically smallest optimal map, so results
   do not depend on how the optimum was reached. It freezes inputs in
   index order, and frozen inputs drop out of the arc gains. Dual
   potentials of the optimum screen the inputs: only an input with an
   equally good alternative in a smaller record gets a path search.

Scores are scaled to integers (2^32 / max|s|) before solving; all
optimality reasoning below is exact integer arithmetic on those costs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmsalError, InfeasibleBounds, InvalidInput, TooLarge
from .linalg import as_matrix

_SCALE = float(2**32)
_BRUTE_FORCE_CAP = 10**7


@dataclass(frozen=True, eq=False)
class GuardedRecords:
    """The m unique guarded-attribute rows with per-record count bounds."""

    z: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray

    def __post_init__(self):
        z = as_matrix(self.z, "records.z")
        lower = np.asarray(self.lower_bounds, dtype=np.int64)
        upper = np.asarray(self.upper_bounds, dtype=np.int64)
        m = z.shape[0]
        if lower.shape != (m,) or upper.shape != (m,):
            raise InvalidInput("bounds must have one entry per record")
        if np.unique(z, axis=0).shape[0] != m:
            raise InvalidInput("record rows must be pairwise distinct")
        if lower.min() < 0:
            raise InvalidInput("lower bounds must be non-negative")
        if np.any(lower > upper):
            j = int(np.argmax(lower > upper))
            raise InvalidInput(f"record {j}: lower bound {lower[j]} > upper bound {upper[j]}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "lower_bounds", lower)
        object.__setattr__(self, "upper_bounds", upper)

    @property
    def m(self):
        return self.z.shape[0]

    @property
    def dim(self):
        return self.z.shape[1]

    def check_feasible(self, n):
        """Raise InfeasibleBounds if no total map of n inputs can satisfy the bounds."""
        low = int(self.lower_bounds.sum())
        high = int(np.minimum(self.upper_bounds, n).sum())
        if low > n:
            raise InfeasibleBounds(f"sum of lower bounds {low} exceeds n={n}")
        if high < n:
            raise InfeasibleBounds(f"sum of upper bounds {high} is below n={n}")


@dataclass(frozen=True, eq=False)
class Assignment:
    """A total map of the n inputs onto record indices (one per row)."""

    map: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.map)
        if idx.ndim != 1 or idx.size < 1:
            raise InvalidInput("assignment map must be a non-empty 1-d index array")
        if not np.issubdtype(idx.dtype, np.integer):
            raise InvalidInput("assignment map must hold integers")
        idx = idx.astype(np.int64)
        if idx.min() < 0:
            raise InvalidInput("assignment indices must be non-negative")
        idx.setflags(write=False)
        object.__setattr__(self, "map", idx)

    @property
    def n(self):
        return self.map.shape[0]

    def counts(self, m):
        return np.bincount(self.map, minlength=m)

    def satisfies(self, records):
        c = self.counts(records.m)
        return bool(np.all(c >= records.lower_bounds) and np.all(c <= records.upper_bounds))


def score_matrix(x, records, proj, k):
    """Pairwise agreement scores s[i, j] = <U_k^T x_i, V_k^T z_j>."""
    x = as_matrix(x, "x")
    r = proj.sigma.shape[0]
    if not 1 <= k <= r:
        raise InvalidInput(f"k={k} out of range [1, {r}]")
    if x.shape[1] != proj.u.shape[0]:
        raise InvalidInput("x columns do not match projection rows")
    if records.dim != proj.v.shape[0]:
        raise InvalidInput("record columns do not match projection rows")
    return (x @ proj.u[:, :k]) @ (records.z @ proj.v[:, :k]).T


def assignment_objective(s, pi):
    """sum_i s[i, pi(i)] for a given score matrix and map."""
    s = as_matrix(s, "s")
    idx = np.asarray(pi.map if hasattr(pi, "map") else pi)
    return float(s[np.arange(s.shape[0]), idx].sum())


def _integer_costs(s):
    """Round scores to int64 on the 2^32 / max|s| grid (exactly zero stays zero)."""
    amax = float(np.abs(s).max())
    if amax == 0.0:
        return np.zeros(s.shape, dtype=np.int64)
    return np.rint(s * (_SCALE / amax)).astype(np.int64)


def solve_assignment(s, records):
    """Exact bounded assignment maximizing the score sum.

    Returns the lexicographically smallest map among all optima, which
    pins down tie behavior independently of how the optimum was reached.
    """
    s = as_matrix(s, "s")
    n, m = s.shape
    if m != records.m:
        raise InvalidInput(f"score matrix has {m} columns but {records.m} records")
    records.check_feasible(n)
    c = _integer_costs(s)
    lower, upper = records.lower_bounds.tolist(), records.upper_bounds.tolist()
    gains = _initial_optimum(c, lower, upper)
    return _checked_assignment(_lex_refine(gains, lower, upper), records)


def _checked_assignment(pi, records):
    """Wrap pi as an Assignment, raising AmsalError if a count leaves its bounds."""
    counts = np.bincount(pi, minlength=records.m)
    lower, upper = records.lower_bounds, records.upper_bounds
    bad = np.flatnonzero((counts < lower) | (counts > upper))
    if bad.size:
        j = int(bad[0])
        raise AmsalError(
            f"record {j}: solver assigned {counts[j]} inputs, outside [{lower[j]}, {upper[j]}]"
        )
    return Assignment(pi)


class _MoveGains:
    """Best gain c[i, v] - c[i, u] over the unfrozen inputs i now in record u.

    Both solver phases share one instance: the bound repair moves inputs
    through it, then the lex refine freezes inputs (an input is never
    unfrozen) and moves the others. For each pair (u, v), inputs that
    started in u are read from one static order sorted by decreasing gain,
    and inputs that moved into u later from a max-heap. Entries of inputs
    that have since left u or been frozen are skipped lazily, so moving an
    input costs O(m log n) and reading a pair O(1) amortized. The record
    counts of pi are kept alongside.
    """

    def __init__(self, c, pi):
        self.c = c
        self.pi = pi
        self.frozen = np.zeros(pi.shape[0], dtype=bool)
        m = c.shape[1]
        self.counts = np.bincount(pi, minlength=m).tolist()
        self.static = {}
        self.heaps = {}
        for u in range(m):
            rows = np.flatnonzero(pi == u)
            gains = c[rows] - c[rows, u][:, None]
            orders = np.argsort(-gains, axis=0, kind="stable")
            for v in range(m):
                if v != u:
                    order = orders[:, v]
                    self.static[u, v] = [rows[order], gains[order, v], 0]
                    self.heaps[u, v] = []

    def best(self, u, v):
        """(gain, input) of the best move out of u into v, or (None, -1) if
        u holds no unfrozen input."""
        pi, frozen = self.pi, self.frozen
        entry = self.static[u, v]
        rows, gains, pos = entry
        while pos < rows.size and (pi[rows[pos]] != u or frozen[rows[pos]]):
            pos += 1
        entry[2] = pos
        heap = self.heaps[u, v]
        while heap and (pi[heap[0][1]] != u or frozen[heap[0][1]]):
            heapq.heappop(heap)
        if pos < rows.size and (not heap or gains[pos] >= -heap[0][0]):
            return int(gains[pos]), int(rows[pos])
        if heap:
            return -heap[0][0], heap[0][1]
        return None, -1

    def move(self, i, v):
        """Reassign input i to record v."""
        self.counts[self.pi[i]] -= 1
        self.counts[v] += 1
        self.pi[i] = v
        row = self.c[i].tolist()
        for w in range(len(row)):
            if w != v:
                heapq.heappush(self.heaps[v, w], (row[v] - row[w], i))


def _price_start(c, lower, upper):
    """Start map argmax(c - phi) for record prices phi that move counts onto the bounds.

    The prices start at zero. One pass in index order visits each record
    j whose count under argmax(c - phi) is outside its bounds and sets
    phi[j] from the gains g = c[:, j] - max over l != j of (c[:, l] -
    phi[l]): one above the (upper[j] + 1)-th largest gain when j holds
    too many inputs, one below the lower[j]-th largest when too few, so
    j's count lands on that bound (or inside it, where gains tie). Later
    prices can push an earlier record out again; the bound repair fixes
    whatever is left.
    """
    n, m = c.shape
    phi = np.zeros(m, dtype=np.int64)
    pi = c.argmax(axis=1)
    counts = np.bincount(pi, minlength=m)
    for j in range(m):
        if lower[j] <= counts[j] <= upper[j]:
            continue
        reduced = c - phi
        g = c[:, j] - np.delete(reduced, j, axis=1).max(axis=1)
        if counts[j] > upper[j]:
            k = n - upper[j] - 1
            phi[j] = np.partition(g, k)[k] + 1
        else:
            k = n - lower[j]
            phi[j] = np.partition(g, k)[k] - 1
        reduced[:, j] = c[:, j] - phi[j]
        pi = reduced.argmax(axis=1)
        counts = np.bincount(pi, minlength=m)
    return pi


def _initial_optimum(c, lower, upper):
    """One optimal map: the price start, then bound repair on the record graph.

    Each step shifts one unit of count from record a to record b along the
    best a -> b chain of single-input moves. It picks the transfer that
    most reduces the total bound violation and, among those, the one with
    the largest gain; it stops when no transfer lowers the violation and
    none keeps it level with a positive gain. This is cycle cancelling
    with convex penalties, so the result is optimal. The start, an argmax
    of c - phi, has a record graph free of positive cycles, and augmenting
    along best paths keeps it so, which makes the path gains well defined
    at every step. Returns the _MoveGains holding the optimum, for the lex
    refine to continue from.
    """
    m = c.shape[1]
    gains = _MoveGains(c, _price_start(c, lower, upper))
    counts = gains.counts
    W = [[None] * m for _ in range(m)]
    witness = [[-1] * m for _ in range(m)]
    stale = range(m)
    while True:
        for u in stale:
            for v in range(m):
                if v != u:
                    W[u][v], witness[u][v] = gains.best(u, v)
        D, via = _best_paths(W)
        best = None
        for a in range(m):
            out = (counts[a] <= lower[a]) - (counts[a] > upper[a])
            for b in range(m):
                if b == a or D[a][b] is None:
                    continue
                into = (counts[b] >= upper[b]) - (counts[b] < lower[b])
                key = (out + into, -D[a][b])
                if best is None or key < best[0]:
                    best = (key, a, b)
        if best is None or best[0] >= (0, 0):
            return gains
        _, a, b = best
        seq = _simple_path(via, a, b)
        for u, v in zip(seq, seq[1:]):
            gains.move(witness[u][v], v)
        stale = seq  # only records on the path changed members


def _residual_graph(gains, lower, upper):
    """Best single-move gains between record nodes plus a slack node m.

    Arc u -> v moves the best unfrozen input out of u into v; arcs to and
    from the slack node model raising u's count (if below upper[u]) or
    lowering it (if above lower[u]). Returns (W, witness) where W[u][v]
    is the arc gain (None if unavailable) and witness the moved input.
    """
    m = len(gains.counts)
    W = [[None] * (m + 1) for _ in range(m + 1)]
    witness = [[-1] * (m + 1) for _ in range(m + 1)]
    for u in range(m):
        for v in range(m):
            if v != u:
                W[u][v], witness[u][v] = gains.best(u, v)
        if gains.counts[u] < upper[u]:
            W[u][m] = 0
        if gains.counts[u] > lower[u]:
            W[m][u] = 0
    return W, witness


def _best_paths(W):
    """Max-plus Floyd-Warshall; the residual graph of an optimum has no positive cycle."""
    nodes = len(W)
    D = [[0 if u == v else W[u][v] for v in range(nodes)] for u in range(nodes)]
    via = [[-1] * nodes for _ in range(nodes)]
    for t in range(nodes):
        Dt = D[t]
        for u in range(nodes):
            dut = D[u][t]
            if dut is None:
                continue
            Du = D[u]
            for v in range(nodes):
                dtv = Dt[v]
                if dtv is None:
                    continue
                cand = dut + dtv
                if Du[v] is None or cand > Du[v]:
                    Du[v] = cand
                    via[u][v] = t
    return D, via


def _expand_path(via, u, v, out):
    t = via[u][v]
    if t < 0:
        out.append((u, v))
    else:
        _expand_path(via, u, t, out)
        _expand_path(via, t, v, out)


def _simple_path(via, u, v):
    """Node sequence of a best path with any zero-gain cycles spliced out."""
    arcs = []
    _expand_path(via, u, v, arcs)
    seq = [u] + [b for _, b in arcs]
    pos = {}
    i = 0
    while i < len(seq):
        node = seq[i]
        if node in pos:
            del seq[pos[node] + 1 : i + 1]
            i = pos[node] + 1
            pos = {nd: k for k, nd in enumerate(seq[:i])}
        else:
            pos[node] = i
            i += 1
    return seq


def _lex_refine(gains, lower, upper):
    """Rewrite the optimal map held by gains into the lexicographically
    smallest optimal map.

    Inputs are fixed (frozen) in index order. Input i may move from its
    group a to a smaller group b exactly when the move plus the cheapest
    rebalancing chain of unfrozen inputs from b back to a has zero total
    gain; optimality of the current map guarantees the total can never be
    positive.

    Potentials phi (longest paths from a virtual root in the residual
    graph of the optimum) are optimal duals, and every optimal map uses
    only tight edges: c[i, j] - phi[j] maximal over j. An input already in
    its smallest tight record cannot move, so only the others get path work.
    """
    c, pi = gains.c, gains.pi
    m = c.shape[1]
    D, _ = _best_paths(_residual_graph(gains, lower, upper)[0])
    phi = np.array(
        [max(D[u][v] for u in range(m + 1) if D[u][v] is not None) for v in range(m)],
        dtype=np.int64,
    )
    reduced = c - phi
    first_tight = (reduced == reduced.max(axis=1, keepdims=True)).argmax(axis=1)
    i = -1
    while True:
        rest = np.flatnonzero(pi[i + 1 :] != first_tight[i + 1 :])
        if not rest.size:
            return pi
        i += 1 + int(rest[0])
        gains.frozen[: i + 1] = True
        a = int(pi[i])
        W, witness = _residual_graph(gains, lower, upper)
        D, via = _best_paths(W)
        base = int(c[i, a])
        for b in range(a):
            if D[b][a] is not None and int(c[i, b]) - base + D[b][a] == 0:
                seq = _simple_path(via, b, a)
                for u, v in zip(seq, seq[1:]):
                    if u < m and v < m:
                        gains.move(witness[u][v], v)
                gains.move(i, b)
                break


def brute_force_assignment(s, records):
    """Exhaustive oracle over all feasible maps, lexicographic order.

    Mirrors solve_assignment exactly (same integer costs, same tie rule:
    the first map attaining the maximum wins), so the two must agree on
    both objective and map wherever this search is tractable.
    """
    s = as_matrix(s, "s")
    n, m = s.shape
    if m != records.m:
        raise InvalidInput(f"score matrix has {m} columns but {records.m} records")
    if m**n > _BRUTE_FORCE_CAP:
        raise TooLarge(f"{m}^{n} feasible-map candidates exceed the enumeration cap")
    records.check_feasible(n)
    c = _integer_costs(s)
    lower = records.lower_bounds
    upper = np.minimum(records.upper_bounds, n)

    best_val = -math.inf
    best = None
    counts = np.zeros(m, dtype=np.int64)
    pi = np.zeros(n, dtype=np.int64)

    def rest_feasible(depth):
        deficit = int(np.maximum(lower - counts, 0).sum())
        return deficit <= n - depth

    def recurse(depth, value):
        nonlocal best_val, best
        if depth == n:
            if value > best_val:
                best_val = value
                best = pi.copy()
            return
        for j in range(m):
            if counts[j] >= upper[j]:
                continue
            counts[j] += 1
            pi[depth] = j
            if rest_feasible(depth + 1):
                recurse(depth + 1, value + int(c[depth, j]))
            counts[j] -= 1

    recurse(0, 0)
    if best is None:
        raise AmsalError("exhaustive search found no map within the count bounds")
    return _checked_assignment(best, records)


def bounds_from_priors(priors, n, slack):
    """Count bounds n*p_j*(1 -/+ slack), floored and ceiled, then repaired.

    Upper bounds are raised minimally (largest prior first) until they
    cover n, and lower bounds are trimmed (largest first) until their sum
    fits under n, so the result is always feasible.
    """
    priors = np.asarray(priors, dtype=np.float64)
    if priors.ndim != 1 or priors.size < 1:
        raise InvalidInput("priors must be a 1-d vector")
    if not np.all(np.isfinite(priors)) or priors.min() < 0.0:
        raise InvalidInput("priors must be finite and non-negative")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise InvalidInput(f"priors sum to {priors.sum()}, expected 1")
    if not 0.0 <= slack < 1.0:
        raise InvalidInput(f"slack must be in [0, 1), got {slack}")
    if n < 1:
        raise InvalidInput("n must be positive")
    # 1e-9 guards keep float fuzz in n*p*(1 +/- slack) from moving a floor/ceil.
    lower = np.floor(n * priors * (1.0 - slack) + 1e-9).astype(np.int64)
    upper = np.ceil(n * priors * (1.0 + slack) - 1e-9).astype(np.int64)
    upper = np.minimum(upper, n)
    deficit = n - int(upper.sum())
    if deficit > 0:
        for j in np.lexsort((np.arange(priors.size), -priors)):
            add = min(n - int(upper[j]), deficit)
            upper[j] += add
            deficit -= add
            if deficit == 0:
                break
    excess = int(lower.sum()) - n
    while excess > 0:
        j = int(np.argmax(lower))
        lower[j] -= 1
        excess -= 1
    lower = np.minimum(lower, upper)
    return lower, upper
