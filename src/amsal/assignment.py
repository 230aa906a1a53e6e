"""Bounded many-to-one assignment of inputs to guarded records.

The optimization is: choose pi maximizing sum_i s[i, pi(i)] subject to
per-record count bounds lower[j] <= #{i: pi(i) = j} <= upper[j]. The
constraint matrix of this program is totally unimodular, so the integer
optimum coincides with the LP optimum and can be found by network-flow
reasoning instead of a general ILP. The solver keeps a record price
phi[j] next to the map: the LP dual of the count bounds, measured
against a slack node whose potential absorbs the bound slack.

1. `_price_start` takes the row-wise argmax of c - phi, where one
   vectorized pass sets the price of each record whose count is out of
   bounds so that its count lands on the violated bound (a dual start in
   the spirit of auction methods for transportation problems; Bertsekas
   & Castanon, 1989). If every count is within bounds, at its upper
   bound where phi > 0 and at its lower bound where phi < 0, then
   complementary slackness holds: the map is optimal and the prices
   (slack potential 0) are optimal duals, and the solver goes straight
   to step 2. Otherwise `_initial_optimum` repairs the bounds on the
   condensed residual graph, one node per record, where arc u -> v
   carries the best gain of moving a single input from u to v (kept by
   `_MoveGains`): it shifts one unit of count at a time along the best
   chain of moves until the bounds hold and no shift gains (successive
   shortest paths; Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 9),
   and takes optimal duals from the longest paths of the final residual
   graph plus a slack node.
2. `_lex_refine` rewrites that optimum into the lexicographically
   smallest optimal map, so results do not depend on how the optimum was
   reached. Complementary slackness holds between the duals and every
   optimal map, so the duals decide each tie: an input moves to a smaller
   record only along tight edges, found by a reachability search on one
   tight graph of at most m + 1 nodes.

Scores are scaled to integers (2^32 / max|s|) before solving; all
optimality reasoning below is exact integer arithmetic on those costs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import AmsalError, InfeasibleBounds, InvalidInput
from .linalg import _as_index_map, as_matrix

_SCALE = float(2**32)


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
        idx = _as_index_map(idx, idx.size)
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
    pi, phi = _price_start(c, lower, upper)
    phi_slack = 0
    counts = np.bincount(pi, minlength=m)
    # complementary slackness: phi with slack potential 0 are optimal duals of pi
    certified = np.all(
        (counts >= lower) & (counts <= upper)
        & ((phi <= 0) | (counts == upper)) & ((phi >= 0) | (counts == lower))
    )
    if not certified:
        pi, phi, phi_slack = _initial_optimum(c, pi, lower, upper)
    return _checked_assignment(_lex_refine(c, pi, phi, phi_slack, lower, upper), records)


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
    """Best gain c[i, v] - c[i, u] over the inputs i now in record u.

    The bound repair moves inputs through it. For each pair (u, v), inputs
    that started in u are read from one static order sorted by decreasing
    gain, and inputs that moved into u later from a max-heap. Entries of
    inputs that have since left u are skipped lazily, so moving an input
    costs O(m log n) and reading a pair O(1) amortized. The record counts
    of pi are kept alongside.
    """

    def __init__(self, c, pi):
        self.c = c
        self.pi = pi
        n, m = c.shape
        self.counts = np.bincount(pi, minlength=m).tolist()
        gains = c - c[np.arange(n), pi][:, None]
        # One sort puts every column in (record, decreasing gain, index)
        # order: costs lie within +-2^32, so |gain| <= 2^33 and the record
        # term pi * 2^35 outweighs any gain.
        orders = np.argsort(pi[:, None] * 2**35 - gains, axis=0, kind="stable")
        gains = np.take_along_axis(gains, orders, 0)
        self.static = {}
        self.heaps = {}
        end = 0
        for u in range(m):
            start, end = end, end + self.counts[u]
            for v in range(m):
                if v != u:
                    self.static[u, v] = [orders[start:end, v], gains[start:end, v], 0]
                    self.heaps[u, v] = []

    def best(self, u, v):
        """(gain, input) of the best move out of u into v, or (None, -1) if
        u is empty."""
        pi = self.pi
        entry = self.static[u, v]
        rows, gains, pos = entry
        while pos < rows.size and pi[rows[pos]] != u:
            pos += 1
        entry[2] = pos
        heap = self.heaps[u, v]
        while heap and pi[heap[0][1]] != u:
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
    """Start map argmax(c - phi) and the record prices phi that produced it.

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
    return pi, phi


def _initial_optimum(c, start, lower, upper):
    """One optimal map from the start map, with optimal dual potentials.

    Bound repair on the record graph: each step shifts one unit of count
    from record a to record b along the best a -> b chain of single-input
    moves. It picks the transfer that most reduces the total bound
    violation and, among those, the one with the largest gain; it stops
    when no transfer lowers the violation and none keeps it level with a
    positive gain. This is cycle cancelling with convex penalties, so the
    result is optimal. The start, an argmax of c - phi, has a record graph
    free of positive cycles, and augmenting along best paths keeps it so,
    which makes the path gains well defined at every step.

    Returns (pi, phi, phi_slack): the optimum and optimal duals, the
    longest-path potentials of its residual graph's record nodes and of a
    slack node that absorbs the bound slack, read off the final step's
    all-pairs best paths.
    """
    m = c.shape[1]
    gains = _MoveGains(c, start)
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
            break
        _, a, b = best
        seq = _simple_path(via, a, b)
        for u, v in zip(seq, seq[1:]):
            gains.move(witness[u][v], v)
        stale = seq  # only records on the path changed members
    # Longest paths from a virtual root with a zero arc to every node of the
    # residual graph, whose slack node has arcs u -> slack where counts[u] <
    # upper[u] and slack -> u where counts[u] > lower[u]; with no positive
    # cycle, a longest path passes the slack node at most once.
    reach = [max(D[u][v] for u in range(m) if D[u][v] is not None) for v in range(m)]
    phi_slack = max([0] + [reach[u] for u in range(m) if counts[u] < upper[u]])
    phi = [
        max([reach[v]] + [phi_slack + D[u][v] for u in range(m)
                          if counts[u] > lower[u] and D[u][v] is not None])
        for v in range(m)
    ]
    return gains.pi, np.array(phi, dtype=np.int64), phi_slack


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


def _lex_refine(c, pi, phi, phi_slack, lower, upper):
    """Rewrite the optimal map pi into the lexicographically smallest
    optimal map, given optimal duals: record prices phi and the slack
    node's potential phi_slack.

    By complementary slackness the optimal maps are exactly the maps
    that use only tight edges (c[i, j] - phi[j] maximal over j) and keep
    each count at its upper bound where phi[j] > phi_slack and at its
    lower bound where phi[j] < phi_slack. Inputs are fixed in index
    order. Input i in record a may move to a smaller record b exactly
    when i is tight at b and b reaches a in the tight graph of the
    inputs after i, whose arcs are:

    - u -> v when some input after i in u is tight at v (moving it);
    - u -> slack when count[u] < upper[u] and phi[u] == phi_slack;
    - slack -> v when count[v] > lower[v] and phi[v] == phi_slack.

    The smallest such b wins, and the inputs on a path from b to a move
    one arc each. An input already in its smallest tight record cannot
    move, and an input tight at one record only is never moved or used,
    so the search covers the inputs tight at two or more records.
    """
    m = c.shape[1]
    reduced = c - phi
    tight = reduced == reduced.max(axis=1, keepdims=True)
    multi = np.flatnonzero(np.count_nonzero(tight, axis=1) > 1)
    first_tight = tight.argmax(axis=1)
    if not np.any(pi[multi] != first_tight[multi]):
        return pi
    counts = np.bincount(pi, minlength=m).tolist()
    slack_ok = (phi == phi_slack).tolist()
    # witnesses[u][v]: inputs that were in u when listed, tight at v; the
    # ones that left u or are fixed are dropped lazily
    witnesses = [[[] for _ in range(m)] for _ in range(m)]
    rows, cols = np.nonzero(tight[multi])
    rows = multi[rows]
    for k, u, v in zip(rows.tolist(), pi[rows].tolist(), cols.tolist()):
        if v != u:
            witnesses[u][v].append(k)

    def witness(u, v, i):
        stack = witnesses[u][v]
        while stack and (stack[-1] <= i or pi[stack[-1]] != u):
            stack.pop()
        return stack[-1] if stack else -1

    def arc(u, v, i):
        if u == m:
            return slack_ok[v] and counts[v] > lower[v]
        if v == m:
            return slack_ok[u] and counts[u] < upper[u]
        return witness(u, v, i) >= 0

    def move(k, v):
        counts[pi[k]] -= 1
        counts[v] += 1
        pi[k] = v
        for w in np.flatnonzero(tight[k]).tolist():
            if w != v:
                witnesses[v][w].append(k)

    for i in multi.tolist():
        a = int(pi[i])
        if a == first_tight[i]:
            continue
        toward = {a: a}  # node -> next node on a path to a
        queue = [a]
        for v in queue:
            for u in range(m + 1):
                if u not in toward and arc(u, v, i):
                    toward[u] = v
                    queue.append(u)
        b = next((b for b in range(a) if tight[i, b] and b in toward), None)
        if b is None:
            continue
        path = [b]
        while path[-1] != a:
            path.append(toward[path[-1]])
        movers = [(witness(u, v, i), v) for u, v in zip(path, path[1:]) if u < m and v < m]
        for k, v in movers:
            move(k, v)
        move(i, b)
    return pi


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
