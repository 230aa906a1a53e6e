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
   carries the best gain of moving a single input from u to v. The arc
   table is an m x m array kept by `_MoveGains`: one gather over sorted
   blocks builds it, and a move re-reads only the arcs the moved input
   witnessed. The repair shifts one unit of count at a time along the
   best chain of moves until the bounds hold and no shift gains
   (successive shortest paths; Ahuja, Magnanti & Orlin, Network Flows,
   1993, ch. 9): a vectorized max-plus Floyd-Warshall gives the chain
   gains and a breadth-first search over the arcs on best paths gives
   the chain. Optimal duals come from the longest paths of the final
   residual graph plus a slack node.
2. `_lex_refine` rewrites that optimum into the lexicographically
   smallest optimal map, so results do not depend on how the optimum was
   reached. Complementary slackness holds between the duals and every
   optimal map, so the duals decide each tie: an input moves to a smaller
   record only along tight edges, found by a reachability search on one
   tight graph of at most m + 1 nodes.

Scores are scaled to integers (2^32 / max|s|) before solving; all
optimality reasoning below is exact integer arithmetic on those costs
(path gains are integers held exactly in float64).
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
    """The arc table of the record graph under a map pi, kept current as
    inputs move.

    W[u, v] is the best gain c[i, v] - c[i, u] over the inputs i now in
    record u (-inf where u is empty and on the diagonal), and witness[u, v]
    the input that attains it (-1 where there is none). One stable argsort
    of the transposed (m, n) key puts row v of `order` in (record,
    decreasing gain, index) order, so the head of record u's block in row v
    is the best move out of u into v under the start map, and the first
    table is one gather over those heads. When input i moves u -> v, only
    the arcs of u that i witnessed are read again, and row v is raised to
    i's gains where they are strictly larger. A read of (u, v) walks a
    cursor down u's block, skipping inputs that have left u, and compares
    with a max-heap of the inputs that moved into u since; a pair's cursor
    and heap are created when it is first read or pushed. The record
    counts of pi are kept alongside.
    """

    def __init__(self, c, pi):
        self.c = c
        self.pi = pi
        n, m = c.shape
        counts = np.bincount(pi, minlength=m)
        self.counts = counts.tolist()
        gains = c.T - c[np.arange(n), pi]
        # costs lie within +-2^32, so |gain| <= 2^33 and the record term
        # pi * 2^35 outweighs any gain
        self.order = np.argsort(pi * 2**35 - gains, axis=1, kind="stable")
        self.gains = np.take_along_axis(gains, self.order, 1)
        end = np.cumsum(counts)
        self.start, self.end = (end - counts).tolist(), end.tolist()
        self.cursor = {}
        self.heaps = {}
        head = np.minimum(self.start, n - 1)  # an empty last block starts at n
        self.W = self.gains[:, head].T.astype(np.float64)
        self.witness = self.order[:, head].T.copy()
        none = (counts == 0)[:, None] | np.eye(m, dtype=bool)
        self.W[none] = -np.inf
        self.witness[none] = -1

    def best(self, u, v):
        """(gain, input) of the best move out of u into v, or (-inf, -1) if
        u is empty."""
        pi = self.pi
        rows = self.order[v]
        pos, end = self.cursor.get((u, v), self.start[u]), self.end[u]
        while pos < end and pi[rows[pos]] != u:
            pos += 1
        self.cursor[u, v] = pos
        heap = self.heaps.get((u, v))
        while heap and pi[heap[0][1]] != u:
            heapq.heappop(heap)
        if pos < end and (not heap or self.gains[v, pos] >= -heap[0][0]):
            return int(self.gains[v, pos]), int(rows[pos])
        if heap:
            return -heap[0][0], heap[0][1]
        return -np.inf, -1

    def move(self, i, v):
        """Reassign input i to record v and update the arc table."""
        u = int(self.pi[i])
        self.counts[u] -= 1
        self.counts[v] += 1
        self.pi[i] = v
        for w, k in enumerate(self.witness[u].tolist()):
            if k == i:
                self.W[u, w], self.witness[u, w] = self.best(u, w)
        row = self.c[i].tolist()
        current = self.W[v].tolist()
        for w, cw in enumerate(row):
            if w != v:
                heapq.heappush(self.heaps.setdefault((v, w), []), (row[v] - cw, i))
                if cw - row[v] > current[w]:
                    self.W[v, w], self.witness[v, w] = cw - row[v], i


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
    reduced = c.copy()  # c - phi, one column updated per price set
    pi = c.argmax(axis=1)
    counts = np.bincount(pi, minlength=m)
    for j in range(m):
        if lower[j] <= counts[j] <= upper[j]:
            continue
        # m >= 2 here (a single record holds all n inputs, within its
        # bounds), so the masked column never attains a row maximum
        reduced[:, j] = np.iinfo(np.int64).min
        g = c[:, j] - reduced.max(axis=1)
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

    Bound repair on the record graph, whose arc table `_MoveGains` keeps
    as arrays: each step shifts one unit of count from record a to record
    b along a best a -> b chain of single-input moves. It picks the
    transfer that most reduces the total bound violation and, among
    those, the one with the largest gain; it stops when no transfer
    lowers the violation and none keeps it level with a positive gain.
    This is cycle cancelling with convex penalties, so the result is
    optimal. The start, an argmax of c - phi, has a record graph free of
    positive cycles, and augmenting along best paths keeps it so, which
    makes the path gains well defined at every step. The chain is found
    by a breadth-first search from a over the arcs u -> v with W[u, v] +
    D[v, b] == D[u, b]: their gains telescope to D[a, b], and the search
    returns a simple path even where zero-gain cycles tie with it.

    Returns (pi, phi, phi_slack): the optimum and optimal duals, the
    longest-path potentials of its residual graph's record nodes and of a
    slack node that absorbs the bound slack, read off the final step's
    all-pairs best paths.
    """
    m = c.shape[1]
    gains = _MoveGains(c, start)
    counts = gains.counts
    while True:
        D = _best_paths(gains.W)
        # a transfer a -> b changes the total violation by out[a] + into[b]
        out = [(k <= lo) - (k > up) for k, lo, up in zip(counts, lower, upper)]
        into = [(k >= up) - (k < lo) for k, lo, up in zip(counts, lower, upper)]
        change = np.where(D > -np.inf, np.add.outer(out, into), 3)
        change.ravel()[:: m + 1] = 3  # no transfer from a record to itself
        least = change.min()
        gain = np.where(change == least, D, -np.inf)
        a, b = divmod(int(gain.argmax()), m)
        if least > 0 or (least == 0 and gain[a, b] <= 0):
            break
        path = _tight_path(gains.W, D, a, b)
        # read every arc's witness before any input moves, so each arc
        # moves the input its gain was read from
        movers = [(int(gains.witness[u, v]), v) for u, v in zip(path, path[1:])]
        for i, v in movers:
            gains.move(i, v)
    # Longest paths from a virtual root with a zero arc to every node of the
    # residual graph, whose slack node has arcs u -> slack where counts[u] <
    # upper[u] and slack -> u where counts[u] > lower[u]; with no positive
    # cycle, a longest path passes the slack node at most once. The
    # zero-length path (the diagonal of D) counts as a path.
    counts, lower, upper = np.array(counts), np.asarray(lower), np.asarray(upper)
    reach = D.max(axis=0)
    phi_slack = reach[counts < upper].max(initial=0.0)
    phi = np.maximum(reach, phi_slack + D[counts > lower].max(axis=0, initial=-np.inf))
    return gains.pi, phi.astype(np.int64), int(phi_slack)


def _best_paths(W):
    """Max-plus Floyd-Warshall: D[u, v] is the largest gain of a path from
    u to v (0 for u == v, -inf where none exists); the residual graph of
    an optimum has no positive cycle.

    Arc gains are integers of magnitude at most 2^33, so every path sum,
    and every sum of two paths that a relaxation forms, is an integer of
    magnitude at most 2 (m - 1) 2^33, exact in float64 while that stays
    within 2^53.
    """
    m = W.shape[0]
    if (m - 1) * 2**34 > 2**53:
        raise InvalidInput(f"{m} records exceed the {2**19 + 1} that exact path gains allow")
    D = W.copy()
    D.ravel()[:: m + 1] = 0.0
    for t in range(m):
        np.maximum(D, D[:, t, None] + D[t], out=D)
    return D


def _tight_path(W, D, a, b):
    """Node sequence of a best a -> b path: a breadth-first search over the
    arcs that lie on some best path to b."""
    if W[a, b] == D[a, b]:
        return [a, b]  # what the search finds first when the direct arc is best
    tight = (W + D[:, b] == D[:, b, None]).tolist()
    toward = {a: a}  # node -> previous node on the search tree
    queue = [a]
    for u in queue:
        for v, on in enumerate(tight[u]):
            if on and v not in toward:
                toward[v] = u
                queue.append(v)
        if b in toward:
            break
    path = [b]
    while path[-1] != a:
        path.append(toward[path[-1]])
    return path[::-1]


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
