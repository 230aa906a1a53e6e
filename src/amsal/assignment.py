"""Bounded many-to-one assignment of inputs to guarded records.

The optimization is: choose pi maximizing sum_i s[i, pi(i)] subject to
per-record count bounds lower[j] <= #{i: pi(i) = j} <= upper[j]. The
constraint matrix of this program is totally unimodular, so the integer
optimum coincides with the LP optimum and can be found by network-flow
reasoning instead of a general ILP. The solver keeps a record price
phi[j] next to the map: the LP dual of the count bounds, measured
against a slack node whose potential absorbs the bound slack.

1. `_price_start` takes the row-wise argmax of c - phi from given start
   prices: zero for a cold solve, or the previous A-step's optimal duals
   when the driver solves a sequence of nearby problems. A pass in index
   order re-prices each record that breaks complementary slackness (a
   dual start in the spirit of auction methods for transportation
   problems; Bertsekas & Castanon, 1989). A later price can push an
   earlier record out again, so a second pass takes up what the first
   left; more passes certify few more solves, each at a further cost. If
   every count then equals its `_slack_flow` (on its upper bound where
   phi > 0, its lower bound where phi < 0, else within its bounds), the
   map is optimal, the prices are optimal duals, and the solve is done:
   the map puts every input at its first tight record, the smallest
   optimum already.
2. Otherwise one residual graph serves a repair and a refine. Its nodes
   are the records plus a slack node for the bound slack; arc u -> v
   carries the best gain of moving a single input from u to v (int64
   m x m gains W and witnesses, built by `_arc_table` and kept current
   by `_move`), and `_lengths` gives every arc its length under node
   potentials. One dense Dijkstra (`_paths`) searches it in both phases.
   `_initial_optimum` repairs the bounds by successive shortest paths
   (Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 9; Edmonds & Karp,
   1972), with the prices as potentials, so once the bounds hold they are
   optimal duals. `_lex_refine` then rewrites that optimum into the
   lexicographically smallest optimal map, so results do not depend on
   how it was reached: at the optimal duals the zero-length arcs are the
   tight edges along which inputs may move to smaller records. An input
   in record a is tight at b exactly when it attains W[a, b] on a
   zero-length arc a -> b, and it can move only when b reaches a, which
   puts a and b in one strongly connected component of those arcs
   (Tarjan, 1972); the refine searches only such inputs. Any start prices
   lead to the same result; better ones only leave less to repair.

Scores are scaled to integers (2^32 / max|s|) before solving; all
optimality reasoning below is exact int64 arithmetic on those costs,
prices, gains and path lengths. Prices handed between solves are in score
units, so each solve puts them on its own grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmsalError, InfeasibleBounds, InvalidInput
from .linalg import _as_index_map, as_matrix

_SCALE = float(2**32)
_FAR = 2**62  # no arc; a distance plus _FAR still fits int64
_DONE = np.iinfo(np.int64).max  # a settled node's Dijkstra key


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
    return _scores(x, records.z, proj.u, proj.v, k)


def _scores(x, z, u, v, k):
    """score_matrix's core on checked inputs: (x U_k) (z V_k)^T."""
    return (x @ u[:, :k]) @ (z @ v[:, :k]).T


def assignment_objective(s, pi):
    """sum_i s[i, pi(i)] for a given score matrix and map."""
    s = as_matrix(s, "s")
    return _objective(s, np.asarray(pi.map if hasattr(pi, "map") else pi))


def _objective(s, pi):
    """assignment_objective's core on a checked s and an index array pi."""
    return float(s[np.arange(s.shape[0]), pi].sum())


def _to_grid(v, amax):
    """v * 2^32 / amax, dividing by amax first where 2^32 / amax overflows
    (a subnormal amax)."""
    factor = _SCALE / amax
    if math.isfinite(factor):
        return v * factor
    return (v / amax) * _SCALE


def _integer_costs(s, amax=None):
    """Round scores to int64 on the 2^32 / max|s| grid (exactly zero stays
    zero); amax is max|s| where the caller has it already."""
    if amax is None:
        amax = float(np.abs(s).max())
    if amax == 0.0:
        return np.zeros(s.shape, dtype=np.int64)
    return np.rint(_to_grid(s, amax)).astype(np.int64)


def solve_assignment(s, records, prices=None):
    """Exact bounded assignment maximizing the score sum.

    Returns the lexicographically smallest map among all optima, which
    pins down tie behavior independently of how the optimum was reached.

    `prices`, if given, is a float64 array of the m record prices in
    score units that the solve starts from (all zero without it). It is
    overwritten with the optimal duals of the returned map, measured from
    the slack node, a start for a nearby problem. The start changes how
    much is left to repair, never the result.
    """
    s = as_matrix(s, "s")
    n, m = s.shape
    if m != records.m:
        raise InvalidInput(f"score matrix has {m} columns but {records.m} records")
    records.check_feasible(n)
    amax = float(np.abs(s).max())
    c = _integer_costs(s, amax)
    phi = np.zeros(m, dtype=np.int64)
    if prices is not None:
        if not (isinstance(prices, np.ndarray) and prices.dtype == np.float64
                and prices.shape == (m,) and prices.flags.writeable
                and np.all(np.isfinite(prices))):
            raise InvalidInput(f"start prices must be {m} finite numbers, one per record, "
                               "in a writeable float64 array")
        if amax > 0.0:
            # +-2^40 on the cost grid; any start is valid, so the clip
            # bounds only the start's quality
            lim = 2.0**8 * amax
            phi[:] = [round(_to_grid(min(max(p, -lim), lim), amax)) for p in prices.tolist()]
    lower, upper = records.lower_bounds, records.upper_bounds
    pi, phi = _price_start(c, lower.tolist(), upper.tolist(), phi)
    counts = np.bincount(pi, minlength=m)
    # complementary slackness: phi are optimal duals of pi
    if not np.array_equal(_slack_flow(phi, counts, lower, upper), counts):
        pi, phi, W, witness = _initial_optimum(c, pi, phi, lower, upper)
        # a certified pi = argmax(c - phi) holds every input at its first
        # tight record, the smallest optimum already
        pi = _lex_refine(c, pi, phi, lower, upper, W, witness)
    pi = _checked_assignment(pi, records)
    if prices is not None:
        np.multiply(phi, amax / _SCALE, out=prices)
    return pi


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


def _arc_table(c, pi):
    """The arc table of the record graph under the map pi, which the
    repair and the lex refine both read.

    witness[u, v] >= 0 marks an arc: the largest input in record u that
    attains the best gain W[u, v] of c[i, v] - c[i, u] over the inputs i
    in u. Where there is no arc (no input in u, and on the diagonal)
    witness is -1 and W[u, v] means nothing. One stable sort of pi lays
    the inputs out in record blocks, and a reduction over each block
    gives both int64 tables.
    """
    m = c.shape[1]
    order = np.argsort(pi, kind="stable")
    blocks = pi[order]
    counts = np.bincount(blocks, minlength=m)
    held = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[held]
    gains = c[order] - c[order, blocks, None]
    top = np.maximum.reduceat(gains, starts)
    attains = gains == np.repeat(top, counts[held], axis=0)
    W = np.zeros((m, m), dtype=np.int64)
    witness = np.full((m, m), -1, dtype=np.int64)
    W[held] = top
    witness[held] = np.maximum.reduceat(np.where(attains, order[:, None], -1), starts)
    np.fill_diagonal(witness, -1)
    return W, witness


def _move(c, pi, W, witness, i, v):
    """Reassign input i to record v and update its arc table W, witness:
    only the arcs out of i's old record that i witnessed are read again,
    and row v takes i's gains where it has no arc, a smaller gain, or an
    equal one and i is the larger input."""
    u = pi[i]
    pi[i] = v
    stale = np.flatnonzero(witness[u] == i)
    if stale.size:
        members = np.flatnonzero(pi == u)[::-1]  # the first maximum is the largest input
        if members.size:
            g = c[members[:, None], stale] - c[members, u, None]
            best = g.argmax(axis=0)
            W[u, stale] = g[best, np.arange(stale.size)]
            witness[u, stale] = members[best]
        else:
            witness[u, stale] = -1
    g = c[i] - c[i, v]
    # integer gains: a tie goes to the larger input
    up = (witness[v] < 0) | (g >= W[v] + (witness[v] > i))
    up[v] = False
    W[v, up] = g[up]
    witness[v, up] = i


def _shift(c, pi, W, witness, path):
    """Move one input along each record arc of the node path (the slack
    node m has none), reading every witness before any input moves: a
    move can raise the next arc's row."""
    m = W.shape[0]
    for i, v in [(witness[u, v], v) for u, v in zip(path, path[1:]) if u < m and v < m]:
        _move(c, pi, W, witness, i, v)


def _price_start(c, lower, upper, phi):
    """Start map argmax(c - phi) (the first record on ties) and the record
    prices phi that produced it, from start prices within +-2^40.

    The prices start at the given phi. Two passes in index order visit
    each record j that breaks complementary slackness under argmax(c -
    phi): its count is outside its bounds, or inside them with phi[j] > 0
    below the upper bound or phi[j] < 0 above the lower bound. A record
    of the second kind gets price 0 if its count at price 0 stays within
    its bounds. Otherwise phi[j] is set from the gains g = c[:, j] - max
    over l != j of (c[:, l] - phi[l]): one above the (upper[j] + 1)-th
    largest gain when j holds too many inputs, one below the lower[j]-th
    largest when too few, so j's count lands on that bound (or near it,
    where gains tie).

    A later price can push an earlier record out again. The second pass
    takes those records up once more, and the bound repair fixes whatever
    is left. On the benchmark's align-multi jobs (32 instances, seed 5,
    753 A-steps) one pass leaves 14.7 repairs per job and two leave 11.4,
    while 3, 5 and 10 passes leave 11.0, 10.9 and 10.8 and each pass adds
    to the price start's cost, so the passes stop at two.

    The reduced costs are kept record-major, so the best other record of
    every input is an elementwise max over m rows. A price change at j
    reads the argmax again only for the inputs where j ties or beats
    that best at the old or the new price; no other input's argmax can
    change.
    """
    n, m = c.shape
    phi = np.array(phi, dtype=np.int64)
    reduced = np.subtract(c.T, phi[:, None], order="C")  # one row updated per price set
    phi = phi.tolist()
    pi = reduced.argmax(axis=0)
    counts = np.bincount(pi, minlength=m).tolist()

    def set_price(j, price, g):
        moved = (g >= min(phi[j], price)).nonzero()[0]
        phi[j] = price
        np.subtract(c[:, j], price, out=reduced[j])
        pi[moved] = reduced[:, moved].argmax(axis=0)
        return np.bincount(pi, minlength=m).tolist()

    for j in [*range(m), *range(m)]:
        count, price = counts[j], phi[j]
        inside = lower[j] <= count <= upper[j]
        if inside and (price <= 0 or count == upper[j]) and (price >= 0 or count == lower[j]):
            continue
        # the masked row never attains a maximum for m >= 2; for m = 1
        # (one record holds all n inputs, within its bounds, so only the
        # sign can be wrong) every gain is about _FAR and price 0 holds
        reduced[j] = -_FAR
        g = c[:, j] - reduced.max(axis=0)
        if inside:  # a price of the wrong sign
            counts = set_price(j, 0, g)
            if lower[j] <= counts[j] <= upper[j]:
                continue
        if counts[j] > upper[j]:
            k = n - upper[j] - 1
            price = int(np.partition(g, k)[k]) + 1
        else:
            k = n - lower[j]
            price = int(np.partition(g, k)[k]) - 1
        counts = set_price(j, price, g)
    return pi, np.array(phi, dtype=np.int64)


def _slack_flow(phi, counts, lower, upper):
    """The count each record must hold under its price phi: upper where
    phi > 0, lower where phi < 0, else the count clipped to the bounds."""
    return np.where(phi > 0, upper, np.where(phi < 0, lower, np.clip(counts, lower, upper)))


def _lengths(W, witness, p, f, lower, upper):
    """The (m + 1) x (m + 1) arc lengths p[v] - p[u] - gain of the residual
    graph on the m records plus a slack node m, under node potentials p
    and the slack flow f (_FAR where there is no arc).

    Arc u -> v, where witness[u, v] >= 0, moves that input at gain
    W[u, v]; u -> m raises f[u] below upper[u] and m -> u lowers it above
    lower[u], at gain 0.
    """
    m = W.shape[0]
    length = np.full((m + 1, m + 1), _FAR)
    # in place: np.where would allocate one more (m, m) array per call
    np.copyto(length[:m, :m], p[:m] - p[:m, None] - W, where=witness >= 0)
    length[:m, m] = np.where(f < upper, p[m] - p[:m], _FAR)
    length[m, :m] = np.where(f > lower, p[:m] - p[m], _FAR)
    return length


def _paths(length, sources, stop):
    """Dijkstra on the non-negative arc lengths length[u, v] from every
    node of the mask `sources` at once, up to the first node of the mask
    `stop` it settles.

    Returns (dist, came, settled, t): the distances found so far (_FAR
    or more where none), came[v] the node v was reached from (a source is
    its own), the mask of the nodes settled before t, and t, or -1 when no
    stop node is reachable.
    """
    dist = np.where(sources, 0, _FAR)
    key = dist.copy()  # the unsettled nodes' distances; _DONE once settled
    came = np.arange(length.shape[0])
    while True:
        t = int(key.argmin())
        if key[t] >= _FAR:
            return dist, came, key == _DONE, -1
        if stop[t]:
            return dist, came, key == _DONE, t
        key[t] = _DONE
        alt = length[t] + dist[t]
        better = alt < dist  # never a settled node, as no length is negative
        key[better] = dist[better] = alt[better]
        came[better] = t


def _initial_optimum(c, pi, phi, lower, upper):
    """One optimal map from the start pi = argmax(c - phi), its optimal
    duals measured from the slack node, and its arc table W, witness.

    Successive shortest paths on the residual graph of `_lengths`, whose
    slack node m takes f[u] units of count from record u and hands the n
    inputs on: f starts at `_slack_flow`. The excess is count - f at a
    record and f.sum() - n at the slack node. Under potentials p (phi,
    then 0) no arc length is negative, as every input sits in an argmax
    of c - p[:m] and f on the bound that the sign of p[u] - p[m] calls
    for. Each step runs one Dijkstra (`_paths`) from all excess to the
    first deficit node it settles, t, lowers the settled potentials by
    their distance minus t's, which keeps every length non-negative and
    zeroes those on the path, and shifts count along the path.

    Sources shift together and a deficit node's potential never moves, so
    each potential stays within a few path gains (at most m 2^33 each) of
    the start prices: within 2^40 on the grid, plus at most 2^34 for each
    price `_price_start` sets (at most two per record). For m < 2^20 that
    is far below the sentinel _FAR = 2^62, and a distance plus _FAR still
    fits int64.
    """
    n, m = c.shape
    pi = pi.copy()
    W, witness = _arc_table(c, pi)
    counts = np.bincount(pi, minlength=m)
    upper = np.minimum(upper, n + 1)  # above n binds no map; keeps f.sum() small
    f = _slack_flow(phi, counts, lower, upper)
    p = np.append(phi, 0)
    excess = np.append(counts - f, f.sum() - n)
    while np.any(excess > 0):
        dist, came, settled, t = _paths(_lengths(W, witness, p, f, lower, upper),
                                        excess > 0, excess < 0)
        if t < 0:
            raise AmsalError("bound repair: no record can take the excess count")
        p[settled] -= dist[settled] - dist[t]
        path = _walk(came, t)[::-1]
        arcs = list(zip(path, path[1:]))
        # the path has length 0, so it stays a shortest path while it stays
        # tight: augment along it until it is not, or an end is balanced
        while excess[path[0]] > 0 > excess[t] and all(
                f[u] < upper[u] if v == m else f[v] > lower[v] if u == m
                else witness[u, v] >= 0 and W[u, v] == p[v] - p[u] for u, v in arcs):
            # one input per record arc; slack arcs alone move as much
            # count as their bounds and the path's ends allow
            unit = min(excess[path[0]], -excess[t])
            for u, v in arcs:
                unit = min(unit, upper[u] - f[u] if v == m else f[v] - lower[v] if u == m else 1)
            for u, v in arcs:
                if v == m:
                    f[u] += unit
                elif u == m:
                    f[v] -= unit
            _shift(c, pi, W, witness, path)
            excess[path[0]] -= unit
            excess[t] += unit
    return pi, p[:m] - p[m], W, witness


def _walk(came, node):
    """The search's path from node back to its start."""
    path = [node]
    while came[path[-1]] != path[-1]:
        path.append(came[path[-1]])
    return path


def _lex_refine(c, pi, phi, lower, upper, W, witness):
    """Rewrite the optimal map pi into the lexicographically smallest
    optimal map, given optimal duals phi measured from the slack node and
    the arc table W, witness of pi on c (kept current by `_move`).

    By complementary slackness the optimal maps are exactly the maps
    that use only tight edges (c[i, j] - phi[j] maximal over j) and keep
    each count at its upper bound where phi[j] > 0 and at its lower bound
    where phi[j] < 0. Inputs are fixed in index order. Input i in record
    a may move to a smaller record b exactly when i is tight at b and b
    reaches a in the tight graph of the inputs after i. That graph is the
    zero-length part of the repair's residual graph (`_lengths` under the
    potentials (phi, 0), with the counts as the slack flow): record arc
    u -> v has length 0 exactly when some input in u is tight at v, and
    its witness is then the largest such input, so u -> v is an arc of
    input i's search exactly when that witness comes after i. The smallest
    such b wins, and the inputs on a path from b to a move one arc each.

    The ties are read off the same graph. i sits at a tight edge, so it
    is tight at b exactly when its gain c[i, b] - c[i, a] equals phi[b] -
    phi[a]; no gain out of a exceeds that, so then a -> b has length 0
    and i attains W[a, b] on it. And b reaching a puts a and b in one
    strongly connected component of the whole zero-length graph
    (`_components`, labelled again after each move; Tarjan, 1972). So
    only the inputs that attain W[a, b] on a zero-length arc a -> b with
    b < a inside one component are searched, which skips most searches
    and changes no result.
    """
    m = c.shape[1]
    p = np.append(phi, 0)
    nodes, never = np.arange(m + 1), np.zeros(m + 1, dtype=bool)
    fixed = -1  # the inputs up to here are fixed
    while True:
        zero = _lengths(W, witness, p, np.bincount(pi, minlength=m), lower, upper) == 0
        label = _components(zero)[:m]
        ties = zero[:m, :m] & (label == label[:, None]) & (nodes[:m] < nodes[:m, None])
        later = fixed + 1 + np.flatnonzero(ties.any(axis=1)[pi[fixed + 1:]])
        at = pi[later]
        hits = ties[at] & (c[later] - c[later, at, None] == W[at])
        keep = hits.any(axis=1)
        for i, hit in zip(later[keep].tolist(), hits[keep]):
            a = int(pi[i])
            arcs = zero.copy()
            arcs[:m, :m] &= witness > i
            # reversed, so came[v] is the next node on a tight path from v to a
            dist, came, _, _ = _paths(np.where(arcs.T, 0, _FAR), nodes == a, never)
            reach = np.flatnonzero(hit[:a] & (dist[:a] == 0))
            if reach.size:
                b = int(reach[0])
                _shift(c, pi, W, witness, _walk(came, b))
                _move(c, pi, W, witness, i, b)
                fixed = i
                break
        else:
            return pi


def _components(arcs):
    """Strongly connected component labels of the graph whose arcs are
    the True entries of the square boolean matrix arcs: Tarjan's
    algorithm (1972), iterative, O(nodes + arcs)."""
    k = arcs.shape[0]
    out = [[] for _ in range(k)]
    us, vs = np.nonzero(arcs)
    for u, v in zip(us.tolist(), vs.tolist()):
        out[u].append(v)
    order = [-1] * k  # visit order, -1 before the visit
    low = [0] * k
    label = [-1] * k  # -1 while a node is on the stack or unvisited
    stack, count, labels = [], 0, 0  # labels: the components closed so far
    for root in range(k):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            u, arcs_u = work[-1]
            v = next(arcs_u, None)
            if v is None:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[u])
                if low[u] == order[u]:
                    while True:
                        w = stack.pop()
                        label[w] = labels
                        if w == u:
                            break
                    labels += 1
            elif order[v] < 0:
                order[v] = low[v] = count
                count += 1
                stack.append(v)
                work.append((v, iter(out[v])))
            elif label[v] < 0:
                low[u] = min(low[u], order[v])
    return np.array(label)


PRIOR_SLACK = 0.2  # default fractional slack around the prior counts


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
