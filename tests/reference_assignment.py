"""Reference bounded-assignment solver for the tests.

One optimal map comes from a rectangular LAP (scipy) on a dense
slot-expanded cost matrix, and the unscreened lexicographic refine then
runs the path test for every input. It is slow, but it reaches the
lexicographically smallest optimum by a route independent of the
library's argmax-and-repair phase and dual screen, and that optimum is
unique, so `solve_assignment` must return exactly the same map. The
refine's arc gains are rebuilt densely from the costs here, not read from
the library's move-gain structure, so the oracle shares none of that code.

`brute_force_assignment` enumerates every feasible map of a tiny
instance, as an oracle that shares no reasoning with either solver.

`reference_random_feasible_assignment` keeps the driver's random start
in its plain form, one `Generator.choice` call per unit of count, for
the chunked draw to be checked against.
"""

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from amsal.assignment import (
    Assignment,
    _best_paths,
    _checked_assignment,
    _integer_costs,
    _simple_path,
)
from amsal.errors import AmsalError, InvalidInput
from amsal.linalg import as_matrix

BRUTE_FORCE_CAP = 10**7


class TooLarge(AmsalError):
    """An exhaustive search was requested on a space that is too big."""


def reference_assignment(s, records):
    """The lexicographically smallest optimal map, as an int64 array."""
    s = as_matrix(s, "s")
    records.check_feasible(s.shape[0])
    c = _integer_costs(s)
    pi = lap_optimum(c, records.lower_bounds, records.upper_bounds)
    return unscreened_lex_refine(c, records.lower_bounds, records.upper_bounds, pi)


def lap_optimum(c, lower, upper):
    """One optimal map via slot expansion and a rectangular LAP solve.

    Record j contributes min(upper[j], n) unit slots; the first lower[j]
    slots are mandatory. Dummy rows absorb the surplus slots but are
    barred from mandatory ones, which enforces the lower bounds.
    """
    n, m = c.shape
    upper_eff = np.minimum(upper, n)
    slots_owner = np.repeat(np.arange(m), upper_eff)
    mandatory = np.concatenate([np.arange(u) < l for l, u in zip(lower, upper_eff)])
    total = slots_owner.shape[0]
    forbid = float((n + 2) * 2**33)
    cost = np.zeros((total, total), dtype=np.float64)
    cost[:n, :] = -c[:, slots_owner]
    cost[n:, mandatory] = forbid
    row, col = linear_sum_assignment(cost)
    pi = np.empty(n, dtype=np.int64)
    pi[row[:n]] = slots_owner[col[:n]]
    return pi


def dense_condensed_graph(c, lower, upper, pi, counts, frozen):
    """Best single-move gains between record nodes plus a slack node.

    Arc u -> v moves the best unfrozen input out of u into v; arcs to and
    from the slack node model raising u's count (if below upper[u]) or
    lowering it (if above lower[u]). Returns (W, witness) where W[u][v]
    is the arc gain (None if unavailable) and witness the moved input.
    """
    m = c.shape[1]
    nodes = m + 1
    W = [[None] * nodes for _ in range(nodes)]
    witness = [[-1] * nodes for _ in range(nodes)]
    for u in range(m):
        rows = np.flatnonzero((pi == u) & ~frozen)
        if rows.size:
            gains = c[rows] - c[rows, u][:, None]
            best = gains.argmax(axis=0)
            for v in range(m):
                if v != u:
                    W[u][v] = int(gains[best[v], v])
                    witness[u][v] = int(rows[best[v]])
        if counts[u] < upper[u]:
            W[u][m] = 0
        if counts[u] > lower[u]:
            W[m][u] = 0
    return W, witness


def unscreened_lex_refine(c, lower, upper, pi):
    """Fix inputs in index order, each in the smallest group an optimum allows."""
    n, m = c.shape
    pi = pi.copy()
    frozen = np.zeros(n, dtype=bool)
    for i in range(n):
        frozen[i] = True
        a = int(pi[i])
        if a == 0:
            continue
        counts = np.bincount(pi, minlength=m)
        W, witness = dense_condensed_graph(c, lower, upper, pi, counts, frozen)
        D, via = _best_paths(W)
        base = int(c[i, a])
        for b in range(a):
            if D[b][a] is None:
                continue
            if int(c[i, b]) - base + D[b][a] == 0:
                seq = _simple_path(via, b, a)
                for u, v in zip(seq, seq[1:]):
                    if u < m and v < m:
                        pi[witness[u][v]] = v
                pi[i] = b
                break
    return pi


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
    if m**n > BRUTE_FORCE_CAP:
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


def reference_random_feasible_assignment(records, n, rng):
    """Meet every lower bound, then draw each further unit of count by
    Generator.choice over the records still under their upper bounds,
    weighted by the bound midpoints; shuffle the slots."""
    records.check_feasible(n)
    counts = records.lower_bounds.copy()
    weights = (records.lower_bounds + records.upper_bounds) / 2.0
    for _ in range(n - int(counts.sum())):
        open_j = np.flatnonzero(counts < records.upper_bounds)
        w = weights[open_j]
        counts[rng.choice(open_j, p=w / w.sum())] += 1
    slots = np.repeat(np.arange(records.m), counts)
    rng.shuffle(slots)
    return Assignment(slots)
