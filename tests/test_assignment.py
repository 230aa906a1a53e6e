import itertools
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_assignment import TooLarge, brute_force_assignment, reference_assignment

import amsal.assignment
from amsal import (
    AmsalError,
    GuardedRecords,
    InfeasibleBounds,
    InvalidInput,
    assignment_objective,
    bounds_from_priors,
    score_matrix,
    solve_assignment,
    svd,
)


def _records(m, lower, upper, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return GuardedRecords(rng.standard_normal((m, dim)), lower, upper)


def _random_instance(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 4))
    while True:
        lower = rng.integers(0, max(1, n // m) + 1, size=m)
        upper = lower + rng.integers(0, n + 1, size=m)
        if lower.sum() <= n <= np.minimum(upper, n).sum():
            break
    records = _records(m, lower, upper, seed=int(rng.integers(1 << 30)))
    s = rng.standard_normal((n, m))
    return s, records


def test_records_validation():
    with pytest.raises(InvalidInput):
        GuardedRecords(np.array([[1.0, 2.0], [1.0, 2.0]]), [0, 0], [2, 2])
    with pytest.raises(InvalidInput):
        _records(2, [2, 0], [1, 2])
    with pytest.raises(InvalidInput):
        _records(2, [-1, 0], [1, 2])


def test_feasibility_errors_name_the_constraint():
    with pytest.raises(InfeasibleBounds, match="lower"):
        solve_assignment(np.zeros((2, 2)), _records(2, [2, 2], [3, 3]))
    with pytest.raises(InfeasibleBounds, match="upper"):
        solve_assignment(np.zeros((4, 2)), _records(2, [0, 0], [1, 2]))


def test_start_prices_need_one_per_record():
    frozen = np.zeros(2)
    frozen.setflags(write=False)
    for prices in (np.zeros(3), np.zeros((2, 1)), np.array([0.0, np.nan]), np.array([np.inf, 0.0]),
                   np.zeros(2, dtype=np.int64), [0.0, 0.0], np.zeros(2, dtype=np.float32), frozen):
        with pytest.raises(InvalidInput, match="start prices must be 2 finite numbers"):
            solve_assignment(np.zeros((2, 2)), _records(2, [0, 0], [2, 2]), prices)


def test_forced_identity():
    s = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0]])
    pi = solve_assignment(s, _records(3, [1, 1, 1], [1, 1, 1]))
    np.testing.assert_array_equal(pi.map, [0, 1, 2])


def test_bounds_bind():
    # record 0 scores uniformly higher, yet bounds force a 2/2 split
    s = np.array([[3.0, 1.0], [4.0, 2.0], [5.0, 1.5], [3.5, 0.5]])
    pi = solve_assignment(s, _records(2, [2, 2], [2, 2]))
    assert np.bincount(pi.map, minlength=2).tolist() == [2, 2]


@pytest.mark.parametrize("pi, message", [
    ([0, 1], "row 2: the map has 2 rows, expected 3"),
    ([0, 1, 5], "row 2: record id 5 outside [0, 2)"),
    ([0, 1, -1], "row 2: record id -1 outside [0, 2)"),
], ids=["short", "id-past-records", "negative-id"])
def test_assignment_objective_names_the_bad_row_of_its_map(pi, message):
    s = np.arange(6.0).reshape(3, 2)
    assert assignment_objective(s, [0, 1, 0]) == 7.0
    with pytest.raises(InvalidInput, match=re.escape(message)):
        assignment_objective(s, pi)


def test_matches_brute_force_random():
    rng = np.random.default_rng(7)
    for _ in range(120):
        s, records = _random_instance(rng)
        a = solve_assignment(s, records)
        b = brute_force_assignment(s, records)
        np.testing.assert_array_equal(a.map, b.map)
        assert assignment_objective(s, a) == assignment_objective(s, b)


def test_matches_brute_force_under_ties():
    rng = np.random.default_rng(8)
    for _ in range(60):
        s, records = _random_instance(rng)
        s = np.rint(s)  # heavy ties
        a = solve_assignment(s, records)
        b = brute_force_assignment(s, records)
        np.testing.assert_array_equal(a.map, b.map)


@st.composite
def _tiny_tied_instances(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    palette = draw(st.sampled_from([(0.0,), (-1.0, 0.0, 1.0), (-3.0, 0.0, 0.5, 2.0)]))
    s = np.array(draw(st.lists(st.sampled_from(palette), min_size=n * m, max_size=n * m)))
    s = s.reshape(n, m)
    if draw(st.booleans()):
        s = np.repeat(s[:, :1], m, axis=1)  # every record scores the same per input
    lower = draw(st.lists(st.integers(0, n // m + 1), min_size=m, max_size=m))
    extra = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    upper = [lo + e for lo, e in zip(lower, extra)]
    assume(sum(lower) <= n <= sum(min(u, n) for u in upper))
    return s, GuardedRecords(np.arange(2.0 * m).reshape(m, 2), lower, upper)


@settings(max_examples=150, deadline=None)
@given(_tiny_tied_instances())
def test_matches_brute_force_property(instance):
    s, records = instance
    a = solve_assignment(s, records)
    b = brute_force_assignment(s, records)
    np.testing.assert_array_equal(a.map, b.map)


@settings(max_examples=150, deadline=None)
@given(_tiny_tied_instances())
def test_lex_refine_maps_every_optimum_to_the_brute_force_map(instance):
    # the refine accepts any optimal map and any optimal duals: here the
    # duals that the repair reaches from two different start prices
    s, records = instance
    n, m = s.shape
    lower, upper = records.lower_bounds, records.upper_bounds
    c = amsal.assignment._integer_costs(s)
    maps = np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int64)
    counts = np.stack([np.bincount(pi, minlength=m) for pi in maps])
    value = np.where(np.all((counts >= lower) & (counts <= upper), axis=1),
                     c[np.arange(n), maps].sum(axis=1), np.iinfo(np.int64).min)
    optima = maps[value == value.max()]
    expected = brute_force_assignment(s, records).map
    duals = []
    for start in (np.zeros(m, dtype=np.int64), c.max(axis=0)):
        pi, phi = amsal.assignment._price_start(c, lower.tolist(), upper.tolist(), start)
        duals.append(amsal.assignment._initial_optimum(c, pi, phi, lower, upper)[1])
    for phi in duals:
        for pi in optima:
            refined = amsal.assignment._lex_refine(c, pi.copy(), phi, lower, upper,
                                                   *amsal.assignment._arc_table(c, pi))
            np.testing.assert_array_equal(refined, expected)


def _corpus(rng):
    """Instances with n < 61 and m < 9 over every score and bound regime."""
    kinds = ("continuous", "rounded", "zero", "row-constant")
    for trial in range(240):
        n = int(rng.integers(1, 61))
        m = int(rng.integers(1, 9))
        if trial % 3 == 0:
            lower = upper = np.bincount(rng.integers(0, m, size=n), minlength=m)
        else:
            while True:
                lower = rng.integers(0, n // m + 2, size=m)
                upper = lower + rng.integers(0, n // 2 + 1, size=m)
                if lower.sum() <= n <= np.minimum(upper, n).sum():
                    break
        kind = kinds[trial % len(kinds)]
        s = rng.standard_normal((n, m))
        if kind == "rounded":
            s = np.rint(s)
        elif kind == "zero":
            s = np.zeros((n, m))
        elif kind == "row-constant":
            s = np.repeat(s[:, :1], m, axis=1)
        yield s, _records(m, lower, upper, seed=trial)


def test_matches_reference_solver_corpus():
    for s, records in _corpus(np.random.default_rng(13)):
        np.testing.assert_array_equal(
            solve_assignment(s, records).map, reference_assignment(s, records)
        )


def _many_record_corpus(rng):
    """Nearly one record per input: m = n or n - 1, bounds [0, 2] each,
    over rounded and tied scores, each with a nearby second score matrix."""
    for n in range(4, 41):
        m = n - n % 2
        if n % 4 < 2:
            s = np.rint(2.0 * rng.standard_normal((n, m)))
            nearby = s + np.rint(rng.standard_normal((n, m)))
        else:
            s = rng.choice([-1.0, 0.0, 1.0], size=(n, m))
            nearby = np.where(rng.random((n, m)) < 0.2, -s, s)
        yield s, nearby, _records(m, np.zeros(m, np.int64), np.full(m, 2), seed=n)


def test_many_record_corpus_matches_the_reference_cold_and_warm():
    repair = mock.Mock(wraps=amsal.assignment._initial_optimum)
    with mock.patch.object(amsal.assignment, "_initial_optimum", repair):
        for s, nearby, records in _many_record_corpus(np.random.default_rng(22)):
            prices = np.zeros(records.m)
            cold = solve_assignment(s, records, prices)
            np.testing.assert_array_equal(cold.map, reference_assignment(s, records))
            # the next solve starts from this one's optimal prices
            warm = solve_assignment(nearby, records, prices)
            np.testing.assert_array_equal(warm.map, reference_assignment(nearby, records))
    assert repair.call_count > 37  # the corpus exercises the bound repair


@st.composite
def _priced_instances(draw):
    """Small instances of every score regime, with an arbitrary price vector;
    up to 8 records, as many as the benchmark's multi-record workload."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("continuous", "rounded", "tied")))
    s = rng.standard_normal((n, m))
    if kind == "rounded":
        s = np.rint(2.0 * s)
    elif kind == "tied":
        s = rng.choice([-1.0, 0.0, 1.0], size=(n, m))
    if draw(st.booleans()):
        lower = upper = np.bincount(rng.integers(0, m, size=n), minlength=m)
    else:
        while True:
            lower = rng.integers(0, n // m + 2, size=m)
            upper = lower + rng.integers(0, n // 2 + 1, size=m)
            if lower.sum() <= n <= np.minimum(upper, n).sum():
                break
    # cost-grid prices; the huge ones lie beyond the +-2^40 start clip
    price = st.one_of(st.integers(-2**34, 2**34), st.sampled_from([-2**62, -2**41, 2**41, 2**62]))
    phi = np.array(draw(st.lists(price, min_size=m, max_size=m)), dtype=np.int64)
    return s, _records(m, lower, upper), phi


def _solve_from(s, records, phi):
    """The solver's map and returned prices from start prices phi on the
    cost grid; checks that the returned prices certify the returned map."""
    amax = float(np.abs(s).max())
    prices = phi * (amax / 2**32)
    pi = solve_assignment(s, records, prices)
    c = amsal.assignment._integer_costs(s)
    # the prices come back in score units; on the cost grid they are integers
    duals = np.rint(prices * (2**32 / amax)) if amax else prices
    _assert_certifies(c, pi.map, duals, records.lower_bounds, records.upper_bounds)
    return pi.map


def _assert_certifies(c, pi, phi, lower, upper):
    """Complementary slackness between the map pi and the duals phi, which
    are measured from the slack node."""
    reduced = c - phi
    np.testing.assert_array_equal(reduced[np.arange(c.shape[0]), pi], reduced.max(axis=1))
    counts = np.bincount(pi, minlength=lower.size)
    assert np.all((lower <= counts) & (counts <= upper))
    assert np.all(counts[phi > 0] == upper[phi > 0])
    assert np.all(counts[phi < 0] == lower[phi < 0])


@settings(max_examples=120, deadline=None)
@given(_priced_instances())
def test_any_price_start_reaches_the_reference_map(instance):
    s, records, phi = instance
    expected = reference_assignment(s, records)
    np.testing.assert_array_equal(_solve_from(s, records, phi), expected)
    np.testing.assert_array_equal(_solve_from(s, records, 0 * phi), expected)


@settings(max_examples=120, deadline=None)
@given(_priced_instances())
def test_repair_duals_certify_its_map(instance):
    s, records, phi = instance
    c = amsal.assignment._integer_costs(s)
    lower, upper = records.lower_bounds, records.upper_bounds
    # the start prices as solve_assignment clips them onto the cost grid
    phi = np.clip(phi, -2**40, 2**40)
    pi, phi, W, witness = amsal.assignment._initial_optimum(
        c, (c - phi).argmax(axis=1), phi, lower, upper)
    _assert_certifies(c, pi, phi, lower, upper)
    # the residual graph at the returned duals has no negative arc
    counts = np.bincount(pi, minlength=records.m)
    assert amsal.assignment._lengths(W, witness, np.append(phi, 0), counts, lower, upper).min() >= 0


@st.composite
def _grid_price_cases(draw):
    """amax (subnormal, huge, a power of two or any) and finite prices:
    multiples of amax inside and beyond the +-2^8 amax clip, the clip
    limits themselves, half-way points of the cost grid, and any float."""
    tiny, huge = 5e-324, float(np.finfo(np.float64).max)
    amax = draw(st.one_of(st.sampled_from([tiny, 2 * tiny, 1e-310, huge, 1.0]),
                          st.integers(-1074, 1023).map(lambda e: 2.0**e),
                          st.floats(1e-300, 1e300)))
    lim = 2.0**8 * amax
    price = st.one_of(
        st.floats(-300.0, 300.0).map(lambda u: u * amax),
        st.sampled_from([lim, -lim, np.nextafter(lim, 0), -np.nextafter(lim, np.inf)]),
        st.integers(-2**41, 2**41).map(lambda k: (k + 0.5) * (amax / 2**32)),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    prices = draw(st.lists(price, min_size=1, max_size=8))
    assume(all(np.isfinite(prices)))
    return np.array(prices, dtype=np.float64), amax


@settings(max_examples=300, deadline=None)
@given(_grid_price_cases())
def test_grid_prices_match_the_scalar_formula(case):
    prices, amax = case
    to_grid, lim = amsal.assignment._to_grid, 2.0**8 * amax
    expected = [round(to_grid(min(max(p, -lim), lim), amax)) for p in prices.tolist()]
    phi = amsal.assignment._grid_prices(prices, amax)
    assert phi.dtype == np.int64
    assert phi.tolist() == expected
    assert np.abs(phi).max() <= 2**40


@st.composite
def _length_graphs(draw):
    """Non-negative int64 arc lengths on up to 9 nodes, with many ties and
    many _FAR entries (no arc), and masks of source and stop nodes."""
    k = draw(st.integers(1, 9))
    far = amsal.assignment._FAR
    entry = st.one_of(st.integers(0, 3), st.integers(0, 2**41), st.just(far))
    length = np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k)),
                      dtype=np.int64).reshape(k, k)
    masks = st.lists(st.booleans(), min_size=k, max_size=k)
    return length, np.array(draw(masks)), np.array(draw(masks))


def _bellman_ford(length, sources):
    """Shortest distances from the sources over the arcs shorter than _FAR
    (None where a node is unreachable), in Python integers."""
    k = length.shape[0]
    dist = [0 if on else None for on in sources.tolist()]
    for _ in range(k):
        for u, v in itertools.product(range(k), repeat=2):
            if dist[u] is not None and length[u, v] < amsal.assignment._FAR:
                alt = dist[u] + int(length[u, v])
                if dist[v] is None or alt < dist[v]:
                    dist[v] = alt
    return dist


@settings(max_examples=300, deadline=None)
@given(_length_graphs())
def test_paths_settles_shortest_distances_up_to_the_nearest_stop_node(graph):
    length, sources, stop = graph
    dist, came, settled, t = amsal.assignment._paths(length, sources, stop)
    oracle = _bellman_ford(length, sources)
    reach = [v for v, d in enumerate(oracle) if d is not None]
    reached_stops = [v for v in reach if stop[v]]
    if t < 0:
        assert not reached_stops
        assert np.flatnonzero(settled).tolist() == reach
    else:
        assert stop[t] and oracle[t] == min(oracle[v] for v in reached_stops)
        assert not np.any(settled & stop) and not settled[t]
        # every node nearer than t is settled, and no node farther than t
        assert all(settled[v] for v in reach if oracle[v] < oracle[t])
        assert all(oracle[v] <= oracle[t] for v in np.flatnonzero(settled))
    for v in np.flatnonzero(settled).tolist() + ([t] if t >= 0 else []):
        assert dist[v] == oracle[v]
        # came walks back to a source along arcs that add up to dist
        path = amsal.assignment._walk(came, v)
        assert sources[path[-1]]
        assert sum(int(length[u, w]) for w, u in zip(path, path[1:])) == dist[v]


@st.composite
def _boolean_graphs(draw):
    """Boolean adjacency matrices on 1 to 40 nodes, self-loops allowed,
    from empty (density 0) to complete (density 1)."""
    k = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((k, k)) < density


@settings(max_examples=300, deadline=None)
@given(_boolean_graphs())
def test_reach_matches_breadth_first_search(arcs):
    k = arcs.shape[0]
    expected = np.zeros((k, k), dtype=bool)
    for u in range(k):
        seen, frontier = {u}, {u}
        while frontier:
            frontier = {v for w in frontier for v in np.flatnonzero(arcs[w]).tolist()} - seen
            seen |= frontier
        expected[u, sorted(seen)] = True
    np.testing.assert_array_equal(amsal.assignment._reach(arcs), expected)


@st.composite
def _arc_tables(draw):
    """An int64 arc table W, witness on up to 8 records, some of them
    empty (a row of -1 witnesses) and with -1 witnesses elsewhere, node
    potentials up to +-2^41 and a slack flow f on or inside its bounds."""
    def ints(lo, hi, size):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                        dtype=np.int64)

    m = draw(st.integers(1, 8))
    W = ints(-2**34, 2**34, m * m).reshape(m, m)
    witness = ints(-1, 20, m * m).reshape(m, m)
    witness[np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))] = -1
    p = ints(-2**41, 2**41, m + 1)
    lower = ints(0, 3, m)
    upper = lower + ints(0, 3, m)
    f = lower + np.array([draw(st.integers(0, int(k))) for k in upper - lower], dtype=np.int64)
    return W, witness, p, f, lower, upper


@settings(max_examples=200, deadline=None)
@given(_arc_tables())
def test_lengths_match_a_per_arc_loop(table):
    W, witness, p, f, lower, upper = table
    m, far = W.shape[0], amsal.assignment._FAR
    expected = [[far] * (m + 1) for _ in range(m + 1)]
    for u in range(m):
        for v in range(m):
            if witness[u, v] >= 0:
                expected[u][v] = int(p[v]) - int(p[u]) - int(W[u, v])
        if f[u] < upper[u]:
            expected[u][m] = int(p[m]) - int(p[u])
        if f[u] > lower[u]:
            expected[m][u] = int(p[u]) - int(p[m])
    length = amsal.assignment._lengths(W, witness, p, f, lower, upper)
    assert length.dtype == np.int64
    assert length.tolist() == expected


def _dense_arcs(c, pi):
    """Per record pair (u, v), whether u holds an input (u != v), and the
    largest c[i, v] - c[i, u] over the inputs in u (0 where there is none)."""
    m = c.shape[1]
    arc = np.zeros((m, m), dtype=bool)
    W = np.zeros((m, m), dtype=np.int64)
    for u in range(m):
        rows = np.flatnonzero(pi == u)
        for v in range(m):
            if v != u and rows.size:
                arc[u, v] = True
                W[u, v] = (c[rows, v] - c[rows, u]).max()
    return arc, W


def test_move_gains_arc_table_matches_dense_maximum():
    rng = np.random.default_rng(20)
    for trial in range(60):
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 9))
        c = rng.integers(-3, 4, size=(n, m))  # many ties and gains one apart
        pi = rng.integers(0, m, size=n)
        if trial % 2:
            pi[pi == m - 1] = 0  # an empty last record
        W, witness = amsal.assignment._arc_table(c, pi)
        _assert_arc_table(c, pi, W, witness)
        for _ in range(2 * n):
            i, v = int(rng.integers(n)), int(rng.integers(m))
            if pi[i] != v:
                amsal.assignment._move(c, pi, W, witness, i, v)
            _assert_arc_table(c, pi, W, witness)


def _assert_arc_table(c, pi, W, witness):
    """W holds the dense best int64 gains where there is an arc, and each
    witness is the largest input that attains its gain (-1 exactly where
    there is no arc)."""
    arc, best = _dense_arcs(c, pi)
    assert W.dtype == np.int64 and witness.dtype == np.int64
    np.testing.assert_array_equal(W[arc], best[arc])
    for u, v in zip(*np.nonzero(arc)):
        members = np.flatnonzero(pi == u)
        tied = members[c[members, v] - c[members, u] == W[u, v]]
        assert witness[u, v] == tied[-1]  # ties go to the largest index
    assert np.all(witness[~arc] == -1)


@st.composite
def _certified_instances(draw):
    """Prices phi, some of them zero, and bounds under which argmax(c - phi)
    meets complementary slackness with phi: each count sits on its upper
    bound where phi > 0, on its lower bound where phi < 0, and anywhere
    inside the bounds where phi = 0."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("continuous", "rounded", "tied")))
    s = rng.standard_normal((n, m))
    if kind == "rounded":
        s = np.rint(2.0 * s)
    elif kind == "tied":
        s = rng.choice([-1.0, 0.0, 1.0], size=(n, m))
    c = amsal.assignment._integer_costs(s)
    # steps of half the largest cost put some prices exactly on cost ties
    phi = rng.integers(-2, 3, size=m) * (int(np.abs(c).max()) // 2)
    counts = np.bincount((c - phi).argmax(axis=1), minlength=m)
    lower = np.where(phi < 0, counts, rng.integers(0, counts + 1))
    upper = np.where(phi > 0, counts, counts + rng.integers(0, n + 1, size=m))
    return s, _records(m, lower, upper), phi


@settings(max_examples=150, deadline=None)
@given(_certified_instances())
def test_certified_price_start_reaches_the_reference_map(instance):
    s, records, phi = instance
    expected = reference_assignment(s, records)
    with mock.patch.object(amsal.assignment, "_initial_optimum") as repair:
        np.testing.assert_array_equal(_solve_from(s, records, phi), expected)
    assert repair.call_count == 0
    np.testing.assert_array_equal(solve_assignment(s, records).map, expected)


@st.composite
def _tied_price_starts(draw):
    """Integer costs in [-2, 2], so most inputs tie at two records or more,
    bounds within a few units of the argmax counts, and start prices of a
    few cost units or zero."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.integers(-2, 3, size=(n, m))
    counts = np.bincount(c.argmax(axis=1), minlength=m)
    lower = np.maximum(counts - rng.integers(-1, 3, size=m), 0)
    upper = np.maximum(counts + rng.integers(-1, 3, size=m), lower)
    assume(lower.sum() <= n <= np.minimum(upper, n).sum())
    phi = rng.integers(-2, 3, size=m) if draw(st.booleans()) else np.zeros(m, dtype=np.int64)
    return c, lower, upper, phi


@settings(max_examples=200, deadline=None)
@given(_tied_price_starts())
def test_a_certified_price_start_leaves_the_lex_refine_nothing_to_move(instance):
    """The solver runs the lex refine only after a repair: a certified
    argmax(c - phi) holds every input at its first tight record, which is
    the lexicographically smallest optimum already."""
    c, lower, upper, phi = instance
    pi, phi = amsal.assignment._price_start(c, lower.tolist(), upper.tolist(), phi)
    counts = np.bincount(pi, minlength=lower.size)
    assume(np.all((counts >= lower) & (counts <= upper)
                  & ((phi <= 0) | (counts == upper)) & ((phi >= 0) | (counts == lower))))
    refined = amsal.assignment._lex_refine(c, pi.copy(), phi, lower, upper,
                                           *amsal.assignment._arc_table(c, pi))
    np.testing.assert_array_equal(refined, pi)


def test_certified_start_skips_the_repair_and_path_searches():
    n = 300
    s = np.random.default_rng(19).standard_normal((n, 2))
    s[:, 1] += 0.2  # argmax puts ~56% in record 1, above its upper bound
    records = _records(2, *bounds_from_priors([0.5, 0.5], n, 0.05))
    moves = mock.Mock(wraps=amsal.assignment._move)
    repair = mock.Mock(wraps=amsal.assignment._initial_optimum)
    with mock.patch.multiple(amsal.assignment, _move=moves, _initial_optimum=repair):
        pi = solve_assignment(s, records)
    assert moves.call_count == 0 and repair.call_count == 0
    c = amsal.assignment._integer_costs(s)
    expected = _m2_oracle(c, records.lower_bounds, records.upper_bounds)
    np.testing.assert_array_equal(pi.map, expected)


def test_the_screen_skips_every_search_that_cannot_move_an_input():
    s = np.array([[-2, -1, 4, -1], [0, 1, 1, 3], [2, -3, 1, -1], [4, -5, -3, -4]], dtype=float)
    records = _records(4, [0, 1, 0, 0], [0, 3, 1, 0])
    lower, upper = records.lower_bounds, records.upper_bounds
    c = amsal.assignment._integer_costs(s)
    pi, phi = amsal.assignment._price_start(c, lower.tolist(), upper.tolist(),
                                            np.zeros(4, dtype=np.int64))
    counts = np.bincount(pi, minlength=4)
    assert not np.array_equal(amsal.assignment._slack_flow(phi, counts, lower, upper), counts)
    pi, phi, W, witness = amsal.assignment._initial_optimum(c, pi, phi, lower, upper)
    reduced = c - phi
    tight = reduced == reduced.max(axis=1, keepdims=True)
    # an input tight at two records sits past its first one, so the
    # refine does not return early, yet no search can move it
    assert np.any((np.count_nonzero(tight, axis=1) > 1) & (pi != tight.argmax(axis=1)))
    searches = mock.Mock(wraps=amsal.assignment._paths)
    with mock.patch.object(amsal.assignment, "_paths", searches):
        refined = amsal.assignment._lex_refine(c, pi.copy(), phi, lower, upper, W, witness)
    assert searches.call_count == 0
    np.testing.assert_array_equal(refined, reference_assignment(s, records))


def test_a_second_pass_certifies_a_record_that_a_later_price_pushed_out():
    # cold start: the first pass prices record 0 onto its bounds [2, 2] at
    # a negative price, then record 1's price pushes a third input into
    # it; the second pass prices record 0 again and certifies the map
    s = np.array([[-1, -9, -6], [-7, 6, -1], [-6, 9, -5], [-7, -8, -3], [-5, -6, 4],
                  [-3, 4, -8]], dtype=float)
    records = _records(3, [2, 1, 0], [2, 1, 3])
    with mock.patch.object(amsal.assignment, "_initial_optimum") as repair:
        pi = solve_assignment(s, records)
    assert repair.call_count == 0
    np.testing.assert_array_equal(pi.map, reference_assignment(s, records))


@settings(max_examples=200, deadline=None)
@given(_priced_instances())
def test_price_start_map_is_the_first_argmax_under_its_prices(instance):
    """The invariant that certification rests on: the map holds every
    input at its first record of largest c - phi."""
    s, records, phi = instance
    c = amsal.assignment._integer_costs(s)
    lower, upper = records.lower_bounds, records.upper_bounds
    # the start prices as solve_assignment clips them onto the cost grid
    pi, phi = amsal.assignment._price_start(c, lower.tolist(), upper.tolist(),
                                            np.clip(phi, -2**40, 2**40))
    np.testing.assert_array_equal(pi, (c - phi).argmax(axis=1))


def test_two_record_price_start_lands_inside_the_bounds():
    n = 300
    s = np.zeros((n, 2))
    s[:, 1] = np.random.default_rng(18).permutation(n) - 100.0  # distinct gains, 199 positive
    c = amsal.assignment._integer_costs(s)
    # argmax(c) puts 101 inputs in record 0 and 199 in record 1
    for lower, upper in (([0, 0], [300, 120]), ([0, 250], [300, 300]), ([0, 0], [50, 300]),
                         ([150, 0], [300, 300]), ([100, 0], [300, 150]),
                         ([150, 150], [150, 150])):
        pi, _ = amsal.assignment._price_start(c, lower, upper, np.zeros(2, np.int64))
        counts = np.bincount(pi, minlength=2)
        assert np.all(counts >= lower) and np.all(counts <= upper), (lower, upper, counts)


def _m2_oracle(c, lower, upper):
    """Closed form for two records: the top k* inputs by c[:, 1] - c[:, 0] go to record 1.

    k* is the number of positive differences clipped to the feasible range;
    ties at the boundary go to larger indices, which keeps the map
    lexicographically smallest.
    """
    n = c.shape[0]
    d = c[:, 1] - c[:, 0]
    k_low = max(lower[1], n - upper[0])
    k_high = min(upper[1], n - lower[0])
    k = min(max(int(np.count_nonzero(d > 0)), k_low), k_high)
    order = np.lexsort((-np.arange(n), -d))
    pi = np.zeros(n, dtype=np.int64)
    pi[order[:k]] = 1
    return pi


@pytest.mark.parametrize(
    "bias, low, high",
    [(0.0, 950, 1050), (1.0, 950, 1050), (0.0, 700, 1300)],
    ids=["clipped-up", "clipped-down", "inside-with-zero-gains"],
)
def test_two_records_match_closed_form_with_ties(bias, low, high):
    rng = np.random.default_rng(14)
    n = 2000
    s = np.rint(2.0 * rng.standard_normal((n, 2)))  # ~250 inputs share each difference
    s[:, 1] += bias
    records = _records(2, [low, low], [high, high])
    c = amsal.assignment._integer_costs(s)
    expected = _m2_oracle(c, records.lower_bounds, records.upper_bounds)
    np.testing.assert_array_equal(solve_assignment(s, records).map, expected)


def test_two_records_beyond_former_size_cap():
    rng = np.random.default_rng(15)
    n = 2**19 + 1
    s = rng.standard_normal((n, 2))
    s[:, 1] += 0.2  # argmax puts ~56% in record 1, above its upper bound
    lower, upper = bounds_from_priors([0.5, 0.5], n, 0.05)
    records = _records(2, lower, upper)
    c = amsal.assignment._integer_costs(s)
    expected = _m2_oracle(c, records.lower_bounds, records.upper_bounds)
    np.testing.assert_array_equal(solve_assignment(s, records).map, expected)


def test_out_of_bounds_solver_output_raises(monkeypatch):
    def refine(c, pi, phi, lower, upper, W, witness):
        return 0 * pi

    monkeypatch.setattr(amsal.assignment, "_lex_refine", refine)
    with pytest.raises(AmsalError, match=r"record 0: solver assigned 4 inputs, outside \[1, 3\]"):
        solve_assignment(np.zeros((4, 2)), _records(2, [1, 1], [3, 3]))


def test_row_shift_leaves_argmax():
    rng = np.random.default_rng(9)
    for _ in range(40):
        s, records = _random_instance(rng)
        base = solve_assignment(s, records)
        shifted = s + rng.standard_normal((s.shape[0], 1))  # constant per row
        np.testing.assert_array_equal(solve_assignment(shifted, records).map, base.map)


def test_determinism():
    rng = np.random.default_rng(10)
    s, records = _random_instance(rng)
    a = solve_assignment(s, records)
    b = solve_assignment(s, records)
    np.testing.assert_array_equal(a.map, b.map)


def test_brute_force_too_large():
    with pytest.raises(TooLarge):
        brute_force_assignment(np.zeros((30, 3)), _records(3, [0, 0, 0], [30, 30, 30]))


def test_all_zero_scores_lex_smallest():
    records = _records(2, [1, 1], [3, 3])
    pi = solve_assignment(np.zeros((4, 2)), records)
    bf = brute_force_assignment(np.zeros((4, 2)), records)
    np.testing.assert_array_equal(pi.map, bf.map)
    # lexicographically smallest feasible map: fill record 0 first
    np.testing.assert_array_equal(pi.map, [0, 0, 0, 1])


def test_subnormal_scores_keep_their_order():
    # 2^32 / max|s| overflows for a subnormal max|s|, so the grid divides first
    s = np.array([[0.0, 5e-324], [0.0, 5e-324]])
    records = _records(2, [0, 0], [2, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(amsal.assignment._integer_costs(s), [[0, 2**32]] * 2)
        assert solve_assignment(s, records).map.tolist() == [1, 1]
        # huge start prices are clipped before they reach the grid
        prices = np.array([1e300, -1.0])
        assert solve_assignment(s, records, prices).map.tolist() == [1, 1]
        assert np.all(np.isfinite(prices))


def test_score_matrix_one_dimensional():
    x = np.array([[2.0], [-1.0], [0.5]])
    records = GuardedRecords(np.array([[1.0], [-3.0]]), [0, 0], [3, 3])
    proj = svd(np.array([[1.0]]))
    s = score_matrix(x, records, proj, 1)
    np.testing.assert_allclose(s, x @ records.z.T)


def test_score_matrix_orthogonal_row():
    x = np.array([[0.0, 1.0]])
    records = GuardedRecords(np.array([[1.0, 0.0], [2.0, 0.0]]), [0, 0], [1, 1])
    proj = svd(np.diag([1.0, 1.0]))
    s = score_matrix(x, records, proj, 1)
    np.testing.assert_allclose(s, [[0.0, 0.0]], atol=1e-12)


def test_score_matrix_pairwise_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4))
    records = GuardedRecords(rng.standard_normal((2, 3)), [0, 0], [3, 3])
    omega = rng.standard_normal((4, 3))
    proj = svd(omega)
    k = 2
    s = score_matrix(x, records, proj, k)
    for i in range(3):
        for j in range(2):
            expected = np.dot(proj.u[:, :k].T @ x[i], proj.v[:, :k].T @ records.z[j])
            assert s[i, j] == pytest.approx(expected, abs=1e-12)


def test_score_matrix_k_out_of_range():
    proj = svd(np.eye(2))
    records = GuardedRecords(np.eye(2), [0, 0], [2, 2])
    with pytest.raises(InvalidInput):
        score_matrix(np.eye(2), records, proj, 3)
    with pytest.raises(InvalidInput):
        score_matrix(np.eye(2), records, proj, 0)


def test_bounds_from_priors_paper_case():
    lower, upper = bounds_from_priors([0.5, 0.5], 100, 0.2)
    np.testing.assert_array_equal(lower, [40, 40])
    np.testing.assert_array_equal(upper, [60, 60])


def test_bounds_from_priors_zero_slack():
    lower, upper = bounds_from_priors([0.5, 0.5], 100, 0.0)
    np.testing.assert_array_equal(lower, [50, 50])
    np.testing.assert_array_equal(upper, [50, 50])


def test_bounds_from_priors_repair():
    lower, upper = bounds_from_priors([0.9, 0.1], 10, 0.3)
    assert lower.sum() <= 10 <= upper.sum()
    assert np.all(lower <= upper)
    assert upper.max() <= 10


def test_bounds_from_priors_always_feasible():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        raw = rng.uniform(0.05, 1.0, size=m)
        priors = raw / raw.sum()
        n = int(rng.integers(1, 200))
        slack = float(rng.uniform(0.0, 0.9))
        lower, upper = bounds_from_priors(priors, n, slack)
        assert lower.sum() <= n <= upper.sum()
        assert np.all(lower >= 0) and np.all(lower <= upper) and np.all(upper <= n)


def test_bounds_from_priors_invalid():
    with pytest.raises(InvalidInput):
        bounds_from_priors([0.5, 0.6], 10, 0.2)
    with pytest.raises(InvalidInput):
        bounds_from_priors([0.5, 0.5], 10, 1.0)
    with pytest.raises(InvalidInput):
        bounds_from_priors([1.2, -0.2], 10, 0.2)
