import hashlib
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_assignment import reference_random_feasible_assignment
from reference_selection import reference_pick_candidate

import amsal.assignment
from amsal import (
    AmsalConfig,
    Assignment,
    GuardedRecords,
    InvalidInput,
    LatentSpec,
    alignment_accuracy,
    am_iterate,
    as_records,
    bounds_from_priors,
    center_columns,
    cross_covariance,
    generate_latent,
    kmeans_assign,
    random_feasible_assignment,
    reference_records_spec,
    run_amsal,
    score_matrix,
    singular_value_sum,
    solve_assignment,
    svd,
)
from amsal.driver import TraceRow, _lloyd, _sq_dists


def _centered_records(records):
    z_c, _ = center_columns(records.z)
    return GuardedRecords(z_c, records.lower_bounds, records.upper_bounds)


def _planted(n=120, seed=0):
    data = generate_latent(reference_records_spec(n=n, rng_seed=seed))
    records, truth = as_records(data, slack=0.2)
    return data, records, truth


def test_am_iterate_fixed_point_on_separable_data():
    data, records, truth = _planted(seed=1)
    x_c, _ = center_columns(data.x)
    records_c = _centered_records(records)
    cfg = AmsalConfig(rng_seed=0)
    pi1, _, _ = am_iterate(x_c, records_c, truth, cfg)
    pi2, proj2, obj2 = am_iterate(x_c, records_c, pi1, cfg)
    pi3, proj3, obj3 = am_iterate(x_c, records_c, pi2, cfg)
    np.testing.assert_array_equal(pi3.map, pi2.map)
    assert obj3 == pytest.approx(obj2, rel=1e-9)
    # once the map stops moving, a further covariance step changes nothing
    pi4, proj4, obj4 = am_iterate(x_c, records_c, pi3, cfg)
    np.testing.assert_array_equal(proj4.u, proj3.u)
    np.testing.assert_array_equal(proj4.v, proj3.v)
    assert obj4 == pytest.approx(obj3, rel=1e-9)


def test_am_iterate_two_sample_antipodal():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    z = np.array([[1.0], [-1.0]])
    records = GuardedRecords(z, [1, 1], [1, 1])
    adversarial = Assignment(np.array([1, 0]))
    cfg = AmsalConfig(rng_seed=0)
    pi, _, _ = am_iterate(x, records, adversarial, cfg)
    # one step recovers one of the two coherent pairings
    assert pi.map.tolist() in ([0, 1], [1, 0])
    pi2, _, _ = am_iterate(x, records, pi, cfg)
    np.testing.assert_array_equal(pi2.map, pi.map)


def test_objective_monotone_over_random_instances():
    rng = np.random.default_rng(2)
    for trial in range(15):
        data, records, _ = _planted(n=int(rng.integers(20, 120)), seed=100 + trial)
        x_c, _ = center_columns(data.x)
        records_c = _centered_records(records)
        cfg = AmsalConfig(rng_seed=trial)
        pi = random_feasible_assignment(records_c, data.n, np.random.default_rng(trial))
        prev = None
        for _ in range(6):
            pi, _, obj = am_iterate(x_c, records_c, pi, cfg)
            if prev is not None:
                assert obj >= prev - 1e-9 * abs(prev)
            prev = obj


def test_equivalence_with_trace_formulation():
    # the pairwise-sum objective equals trace(U_k' Omega_pi V_k)
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m, d, dp = 12, 3, 5, 2
        x = rng.standard_normal((n, d))
        z = rng.standard_normal((m, dp))
        pi = Assignment(rng.integers(0, m, n))
        proj = svd(cross_covariance(x, z, rng.integers(0, m, n)))
        k = int(rng.integers(1, dp + 1))
        pair_sum = sum(
            float(np.dot(proj.u[:, :k].T @ x[i], proj.v[:, :k].T @ z[pi.map[i]]))
            for i in range(n)
        )
        trace_form = float(
            np.trace(proj.u[:, :k].T @ cross_covariance(x, z, pi) @ proj.v[:, :k])
        )
        assert abs(pair_sum - trace_form) <= 1e-10 * max(1.0, abs(trace_form))


def test_run_amsal_recovers_planted_alignment():
    data, records, truth = _planted(n=200, seed=4)
    result = run_amsal(data.x, records, AmsalConfig(rng_seed=0), truth=truth)
    assert alignment_accuracy(result.assignment, truth) >= 0.9
    # the returned projection matches the returned assignment
    x_c, _ = center_columns(data.x)
    z_c, _ = center_columns(records.z)
    omega = cross_covariance(x_c, z_c, result.assignment)
    proj = result.projection
    np.testing.assert_allclose((proj.u * proj.sigma) @ proj.v.T, omega, atol=1e-8)


def test_run_amsal_single_record():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 4))
    records = GuardedRecords(np.array([[1.0, 2.0]]), [0], [20])
    result = run_amsal(x, records, AmsalConfig(rng_seed=1))
    assert np.all(result.assignment.map == 0)
    x_c, _ = center_columns(x)
    z_c, _ = center_columns(records.z)
    omega = cross_covariance(x_c, z_c, result.assignment)
    assert result.objective == pytest.approx(singular_value_sum(omega), abs=1e-9)


def test_run_amsal_deterministic():
    data, records, truth = _planted(n=100, seed=6)
    cfg = AmsalConfig(rng_seed=7)
    r1 = run_amsal(data.x, records, cfg, truth=truth)
    r2 = run_amsal(data.x, records, cfg, truth=truth)
    np.testing.assert_array_equal(r1.assignment.map, r2.assignment.map)
    assert r1.objective == r2.objective
    assert r1.trace == r2.trace
    np.testing.assert_array_equal(r1.projection.u, r2.projection.u)


def test_trace_records_every_iteration():
    data, records, truth = _planted(n=80, seed=8)
    result = run_amsal(data.x, records, AmsalConfig(rng_seed=0), truth=truth)
    seeds = {row.seed for row in result.trace.rows}
    assert seeds == {0, 1, 2}
    for row in result.trace.rows:
        assert np.isfinite(row.objective)
        assert 0.0 <= row.accuracy <= 1.0
        assert len(row.assignment_hash) == 16


def test_random_feasible_assignment_respects_bounds():
    rng = np.random.default_rng(9)
    records = GuardedRecords(
        rng.standard_normal((3, 2)), np.array([2, 0, 1]), np.array([5, 4, 2])
    )
    for _ in range(50):
        pi = random_feasible_assignment(records, 8, rng)
        assert pi.satisfies(records)


def test_random_feasible_assignment_matches_per_unit_draws_corpus():
    rng = np.random.default_rng(17)
    for trial in range(300):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 3001)) if trial % 10 == 0 else int(rng.integers(1, 301))
        raw = rng.uniform(0.05, 1.0, size=m)
        lower, upper = bounds_from_priors(raw / raw.sum(), n, float(rng.uniform(0.0, 0.9)))
        records = GuardedRecords(rng.standard_normal((m, 2)), lower, upper)
        chunked, per_unit = np.random.default_rng(trial), np.random.default_rng(trial)
        pi = random_feasible_assignment(records, n, chunked)
        expected = reference_random_feasible_assignment(records, n, per_unit)
        np.testing.assert_array_equal(pi.map, expected.map)
        assert chunked.bit_generator.state == per_unit.bit_generator.state


def _pick_from_stream(stream, num_seeds, max_iterations, seed_labels=None):
    """Run run_amsal with each step replaced by the next (objective, map)
    of stream and check its pick against the list-based reference rule
    over the candidates it saw; returns the (seed, iteration) picked.

    Each map is handed over as a fresh int64 array that only run_amsal
    holds, so the check also counts how many of them it keeps alive."""
    n, m = len(stream[0][1]), 3
    items = iter(stream)
    handed, seen, most_alive = [], [], 0

    def a_step(x, records, pi, k, prices):
        nonlocal most_alive
        most_alive = max(most_alive, sum(ref() is not None for ref in handed))
        objective, raw = next(items)
        new_pi = np.array(raw, dtype=np.int64)
        handed.append(weakref.ref(new_pi))
        seen.append((objective, raw))
        return new_pi, None, objective

    x = np.random.default_rng(0).standard_normal((n, 2))
    records = GuardedRecords(np.arange(m, dtype=float)[:, None], np.zeros(m, int), np.full(m, n))
    cfg = AmsalConfig(max_iterations=max_iterations, num_seeds=num_seeds, seed_labels=seed_labels)
    with mock.patch("amsal.driver._am_step", a_step):
        result = run_amsal(x, records, cfg)
    assert len(result.trace.rows) == len(seen)
    candidates = [(row.seed, row.iteration, objective, Assignment(np.array(raw)))
                  for row, (objective, raw) in zip(result.trace.rows, seen)]
    best = reference_pick_candidate(candidates, seed_labels)
    np.testing.assert_array_equal(result.assignment.map, best[3].map)
    assert (result.seed, result.objective) == (best[0], best[2])
    # the kept best and the current map, never the pool
    assert most_alive <= 2
    return best[0], best[1]


@st.composite
def _candidate_streams(draw):
    """Streams of few distinct objectives (-0.0 ties 0.0) and short maps
    over three records, so objectives and seed-label accuracies tie often
    and equal consecutive maps stop seeds early."""
    n = draw(st.integers(2, 5))
    num_seeds = draw(st.integers(1, 4))
    max_iterations = draw(st.integers(1, 5))
    size = num_seeds * max_iterations
    maps = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    objectives = st.sampled_from([-1.0, -0.0, 0.0, 2.5])
    stream = draw(st.lists(st.tuples(objectives, maps), min_size=size, max_size=size))
    seed_labels = None
    if draw(st.booleans()):
        idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        values = draw(st.lists(st.integers(0, 2), min_size=len(idx), max_size=len(idx)))
        seed_labels = (np.array(idx), np.array(values))
    return stream, num_seeds, max_iterations, seed_labels


@settings(max_examples=200, deadline=None)
@given(_candidate_streams())
def test_online_selection_matches_the_list_rule(case):
    _pick_from_stream(*case)


def test_select_model_unsupervised():
    assert _pick_from_stream([(5.0, [0, 1])], 1, 1) == (0, 1)
    assert _pick_from_stream([(5.0, [0, 1]), (7.0, [1, 0])], 2, 1) == (1, 1)


def test_select_model_partial_overrides_objective():
    labels = (np.array([0, 1]), np.array([0, 1]))
    good_fit, high_objective = (5.0, [0, 1, 0, 1]), (9.0, [1, 0, 1, 0])
    assert _pick_from_stream([good_fit, high_objective], 2, 1) == (1, 1)
    assert _pick_from_stream([good_fit, high_objective], 2, 1, labels) == (0, 1)


def test_select_model_errors():
    # a run without candidates cannot be configured, so selection needs no
    # empty case; on a full tie the earliest candidate is kept
    with pytest.raises(InvalidInput, match="num_seeds"):
        AmsalConfig(num_seeds=0)
    with pytest.raises(InvalidInput, match="max_iterations"):
        AmsalConfig(max_iterations=0)
    tie = [(1.0, [0, 1]), (1.0, [1, 1]), (1.0, [1, 0]), (1.0, [0, 0])]
    assert _pick_from_stream(tie, 2, 2) == (0, 1)
    assert _pick_from_stream(tie, 2, 2, ([0], [1])) == (0, 2)


def test_warm_started_a_steps_repair_less_and_change_nothing():
    priors = np.arange(8, 0, -1, dtype=np.float64)
    spec = LatentSpec(n=400, d=16, d_prime=7, num_states=8, state_priors=tuple(priors / priors.sum()),
                      z_noise=0.0, separation=3.0, rng_seed=1)
    data = generate_latent(spec)
    records, truth = as_records(data, slack=0.2)

    def counted(solve):
        # the lex refine moves inputs through _move too: count only the
        # moves made while the bound repair runs
        moves = mock.Mock(wraps=amsal.assignment._move)
        repair = amsal.assignment._initial_optimum

        def counted_repair(*args):
            with mock.patch.object(amsal.assignment, "_move", moves):
                return repair(*args)

        repairs = mock.Mock(wraps=counted_repair)
        with mock.patch.object(amsal.assignment, "_initial_optimum", repairs), \
                mock.patch("amsal.driver.solve_assignment", solve):
            result = run_amsal(data.x, records, AmsalConfig(rng_seed=0), truth=truth)
        return result, moves.call_count, repairs.call_count

    warm, warm_moves, warm_repairs = counted(solve_assignment)
    # every A-step starts from zero prices, as a lone solve_assignment does
    cold, cold_moves, cold_repairs = counted(lambda s, records, prices: solve_assignment(s, records))
    # measured: 224 input moves over 36 repairs, against 675 over 51 cold
    assert warm_moves <= 224 and warm_repairs <= 36
    assert cold_moves > warm_moves and cold_repairs > warm_repairs
    assert warm.trace.rows == cold.trace.rows
    np.testing.assert_array_equal(warm.assignment.map, cold.assignment.map)


def _reference_run(x, records, cfg, truth):
    """run_amsal's search written with the public, checked am_iterate and
    the list-based selection rule: (trace rows, picked candidate,
    projection of the picked map)."""
    x_c, _ = center_columns(x)
    centered = _centered_records(records)
    rows, candidates = [], []
    for seed, child in enumerate(np.random.SeedSequence(cfg.rng_seed).spawn(cfg.num_seeds)):
        pi = random_feasible_assignment(centered, len(x), np.random.default_rng(child))
        prices = np.zeros(records.m)
        for iteration in range(1, cfg.max_iterations + 1):
            new_pi, _, objective = am_iterate(x_c, centered, pi, cfg, prices)
            digest = hashlib.sha256(new_pi.map.astype("<i8").tobytes()).hexdigest()[:16]
            rows.append(TraceRow(seed, iteration, objective, digest,
                                 alignment_accuracy(new_pi, truth)))
            candidates.append((seed, iteration, objective, new_pi))
            if np.array_equal(new_pi.map, pi.map):
                break
            pi = new_pi
    best = reference_pick_candidate(candidates, cfg.seed_labels)
    return rows, best, svd(cross_covariance(x_c, centered.z, best[3]))


@pytest.mark.parametrize("m, score_k, with_labels", [
    (2, "full", False), (2, 1, True), (8, "full", True), (8, 1, False),
])
def test_run_amsal_matches_a_loop_of_the_checked_public_step(m, score_k, with_labels):
    if m == 2:
        data, records, truth = _planted(n=160, seed=7)
    else:
        priors = np.arange(8, 0, -1, dtype=np.float64)
        data = generate_latent(LatentSpec(n=240, d=16, d_prime=7, num_states=8,
                                          state_priors=tuple(priors / priors.sum()),
                                          z_noise=0.0, separation=3.0, rng_seed=2))
        records, truth = as_records(data, slack=0.2)
    assert records.m == m
    labels = (np.arange(0, 60, 7), truth.map[0:60:7]) if with_labels else None
    cfg = AmsalConfig(num_seeds=3, score_k=score_k, seed_labels=labels, rng_seed=5)
    result = run_amsal(data.x, records, cfg, truth=truth)
    rows, (seed, _, objective, pi), projection = _reference_run(data.x, records, cfg, truth)
    assert result.trace.rows == tuple(rows)
    np.testing.assert_array_equal(result.assignment.map, pi.map)
    assert (result.seed, result.objective) == (seed, objective)
    for name in ("u", "sigma", "v"):
        np.testing.assert_array_equal(getattr(result.projection, name), getattr(projection, name))


def test_public_steps_still_refuse_non_finite_input():
    data, records, truth = _planted(n=60, seed=2)
    cfg = AmsalConfig()
    proj = svd(cross_covariance(data.x, records.z, truth))
    s = score_matrix(data.x, records, proj, 1)
    bad_x, bad_s = data.x.copy(), s.copy()
    bad_x[3, 1] = np.nan
    bad_s[5, 0] = np.inf
    for call in (lambda: am_iterate(bad_x, records, truth, cfg),
                 lambda: run_amsal(bad_x, records, cfg),
                 lambda: cross_covariance(bad_x, records.z, truth),
                 lambda: svd(bad_s),
                 lambda: score_matrix(bad_x, records, proj, 1),
                 lambda: solve_assignment(bad_s, records)):
        with pytest.raises(InvalidInput, match="non-finite"):
            call()
    with pytest.raises(InvalidInput, match="start prices must be 2 finite numbers"):
        am_iterate(data.x, records, truth, cfg, np.array([np.nan, 0.0]))
    with pytest.raises(InvalidInput, match="score_k=3 exceeds the 2 available directions"):
        am_iterate(data.x, records, truth, AmsalConfig(score_k=3))


def test_run_amsal_memory_does_not_grow_with_the_candidate_count():
    n = 8000
    spec = LatentSpec(n=n, d=8, d_prime=2, num_states=3, state_priors=(0.5, 0.3, 0.2),
                      z_noise=0.0, rng_seed=3)
    data = generate_latent(spec)
    records, _ = as_records(data, slack=0.2)
    peaks, rows = [], []
    for num_seeds in (1, 6):
        tracemalloc.start()
        try:
            result = run_amsal(data.x, records, AmsalConfig(num_seeds=num_seeds, rng_seed=0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows.append(len(result.trace.rows))
    assert rows[1] > 40  # a pool of every candidate would hold that many maps
    assert peaks[1] - peaks[0] < 4 * n * 8


@pytest.mark.parametrize("labels, match", [
    (([0, 5, -1], [0, 1, 1]), r"pair 2 \(-1, 1\)"),
    (([0, 120], [1, 0]), r"pair 1 \(120, 0\)"),
    (([3, 4], [0, 2]), r"pair 1 \(4, 2\)"),
    (([0, 1], [0]), "equal non-empty"),
    (([], []), "equal non-empty"),
    (([3, 5, 3], [0, 1, 1]), r"pair 2 \(3, 1\) repeats the index of pair 0 \(3, 0\)"),
    (([4, 4], [1, 1]), r"pair 1 \(4, 1\) repeats the index of pair 0 \(4, 1\)"),
])
def test_seed_labels_checked_before_selection(labels, match):
    data, records, _ = _planted(n=120, seed=4)
    cfg = AmsalConfig(max_iterations=2, num_seeds=1, seed_labels=labels)
    with pytest.raises(InvalidInput, match=match):
        run_amsal(data.x, records, cfg)
    with pytest.raises(InvalidInput, match=match):
        kmeans_assign(data.x, records, AmsalConfig(seed_labels=labels))


def test_kmeans_recovers_blobs():
    rng = np.random.default_rng(10)
    n = 100
    states = rng.integers(0, 2, n)
    x = rng.standard_normal((n, 3)) + np.where(states[:, None] == 1, 4.0, -4.0)
    counts = np.bincount(states, minlength=2)
    z = np.array([[0.0, 1.0], [1.0, 0.0]])  # record j encodes state j

    lower, upper = bounds_from_priors(counts / n, n, 0.2)
    records = GuardedRecords(z, lower, upper)
    pi = kmeans_assign(x, records, AmsalConfig(rng_seed=0))
    acc = np.mean(pi.map == states)
    assert max(acc, 1.0 - acc) == 1.0
    assert pi.satisfies(records)


def test_kmeans_degenerate_identical_points():
    records = GuardedRecords(np.array([[1.0], [2.0]]), [2, 2], [4, 4])
    x = np.ones((6, 2))
    pi = kmeans_assign(x, records, AmsalConfig(rng_seed=0))
    assert pi.satisfies(records)


def test_kmeans_partial_labels_flip_mapping():
    rng = np.random.default_rng(11)
    n = 60
    states = np.array([0] * 40 + [1] * 20)
    x = rng.standard_normal((n, 2)) * 0.3 + np.where(states[:, None] == 1, 3.0, -3.0)
    # skewed bounds: size-based matching maps the big cluster to record 0
    records = GuardedRecords(np.array([[1.0], [-1.0]]), [10, 10], [50, 50])
    size_based = kmeans_assign(x, records, AmsalConfig(rng_seed=0))
    assert np.mean(size_based.map == states) > 0.9
    # labeled members say the big cluster is record 1
    idx = np.array([0, 1, 2, 40, 41])
    values = np.array([1, 1, 1, 0, 0])
    flipped = kmeans_assign(x, records, AmsalConfig(rng_seed=0, seed_labels=(idx, values)))
    assert np.mean(flipped.map == 1 - states) > 0.9


def test_kmeans_assign_peak_stays_under_twice_the_input():
    x = np.random.default_rng(12).standard_normal((4000, 64))
    lower, upper = bounds_from_priors(np.full(8, 1 / 8), 4000, 0.2)
    records = GuardedRecords(np.random.default_rng(13).standard_normal((8, 3)), lower, upper)
    tracemalloc.start()
    try:
        pi = kmeans_assign(x, records, AmsalConfig(rng_seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pi.satisfies(records)
    assert peak < 2 * x.nbytes  # an (n, k, d) distance broadcast alone is k times x


def test_kmeans_refuses_inputs_whose_squared_distances_overflow():
    """At 1e200 the squared distances overflow: a located error, not a
    warning and a complaint about non-finite scores."""
    rng = np.random.default_rng(14)
    x = 1e200 * rng.standard_normal((40, 4))
    records = GuardedRecords(1e200 * rng.standard_normal((2, 3)), [0, 0], [40, 40])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidInput, match="squared distances between the rows of x "
                                               "overflow"):
            kmeans_assign(x, records, AmsalConfig(rng_seed=0))
        # values this large sum past float64 in the centers even at a spread of 0
        with pytest.raises(InvalidInput, match="sums to inf"):
            kmeans_assign(np.full((40, 4), 1e307), records, AmsalConfig(rng_seed=0))


@pytest.mark.parametrize("n, k, d, order", [
    (7, 3, 5, "C"), (333, 5, 129, "C"), (200, 8, 768, "F"), (50, 1, 1, "C"),
])
def test_sq_dists_equals_the_broadcast_formula(n, k, d, order):
    rng = np.random.default_rng(n + k + d)
    x = np.asarray(rng.standard_normal((n, d)) * 30.0, order=order)
    centers = rng.standard_normal((k, d))
    expected = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(_sq_dists(x, centers), expected)


def _greedy_kmeans(x, records, cfg):
    """The k-means baseline as it was before it called solve_assignment:
    the same clustering and size-based cluster-to-record matching, then a
    greedy repair that relocates the points of smallest distance margin."""
    m = records.m
    labels, centers = _lloyd(x, m, np.random.default_rng(cfg.rng_seed))
    order_clusters = np.lexsort((np.arange(m), -np.bincount(labels, minlength=m)))
    order_records = np.lexsort((np.arange(m), -(records.lower_bounds + records.upper_bounds)))
    cluster_to_record = np.empty(m, dtype=np.int64)
    cluster_to_record[order_clusters] = order_records
    record_centers = centers[np.argsort(cluster_to_record)]
    dists = ((x[:, None, :] - record_centers[None, :, :]) ** 2).sum(axis=2)
    pi = cluster_to_record[labels]
    while True:
        counts = np.bincount(pi, minlength=m)
        over = np.flatnonzero(counts > records.upper_bounds)
        under = np.flatnonzero(counts < records.lower_bounds)
        if over.size == 0 and under.size == 0:
            return pi, dists
        if over.size:
            src = int(over[0])
            dest_ok = np.flatnonzero(counts < records.upper_bounds)
            rows = np.flatnonzero(pi == src)
            margin = dists[rows][:, dest_ok] - dists[rows, src][:, None]
            r, c = np.unravel_index(int(np.argmin(margin)), margin.shape)
            pi[rows[r]] = dest_ok[c]
        else:
            dest = int(under[0])
            rows = np.flatnonzero(np.isin(pi, np.flatnonzero(counts > records.lower_bounds)))
            margin = dists[rows, dest] - dists[rows, pi[rows]]
            pi[rows[int(np.argmin(margin))]] = dest


def test_kmeans_bounded_assignment_beats_greedy_repair_corpus():
    rng = np.random.default_rng(16)
    strictly_better = 0
    for trial in range(40):
        n = int(rng.integers(20, 121))
        m = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        states = rng.integers(0, m, n)
        x = rng.standard_normal((n, d)) + 2.0 * rng.standard_normal((m, d))[states]
        priors = rng.dirichlet(np.ones(m))  # unrelated to the cluster sizes: bounds bind
        lower, upper = bounds_from_priors(priors, n, float(rng.uniform(0.0, 0.3)))
        records = GuardedRecords(rng.standard_normal((m, 2)), lower, upper)
        cfg = AmsalConfig(rng_seed=trial)
        pi = kmeans_assign(x, records, cfg)
        greedy, dists = _greedy_kmeans(x, records, cfg)
        assert pi.satisfies(records) and Assignment(greedy).satisfies(records)
        total = dists[np.arange(n), pi.map].sum()
        greedy_total = dists[np.arange(n), greedy].sum()
        # the solver is exact on integer costs rounded to max|d| / 2^32
        assert total <= greedy_total + n * dists.max() / 2**32
        strictly_better += total < greedy_total - 1e-9
    assert strictly_better > 0
