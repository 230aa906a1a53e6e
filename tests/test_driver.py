import numpy as np
import pytest
from reference_assignment import reference_random_feasible_assignment

from amsal import (
    AmsalConfig,
    Assignment,
    GuardedRecords,
    InvalidInput,
    NoCandidates,
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
    singular_value_sum,
    svd,
)
from amsal.driver import _lloyd, _pick_candidate


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


def _result(objective, seed, pi):
    # a run_amsal candidate: (seed, iteration, objective, map)
    return (seed, 1, objective, Assignment(np.asarray(pi, dtype=np.int64)))


def test_select_model_unsupervised():
    single = _result(5.0, 0, [0, 1])
    assert _pick_candidate([single], "unsupervised", None) is single
    second = _result(7.0, 1, [1, 0])
    assert _pick_candidate([single, second], "unsupervised", None) is second


def test_select_model_partial_overrides_objective():
    labels = (np.array([0, 1]), np.array([0, 1]))
    good_fit = _result(5.0, 0, [0, 1, 0, 1])
    high_objective = _result(9.0, 1, [1, 0, 1, 0])
    assert _pick_candidate([good_fit, high_objective], "unsupervised", None) is high_objective
    assert _pick_candidate([good_fit, high_objective], "partial", labels) is good_fit


def test_select_model_errors():
    with pytest.raises(NoCandidates):
        _pick_candidate([], "unsupervised", None)
    with pytest.raises(InvalidInput):
        _pick_candidate([_result(1.0, 0, [0])], "partial", None)


@pytest.mark.parametrize("labels, match", [
    (([0, 5, -1], [0, 1, 1]), r"pair 2 \(-1, 1\)"),
    (([0, 120], [1, 0]), r"pair 1 \(120, 0\)"),
    (([3, 4], [0, 2]), r"pair 1 \(4, 2\)"),
    (([0, 1], [0]), "equal non-empty"),
    (([], []), "equal non-empty"),
])
def test_seed_labels_checked_before_selection(labels, match):
    data, records, _ = _planted(n=120, seed=4)
    cfg = AmsalConfig(max_iterations=2, num_seeds=1, selection="partial", seed_labels=labels)
    with pytest.raises(InvalidInput, match=match):
        run_amsal(data.x, records, cfg)
    with pytest.raises(InvalidInput, match=match):
        kmeans_assign(data.x, records, AmsalConfig(), seed_labels=labels)


def test_partial_config_requires_labels():
    with pytest.raises(InvalidInput):
        AmsalConfig(selection="partial")
    with pytest.raises(InvalidInput, match="require each other"):
        AmsalConfig(seed_labels=([0], [1]))  # seed labels without partial selection


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
    flipped = kmeans_assign(x, records, AmsalConfig(rng_seed=0), seed_labels=(idx, values))
    assert np.mean(flipped.map == 1 - states) > 0.9


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
