"""Acceptance suite.

One test per criterion, each with its tolerance pinned and a PASS line
printed on success (run with -s to see them). Everything is seeded, so
the suite is deterministic end to end.
"""

import math
import time
from dataclasses import replace

import numpy as np
from reference_assignment import brute_force_assignment

from amsal import (
    AmsalConfig,
    Assignment,
    GuardedRecords,
    alignment_accuracy,
    am_iterate,
    apply_eraser,
    as_records,
    assignment_objective,
    bounds_from_priors,
    center_columns,
    cross_covariance,
    fit_inlp,
    fit_sal,
    generate_latent,
    mae_gap,
    proposition1_check,
    random_feasible_assignment,
    reference_records_spec,
    reference_spec,
    run_amsal,
    solve_assignment,
    spectral_norm,
    svd,
    tpr_gap_rms,
    weyl_check,
)
from amsal.io import PipelineConfig, run_pipeline, save_matrix, save_assignment
from amsal.removal import fit_logistic_probe


def _report(num, detail):
    print(f"ACCEPTANCE {num}: PASS ({detail})")


def test_criterion_1_assignment_exactness():
    """Flow-reduction solver matches the brute-force oracle exactly."""
    start = time.time()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        while True:
            lower = rng.integers(0, max(1, n // m) + 1, size=m)
            upper = lower + rng.integers(0, n + 1, size=m)
            if lower.sum() <= n <= np.minimum(upper, n).sum():
                break
        records = GuardedRecords(rng.standard_normal((m, 2)), lower, upper)
        s = rng.standard_normal((n, m))
        if rng.random() < 0.3:
            s = np.rint(s * 2.0)  # provoke ties
        a = solve_assignment(s, records)
        b = brute_force_assignment(s, records)
        assert assignment_objective(s, a) == assignment_objective(s, b)
        np.testing.assert_array_equal(a.map, b.map)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(1, f"200 instances, objective and map exact, {elapsed:.2f}s")


def test_criterion_2_monotone_coordinate_ascent():
    """The pairwise objective never decreases along an alternating run."""
    start = time.time()
    rng = np.random.default_rng(202)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(20, 201))
        spec = replace(
            reference_records_spec(n=n, rng_seed=5000 + trial),
            separation=float(rng.uniform(1.0, 4.0)),
            state_priors=(0.7, 0.3) if trial % 2 else (0.6, 0.4),
        )
        data = generate_latent(spec)
        records, _ = as_records(data, slack=0.2)
        x_c, _ = center_columns(data.x)
        z_c, _ = center_columns(records.z)
        records_c = GuardedRecords(z_c, records.lower_bounds, records.upper_bounds)
        cfg = AmsalConfig(rng_seed=trial)
        pi = random_feasible_assignment(records_c, n, np.random.default_rng(trial))
        prev = None
        for _ in range(8):
            new_pi, _, obj = am_iterate(x_c, records_c, pi, cfg)
            if prev is not None:
                assert obj >= prev - 1e-9 * abs(prev)
                checked += 1
            if np.array_equal(new_pi.map, pi.map):
                break
            pi, prev = new_pi, obj
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, f"50 runs, {checked} consecutive-step comparisons, {elapsed:.2f}s")


def test_criterion_3_identity_alignment_maximizes_singular_sum():
    """A random permutation lowers the singular-value sum; no-signal data is symmetric."""
    start = time.time()
    strong = generate_latent(reference_spec(n=500, rng_seed=0))
    frac = proposition1_check(strong, 100, np.random.default_rng(303))
    assert frac >= 0.99

    rng = np.random.default_rng(404)
    null_wins = 0.0
    for t in range(200):
        spec = replace(reference_spec(n=500, rng_seed=7000 + t), separation=0.0)
        null_wins += proposition1_check(generate_latent(spec), 1, rng)
    null_frac = null_wins / 200
    assert 0.35 <= null_frac <= 0.65
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, f"strong-signal fraction {frac:.2f}, null fraction {null_frac:.3f}, {elapsed:.2f}s")


def test_criterion_4_spectral_erasure_identity():
    """Erased cross-covariance has spectral norm sigma_{r+1}, and 0 at full rank."""
    start = time.time()
    rng = np.random.default_rng(505)
    worst_partial = 0.0
    worst_full = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(3, 9))
        dp = int(rng.integers(2, min(d, 5)))
        m = int(rng.integers(2, 5))
        x = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
        records = GuardedRecords(
            rng.standard_normal((m, dp)), np.zeros(m, dtype=int), np.full(m, n, dtype=int)
        )
        pi = Assignment(rng.integers(0, m, n))
        x_c, _ = center_columns(x)
        omega = cross_covariance(x_c, records.z, pi)
        sigma = np.linalg.svd(omega, compute_uv=False)
        rank = int(np.sum(sigma > 1e-10 * sigma[0])) if sigma[0] > 0 else 0
        if rank == 0:
            continue
        r = int(rng.integers(1, min(rank, d - 1) + 1))
        eraser = fit_sal(x, records, pi, r)
        got = spectral_norm(cross_covariance(apply_eraser(eraser, x), records.z, pi))
        target = sigma[r] if r < sigma.size else 0.0
        worst_partial = max(worst_partial, abs(got - target))

        full = fit_sal(x, records, pi, min(rank, d - 1))
        zeroed = spectral_norm(cross_covariance(apply_eraser(full, x), records.z, pi))
        if min(rank, d - 1) == rank:
            worst_full = max(worst_full, zeroed)
    assert worst_partial <= 1e-8
    assert worst_full <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(4, f"identity dev {worst_partial:.2e}, full-rank residual {worst_full:.2e}, {elapsed:.2f}s")


def test_criterion_5_alignment_recovery():
    """Unsupervised recovery of the planted alignment at protocol defaults.

    The 0.95 threshold was fixed ahead of time with an oracle run of the
    brute-force-validated solver at n=60 on the same reference data.
    """
    start = time.time()
    data = generate_latent(reference_records_spec(n=500, rng_seed=0))
    records, truth = as_records(data, slack=0.2)
    cfg = AmsalConfig(max_iterations=100, num_seeds=3, rng_seed=0)
    result = run_amsal(data.x, records, cfg, truth=truth)
    acc = alignment_accuracy(result.assignment, truth)
    assert acc >= 0.95
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(5, f"alignment accuracy {acc:.3f} at n=500, {elapsed:.2f}s")


def _two_factor(n, d, y_prior, z_prior, y_gap, z_gap, seed):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < y_prior).astype(int)
    z = (rng.random(n) < z_prior).astype(int)
    q = np.linalg.qr(rng.standard_normal((d, 2)))[0]
    x = rng.standard_normal((n, d))
    x += np.outer(2 * y - 1, y_gap / 2 * q[:, 0])
    x += np.outer(2 * z - 1, z_gap / 2 * q[:, 1])
    return x, y, z


def _cluster_accuracy(pi_map, labels):
    direct = float(np.mean(pi_map == labels))
    return max(direct, 1.0 - direct)


def test_criterion_6_entanglement_failure_mode():
    """With matched priors the assignment tracks the task label, not the
    guarded one; with distinct priors the ordering flips."""
    start = time.time()
    agreements = 0
    for seed in range(20):
        outcomes = []
        for case_seed, y_prior in ((seed, 0.5), (1000 + seed, 0.85)):
            x, y, z = _two_factor(300, 12, y_prior, 0.5, 3.0, 2.4, case_seed)
            lower, upper = bounds_from_priors(
                [float(np.mean(z == 0)), float(np.mean(z == 1))], 300, 0.2
            )
            records = GuardedRecords(np.eye(2), lower, upper)
            cfg = AmsalConfig(num_seeds=3, max_iterations=30, rng_seed=case_seed)
            result = run_amsal(x, records, cfg)
            outcomes.append(
                (_cluster_accuracy(result.assignment.map, y),
                 _cluster_accuracy(result.assignment.map, z))
            )
        (acc_y_same, acc_z_same), (acc_y_diff, acc_z_diff) = outcomes
        if acc_y_same > acc_z_same and acc_z_diff > acc_y_diff:
            agreements += 1
    assert agreements >= 16
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(6, f"{agreements}/20 seeds reproduce both orderings, {elapsed:.2f}s")


def _heldout_probe_accuracy(x_train, labels_train, x_eval, labels_eval):
    classes, idx = np.unique(labels_train, return_inverse=True)
    w, b = fit_logistic_probe(x_train, idx, classes.size)
    preds = classes[(x_eval @ w.T + b).argmax(axis=1)]
    return float(np.mean(preds == labels_eval))


def test_criterion_7_erasure_efficacy_and_utility():
    """Erasure removes the guarded signal and keeps the task signal.

    Thresholds (0.03 of chance, 90% retention) fixed from the pre-build
    oracle run of this construct.
    """
    start = time.time()
    n, d = 1500, 12
    x, y, z = _two_factor(n, d, 0.5, 0.3, 2.5, 3.0, seed=0)
    lower, upper = bounds_from_priors([0.7, 0.3], n, 0.2)
    records = GuardedRecords(np.eye(2), lower, upper)
    result = run_amsal(x, records, AmsalConfig(rng_seed=0))
    eraser = fit_sal(x, records, result.assignment, "auto")
    erased = apply_eraser(eraser, x)

    train = np.arange(n) % 2 == 0
    hold = ~train
    chance = max(float(np.mean(z[hold])), 1.0 - float(np.mean(z[hold])))
    pre_z = _heldout_probe_accuracy(x[train], z[train], x[hold], z[hold])
    post_z = _heldout_probe_accuracy(erased[train], z[train], erased[hold], z[hold])
    pre_y = _heldout_probe_accuracy(x[train], y[train], x[hold], y[hold])
    post_y = _heldout_probe_accuracy(erased[train], y[train], erased[hold], y[hold])

    assert pre_z >= 0.9  # the guarded attribute was recoverable before erasure
    assert abs(post_z - chance) <= 0.03
    assert post_y >= 0.9 * pre_y
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(
        7,
        f"guarded probe {pre_z:.3f}->{post_z:.3f} (chance {chance:.3f}), "
        f"task probe {pre_y:.3f}->{post_y:.3f}, {elapsed:.2f}s",
    )


def test_criterion_8_numerical_suites():
    """SVD, perturbation, idempotence and metric tolerances all hold."""
    start = time.time()
    rng = np.random.default_rng(808)
    for _ in range(1000):
        rows, cols = rng.integers(1, 51, size=2)
        a = rng.standard_normal((rows, cols)) * rng.uniform(1e-2, 1e2)
        res = svd(a)
        r = min(rows, cols)
        err = np.linalg.norm(a - (res.u * res.sigma) @ res.v.T) / max(1.0, np.linalg.norm(a))
        assert err <= 1e-8
        assert np.abs(res.u.T @ res.u - np.eye(r)).max() <= 1e-10
        assert np.abs(res.v.T @ res.v - np.eye(r)).max() <= 1e-10

    assert weyl_check(1000, (6, 4), np.random.default_rng(909)) <= 1e-9

    sal_x = rng.standard_normal((60, 6))
    sal_records = GuardedRecords(
        rng.standard_normal((3, 3)), np.zeros(3, dtype=int), np.full(3, 60, dtype=int)
    )
    sal = fit_sal(sal_x, sal_records, Assignment(rng.integers(0, 3, 60)), 2)
    labels = rng.integers(0, 2, 200)
    inlp_x = rng.standard_normal((200, 6))
    inlp_x[:, 0] += (2 * labels - 1) * 2.0
    inlp = fit_inlp(inlp_x, labels, 4)
    for eraser in (sal, inlp):
        projection = np.eye(6) - eraser.directions @ eraser.directions.T
        assert np.sqrt(np.sum((projection @ projection - projection) ** 2)) <= 1e-8

    y_true, y_pred, groups = [], [], []
    for cls, group, tp, total in [(0, 1, 8, 10), (0, 0, 5, 10), (1, 1, 4, 10), (1, 0, 5, 10)]:
        y_true += [cls] * total
        y_pred += [cls] * tp + [1 - cls] * (total - tp)
        groups += [group] * total
    gap = tpr_gap_rms(np.array(y_true), np.array(y_pred), np.array(groups))
    assert abs(gap - math.sqrt(0.05)) <= 1e-12
    assert abs(mae_gap(np.array([0.1, 0.3]), np.array([0, 1])) - 0.1) <= 1e-12

    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(8, f"1000-matrix SVD suite, Weyl, idempotence, metric equalities, {elapsed:.2f}s")


def test_criterion_9_pipeline_determinism(tmp_path):
    """Identical configs produce byte-identical binary and trace outputs."""
    start = time.time()
    data = generate_latent(reference_records_spec(n=150, rng_seed=9))
    records, truth = as_records(data, slack=0.2)
    save_matrix(data.x, tmp_path / "x.bin")
    save_matrix(records.z, tmp_path / "z.bin")
    save_assignment(truth, tmp_path / "truth.csv")
    counts = np.bincount(truth.map, minlength=records.m) / data.n

    outputs = []
    for run in ("one", "two"):
        values = {
            "x": str(tmp_path / "x.bin"),
            "records": str(tmp_path / "z.bin"),
            "truth": str(tmp_path / "truth.csv"),
            "output_dir": str(tmp_path / run),
            "priors": ",".join(repr(float(c)) for c in counts),
            "slack": "0.2", "max_iterations": "100", "num_seeds": "3",
            "rng_seed": "0", "score_k": "full",
            "seed_labels": "", "removal": "sal", "removal_rank": "auto",
            "y": "", "y_kind": "none",
        }
        run_pipeline(PipelineConfig.from_values(values))
        outputs.append({
            name: (tmp_path / run / name).read_bytes()
            for name in ("assignment.csv", "eraser.bin", "x_erased.bin", "trace.csv", "report.txt")
        })
    assert outputs[0] == outputs[1]
    elapsed = time.time() - start
    _report(9, f"two runs byte-identical across 5 artifacts, {elapsed:.2f}s")
