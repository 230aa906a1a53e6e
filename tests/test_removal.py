import numpy as np
import pytest
from reference_probe import reference_inlp, reference_probe, regularized_loss

from amsal import (
    Assignment,
    GuardedRecords,
    InvalidInput,
    apply_eraser,
    center_columns,
    cross_covariance,
    fit_inlp,
    fit_logistic_probe,
    fit_sal,
    probe_accuracy,
    removal,
    spectral_norm,
)


def _free_records(z, n):
    m = z.shape[0]
    return GuardedRecords(z, np.zeros(m, dtype=int), np.full(m, n, dtype=int))


def _projection(eraser):
    """I - R R^T, the d x d matrix the eraser applies after centering."""
    r = eraser.directions
    return np.eye(eraser.dim) - r @ r.T


def _kept_basis(eraser):
    """An orthonormal basis of the complement of the removed directions."""
    return np.linalg.svd(eraser.directions, full_matrices=True)[0][:, eraser.removed:]


def _random_instance(rng, n=40, d=6, dp=3, m=3):
    x = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0)
    records = _free_records(rng.standard_normal((m, dp)), n)
    pi = Assignment(rng.integers(0, m, n))
    return x, records, pi


def test_sal_removes_planted_direction():
    rng = np.random.default_rng(0)
    n = 200
    x = rng.standard_normal((n, 5))
    z = (2.0 * x[:, :1] + 1.0).copy()  # guarded value is linear in one x coordinate
    records = _free_records(z, n)
    pi = Assignment(np.arange(n))
    eraser = fit_sal(x, records, pi, 1)
    erased = apply_eraser(eraser, x)
    assert spectral_norm(cross_covariance(erased, z, pi)) <= 1e-10 * n


def test_sal_auto_rank_on_zero_covariance():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    z = np.array([[1.0], [2.0]])
    records = _free_records(z, 2)
    # both records get one input each with x summing to zero per record pairing
    pi = Assignment(np.array([0, 1]))
    x0 = np.zeros((4, 3))
    records0 = _free_records(np.array([[1.0], [2.0]]), 4)
    with pytest.raises(InvalidInput):
        fit_sal(x0, records0, Assignment(np.array([0, 1, 0, 1])), "auto")
    # sanity: the nonzero case fits
    fit_sal(x, records, pi, 1)


@pytest.mark.parametrize("record, r", [(0, "auto"), (1, "auto"), (0, 1)])
def test_sal_refuses_a_map_onto_one_record(record, r):
    # the centered inputs sum to zero, so one record row leaves a cross-covariance of rounding noise
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 4))
    records = _free_records(rng.standard_normal((2, 3)), 30)
    pi = Assignment(np.full(30, record))
    with pytest.raises(InvalidInput, match="^spectral removal needs inputs in at least 2 records; "
                                           "the map uses 1$"):
        fit_sal(x, records, pi, r)


def test_sal_rank_validation():
    rng = np.random.default_rng(1)
    x, records, pi = _random_instance(rng)
    with pytest.raises(InvalidInput):
        fit_sal(x, records, pi, x.shape[1])
    with pytest.raises(InvalidInput):
        fit_sal(x, records, pi, 0)


def test_sal_erasure_identity():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x, records, pi = _random_instance(rng)
        x_c, _ = center_columns(x)
        sigma = np.linalg.svd(cross_covariance(x_c, records.z, pi), compute_uv=False)
        r = int(rng.integers(1, records.dim + 1))
        eraser = fit_sal(x, records, pi, r)
        got = spectral_norm(cross_covariance(apply_eraser(eraser, x), records.z, pi))
        target = sigma[r] if r < sigma.size else 0.0
        assert abs(got - target) <= 1e-8


def test_sal_auto_matches_rank():
    rng = np.random.default_rng(3)
    x, records, pi = _random_instance(rng)
    eraser = fit_sal(x, records, pi, "auto")
    # centering x makes the per-record sums dependent: rank is m - 1 here
    assert eraser.removed == records.m - 1
    erased = apply_eraser(eraser, x)
    assert spectral_norm(cross_covariance(erased, records.z, pi)) <= 1e-8


def test_sal_preserves_retained_subspace():
    rng = np.random.default_rng(4)
    x, records, pi = _random_instance(rng)
    eraser = fit_sal(x, records, pi, 2)
    kept = _kept_basis(eraser)
    inside = rng.standard_normal((5, kept.shape[1])) @ kept.T  # rows in the retained subspace
    np.testing.assert_allclose(apply_eraser(eraser, inside + eraser.input_means), inside,
                               atol=1e-10)


def test_sal_reduced_view():
    rng = np.random.default_rng(5)
    x, records, pi = _random_instance(rng)
    eraser = fit_sal(x, records, pi, 1)
    kept = _kept_basis(eraser)
    reduced = (x - eraser.input_means) @ kept  # coordinates in the retained basis
    assert reduced.shape == (x.shape[0], x.shape[1] - 1)
    np.testing.assert_allclose(reduced @ kept.T, apply_eraser(eraser, x), atol=1e-12)


def test_apply_idempotent_on_centered_fit():
    rng = np.random.default_rng(6)
    x, records, pi = _random_instance(rng)
    x_c, _ = center_columns(x)
    eraser = fit_sal(x_c, records, pi, 2)
    once = apply_eraser(eraser, x_c)
    twice = apply_eraser(eraser, once)
    assert np.sqrt(np.sum((twice - once) ** 2)) <= 1e-10
    p = _projection(eraser)
    assert np.abs(p @ p - p).max() <= 1e-10


def test_apply_dimension_mismatch():
    rng = np.random.default_rng(7)
    x, records, pi = _random_instance(rng)
    eraser = fit_sal(x, records, pi, 1)
    with pytest.raises(InvalidInput):
        apply_eraser(eraser, np.ones((3, x.shape[1] + 1)))


def _separable(rng, n=300, d=8, gap=3.0):
    y = rng.integers(0, 2, n)
    x = rng.standard_normal((n, d))
    x[:, 0] += (2 * y - 1) * gap
    return x, y


def test_inlp_separable_reaches_baseline():
    rng = np.random.default_rng(8)
    x, y = _separable(rng)
    majority = np.bincount(y).max() / y.size
    assert probe_accuracy(x, y) >= 0.95
    eraser = fit_inlp(x, y, max_rounds=x.shape[1])
    assert eraser.iterations <= x.shape[1]
    post = probe_accuracy(apply_eraser(eraser, x), y)
    assert post <= majority + 0.02


def test_inlp_accuracy_nonincreasing_over_rounds():
    rng = np.random.default_rng(9)
    x, y = _separable(rng)
    accs = [probe_accuracy(x, y)]
    for rounds in range(1, 5):
        eraser = fit_inlp(x, y, max_rounds=rounds)
        accs.append(probe_accuracy(apply_eraser(eraser, x), y))
    for earlier, later in zip(accs, accs[1:]):
        assert later <= earlier + 0.02


def test_inlp_constant_labels():
    rng = np.random.default_rng(10)
    with pytest.raises(InvalidInput):
        fit_inlp(rng.standard_normal((20, 3)), np.zeros(20, dtype=int), 3)


def test_inlp_zero_rounds_is_identity():
    rng = np.random.default_rng(11)
    x, y = _separable(rng, n=50, d=4)
    eraser = fit_inlp(x, y, max_rounds=0)
    assert eraser.directions.shape == (4, 0) and eraser.iterations == eraser.removed == 0
    np.testing.assert_array_equal(apply_eraser(eraser, x), x - x.mean(axis=0))


def test_inlp_projection_idempotent():
    rng = np.random.default_rng(12)
    for _ in range(5):
        x, y = _separable(rng, n=120, d=6, gap=2.0)
        eraser = fit_inlp(x, y, max_rounds=4)
        r = eraser.directions
        assert np.abs(r.T @ r - np.eye(eraser.removed)).max() <= 1e-10
        p = _projection(eraser)
        assert np.sqrt(np.sum((p @ p - p) ** 2)) <= 1e-8
        np.testing.assert_allclose(p, p.T, atol=1e-10)


def _random_scaled_instance(seed, trial):
    """Trial `trial` of a stream of INLP instances: n 30-400, d 2-40, 2-8
    classes, class signal on the first min(c, d) columns and column scales
    e^U(-12, 12)."""
    rng = np.random.default_rng(seed)
    for _ in range(trial + 1):
        n, d, c = int(rng.integers(30, 401)), int(rng.integers(2, 41)), int(rng.integers(2, 9))
        y = rng.integers(0, c, n)
        x = rng.standard_normal((n, d))
        x[:, :min(c, d)] += 2.0 * (y[:, None] == np.arange(min(c, d)))
        x *= np.exp(rng.uniform(-12, 12, d))
    return x, y


def test_inlp_directions_stay_orthonormal_across_column_scales():
    """The probe's standardization rescales its weights per column, so a
    new direction can lie almost wholly in the removed span; INLP must
    still hand the eraser orthonormal directions."""
    rng = np.random.default_rng(18)
    cases = []
    for _ in range(10):
        y = rng.integers(0, 4, 120)
        x = rng.standard_normal((120, 10))
        x[:, :4] += 2.0 * (y[:, None] == np.arange(4))
        x *= np.exp(rng.uniform(-6, 6, 10))
        cases.append((x, y))
    # at scales e^+-12: n 286, d 14, 7 classes and n 162, d 13, 8 classes
    cases += [_random_scaled_instance(1, 17), _random_scaled_instance(3, 132)]
    for x, y in cases:
        r = fit_inlp(x, y, max_rounds=10).directions
        assert np.abs(r.T @ r - np.eye(r.shape[1])).max() <= 1e-10


def test_sal_probe_near_chance_after_erasure():
    rng = np.random.default_rng(13)
    n, d = 400, 8
    states = rng.integers(0, 2, n)
    x = rng.standard_normal((n, d))
    x[:, 1] += (2 * states - 1) * 3.0
    z = np.where(states[:, None] == 1, [1.0, 0.0], [0.0, 1.0])
    records_z, inverse = np.unique(z, axis=0, return_inverse=True)
    records = _free_records(records_z, n)
    pi = Assignment(inverse.astype(np.int64))
    eraser = fit_sal(x, records, pi, "auto")
    majority = np.bincount(states).max() / n
    post = probe_accuracy(apply_eraser(eraser, x), states)
    assert abs(post - majority) <= 0.03


def _probe_corpus():
    """(x, y, c) instances: c in {2, 3, 8}, n from 5 to 500, d from 1 to 128,
    with separable data, a constant column and a class of one member."""
    rng = np.random.default_rng(14)
    shapes = [(5, 1), (7, 3), (12, 2), (20, 5), (40, 8), (60, 16), (90, 1), (150, 32),
              (300, 8), (500, 128)]
    for c in (2, 3, 8):
        for n, d in shapes:
            if n < c + 1:
                continue
            for variant in ("gaussian", "separable"):
                y = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
                if variant == "separable":  # class k sits at 0.6 k on column 0, noise 0.1
                    x = 0.1 * rng.standard_normal((n, d))
                    x[:, 0] += 0.6 * y
                else:
                    x = rng.standard_normal((n, d)) * rng.uniform(0.2, 2.0)
                if d > 1 and n % 3 == 0:
                    x[:, -1] = 2.5  # a constant column
                if n >= 20:
                    y[y == c - 1] = 0
                    y[rng.integers(n)] = c - 1  # a class with a single member
                yield x + rng.uniform(-1, 1), y, c


def _predict(x, w, b):
    return (x @ w.T + b).argmax(axis=1)


# Worst relative gap of the probe's regularized loss above the Newton
# optimum over the corpus: 1.6e-5 measured, on a (500, 128) case at c = 2
# that stops at the gradient tolerance after 114 epochs (no case needs more
# than 278).
PROBE_LOSS_RTOL = 3e-5


def _assert_corpus_matches_reference():
    count = 0
    for x, y, c in _probe_corpus():
        count += 1
        w, b = fit_logistic_probe(x, y, c)
        w_ref, b_ref = reference_probe(x, y, c)
        assert w.shape == w_ref.shape and b.shape == b_ref.shape
        np.testing.assert_array_equal(_predict(x, w, b), _predict(x, w_ref, b_ref))
        loss, best = regularized_loss(x, y, w, b), regularized_loss(x, y, w_ref, b_ref)
        assert -1e-9 * best <= loss - best <= PROBE_LOSS_RTOL * best
    assert count >= 50


def test_probe_matches_reference_corpus():
    _assert_corpus_matches_reference()


def test_probe_matches_reference_corpus_within_300_epochs(monkeypatch):
    """The probe reaches its tolerance well inside the epoch cap on every
    corpus case, those with a class of one member included, whose bias is
    far less curved than the ridge: a cap of 300 epochs gives the same
    answers."""
    monkeypatch.setattr(removal, "PROBE_EPOCHS", 300)
    _assert_corpus_matches_reference()


def test_probe_is_deterministic():
    for x, y, c in list(_probe_corpus())[::7]:
        w1, b1 = fit_logistic_probe(x, y, c)
        w2, b2 = fit_logistic_probe(x, y, c)
        assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()


def test_probe_predictions_ignore_scale_and_shift():
    for x, y, c in _probe_corpus():
        pred = _predict(x, *fit_logistic_probe(x, y, c))
        for a, shift in ((25.0, 0.0), (1.0, 7.0), (25.0, -3.0)):
            moved = a * x + shift
            np.testing.assert_array_equal(_predict(moved, *fit_logistic_probe(moved, y, c)), pred)


def test_probe_constant_column_stays_inert_after_scaling():
    """A constant column is rounding noise once centered, at any scale: its
    weight stays exactly 0 instead of standardizing the noise up."""
    checked = 0
    for x, y, c in _probe_corpus():
        if x.shape[1] == 1 or np.ptp(x[:, -1]) != 0.0:
            continue
        for a, shift in ((1.0, 0.0), (25.0, 0.0), (25.0, -3.0)):
            w, _ = fit_logistic_probe(a * x + shift, y, c)
            assert not w[:, -1].any()
        checked += 1
    assert checked >= 10


def test_probe_large_feature_offsets_match_reference():
    """Class offsets of 4 k at c = 8 put features at magnitude 20 to 30,
    where a fixed step oscillates; the probe still lands on the optimum's
    predictions."""
    rng = np.random.default_rng(16)
    for n, d in ((80, 2), (120, 4), (200, 6), (300, 3), (400, 8)):
        y = np.concatenate([np.arange(8), rng.integers(0, 8, n - 8)])
        x = rng.standard_normal((n, d))
        x[:, 0] += 4.0 * y
        x[:, 1:] += 20.0
        w, b = fit_logistic_probe(x, y, 8)
        w_ref, b_ref = reference_probe(x, y, 8)
        np.testing.assert_array_equal(_predict(x, w, b), _predict(x, w_ref, b_ref))


@pytest.mark.parametrize("x, y, num_classes, match", [
    (np.ones((4, 2)), np.array([0, 1, 2, 0]), 2, "y row 2: class id 2 outside"),
    (np.ones((4, 2)), np.array([0, -1, 1, 0]), 2, "y row 1: class id -1 outside"),
    (np.ones((4, 2)), np.array([0, 0, 0, 0]), 1, "num_classes"),
    (np.ones((4, 2)), np.array([0, 1, 1]), 2, "one class id per row"),
    (np.array([[0.0, 1.0], [np.nan, 2.0]]), np.array([0, 1]), 2, "x contains non-finite"),
    (np.ones((2, 2)), np.array([0.0, 1.0]), 2, "integer class ids"),
], ids=["label-too-large", "label-negative", "one-class", "length-mismatch", "nan-in-x",
        "float-labels"])
def test_probe_rejects_bad_input(x, y, num_classes, match):
    with pytest.raises(InvalidInput, match=match):
        fit_logistic_probe(x, y, num_classes)


def test_inlp_matches_reference_inlp():
    """Same round counts as INLP on the exact probe, and projections within
    2e-4 of it (5.0e-5 at most measured on these instances)."""
    rng = np.random.default_rng(15)
    for n, d, c in ((80, 4, 2), (120, 6, 3), (200, 12, 2), (300, 8, 8), (150, 3, 3),
                    (500, 32, 2)):
        y = rng.integers(0, c, n)
        x = rng.standard_normal((n, d))
        x[:, : min(c, d)] += 2.0 * (y[:, None] == np.arange(min(c, d)))
        eraser = fit_inlp(x, y, max_rounds=d)
        projection, rounds = reference_inlp(x, y, d)
        assert eraser.iterations == rounds >= 1
        assert np.abs(_projection(eraser) - projection).max() <= 2e-4
        again = fit_inlp(x, y, max_rounds=d)
        assert again.directions.tobytes() == eraser.directions.tobytes()


def test_inlp_erasure_equals_the_last_probe_input(monkeypatch):
    """Erasing x with the fitted eraser gives, bit for bit, the inputs the
    last INLP probe saw, whenever fewer than d directions were removed."""
    seen = []
    probe = removal.fit_logistic_probe

    def recording(x, y, num_classes):
        seen.append(x.copy())
        return probe(x, y, num_classes)

    monkeypatch.setattr(removal, "fit_logistic_probe", recording)
    rng = np.random.default_rng(17)
    checked = 0
    for n, d, c in ((80, 4, 2), (120, 6, 3), (200, 12, 2), (300, 8, 8), (150, 3, 3),
                    (500, 32, 2), (60, 2, 4)):
        y = rng.integers(0, c, n)
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d) + rng.uniform(-5, 5, d)
        x[:, : min(c, d)] += 2.0 * (y[:, None] == np.arange(min(c, d)))
        seen.clear()
        eraser = fit_inlp(x, y, max_rounds=d)
        if eraser.removed < d:
            assert len(seen) == eraser.iterations + 1
            assert apply_eraser(eraser, x).tobytes() == seen[-1].tobytes()
            checked += 1
    assert checked >= 5
