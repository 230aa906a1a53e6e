import math

import numpy as np
import pytest

from amsal import EvalReport, InvalidInput, accuracy, f1_macro, mae, mae_gap, tpr_gap_rms


def test_tpr_gap_zero_when_groups_match():
    y_true = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 0, 0, 1, 1, 0])
    z = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert tpr_gap_rms(y_true, y_pred, z) == 0.0


def test_tpr_gap_single_class():
    # one class, TPR 1.0 in group 1 vs 0.5 in group 0
    y_true = np.ones(6, dtype=int)
    y_pred = np.array([1, 1, 1, 1, 1, 0])
    z = np.array([1, 1, 1, 1, 0, 0])
    assert tpr_gap_rms(y_true, y_pred, z) == pytest.approx(0.5, abs=1e-12)


def _two_class_case():
    # class 0: TPR 0.8 (z=1) vs 0.5 (z=0) -> gap 0.3
    # class 1: TPR 0.4 (z=1) vs 0.5 (z=0) -> gap -0.1
    y_true, y_pred, z = [], [], []
    for cls, group, tp, total in [
        (0, 1, 8, 10), (0, 0, 5, 10), (1, 1, 4, 10), (1, 0, 5, 10),
    ]:
        other = 1 - cls
        y_true += [cls] * total
        y_pred += [cls] * tp + [other] * (total - tp)
        z += [group] * total
    return np.array(y_true), np.array(y_pred), np.array(z)


def test_tpr_gap_two_class_hand_value():
    y_true, y_pred, z = _two_class_case()
    assert abs(tpr_gap_rms(y_true, y_pred, z) - math.sqrt(0.05)) <= 1e-12


def test_tpr_gap_invariances():
    y_true, y_pred, z = _two_class_case()
    base = tpr_gap_rms(y_true, y_pred, z)
    # swapping the group labels flips signs but not the RMS
    assert tpr_gap_rms(y_true, y_pred, 1 - z) == pytest.approx(base, abs=1e-12)
    perm = np.random.default_rng(0).permutation(y_true.size)
    assert tpr_gap_rms(y_true[perm], y_pred[perm], z[perm]) == pytest.approx(base, abs=1e-12)


def test_tpr_gap_requires_binary_groups():
    with pytest.raises(InvalidInput):
        tpr_gap_rms([0, 1], [0, 1], [0, 0])
    with pytest.raises(InvalidInput):
        tpr_gap_rms([0, 1, 0], [0, 1, 1], [0, 1, 2])


def test_tpr_gap_empty_side_uses_zero():
    # class 1 has gold only in group 1: empty side contributes TPR 0
    y_true = np.array([1, 1, 0, 0])
    y_pred = np.array([1, 1, 0, 0])
    z = np.array([1, 1, 0, 0])
    gaps = [1.0 - 0.0, 0.0 - 1.0]  # class 1 then class 0
    assert tpr_gap_rms(y_true, y_pred, z) == pytest.approx(
        math.sqrt(np.mean(np.square(gaps))), abs=1e-12
    )


def test_mae_gap_identical_groups():
    errs = np.array([0.1, 0.4, 0.1, 0.4])
    z = np.array([0, 0, 1, 1])
    assert mae_gap(errs, z) == 0.0


def test_mae_gap_singleton_groups_hand_value():
    # singleton group: eta = 0, so MAD equals mu; std of {0.1, 0.3} is 0.1
    assert abs(mae_gap(np.array([0.1, 0.3]), np.array([0, 1])) - 0.1) <= 1e-12


def test_mae_gap_single_group():
    assert mae_gap(np.array([0.5, 1.0, 0.2]), np.array([0, 0, 0])) == 0.0


def test_mae_gap_empty_group():
    with pytest.raises(InvalidInput):
        mae_gap(np.array([0.5, 1.0]), np.array([0, 2]))


def test_mae_gap_depends_only_on_mads():
    rng = np.random.default_rng(1)
    errs = np.abs(rng.standard_normal(30))
    z = rng.integers(0, 3, size=30)
    while np.unique(z).size < 3:
        z = rng.integers(0, 3, size=30)
    mads = []
    for j in range(3):
        grp = errs[z == j]
        mu = grp.mean()
        mads.append(np.mean(np.abs(np.abs(grp - mu) - mu)))
    assert mae_gap(errs, z) == pytest.approx(np.std(mads), abs=1e-12)


def test_standard_metrics_perfect():
    y = np.array([0, 1, 2, 1])
    assert accuracy(y, y) == 1.0
    assert f1_macro(y, y) == 1.0
    assert mae(y.astype(float), y.astype(float)) == 0.0


def test_accuracy_all_wrong():
    y = np.array([0, 1, 0, 1])
    assert accuracy(y, 1 - y) == 0.0


def test_f1_macro_confusion_oracle():
    # 3-class confusion: gold [0,0,1,1,2,2], pred [0,1,1,1,2,0]
    y_true = np.array([0, 0, 1, 1, 2, 2])
    y_pred = np.array([0, 1, 1, 1, 2, 0])
    # class 0: tp=1 fp=1 fn=1 -> f1 = 0.5
    # class 1: tp=2 fp=1 fn=0 -> f1 = 2*2/(4+1) = 0.8
    # class 2: tp=1 fp=0 fn=1 -> f1 = 2/3
    expected = (0.5 + 0.8 + 2.0 / 3.0) / 3.0
    assert f1_macro(y_true, y_pred) == pytest.approx(expected, abs=1e-12)


def test_f1_macro_excludes_absent_class():
    # class 2 appears in neither gold nor predictions
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 0, 1, 0])
    scores = f1_macro(y_true, y_pred)
    # class 0: tp=2 fp=1 fn=0 -> 0.8; class 1: tp=1 fp=0 fn=1 -> 2/3
    assert scores == pytest.approx((0.8 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_length_mismatch_errors():
    with pytest.raises(InvalidInput):
        accuracy([0, 1], [0, 1, 1])
    with pytest.raises(InvalidInput):
        mae([0.0, 1.0], [0.0])


def test_eval_report_as_dict_skips_none():
    report = EvalReport(task_accuracy=0.9, tpr_gap_rms=0.1)
    assert report.as_dict() == {"task_accuracy": 0.9, "tpr_gap_rms": 0.1}
