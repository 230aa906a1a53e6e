"""Fairness and utility metrics for classification and regression heads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class EvalReport:
    """Flat bundle of scores; fields stay None when a task does not apply."""

    task_accuracy: float | None = None
    f1_macro: float | None = None
    tpr_gap_rms: float | None = None
    mae: float | None = None
    mae_gap: float | None = None
    alignment_accuracy: float | None = None

    def as_dict(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}


def _labels(a, name, n=None):
    out = np.asarray(a)
    if out.ndim != 1 or out.size < 1:
        raise InvalidInput(f"{name} must be a non-empty 1-d array")
    if n is not None and out.size != n:
        raise InvalidInput(f"{name} has length {out.size}, expected {n}")
    return out


def accuracy(y_true, y_pred):
    """Fraction of exact label matches."""
    y_true = _labels(y_true, "y_true")
    y_pred = _labels(y_pred, "y_pred", y_true.size)
    return float(np.mean(y_true == y_pred))


def f1_macro(y_true, y_pred):
    """Unweighted mean of per-class F1 over classes seen in gold or predictions.

    A class with neither gold examples nor predictions is excluded from
    the mean; a class that is predicted never or gold-only scores 0.
    """
    y_true = _labels(y_true, "y_true")
    y_pred = _labels(y_pred, "y_pred", y_true.size)
    scores = []
    for c in np.unique(np.concatenate([y_true, y_pred])):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        if tp + fp + fn == 0:
            continue
        scores.append(2.0 * tp / (2.0 * tp + fp + fn))
    return float(np.mean(scores))


def mae(y_true, y_pred):
    """Mean absolute error for regression outputs."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise InvalidInput("mae expects two 1-d arrays of equal length")
    return float(np.mean(np.abs(y_true - y_pred)))


def tpr_gap_rms(y_true, y_pred, z):
    """Root mean square over task classes of the per-group TPR difference.

    z must be binary. For each class, the gap is TPR in the higher group
    minus TPR in the lower group. A class with gold examples in only one
    group contributes with TPR 0 on the empty side; a class with gold in
    neither group is skipped.
    """
    y_true = _labels(y_true, "y_true")
    y_pred = _labels(y_pred, "y_pred", y_true.size)
    z = _labels(z, "z", y_true.size)
    groups = np.unique(z)
    if groups.size != 2:
        raise InvalidInput(f"z must be binary, found {groups.size} distinct values")
    in_g1 = z == groups[1]
    gaps = []
    for c in np.unique(y_true):
        gold = y_true == c
        tprs = []
        for mask in (in_g1, ~in_g1):
            denom = int(np.sum(gold & mask))
            tprs.append(np.sum(gold & mask & (y_pred == c)) / denom if denom else 0.0)
        gaps.append(tprs[0] - tprs[1])
    if not gaps:
        return 0.0
    gaps = np.asarray(gaps)
    return float(np.sqrt(np.mean(gaps * gaps)))


def mae_gap(abs_errors, z):
    """Spread of the per-group mean absolute deviation of absolute errors.

    For group j: mu_j is the mean absolute error, eta_ij the absolute
    difference between mu_j and example i's absolute error, and MAD_j the
    mean of |eta_ij - mu_j|. Returns the population standard deviation
    of the m MAD values (divided by m: the groups are the whole
    population of groups).
    """
    errs = np.asarray(abs_errors, dtype=np.float64)
    if errs.ndim != 1 or errs.size < 1:
        raise InvalidInput("abs_errors must be a non-empty 1-d array")
    if not np.all(np.isfinite(errs)):
        raise InvalidInput("abs_errors contains non-finite entries")
    z = _labels(z, "z", errs.size)
    if not np.issubdtype(z.dtype, np.integer) or z.min() < 0:
        raise InvalidInput("z must hold non-negative group ids")
    m = int(z.max()) + 1
    mads = []
    for j in range(m):
        grp = errs[z == j]
        if grp.size == 0:
            raise InvalidInput(f"group {j} has no examples")
        mu = grp.mean()
        eta = np.abs(grp - mu)
        mads.append(float(np.mean(np.abs(eta - mu))))
    return float(np.std(mads))
