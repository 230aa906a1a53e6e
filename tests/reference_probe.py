"""Reference softmax probe and INLP eraser for the tests.

`reference_probe` solves the library probe's objective exactly: the mean
softmax cross-entropy on standardized features plus PROBE_L2 / 2 times the
squared standardized weights, by damped Newton steps on the full Hessian.
`fit_logistic_probe` stops at a gradient tolerance instead, so the two
agree on predictions and differ in the regularized loss by at most the
bound its test states. `reference_inlp` is `fit_inlp` built on this probe
instead of the library's, so an INLP comparison isolates the probe.
"""

import numpy as np

from amsal.linalg import RANK_RTOL, center_columns
from amsal.removal import INLP_STOP_SLACK, PROBE_L2


def standardize(x):
    """(xs, means, scale): x centered with each column divided by its
    deviation; a column constant up to rounding (deviation at most 1e-12
    of its largest magnitude) becomes zero and keeps scale 0."""
    means = x.mean(axis=0)
    xs = x - means
    scale = np.sqrt((xs ** 2).mean(axis=0))
    scale[scale <= 1e-12 * np.abs(x).max(axis=0)] = 0.0
    xs[:, scale == 0.0] = 0.0
    xs[:, scale > 0.0] /= scale[scale > 0.0]
    return xs, means, scale


def regularized_loss(x, y, w, b):
    """The probe objective at weights (w, b) in the coordinates of x."""
    _, _, scale = standardize(x)
    logits = x @ w.T + b
    logits -= logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits).sum(axis=1))
    ce = np.mean(lse - logits[np.arange(x.shape[0]), y])
    return ce + PROBE_L2 / 2.0 * np.sum((w * scale) ** 2)


def reference_probe(x, y, num_classes):
    """(weights (c, d), bias (c,)) at the optimum, by damped Newton."""
    n, d = x.shape
    c = num_classes
    xs, means, scale = standardize(x)
    xa = np.hstack([xs, np.ones((n, 1))])
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0
    ridge = np.tile(np.r_[np.full(d, PROBE_L2), 0.0], c)
    null = np.tile(np.r_[np.zeros(d), 1.0], c) / np.sqrt(c)  # a common bias shift

    def loss(theta):
        logits = xa @ theta.reshape(c, d + 1).T
        top = logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits - top).sum(axis=1)) + top[:, 0]
        return np.mean(lse - logits[np.arange(n), y]) + 0.5 * np.sum(ridge * theta ** 2)

    theta = np.zeros(c * (d + 1))
    for _ in range(100):
        logits = xa @ theta.reshape(c, d + 1).T
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        grad = ((p - onehot).T @ xa).ravel() / n + ridge * theta
        px = (p[:, :, None] * xa[:, None, :]).reshape(n, -1)
        hess = -(px.T @ px) / n + np.diag(ridge) + np.outer(null, null)
        for k in range(c):
            block = slice(k * (d + 1), (k + 1) * (d + 1))
            hess[block, block] += (xa * p[:, k:k + 1]).T @ xa / n
        step = np.linalg.solve(hess, grad)
        decrement = grad @ step  # twice the predicted loss decrease
        if decrement <= 1e-16:  # the loss is optimal to rounding
            break
        t, f0 = 1.0, loss(theta)
        while loss(theta - t * step) > f0 - 0.25 * t * decrement and t > 1e-10:
            t /= 2.0
        theta -= t * step
    else:
        raise RuntimeError("damped Newton did not converge")
    wa = theta.reshape(c, d + 1)
    w = np.zeros((c, d))
    w[:, scale > 0.0] = wa[:, :d][:, scale > 0.0] / scale[scale > 0.0]
    return w, wa[:, d] - w @ means


def reference_inlp(x, z_labels, max_rounds):
    """(projection (d, d), rounds) of INLP with the reference probe."""
    classes, y = np.unique(np.asarray(z_labels), return_inverse=True)
    n, d = x.shape
    x_c, _ = center_columns(x)
    majority = float(np.bincount(y).max()) / n
    removed = np.zeros((d, 0))
    x_proj = x_c
    rounds = 0
    for _ in range(max_rounds):
        w, b = reference_probe(x_proj, y, classes.size)
        acc = float(np.mean((x_proj @ w.T + b).argmax(axis=1) == y))
        if acc <= majority + INLP_STOP_SLACK:
            break
        dirs = (w - w.mean(axis=0)).T
        dirs = dirs - removed @ (removed.T @ dirs)
        q, s, _ = np.linalg.svd(dirs, full_matrices=False)
        keep = s > max(1e-12, RANK_RTOL * s[0]) if s.size and s[0] > 0 else np.zeros(0, bool)
        if not keep.any():
            break
        removed = np.hstack([removed, q[:, keep]])
        if removed.shape[1] >= d:
            removed = removed[:, :d]
            rounds += 1
            break
        x_proj = x_c - (x_c @ removed) @ removed.T
        rounds += 1
    projection = np.eye(d) - removed @ removed.T
    return (projection + projection.T) / 2.0, rounds
