"""Reference softmax probe and INLP eraser for the tests.

`reference_probe` keeps the sample-major epoch loop the library used
before its probe went class-major: (n, c) logits, a separate bias and a
per-epoch `g = (p - onehot) / n` temporary. The arithmetic is the same
full-batch gradient descent with the same init, epochs and step schedule,
so `fit_logistic_probe` must agree with it up to summation order.
`reference_inlp` is `fit_inlp` built on this probe instead of the
library's, so an INLP comparison isolates the probe change.
"""

import numpy as np

from amsal.linalg import RANK_RTOL, center_columns
from amsal.removal import INLP_STOP_SLACK, PROBE_EPOCHS, PROBE_STEP


def reference_probe(x, y, num_classes):
    """(weights (c, d), bias (c,)) of the sample-major epoch loop."""
    n, d = x.shape
    w = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for t in range(PROBE_EPOCHS):
        logits = x @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        step = PROBE_STEP / (1.0 + t / 100.0)
        w -= step * (g.T @ x)
        b -= step * g.sum(axis=0)
    return w, b


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
