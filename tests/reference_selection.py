"""Reference model selection for the tests.

`reference_pick_candidate` is the list-based rule `run_amsal` used before
it kept only the best candidate so far: every (seed, iteration, objective,
pi) candidate is pooled, and one `max` picks the largest objective, or
with seed pairs the best accuracy on them with the objective next, the
earliest (seed, iteration) breaking ties. The online rule must pick the
same candidate from any stream.
"""

import numpy as np


def reference_pick_candidate(candidates, seed_labels):
    """The winning (seed, iteration, objective, pi) tuple of a non-empty list."""
    if seed_labels is not None:
        idx, values = seed_labels
        return max(
            candidates,
            key=lambda c: (float(np.mean(c[3].map[idx] == values)), c[2], -c[0], -c[1]),
        )
    return max(candidates, key=lambda c: (c[2], -c[0], -c[1]))
