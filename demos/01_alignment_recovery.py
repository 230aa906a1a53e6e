"""Recover a hidden input-to-record alignment from priors alone.

Plants a two-state dataset where each input secretly belongs to one of
two guarded records, runs the alternating assignment/covariance loop
from three random starts, and compares against the k-means baseline.
"""

import numpy as np

from amsal import (
    AmsalConfig,
    alignment_accuracy,
    as_records,
    generate_latent,
    kmeans_assign,
    reference_records_spec,
    run_amsal,
)


def main():
    spec = reference_records_spec(n=500, rng_seed=0)
    data = generate_latent(spec)
    records, truth = as_records(data, slack=0.2)
    print(f"planted dataset: n={data.n}, d={spec.d}, {records.m} unique records")
    print(f"record count bounds: lower={records.lower_bounds}, upper={records.upper_bounds}")

    cfg = AmsalConfig(max_iterations=100, num_seeds=3, rng_seed=0)
    result = run_amsal(data.x, records, cfg, truth=truth)

    print("\nper-iteration trace (objective is the projected agreement sum):")
    for row in result.trace.rows:
        print(f"  start {row.seed}  iter {row.iteration:2d}  "
              f"objective {row.objective:10.2f}  accuracy {row.accuracy:.3f}")

    acc = alignment_accuracy(result.assignment, truth)
    print(f"\nselected start {result.seed} with objective {result.objective:.2f}")
    print(f"alignment accuracy vs planted truth: {acc:.3f}")

    km = kmeans_assign(data.x, records, cfg)
    km_acc = alignment_accuracy(km, truth)
    print(f"k-means baseline accuracy: {km_acc:.3f}")

    counts = np.bincount(result.assignment.map, minlength=records.m)
    print(f"assigned counts per record: {counts} (true {np.bincount(truth.map)})")


if __name__ == "__main__":
    main()
