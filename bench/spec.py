"""Names, units and bounds of every benchmark metric, and the workload list.

BENCHMARK.json at the repository root is generated from this module
(`python3 bench/run.py --write-spec`), and run.py checks each result
against it before printing, so the spec and the output cannot drift.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 40

WORKLOADS = [
    ("align-binary",
     "run_pipeline on m=2 planted records: bounded assignment (LAP + lex refine) is the whole job"),
    ("align-multi",
     "run_pipeline on m=8 records: the Python lex refine dominates and the LAP is small"),
    ("erase-csv",
     "cli erase --method inlp on CSV: CSV parse/format and the logistic probe; no assignment work"),
]

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change is rejected.
END_TO_END = [
    ("job_s", "s", "lower", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("objective", "score", "higher", 0.1),
    ("task_accuracy", "fraction", "higher", 0.05),
    ("guarded_probe_accuracy", "fraction", "lower", 0.15),
]

# (name, unit, better); no bound.  Times are per job (mean over the run's
# instances), counts are per job and repeat exactly for a given seed.
PER_LAYER = [
    ("assignment.solve_assignment.calls", "count", "lower"),
    ("assignment.solve_assignment.busy_s", "s", "lower"),
    ("assignment.solve_assignment.s_per_call", "s", "lower"),
    ("assignment.lap.busy_s", "s", "lower"),
    ("assignment.lex_refine.busy_s", "s", "lower"),
    ("assignment.lap_cost_bytes", "bytes", "lower"),
    ("assignment.score_matrix.busy_s", "s", "lower"),
    ("assignment.self_s", "s", "lower"),
    ("driver.am_iterate.calls", "count", "lower"),
    ("driver.useful_iter_ratio", "ratio", "higher"),
    ("driver.moved_inputs", "count", "lower"),
    ("driver.seeds_at_cap", "count", "lower"),
    ("driver.run_amsal.busy_s", "s", "lower"),
    ("driver.run_amsal.self_s", "s", "lower"),
    ("driver.random_feasible_assignment.busy_s", "s", "lower"),
    ("driver.self_s", "s", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.busy_s", "s", "lower"),
    ("linalg.cross_covariance.calls", "count", "lower"),
    ("linalg.cross_covariance.busy_s", "s", "lower"),
    ("linalg.center_columns.calls", "count", "lower"),
    ("linalg.center_columns.busy_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("removal.fit_logistic_probe.calls", "count", "lower"),
    ("removal.fit_logistic_probe.busy_s", "s", "lower"),
    ("removal.fit_inlp.busy_s", "s", "lower"),
    ("removal.fit_inlp.rounds", "count", "lower"),
    ("removal.fit_sal.busy_s", "s", "lower"),
    ("removal.apply_eraser.busy_s", "s", "lower"),
    ("removal.self_s", "s", "lower"),
    ("io.load_matrix.busy_s", "s", "lower"),
    ("io.load_matrix.bytes", "bytes", "lower"),
    ("io.save_matrix.busy_s", "s", "lower"),
    ("io.save_matrix.bytes", "bytes", "lower"),
    ("io.save_other.busy_s", "s", "lower"),
    ("io.run_pipeline.self_s", "s", "lower"),
    ("io.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("metrics.busy_s", "s", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]

# Per-layer values that are counts or computed sizes: for one seed they
# must repeat exactly from job to job, so later changes can cite them.
DETERMINISTIC = (
    "assignment.solve_assignment.calls",
    "assignment.lap_cost_bytes",
    "driver.am_iterate.calls",
    "driver.useful_iter_ratio",
    "driver.moved_inputs",
    "driver.seeds_at_cap",
    "linalg.svd.calls",
    "linalg.cross_covariance.calls",
    "linalg.center_columns.calls",
    "removal.fit_logistic_probe.calls",
    "removal.fit_inlp.rounds",
    "io.load_matrix.bytes",
    "io.save_matrix.bytes",
)


def units(trace):
    """{metric name: unit} of the metrics a run with this trace flag prints."""
    table = PER_LAYER if trace else END_TO_END
    return {row[0]: row[1] for row in table}


def benchmark_json():
    """The BENCHMARK.json document, as text."""
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
