"""Span tracing of the amsal layers from outside the library.

`Tracer.install()` replaces every public amsal function in the namespace
of each amsal module that holds it (the place its callers look it up),
so a call such as `solve_assignment(...)` inside `amsal.driver` or
`aio.load_matrix(...)` inside `amsal.cli` records a span. `uninstall()`
puts the original objects back; untraced runs never install anything.

A span carries a name ("<layer>.<function>"), start and end times, the
index of its parent span and a job id. Spans are kept in memory; a
layer's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("assignment", "driver", "linalg", "removal", "metrics", "io", "cli")

# Private helpers worth their own span: the two sub-paths of the A-step.
PRIVATE = {
    ("assignment", "_initial_optimum"): "assignment.lap",
    ("assignment", "_lex_refine"): "assignment.lex_refine",
}

# Input validation called by every layer; its cost stays in the caller.
SKIP = {"as_matrix"}

IO_MATRIX = ("io.load_matrix", "io.save_matrix")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    job: int


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.job = -1
        self._job_spans = {}  # job id -> (first, end) index range in spans
        self._stack = []
        self._saved = []  # (module, attribute, original)
        self._modules = [importlib.import_module(f"amsal.{m}") for m in LAYERS]

    # -- installation -------------------------------------------------

    def _span_name(self, fn):
        layer = fn.__module__.rpartition(".")[2]
        return PRIVATE.get((layer, fn.__name__), f"{layer}.{fn.__name__}")

    def _traceable(self, fn):
        if not isinstance(fn, types.FunctionType):
            return False
        layer = fn.__module__.rpartition(".")[2]
        if fn.__module__ != f"amsal.{layer}" or layer not in LAYERS:
            return False
        if fn.__name__ in SKIP:
            return False
        return not fn.__name__.startswith("_") or (layer, fn.__name__) in PRIVATE

    def install(self):
        wrappers = {}
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                if not self._traceable(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, fn):
        name = self._span_name(fn)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = Span(name, clock(), 0.0, parent, self.job)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    # -- jobs -----------------------------------------------------------

    def run_job(self, job, fn):
        """Run fn() under a root span named "job"; returns fn's result."""
        self.job = job
        self.counts = defaultdict(float)
        index = len(self.spans)
        root = Span("job", time.perf_counter(), 0.0, -1, job)
        self.spans.append(root)
        self._stack.append(index)
        try:
            return fn()
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            self._job_spans[job] = (index, len(self.spans))

    def job_metrics(self, job):
        """Per-layer metrics of one finished job, from its spans and counts."""
        first, end = self._job_spans[job]
        spans = list(enumerate(self.spans[first:end], start=first))
        child_time = defaultdict(float)
        for _, s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_by_name = defaultdict(float)
        job_s = 0.0
        for i, s in spans:
            duration = s.end - s.start
            if s.name == "job":
                job_s = duration
            busy[s.name] += duration
            calls[s.name] += 1
            self_by_name[s.name] += duration - child_time[i]

        def layer_sum(table, layer, exclude=()):
            return sum(v for k, v in table.items()
                       if k.split(".")[0] == layer and k not in exclude)

        out = {}
        solve_calls = calls["assignment.solve_assignment"]
        solve_busy = busy["assignment.solve_assignment"]
        out["assignment.solve_assignment.calls"] = solve_calls
        out["assignment.solve_assignment.busy_s"] = solve_busy
        out["assignment.solve_assignment.s_per_call"] = solve_busy / solve_calls if solve_calls else 0.0
        out["assignment.lap.busy_s"] = busy["assignment.lap"]
        out["assignment.lex_refine.busy_s"] = busy["assignment.lex_refine"]
        out["assignment.lap_cost_bytes"] = self.counts["assignment.lap_cost_bytes"]
        out["assignment.score_matrix.busy_s"] = busy["assignment.score_matrix"]
        steps = calls["driver.am_iterate"]
        out["driver.am_iterate.calls"] = steps
        out["driver.useful_iter_ratio"] = self.counts["driver.useful_iters"] / steps if steps else 0.0
        out["driver.moved_inputs"] = self.counts["driver.moved_inputs"]
        out["driver.seeds_at_cap"] = self.counts["driver.seeds_at_cap"]
        out["driver.run_amsal.busy_s"] = busy["driver.run_amsal"]
        out["driver.run_amsal.self_s"] = self_by_name["driver.run_amsal"]
        out["driver.random_feasible_assignment.busy_s"] = busy["driver.random_feasible_assignment"]
        for fn in ("svd", "cross_covariance", "center_columns"):
            out[f"linalg.{fn}.calls"] = calls[f"linalg.{fn}"]
            out[f"linalg.{fn}.busy_s"] = busy[f"linalg.{fn}"]
        out["removal.fit_logistic_probe.calls"] = calls["removal.fit_logistic_probe"]
        out["removal.fit_logistic_probe.busy_s"] = busy["removal.fit_logistic_probe"]
        out["removal.fit_inlp.busy_s"] = busy["removal.fit_inlp"]
        out["removal.fit_inlp.rounds"] = self.counts["removal.fit_inlp.rounds"]
        out["removal.fit_sal.busy_s"] = busy["removal.fit_sal"]
        out["removal.apply_eraser.busy_s"] = busy["removal.apply_eraser"]
        for name in IO_MATRIX:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.bytes"] = self.counts[f"{name}.bytes"]
        # self time, so load_assignment -> load_labels is not counted twice
        out["io.save_other.busy_s"] = layer_sum(
            self_by_name, "io", exclude=IO_MATRIX + ("io.run_pipeline",))
        out["io.run_pipeline.self_s"] = self_by_name["io.run_pipeline"]
        out["cli.main.self_s"] = self_by_name["cli.main"]
        out["metrics.busy_s"] = layer_sum(busy, "metrics")
        for layer in LAYERS:
            if layer != "metrics":
                out[f"{layer}.self_s"] = layer_sum(self_by_name, layer)
        out["trace.job_s"] = job_s
        out["trace.unattributed_s"] = self_by_name["job"]
        return out


# -- observers: counts taken from a call's arguments and result ---------

def _solve_assignment(counts, args, result):
    s, records = args[0], args[1]
    n = s.shape[0]
    slots = int(np.minimum(records.upper_bounds, n).sum())
    # computed, not measured: the dense (slots x slots) float64 LAP cost matrix
    counts["assignment.lap_cost_bytes"] = max(
        counts["assignment.lap_cost_bytes"], float(slots * slots * 8))


def _am_iterate(counts, args, result):
    old_map, new_map = args[2].map, result[0].map
    moved = int(np.count_nonzero(old_map != new_map))
    counts["driver.moved_inputs"] += moved
    counts["driver.useful_iters"] += 1 if moved else 0


def _run_amsal(counts, args, result):
    cfg = args[2]
    per_seed = defaultdict(list)
    for row in result.trace.rows:
        per_seed[row.seed].append(row.assignment_hash)
    for hashes in per_seed.values():
        reached_fixed_point = len(hashes) >= 2 and hashes[-1] == hashes[-2]
        if len(hashes) >= cfg.max_iterations and not reached_fixed_point:
            counts["driver.seeds_at_cap"] += 1


def _fit_inlp(counts, args, result):
    counts["removal.fit_inlp.rounds"] += result.iterations


def _load_matrix(counts, args, result):
    counts["io.load_matrix.bytes"] += os.path.getsize(args[0])


def _save_matrix(counts, args, result):
    counts["io.save_matrix.bytes"] += os.path.getsize(args[1])


OBSERVERS = {
    "assignment.solve_assignment": _solve_assignment,
    "driver.am_iterate": _am_iterate,
    "driver.run_amsal": _run_amsal,
    "removal.fit_inlp": _fit_inlp,
    "io.load_matrix": _load_matrix,
    "io.save_matrix": _save_matrix,
}
