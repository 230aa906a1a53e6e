#!/usr/bin/env python3
"""amsal benchmark: closed-loop batch jobs with correctness checks.

    python3 bench/run.py --workload align-binary --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all --seed 1                  # every workload, both modes
    python3 bench/run.py --smoke --all                   # tiny sizes, a few seconds
    python3 bench/run.py --write-spec                    # regenerate BENCHMARK.json

One process runs one job at a time (closed loop, one client) on the
inputs planted from --seed, for --seconds seconds, with BLAS limited to
the cores the process may use. Every job's files are checked; a failed
check counts as a failed job. With --trace 0 the end-to-end metrics are
printed; with --trace 1 each job runs once plain and once with spans
around every public amsal function, and the per-layer metrics are
printed. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. A fuller record
(environment, per-instance counts and artifact SHA-256s) is written to
bench/results/. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MAX_ERRORS_KEPT = 5
TRACE_SHARE = 4  # a traced run uses 1/TRACE_SHARE of the instances

import spec  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    p.add_argument("--all", action="store_true", help="run every workload, trace off and on")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"measuring time per run (default {spec.RUN_SECONDS}, 1 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not (args.workload or args.all or args.write_spec):
        p.error("one of --workload, --all or --write-spec is required")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec.RUN_SECONDS)
    return args


def limit_blas_threads():
    """Cap BLAS/OpenMP threads at the cores this process may run on."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = cores
        os.environ[var] = str(max(1, min(current, cores)))


def import_library():
    """Import amsal from this checkout's src/ (never an installed copy)."""
    if not (SRC / "amsal" / "__init__.py").is_file():
        raise SystemExit(f"error: no amsal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import amsal

    if Path(amsal.__file__).resolve().parent != (SRC / "amsal").resolve():
        raise SystemExit(f"error: imported amsal from {amsal.__file__}, not {SRC}")


def blas_info(np):
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(np, scipy, workload, size, seed):
    return {
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "size": {"n": size.n, "d": size.d, "instances": size.instances},
    }


class Run:
    """One benchmark run: instances, the job loop, checks and results."""

    def __init__(self, workload, instances, tracer=None):
        self.workload = workload
        self.instances = instances
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = defaultdict(list)  # instance -> plain job seconds
        self.traced_times = defaultdict(list)  # instance -> traced job seconds
        self.layers = defaultdict(list)  # instance -> per-job layer metrics
        self.counts = {}  # instance -> deterministic counts of its first traced job

    def job(self, k, traced=False):
        inst = self.instances[k]
        self.attempted += 1
        problems = []
        start = time.perf_counter()
        try:
            if traced:
                self.tracer.install()
                try:
                    self.tracer.run_job(self.attempted, lambda: self.workload.job(inst))
                finally:
                    self.tracer.uninstall()
            else:
                self.workload.job(inst)
        except Exception as exc:  # a failed job is counted, not fatal
            problems.append(f"job raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if not problems:
            problems = self.check(k)
        if traced and not problems:
            layer = self.tracer.job_metrics(self.attempted)
            counts = {name: layer[name] for name in spec.DETERMINISTIC}
            first = self.counts.setdefault(k, counts)
            if counts != first:
                problems.append(f"counts differ from this instance's first traced job: {counts}")
            self.layers[k].append(layer)
        if problems:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append({"instance": k, "problems": problems})
        return elapsed

    def check(self, k):
        inst = self.instances[k]
        try:
            problems, erased = self.workload.check(inst)
            digest = self.workload.digest(inst)
            if inst.digest is None:
                inst.digest = digest
                inst.quality = self.workload.score(inst, erased)
            elif digest != inst.digest:
                problems.append("artifacts differ from this instance's first job")
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        return problems

    def loop(self, seconds, trace):
        """Cycle over the instances until `seconds` pass, at least once each.

        A traced run cycles over the first quarter of the instances only,
        running each job plain and then traced, so every instance is
        traced several times and its counts can be compared.
        """
        self.job(0)  # warm-up: lazy imports and first-call costs, untimed
        cycle = max(1, len(self.instances) // TRACE_SHARE) if trace else len(self.instances)
        k = 0
        deadline = time.perf_counter() + seconds
        while k < cycle or time.perf_counter() < deadline:
            i = k % cycle
            self.times[i].append(self.job(i))
            if trace:
                self.traced_times[i].append(self.job(i, traced=True))
            k += 1

    def job_s(self, table):
        """Each instance's median job time, averaged over the instances, so
        the mix of instances is the same on every commit."""
        return statistics.fmean(statistics.median(v) for v in table.values())


def end_to_end(run, size, setup_s):
    job_s = run.job_s(run.times)
    quality = [inst.quality for inst in run.instances if inst.quality]
    metrics = {
        "job_s": job_s,
        "rows_per_s": size.n / job_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {}
    for key in ("objective", "task_accuracy", "guarded_probe_accuracy",
                "alignment_accuracy", "guarded_leakage"):
        value = statistics.fmean(q[key] for q in quality) if quality else 0.0
        (metrics if key in spec.units(0) else extra)[key] = value
    return metrics, extra


def per_layer(run):
    names = [name for name in spec.units(1) if name != "trace.overhead_s"]
    metrics = {
        name: statistics.fmean(
            statistics.fmean(job[name] for job in jobs) for jobs in run.layers.values()
        ) if run.layers else 0.0
        for name in names
    }
    traced = run.traced_times
    metrics["trace.overhead_s"] = (
        run.job_s(traced) - run.job_s({k: run.times[k] for k in traced}) if traced else 0.0
    )
    return metrics


def run_workload(args):
    import numpy as np
    import scipy

    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - T0
    workload = workloads.WORKLOADS[args.workload]
    size = workload.smoke_size if args.smoke else workload.size
    index = [w for w, _ in spec.WORKLOADS].index(args.workload)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        gen_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            streams = np.random.SeedSequence([args.seed, index]).spawn(size.instances)
            instances = [
                workload.make(work / f"i{k:03d}", np.random.default_rng(s), size)
                for k, s in enumerate(streams)
            ]
            gen_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(gen_times)

        run = Run(workload, instances, Tracer() if args.trace else None)
        run.loop(args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(run), {}
    else:
        metrics, extra = end_to_end(run, size, setup_s)
    units = spec.units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match spec")

    env = environment(np, scipy, args.workload, size, args.seed)
    record = {
        "environment": env,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_s": {"import_s": import_s, "generate_s": gen_times},
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "errors": run.errors,
        "metrics": metrics,
        "extra": extra,
        "instances": [
            {"artifacts_sha256": inst.digest, "quality": inst.quality,
             "job_s": run.times.get(k), "traced_job_s": run.traced_times.get(k),
             "counts": run.counts.get(k)}
            for k, inst in enumerate(instances)
        ],
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")
    if run.tracer:
        spans = [[s.name, s.start, s.end, s.parent, s.job] for s in run.tracer.spans]
        out.with_suffix(".spans.json").write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent", "job"], "spans": spans}))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={env['size']}")
    print(f"# environment: {json.dumps(env)}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:42s} {value:>16.6g} fraction")
    print(f"{'error_rate':42s} {run.failed / run.attempted:>16.6g} fraction"
          f"  ({run.failed} of {run.attempted} jobs failed)")
    for err in run.errors:
        print(f"# failure: {err}")
    digests = "".join(inst.digest or "-" for inst in instances)
    print(f"# artifacts sha256 (all instances): {hashlib.sha256(digests.encode()).hexdigest()}")
    print(f"# record: {out.relative_to(ROOT)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    for name, _ in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            if proc.returncode != 0 or not json.loads(last[0]).get("correct"):
                status = 1
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
        return 0
    if args.all:
        return run_all(args)
    limit_blas_threads()
    import_library()
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
