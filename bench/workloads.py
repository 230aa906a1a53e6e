"""The three benchmark workloads: planted inputs, one job, its checks.

Each workload turns a seed into `instances` planted input sets written
to disk (set-up), runs one job per call on one of them (timed), and then
checks the job's files and scores its quality (untimed). The library is
reached only through its public modules: `amsal.io.run_pipeline` for the
align workloads and `amsal.cli.main` for erase-csv, exactly as a user
would call them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import amsal.cli as acli
import amsal.io as aio
from amsal.assignment import Assignment, GuardedRecords, bounds_from_priors
from amsal.linalg import center_columns, cross_covariance, singular_value_sum
from amsal.removal import probe_accuracy
from amsal.synthetic import LatentSpec, as_records, generate_latent, reference_records_spec

SLACK = 0.2


@dataclass(frozen=True)
class Size:
    n: int  # rows per instance
    d: int  # columns of x
    instances: int  # distinct planted inputs per run


@dataclass
class Instance:
    directory: Path
    n: int
    d: int
    guarded: np.ndarray  # true record / class id per row
    task: np.ndarray  # task class per row
    records: GuardedRecords
    digest: str | None = None  # SHA-256 of the first job's artifacts
    quality: dict = field(default_factory=dict)

    @property
    def out(self):
        return self.directory / "out"


def _write_labels(values, path):
    path.write_text("".join(f"{int(v)}\n" for v in values))


def _task_labels(x, exclude, rng):
    """A binary task read off a random direction orthogonal to the guarded
    state means, with label noise, so erasure should leave it learnable."""
    q = np.linalg.qr(exclude.T)[0]
    t = rng.standard_normal(x.shape[1])
    t -= q @ (q.T @ t)
    t /= np.linalg.norm(t)
    score = (x - x.mean(axis=0)) @ t
    return (score + 0.5 * rng.standard_normal(x.shape[0]) > 0).astype(np.int64)


def _guarded_scores(erased, guarded):
    """Probe accuracy for the guarded labels after erasure, and its excess
    over always answering the majority class."""
    acc = probe_accuracy(erased, guarded)
    return {"guarded_probe_accuracy": acc,
            "guarded_leakage": acc - np.bincount(guarded).max() / guarded.size}


def _parse_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = float(value)
    return out


class Workload:
    artifacts = ()  # names of the job's output files under Instance.out

    def __init__(self, name, size, smoke_size):
        self.name = name
        self.size = size
        self.smoke_size = smoke_size

    def digest(self, inst):
        """SHA-256 over the names and bytes of the job's artifacts."""
        h = hashlib.sha256()
        for name in self.artifacts:
            h.update(name.encode())
            h.update((inst.out / name).read_bytes())
        return h.hexdigest()


class AlignWorkload(Workload):
    """`run_pipeline` from a config file on planted inputs."""

    artifacts = ("assignment.csv", "eraser.bin", "report.txt", "trace.csv", "x_erased.bin")

    def __init__(self, name, size, smoke_size, spec):
        super().__init__(name, size, smoke_size)
        self._spec = spec

    def make(self, directory, rng, size):
        directory.mkdir(parents=True, exist_ok=True)
        data = generate_latent(self._spec(size, int(rng.integers(2**31))))
        records, truth = as_records(data, slack=SLACK)
        priors = truth.counts(records.m) / data.n
        task = _task_labels(data.x, data.state_means_x, rng)
        aio.save_matrix(data.x, directory / "x.bin")
        aio.save_matrix(records.z, directory / "z_records.bin")
        aio.save_assignment(truth, directory / "truth.csv")
        _write_labels(task, directory / "y.csv")
        (directory / "run.cfg").write_text(
            f"x = {directory / 'x.bin'}\n"
            f"records = {directory / 'z_records.bin'}\n"
            f"truth = {directory / 'truth.csv'}\n"
            f"y = {directory / 'y.csv'}\n"
            "y_kind = classification\n"
            f"priors = {','.join(repr(float(p)) for p in priors)}\n"
            f"slack = {SLACK}\n"
            "removal = sal\n"
            f"output_dir = {directory / 'out'}\n"
        )
        return Instance(directory, data.n, data.x.shape[1], truth.map, task, records)

    def job(self, inst):
        aio.run_pipeline(aio.PipelineConfig.from_file(inst.directory / "run.cfg"))

    def check(self, inst):
        """Problems with the job's files; empty when all checks pass."""
        problems = []
        pi = aio.load_assignment(inst.out / "assignment.csv")
        if pi.n != inst.n or not pi.satisfies(inst.records):
            problems.append("assignment violates the count bounds")
        eraser = aio.load_eraser(inst.out / "eraser.bin")
        if eraser.dim != inst.d:
            problems.append(f"eraser dimension {eraser.dim}, expected {inst.d}")
        erased = aio.load_matrix(inst.out / "x_erased.bin")  # rejects non-finite values
        if erased.shape != (inst.n, inst.d):
            problems.append(f"erased shape {erased.shape}, expected {(inst.n, inst.d)}")
        return problems, erased

    def score(self, inst, erased):
        report = _parse_report(inst.out / "report.txt")
        objectives = [
            float(line.split(",")[2])
            for line in (inst.out / "trace.csv").read_text().splitlines()[1:]
        ]
        return {
            # unsupervised selection keeps the largest objective
            "objective": max(objectives),
            "alignment_accuracy": report["alignment_accuracy"],
            "task_accuracy": report["task_accuracy"],
            **_guarded_scores(erased, inst.guarded),
        }


class EraseWorkload(Workload):
    """`amsal erase --method inlp --format csv` on CSV inputs with a given
    assignment: no assignment work, CSV in and out, and the INLP probe."""

    artifacts = ("eraser.bin", "x_erased.csv")

    def make(self, directory, rng, size):
        directory.mkdir(parents=True, exist_ok=True)
        n, d = size.n, size.d
        guarded = (rng.random(n) < 0.3).astype(np.int64)
        q = np.linalg.qr(rng.standard_normal((d, 1)))[0]
        x = rng.standard_normal((n, d)) + np.outer(2 * guarded - 1, 1.5 * q[:, 0])
        task = _task_labels(x, q.T, rng)
        aio.save_matrix(x, directory / "x.csv", fmt="csv")
        aio.save_assignment(Assignment(guarded), directory / "assignment.csv")
        lower, upper = bounds_from_priors(np.bincount(guarded, minlength=2) / n, n, SLACK)
        records = GuardedRecords(np.eye(2), lower, upper)
        return Instance(directory, n, d, guarded, task, records)

    def job(self, inst):
        argv = [
            "erase", "--method", "inlp", "--format", "csv",
            "--x", str(inst.directory / "x.csv"),
            "--assignment", str(inst.directory / "assignment.csv"),
            "--out", str(inst.out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = acli.main(argv)
        if code != 0:
            raise RuntimeError(f"amsal erase exited with code {code}")

    def check(self, inst):
        problems = []
        eraser = aio.load_eraser(inst.out / "eraser.bin")
        if eraser.dim != inst.d:
            problems.append(f"eraser dimension {eraser.dim}, expected {inst.d}")
        erased = aio.load_matrix(inst.out / "x_erased.csv")  # rejects non-finite values
        if erased.shape != (inst.n, inst.d):
            problems.append(f"erased shape {erased.shape}, expected {(inst.n, inst.d)}")
        return problems, erased

    def score(self, inst, erased):
        x = aio.load_matrix(inst.directory / "x.csv")
        x_c, _ = center_columns(x)
        z_c, _ = center_columns(inst.records.z)
        return {
            # the A-step objective of the given assignment (input, not output)
            "objective": singular_value_sum(cross_covariance(x_c, z_c, inst.guarded)),
            "alignment_accuracy": 1.0,  # the given assignment is the truth
            "task_accuracy": probe_accuracy(erased, inst.task),
            **_guarded_scores(erased, inst.guarded),
        }


def _binary_spec(size, seed):
    return reference_records_spec(n=size.n, rng_seed=seed)


def _multi_spec(size, seed):
    priors = np.arange(8, 0, -1, dtype=np.float64)
    return LatentSpec(
        n=size.n, d=size.d, d_prime=7, num_states=8,
        state_priors=tuple(priors / priors.sum()),
        x_noise=1.0, z_noise=0.0, separation=3.0, rng_seed=seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        AlignWorkload("align-binary", Size(n=300, d=8, instances=64),
                      Size(n=40, d=8, instances=2), _binary_spec),
        AlignWorkload("align-multi", Size(n=100, d=16, instances=32),
                      Size(n=48, d=16, instances=2), _multi_spec),
        EraseWorkload("erase-csv", Size(n=500, d=128, instances=12),
                      Size(n=60, d=16, instances=2)),
    )
}
