"""The benchmark's own test: tiny runs must emit every metric of the spec.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [name for name, _ in spec.WORKLOADS])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(["--smoke", "--workload", workload, "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec.units(trace)
    if trace:
        calls = result["metrics"]["assignment.solve_assignment.calls"]["value"]
        assert (calls == 0) == (workload == "erase-csv")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "align-binary", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
