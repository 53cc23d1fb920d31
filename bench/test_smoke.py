"""Smoke test of the benchmark itself, with every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

For each workload: every metric BENCHMARK.json names is emitted (end-to-end
ones untraced, per-layer ones traced), no item fails, and another seed
changes the inputs but not the metric names. Without the library next to
it, the benchmark exits non-zero and prints no result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = {
    0: sorted(m["name"] for m in SPEC["end_to_end"]),
    1: sorted(m["name"] for m in SPEC["per_layer"]),
}


def run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(workload, seed, trace):
    out = run(ROOT, workload, seed, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    inputs = next(line.split()[1] for line in lines if line.startswith("inputs "))
    return json.loads(lines[-1]), inputs


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_tiny_size(workload):
    first, inputs_first = result(workload, 1, 0)
    other, inputs_other = result(workload, 2, 0)
    traced, _ = result(workload, 1, 1)
    for got, trace in ((first, 0), (other, 0), (traced, 1)):
        assert sorted(got) == ["attempted", "correct", "failed", "metrics"]
        assert got["attempted"] >= 1
        assert got["failed"] == 0 and got["correct"] is True
        assert sorted(got["metrics"]) == NAMES[trace]
    assert inputs_first != inputs_other


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, "classify", 1, 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
