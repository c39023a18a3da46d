"""Smoke run of the benchmark: all three workloads at tiny size.

    python3 -m pytest perfbench

Checks that every named metric prints with its unit, that no check fails,
that BENCHMARK.json names the same workloads and metrics as run.py, and that
the command fails without printing a result when the sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(root: Path, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_and_fails_nothing(workload, trace):
    proc = bench(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == (run.PER_LAYER if trace else run.END_TO_END)
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stderr
    assert result["correct"], proc.stderr


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_sources():
    bare = HERE.parent / ".bench_build" / "perfbench" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = bench(bare, "--workload", "jet-poisson", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
