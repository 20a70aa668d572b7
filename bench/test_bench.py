"""Tests of the benchmark itself, at the smallest input sizes.

Run with ``python -m pytest bench``.  Each run is a child process, as the
benchmark is used.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace=0, cwd=ROOT):
    """Run one tiny workload; return (report line, result line) as dicts."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


def assert_metrics(printed, declared):
    for metric in declared:
        assert printed[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed[metric["name"]]["value"], float), metric["name"]
    assert set(printed) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digests(workload):
    report, result = bench(workload, seed=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert report["metrics"]["failed_share"] == {"value": 0.0, "unit": "ratio"}
    assert report["latency_samples"] >= 1 and 50 <= report["latency_tail_percentile"] < 100

    again, _ = bench(workload, seed=1)
    other, _ = bench(workload, seed=2)
    assert again["digest"] == report["digest"]
    assert other["digest"] != report["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    report, result = bench(workload, seed=1, trace=1)
    assert result["correct"]
    assert_metrics(result["metrics"], SPEC["per_layer"])
    assert (ROOT / report["trace_file"]).is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
