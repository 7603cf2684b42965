"""Smoke test of the benchmark at tiny sizes.

Checks the shape of the printed result and of the result files, and that
every metric BENCHMARK.json names is reported.  It asserts no timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(tmp_path, trace):
    p = _run(ROOT, "--workload", "all", "--seed", "5", "--seconds", "1",
             "--trace", str(trace), "--tiny", "--out", str(tmp_path))
    assert p.returncode == 0, p.stderr

    last = json.loads(p.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert set(last["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}

    for w in WORKLOADS:
        result = json.loads((tmp_path / f"BENCH_{w}_seed5_trace{trace}.json").read_text())
        assert result["seed"] == 5 and result["workload"] == w
        assert {"python", "cpu_count", "git_revision", "source_sha256"} <= set(result["environment"])
        for name in names:
            metric = result["metrics"][name]
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float))
        if trace:
            header, fields = spans.read_spans(tmp_path / f"SPANS_{w}_seed5.gz")
            assert header["count"] == result["spans"] > 0
            assert all(len(column) == header["count"] for column in fields.values())
        else:
            assert result["ops_failed_ratio"] == 0
            assert result["tail_samples"] == result["attempted"]
            assert 0 < result["tail_percentile"] <= 100


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout == ""
