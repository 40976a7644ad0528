"""Seconds-long runs of the real command: output shape, oracle, files."""

import json
import shutil
import subprocess
import sys

import pytest

import procs
import run

CONTRACT = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = 2


def _run(workload, trace, cwd=procs.ROOT, script=procs.HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def _check(answer, listed):
    assert answer.returncode == 0, answer.stdout + answer.stderr
    result = json.loads(answer.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_run(workload):
    result = _check(_run(workload, 0), CONTRACT["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    report = json.loads(
        (procs.OUT_DIR / f"report-{workload}.json").read_text())
    assert report["mode"] == "smoke"
    assert report["environment"]["blas_threads"] == {
        name: "1" for name in procs.BLAS_VARIABLES}
    assert report["environment"]["seed"] == 3


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_only_listed_layers(workload):
    _check(_run(workload, 1), CONTRACT["per_layer"])
    report = json.loads(
        (procs.OUT_DIR / f"report-{workload}.json").read_text())
    listed = {m["name"] for m in CONTRACT["end_to_end"]
              + CONTRACT["per_layer"]}
    assert set(report["measured"]) <= listed
    trace = json.loads(
        (procs.OUT_DIR / f"trace-{workload}.json").read_text())
    assert trace["meta"]["workload"] == workload and trace["spans"]
    assert all(row["end"] >= row["start"] for row in trace["spans"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(procs.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(procs.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".cache", "out",
                                                  "__pycache__"))
    answer = _run("index_bulk", 0, cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert answer.returncode != 0
    assert answer.stdout.strip() == ""
