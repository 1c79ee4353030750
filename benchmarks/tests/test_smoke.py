"""Smoke-size runs of every workload through ``run.py``, as the benchmark
is run, with one trial per check."""
import json
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECT = json.loads((ROOT / "benchmarks" / "expect.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = run(workload, 0)
    metrics = result_of(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in metrics.values())
    assert "\nfail_share 0 share" in proc.stdout
    if workload == "suite":
        assert "suite report sha256 " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_predictions(workload):
    metrics = {k: v["value"] for k, v in result_of(run(workload, 1))["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    predicted = EXPECT["predictions"][workload]
    assert [n for n in predicted["zero"] if metrics[n] != 0] == []
    assert [n for n in predicted["nonzero"] if metrics[n] <= 0] == []


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("spectral", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
