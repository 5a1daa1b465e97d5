"""The benchmark at toy size: every metric is emitted with its unit."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
ENVIRONMENT_KEYS = {
    "python", "numpy", "blas_name", "blas_version", "blas_runtime_config",
    "blas_threads_pinned", "blas_threads_verified", "nproc",
}


def run_bench(cwd, workload, trace, work_dir, *extra):
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--work-dir", str(work_dir), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_emits_every_metric(tmp_path, workload, trace):
    proc = run_bench(ROOT, workload, trace, tmp_path, "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    record = json.loads(
        (tmp_path / "results" / f"{workload}-seed3-trace{trace}.json").read_text()
    )
    assert set(record["environment"]) == ENVIRONMENT_KEYS
    assert record["environment"]["blas_threads_pinned"] == 1
    assert record["error_rate"] == 0
    if trace:
        spans = (tmp_path / "results" / f"{workload}-seed3-trace1.spans.jsonl").read_text()
        assert spans.count("\n") > 0


def test_traced_run_sees_calls_between_modules(tmp_path):
    proc = run_bench(ROOT, "bsc5-full", 1, tmp_path, "--toy")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    # run_experiment is called from the benchmark, forward from capic.model
    # and capic.experiment, eig_sym from capic.objective and capic.whitening.
    assert metrics["experiment.run_experiment.calls"]["value"] == 1
    assert metrics["model.fit_ca_nn_model.calls"]["value"] == 1
    assert metrics["neural.forward.calls"]["value"] > 2 * metrics["neural.steps"]["value"]
    assert metrics["linalg.eig_sym.calls"]["value"] > 2 * metrics["neural.steps"]["value"]
    assert metrics["neural.gflop"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "capbench", tmp_path / "capbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, tmp_path / "work")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
