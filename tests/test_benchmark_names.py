"""The benchmark's per-layer call counters and imports name capic objects that exist,
and every benchmark workload runs and checks at toy size.

The benchmark tracer looks each ``<layer>.<fn>.calls`` function up with
``getattr`` on ``capic.<layer>``, and the benchmark's modules import
names from capic, so renaming or deleting one breaks every benchmark run.
The workloads also read dataset attributes and call capic functions
that no import names, so each one runs here once, end to end.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]


def test_every_traced_function_resolves():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = [name.split(".")[:2] for name in metrics if name.endswith(".calls")]
    assert traced
    missing = [
        f"capic.{layer}.{fn}" for layer, fn in traced
        if not callable(getattr(importlib.import_module(f"capic.{layer}"), fn, None))
    ]
    assert missing == []


def test_every_name_the_benchmark_imports_resolves():
    imported = [
        (node.module, alias.name)
        for path in sorted((ROOT / "capbench").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "capic"
        for alias in node.names
    ]
    assert ("capic.reconstitution", "from_cann") in imported
    missing = [
        f"{module}.{name}" for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_runs_and_checks_at_toy_size(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT))  # as the benchmark's runner imports its workloads
    workload = importlib.import_module("capbench.workloads").TOY[name]
    inputs = workload.setup(1, tmp_path)
    workload.check(inputs, workload.operate(inputs))
