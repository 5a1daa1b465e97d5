"""The benchmark's per-layer call counters and imports name capic objects that exist.

The benchmark tracer looks each ``<layer>.<fn>.calls`` function up with
``getattr`` on ``capic.<layer>``, and the benchmark's modules import
names from capic, so renaming or deleting one breaks every benchmark run.
"""

import ast
import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"


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
