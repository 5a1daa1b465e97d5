"""The benchmark's per-layer call counters name capic functions that exist.

The benchmark tracer looks each ``<layer>.<fn>.calls`` function up with
``getattr`` on ``capic.<layer>``, so renaming or deleting one breaks
every traced run.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_every_traced_function_resolves():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = [name.split(".")[:2] for name in metrics if name.endswith(".calls")]
    assert traced
    missing = [
        f"capic.{layer}.{fn}" for layer, fn in traced
        if not callable(getattr(importlib.import_module(f"capic.{layer}"), fn, None))
    ]
    assert missing == []
