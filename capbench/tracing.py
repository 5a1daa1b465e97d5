"""Spans around capic's public functions, recorded from outside the package.

The tracer replaces each timed function with a wrapper in every capic
and benchmark module that binds it (``capic.model.forward`` as well as
``capic.neural.forward``), so calls between capic modules are seen too.
Spans are kept in memory as tuples and written out once the run ends.
A layer's self time is its span's duration minus the durations of its
direct child spans; the program is single-threaded, so children nest.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: The public functions timed per layer (``errors`` and ``cli`` have no
#: timed work).
TIMED = {
    "experiment": ("run_experiment", "build_dataset", "read_pmf_csv"),
    "datasets": ("load_csv", "one_hot_encode"),
    "oracles": ("bsc_sample",),
    "neural": ("train_ca_nn", "forward", "backward"),
    "objective": ("pic_loss",),
    "linalg": ("eig_sym", "svd", "inv_sqrt_psd"),
    "whitening": ("fit_whitening", "apply_whitening"),
    "model": ("fit_ca_nn_model", "save_model"),
    "classical": ("contingency_from_pmf", "ca_decompose"),
    "reconstitution": ("from_cann", "classify"),
    "factor_plane": ("export_factor_plane", "plane_to_csv"),
    "fileio": ("write_text_atomic",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TIMED.items() for fn in fns)


def _gemm_flops(widths, n, backward):
    """Multiply-add count (x2) of the MLP's matrix products on n samples.

    Forward does one product per layer; backward does the weight
    gradient for every layer and the delta product for all but the
    first.  Bias adds and activations are not counted.
    """
    pairs = list(zip(widths[:-1], widths[1:]))
    flops = sum(2 * fan_in * fan_out * n for fan_in, fan_out in pairs)
    if backward:
        flops += sum(2 * fan_in * fan_out * n for fan_in, fan_out in pairs[1:])
    return flops


class Tracer:
    """Records spans of the timed functions while installed.

    Each span is ``(name, start, end, parent, op)``: ``parent`` is the
    index of the enclosing span or -1, ``op`` the operation it belongs
    to.  ``flops`` and ``bytes_written`` are counted at the same
    boundaries.
    """

    def __init__(self):
        self.spans = []
        self.flops = defaultdict(int)
        self.bytes_written = defaultdict(int)
        self._stack = []
        self._patched = []
        self._op = -1

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        if name in ("neural.forward", "neural.backward"):
            backward = name == "neural.backward"

            def count(args):
                params, batch = args[0], args[1]
                n = batch.x.shape[1] if backward else batch.shape[1]
                self.flops[self._op] += _gemm_flops(params.config.layer_widths, n, backward)
        elif name == "fileio.write_text_atomic":
            def count(args):
                self.bytes_written[self._op] += len(args[1])
        else:
            count = None

        def wrapper(*args, **kwargs):
            if count is not None:
                count(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self._op)
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, op):
        """Wrap every timed function for operation ``op``."""
        self._op = op
        modules = [
            m for key, m in list(sys.modules.items())
            if key.split(".")[0] in ("capic", "capbench")
        ]
        for layer, fns in TIMED.items():
            home = sys.modules[f"capic.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def op_summary(self, op):
        """Per-name calls and self time, plus training-step figures, of one op."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        train_s = 0.0
        steps = 0
        for name, start, end, parent, span_op in self.spans:
            if span_op != op:
                continue
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                parent_span = self.spans[parent]
                self_s[parent_span[0]] -= end - start
                if name == "objective.pic_loss" and parent_span[0] == "neural.train_ca_nn":
                    steps += 1
            if name == "neural.train_ca_nn":
                train_s += end - start
        return {
            "calls": calls,
            "self_s": self_s,
            "steps": steps,
            "step_ms": 1000.0 * train_s / steps if steps else 0.0,
            "gflop": self.flops[op] / 1e9,
            "bytes": self.bytes_written[op],
        }

    def write(self, path):
        """Write the spans as JSON lines, one per span."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end,
                }) + "\n")
