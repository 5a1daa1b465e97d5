"""Run one capic benchmark workload and print its metrics.

Usage, from the repository root::

    python3 capbench/run.py --workload bsc5-full --seed 1 --seconds 30 --trace 0

The workload runs in this one process as a closed loop with a single
client: one operation at a time, the next started when the previous one
has returned and been checked, until the next one would end after
``--seconds``.  At least one operation always runs.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall
time of one operation), ``setup_s`` (importing capic plus the median of
three input generations) and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones (medians over traced operations), together with the
tracing overhead: the traced median ``wall_s`` minus the untraced one.

The BLAS thread count is pinned before numpy is imported; the run
refuses to start if the BLAS library reports another count.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it and the
results file under ``.capbench_work/results`` give the environment and
every sample.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOADS = ("bsc5-full", "wine-mb64", "pmf-svd")


class BenchError(Exception):
    """The benchmark cannot run in this environment."""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--toy", action="store_true",
                    help="run the workload at toy size (for the smoke test)")
    ap.add_argument("--work-dir", type=Path, default=ROOT / ".capbench_work",
                    help="where inputs, outputs, spans and results are written")
    return ap.parse_args(argv)


def _pin_blas():
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def _import_capic():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        import capic
    except ImportError as exc:
        raise BenchError(f"cannot import capic from {ROOT / 'src'}: {exc}") from exc
    if not Path(capic.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"capic was imported from {capic.__file__}, not from this checkout")


def _openblas_runtime():
    """``(config, threads)`` reported by numpy's bundled OpenBLAS, or None."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    try:
        get_config = lib.scipy_openblas_get_config64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except AttributeError:
        return None
    get_config.restype = ctypes.c_char_p
    get_threads.restype = ctypes.c_int
    return get_config().decode(), int(get_threads())


def _environment():
    """Versions and thread settings; refuses a BLAS that ignored the pin."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _openblas_runtime()
    if runtime is not None and runtime[1] != BLAS_THREADS:
        raise BenchError(
            f"BLAS runs {runtime[1]} threads but the benchmark pinned {BLAS_THREADS}"
        )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": runtime[0] if runtime else None,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_verified": runtime is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_ops(workload, inputs, seconds, tracer):
    """Closed loop of operations; every other one is traced when ``tracer`` is set."""
    from capbench.workloads import CheckFailed

    walls, traced_walls, gaps, summaries = [], [], [], []
    failed = 0
    op = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and op % 2 == 1
        if traced:
            tracer.install(op)
        t0 = time.perf_counter()
        try:
            out = workload.operate(inputs)
        except Exception:  # a failed operation is counted, not fatal
            out = None
            traceback.print_exc()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        (traced_walls if traced else walls).append(wall)
        if out is None:
            failed += 1
        else:
            try:
                gaps.append(workload.check(inputs, out))
            except CheckFailed as exc:
                failed += 1
                print(f"check failed on operation {op}: {exc}", file=sys.stderr)
        if traced:
            summaries.append(tracer.op_summary(op))
        op += 1
        elapsed = time.perf_counter() - start
        predicted = statistics.median(walls + traced_walls)
        enough = tracer is None or traced_walls
        if enough and elapsed + predicted > seconds:
            return walls, traced_walls, gaps, summaries, failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(summaries, gaps, walls, traced_walls):
    from capbench.tracing import SPAN_NAMES

    def med(key, name=None):
        return statistics.median(s[key] if name is None else s[key][name] for s in summaries)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = _metric(med("calls", name), "count")
        metrics[f"{name}.self_s"] = _metric(med("self_s", name), "s")
    metrics["neural.steps"] = _metric(med("steps"), "count")
    metrics["neural.step_ms"] = _metric(med("step_ms"), "ms")
    metrics["neural.gflop"] = _metric(med("gflop"), "GFLOP-computed")
    metrics["fileio.write_text_atomic.bytes"] = _metric(med("bytes"), "bytes")
    metrics["estimate.oracle_gap"] = _metric(statistics.median(gaps) if gaps else None, "1")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced_walls) - statistics.median(walls), "s"
    )
    return metrics


def main(argv=None):
    args = _parse(argv)
    t_import = time.perf_counter()
    try:
        _pin_blas()
        _import_capic()
        import_s = time.perf_counter() - t_import
        env = _environment()
    except BenchError as exc:
        print(f"capbench: {exc}", file=sys.stderr)
        return 1

    from capbench import workloads
    from capbench.tracing import Tracer

    workload = (workloads.TOY if args.toy else workloads.FULL)[args.workload]
    work = args.work_dir / args.workload
    work.mkdir(parents=True, exist_ok=True)
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, work)
        setup_samples.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_samples)

    tracer = Tracer() if args.trace else None
    walls, traced_walls, gaps, summaries, failed = _run_ops(
        workload, inputs, args.seconds, tracer
    )
    attempted = len(walls) + len(traced_walls)
    if tracer is None:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = _layer_metrics(summaries, gaps, walls, traced_walls)

    results = args.work_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "environment": env,
        "closed_loop_clients": 1, "import_s": import_s, "setup_samples_s": setup_samples,
        "wall_samples_s": walls, "traced_wall_samples_s": traced_walls,
        "oracle_gaps": gaps, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# samples: setup {len(setup_samples)}, untraced operations {len(walls)}, "
          f"traced operations {len(traced_walls)}; error_rate {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
