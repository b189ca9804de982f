"""Benchmark of the pentagram package: three workloads, run in one process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` beside this directory; without it the
command exits 2.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` the run measures half its
time untraced and half with spans around the package's public functions,
and reports the per-layer metrics and the tracing overhead instead.  Span
files and per-run results go to ``.perfbench/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-ups per run, all before the timed loop: after it the larger heap makes
# imports slower, which would split the median between two modes.
SETUP_REPEATS = 15
BLOCK = 4  # ops per block in the ops_per_s median


def import_package() -> SimpleNamespace:
    """Import pentagram afresh from SRC (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "pentagram" or n.startswith("pentagram.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("pentagram")
    if Path(pkg.__file__).resolve().parent != SRC / "pentagram":
        raise ImportError(f"pentagram imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"pentagram.{layer}") for layer in LAYERS})


def measure(workload, seconds: float, first: int, tracer: Tracer | None = None):
    """Run ops back to back (closed loop, one client) for `seconds`.

    Returns per-op wall and CPU seconds, check failures and failed ops.
    """
    latencies, cpus, errors, failed = [], [], [], 0
    i = first
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if tracer:
            tracer.op = i
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = workload.op(i)
        except Exception:
            failed += 1
            print(f"op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            out = None
        t1, c1 = time.perf_counter(), time.process_time()
        latencies.append(t1 - t0)
        cpus.append(c1 - c0)
        if out is not None:
            errors += workload.check(i, out)
        i += 1
    return latencies, cpus, errors, failed


def throughput(latencies: list[float]) -> float:
    """Median over blocks of BLOCK consecutive ops of their ops per second.

    A median, not total ops over total time, so that a contention burst on a
    shared host (seen to double op times for ten seconds) moves it no more
    than it moves the median latency.
    """
    blocks = [latencies[i:i + BLOCK] for i in range(0, len(latencies), BLOCK)]
    return statistics.median(len(b) / sum(b) for b in blocks)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pentagram" / "__init__.py").is_file():
        print(f"error: no pentagram package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("PENTAGRAM_THREADS", None)  # one sweep worker
    sys.path.insert(0, str(SRC))
    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch: Path) -> int:
    kind = WORKLOADS[args.workload]
    prepared = kind.prepare(args.seed, scratch)
    setup = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # drop the previous import's modules, as a fresh process has none
        t0 = time.perf_counter()
        workload = kind(import_package(), args.seed, scratch, prepared)
        setup.append(time.perf_counter() - t0)

    errors = []
    for i in range(workload.warmup):
        errors += workload.check(i, workload.op(i))

    if args.trace:
        plain, _, errs, failed = measure(workload, args.seconds / 2, workload.warmup)
        tracer = Tracer()
        tracer.install()
        try:
            latencies, _, more, more_failed = measure(workload, args.seconds / 2, workload.warmup + len(plain), tracer)
        finally:
            tracer.uninstall()
        errs, failed, attempted = errs + more, failed + more_failed, len(plain) + len(latencies)
        metrics = tracer.layer_metrics(len(latencies), SRC)
        metrics["trace.ops_per_s_ratio"] = (throughput(latencies) / throughput(plain), "ratio")
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        latencies, cpus, errs, failed = measure(workload, args.seconds, workload.warmup)
        attempted = len(latencies)
        metrics = {
            "ops_per_s": (throughput(latencies), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "cpu_ms_per_op": (1e3 * statistics.median(cpus), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    errors += errs
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "setup_s": setup, "latencies_s": latencies, "environment": environment()}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
