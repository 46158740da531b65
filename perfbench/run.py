"""vsrkit benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload vsr-gemm --seed 1 --seconds 25 --trace 0

Run from anywhere; the vsrkit sources are taken from ``src/`` next to this
directory. Inputs are generated from ``--seed`` into ``.perfbench/`` at
the repository root and removed afterwards; traced runs leave their spans
in ``.perfbench/traces/``. Every measurement runs in a fresh process
(worker.py). The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (fps, setup_s, peak_rss_mb,
success_rate). ``--trace 1`` runs the workload once untraced and once
with the public vsrkit functions wrapped, and reports the per-layer
metrics plus the tracing overhead. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench")

# every run, checks included, must end well inside three minutes
DEADLINE_S = 170.0

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    """A measurement process failed; no result is printed."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy is imported here or in any child.

    On a shared two-core machine a second BLAS thread makes every matmul
    wait for the slower core, which tripled the run-to-run spread of fps
    on vsr-gemm for about 5% more throughput.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def blas_record() -> dict:
    """BLAS vendor from numpy's build record; thread count as the loaded
    OpenBLAS reports it, else as the environment requests it."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = int(os.environ["OPENBLAS_NUM_THREADS"]), "environment"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads, source = fn(), sym
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "threads_source": source}


def environment() -> dict:
    import numpy as np
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas_record(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def spawn(mode: str, workload: str, work: str, deadline: float,
          *extra: str) -> dict:
    """Run worker.py in a fresh process and return its JSON report."""
    t0 = monotonic()
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--work", work, "--t0", repr(t0), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} ran past the "
                         f"{DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited with "
                         f"{proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process for {workload} printed no report")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    from workloads import SETUP_SAMPLES, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "vsrkit", "__init__.py")):
        print(f"perfbench: no vsrkit sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, SRC)
    from fixtures import write_inputs

    spec = WORKLOADS[args.workload]
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        os.makedirs(work)
        write_inputs(spec, args.seed, work)
        env = environment()
        reports = []
        if not args.trace:
            setups = [spawn("setup", args.workload, work, deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
        main_run = spawn("run", args.workload, work, deadline,
                         "--seconds", str(args.seconds))
        reports += [main_run, spawn("check", args.workload, work, deadline)]
        if args.trace:
            trace_path = os.path.join(
                OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            traced = spawn("run", args.workload, work, deadline,
                           "--seconds", str(args.seconds),
                           "--trace", trace_path)
            reports.append(traced)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    errors = [e for r in reports for e in r.get("errors", [])]
    if args.trace and spec["kind"] == "eval" and \
            main_run["values"] != traced["values"]:
        attempted += 1
        failed += 1
        errors.append("metric values differ between two processes on the "
                      "same input")
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)

    if args.trace:
        metrics = {k: metric(v, u) for k, (v, u) in traced["metrics"].items()}
        metrics["trace.overhead_frac"] = metric(
            main_run["fps"] / traced["fps"] - 1.0
            if traced["fps"] > 0 else 0.0, "ratio")
        if traced["absent"]:
            print("perfbench: absent spans: " + ", ".join(traced["absent"]),
                  file=sys.stderr)
    else:
        metrics = {
            "fps": metric(main_run["fps"], "frame/s"),
            "setup_s": metric(statistics.median(
                [r["setup_s"] for r in setups + [main_run]]), "s"),
            "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
            "success_rate": metric(1.0 - failed / attempted, "ratio"),
        }
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
