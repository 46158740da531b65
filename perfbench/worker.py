"""One benchmark measurement in a fresh process; started by run.py.

Modes:

* ``setup``: import vsrkit and make the workload ready to process its
  first frame, then report how long that took since ``--t0`` (a
  CLOCK_MONOTONIC reading the parent took just before starting this
  process).
* ``run``: set up, then process whole passes for ``--seconds`` the way
  ``vsrkit upscale`` / ``vsrkit eval`` do, checking every pass. With
  ``--trace FILE`` the public vsrkit functions are wrapped before set-up
  and the per-layer metrics are derived from the spans.
* ``check``: set up, then run the untimed cross-checks.

The last stdout line is one JSON object for the parent.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np
from vsrkit import frame_io, graph, metrics, model_io, pipeline

from workloads import CHECK_PREFIX, PIPELINE_TOL, WORKLOADS


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def rel_dev(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-6))


def setup(spec: dict, work: str):
    """What the workload needs before its first frame: a loaded (and,
    where configured, fused) bundle, or the perceptual distance."""
    if spec["kind"] == "vsr":
        bundle = model_io.load_bundle(os.path.join(work, "model.vsm"))
        if spec["fuse"]:
            bundle = {k: graph.fuse_conv_bn(g) for k, g in bundle.items()}
        return bundle
    return metrics.default_perceptual_distance()


# ---------------------------------------------------------------------------
# one pass and its output checks

def vsr_pass(spec: dict, bundle, work: str) -> tuple:
    """Read, upscale and write the sequence as ``vsrkit upscale`` does."""
    frames = frame_io.read_sequence(os.path.join(work, "lr"))
    out = pipeline.vsr_run(bundle, frames, backend=spec["backend"])
    clipped = np.clip(out, 0.0, 1.0)
    paths = frame_io.write_sequence(clipped, os.path.join(work, "out"),
                                    fmt="ppm")
    return frames, out, clipped, paths


def check_vsr_pass(spec: dict, frames, out, clipped, paths) -> str | None:
    w, h = spec["size"]
    t, scale = spec["frames"], spec["scale"]
    if frames.shape != (t, 3, h, w):
        return f"read {frames.shape}, expected {(t, 3, h, w)}"
    if out.shape != (t, 3, h * scale, w * scale):
        return f"output {out.shape}, expected {(t, 3, h * scale, w * scale)}"
    if not np.isfinite(out).all():
        return f"{int(np.size(out) - np.isfinite(out).sum())} non-finite values"
    if clipped.min() < 0.0 or clipped.max() > 1.0:
        return "clipped output outside [0, 1]"
    want = len(f"P6\n{w * scale} {h * scale}\n255\n") + 3 * h * w * scale ** 2
    if len(paths) != t:
        return f"wrote {len(paths)} frames, expected {t}"
    sizes = {os.path.getsize(p) for p in paths}
    if sizes != {want}:
        return f"written frame sizes {sorted(sizes)}, expected {want}"
    return None


def eval_pass(spec: dict, pd, work: str) -> tuple:
    """Read both sequences and score them as ``vsrkit eval`` does."""
    gen = frame_io.read_sequence(os.path.join(work, "gen"))
    ref = frame_io.read_sequence(os.path.join(work, "ref"))
    return gen, ref, metrics.evaluate_sequence(gen, ref, pd=pd)


def eval_values(res: dict) -> list:
    return ([res[k] for k in ("psnr", "ssim", "tof", "tlp")]
            + list(res["per_frame_psnr"]) + list(res["per_frame_ssim"]))


def check_eval_pass(spec: dict, gen, ref, res, first) -> str | None:
    w, h = spec["size"]
    t = spec["frames"]
    if gen.shape != (t, 3, h, w) or ref.shape != gen.shape:
        return f"read {gen.shape} / {ref.shape}, expected {(t, 3, h, w)}"
    if len(res["per_frame_psnr"]) != t or len(res["per_frame_ssim"]) != t:
        return "per-frame lists do not cover every frame"
    values = eval_values(res)
    if not all(math.isfinite(v) for v in values):
        return f"non-finite metric values {values[:4]}"
    if first is not None and values != first:
        return "metric values differ from the first pass on the same input"
    return None


# ---------------------------------------------------------------------------
# modes

def run(spec: dict, state, work: str, seconds: float) -> dict:
    passes, attempted, failed, errors = [], 0, 0, []
    first_values = None
    start = monotonic()
    while not (passes or errors) or monotonic() - start < seconds:
        t0 = time.perf_counter()
        try:
            if spec["kind"] == "vsr":
                frames, out, clipped, paths = vsr_pass(spec, state, work)
                dt = time.perf_counter() - t0
                problem = check_vsr_pass(spec, frames, out, clipped, paths)
            else:
                gen, ref, res = eval_pass(spec, state, work)
                dt = time.perf_counter() - t0
                problem = check_eval_pass(spec, gen, ref, res, first_values)
        except Exception as e:  # a failed pass is counted, the run goes on
            problem = f"{type(e).__name__}: {e}"
        attempted += spec["frames"]
        if problem is not None:
            failed += spec["frames"]
            errors.append(problem)
            continue
        if not passes:
            if spec["kind"] == "vsr":
                np.save(os.path.join(work, "prefix.npy"), out[:CHECK_PREFIX])
            if spec["kind"] == "eval":
                first_values = eval_values(res)
        passes.append(dt)
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "errors": errors[:5], "values": first_values}


def check(spec: dict, state, work: str) -> dict:
    """Untimed checks that need a second computation."""
    problems = []
    if spec["kind"] == "vsr":
        prefix = os.path.join(work, "prefix.npy")
        if not os.path.exists(prefix):
            return {"attempted": 1, "failed": 1,
                    "errors": ["no successful pass to compare against"]}
        frames = frame_io.read_sequence(os.path.join(work, "lr"))
        other = pipeline.vsr_run(state, frames[:CHECK_PREFIX],
                                 backend=spec["check_backend"])
        dev = rel_dev(other, np.load(prefix))
        if not dev <= PIPELINE_TOL:
            problems.append(f"{spec['check_backend']} deviates {dev:.3g} "
                            f"from {spec['backend']} on the first "
                            f"{CHECK_PREFIX} frames (bound {PIPELINE_TOL})")
    else:
        ref = frame_io.read_sequence(os.path.join(work, "ref"))[:3]
        res = metrics.evaluate_sequence(ref, ref, pd=state)
        if res["psnr"] != metrics.PSNR_CAP_DB:
            problems.append(f"ref-vs-ref psnr {res['psnr']}, expected the "
                            f"{metrics.PSNR_CAP_DB} dB cap")
        if abs(res["ssim"] - 1.0) > 1e-12:
            problems.append(f"ref-vs-ref ssim {res['ssim']}, expected 1")
        if res["tof"] != 0.0 or res["tlp"] != 0.0:
            problems.append(f"ref-vs-ref tof {res['tof']} / tlp "
                            f"{res['tlp']}, expected 0")
    return {"attempted": 1, "failed": int(bool(problems)), "errors": problems}


def traced_metrics(spec: dict, state, tracer, n_setup: int,
                   result: dict) -> dict:
    from spans import layer_metrics

    macs = 0
    if spec["kind"] == "vsr":
        w, h = spec["size"]
        macs = sum(g.count_flops((1, g.in_channels, h, w)).macs
                   for g in state.values())
    frames = spec["frames"] * len(result["passes"])
    metrics, absent = layer_metrics(tracer.spans[:n_setup],
                                    tracer.spans[n_setup:], frames,
                                    sum(result["passes"]), macs)
    return {"metrics": metrics, "absent": sorted(absent + tracer.missing)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "check"),
                    required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", default=None,
                    help="write spans to this file and report per-layer "
                         "metrics")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    state = setup(spec, args.work)
    report = {"setup_s": monotonic() - args.t0}
    if args.mode == "check":
        report.update(check(spec, state, args.work))
    elif args.mode == "run":
        n_setup = len(tracer.spans) if tracer else 0
        result = run(spec, state, args.work, args.seconds)
        report.update(result)
        report["fps"] = (spec["frames"] / statistics.median(result["passes"])
                         if result["passes"] else 0.0)
        if tracer:
            report.update(traced_metrics(spec, state, tracer, n_setup,
                                         result))
            tracer.dump(args.trace, {"workload": spec["name"],
                                     "absent": report["absent"],
                                     "installed": tracer.installed})
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
