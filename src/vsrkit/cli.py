"""Command-line interface.

Subcommands: upscale, bench, eval, score, fuse-bn, build-model,
estimate-fpga, inspect. Every command exits 0 on success and nonzero with
a diagnostic on stderr otherwise. bench, eval, score and estimate-fpga
share ``--report PATH`` and ``--format json|csv``, written by :func:`main`.
"""
from __future__ import annotations

import argparse
import json
import math
import numbers
import sys

import numpy as np

from . import bench as benchmod
from . import metrics as metricsmod
from .conv import BACKENDS
from .frame_io import read_sequence, write_sequence
from .graph import fuse_conv_bn, init_random
from .model_io import load_bundle, save_model
from .models import ARCH_NAMES, build_control_srnet, build_generator
from .pipeline import model_geometry, plan_graph, vsr_run
from .tensor import DTYPE, check_int


def _parse_size(text: str) -> tuple:
    """'WxH' -> (w, h)."""
    parts = text.lower().split("x")
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise ValueError(f"bad --size {text!r}, expected WxH like 320x180")
    w, h = (int(p) for p in parts)
    if w < 1 or h < 1:
        raise ValueError(f"--size dimensions must be positive, got {text!r}")
    return w, h


def _number(text, option: str, kind=float):
    """``text`` read by ``kind`` (``int`` or ``float``) as ``option``'s value;
    text it cannot read is a ValueError naming the option and the text."""
    try:
        return kind(text)
    except ValueError:
        shown = (repr(text) if len(text) <= 40
                 else f"{text[:20]!r}... ({len(text)} characters)")
        raise ValueError(f"bad {option} {shown}, expected "
                         f"{'an integer' if kind is int else 'a number'}"
                         ) from None


# ---------------------------------------------------------------------------
# subcommands: each returns the report sections it offers, or None

def cmd_upscale(args) -> None:
    want_scale = (None if args.scale is None
                  else _number(args.scale, "--scale", int))
    bundle = load_bundle(args.model)
    if args.fuse_bn:
        bundle = {k: fuse_conv_bn(g) for k, g in bundle.items()}
    frames = read_sequence(args.inp)
    scale, want_c = model_geometry(bundle, frames.shape[2:])
    if want_scale is not None and want_scale != scale:
        raise ValueError(f"model upscales x{scale}, but --scale {want_scale} "
                         f"was requested")
    if frames.shape[1] == 3 and want_c == 1:
        frames = metricsmod.luma(frames)[:, None].astype(DTYPE)
    elif frames.shape[1] != want_c:
        raise ValueError(f"model expects {want_c}-channel frames, directory "
                         f"holds {frames.shape[1]}-channel frames")
    out = np.clip(vsr_run(bundle, frames, backend=args.conv), 0.0, 1.0)
    paths = write_sequence(out, args.out, fmt=args.format)
    print(f"wrote {len(paths)} frames ({out.shape[2]}x{out.shape[3]}) "
          f"to {args.out}")


def cmd_bench(args) -> dict:
    w, h = _parse_size(args.size)
    frames = _number(args.frames, "--frames", int)
    warmup = _number(args.warmup, "--warmup", int)
    seed = _number(args.seed, "--seed", int)
    bundle = load_bundle(args.model)
    result = benchmod.time_pipeline(bundle, (h, w), frames,
                                    backend=args.conv, fused=args.fuse_bn,
                                    warmup=warmup, seed=seed)
    print(f"{result.arch} {w}x{h} backend={result.backend} "
          f"fused={result.fused}: {result.fps:.3f} fps "
          f"(mean {result.mean_frame_s * 1e3:.2f} ms, "
          f"median {result.median_frame_s * 1e3:.2f} ms, "
          f"{result.frames} frames after {result.warmup} warm-up)")
    return {"bench": [result]}


def cmd_eval(args) -> dict:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    gen = read_sequence(args.gen)
    ref = read_sequence(args.ref)
    label = args.label or args.gen.rstrip("/").split("/")[-1]
    values = metricsmod.evaluate_sequence(gen, ref, metrics=wanted)
    for m in wanted:
        print(f"{m} {values[m]:.6f}")
    sections = {"metrics": [{"method": label, "metric": m, "value": values[m]}
                            for m in wanted]}
    per_frame = [m for m in ("psnr", "ssim") if m in wanted]
    if per_frame:
        sections["per_frame"] = [
            {"method": label, "frame": t,
             **{m: values[f"per_frame_{m}"][t] for m in per_frame}}
            for t in range(gen.shape[0])]
    return sections


def _read_eval_report(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise ValueError(f"{path}: not a JSON report: {e}") from e
    try:
        rows = doc["sections"]["metrics"]
    except (TypeError, KeyError) as e:
        raise ValueError(f"{path}: not an eval report "
                         f"(missing sections/metrics)") from e
    if not isinstance(rows, list):
        raise ValueError(f"{path}: sections/metrics is not a list of rows")
    stem = path.rstrip("/").split("/")[-1].rsplit(".", 1)[0]
    values = {}
    label = stem
    for i, row in enumerate(rows):
        if not (isinstance(row, dict) and isinstance(row.get("metric"), str)
                and isinstance(row.get("value"), numbers.Real)
                and not isinstance(row["value"], bool)
                and math.isfinite(row["value"])
                and isinstance(row.get("method", stem), str)):
            raise ValueError(f"{path}: metrics row {i} is not an object with "
                             f"a string 'metric', a finite number 'value' "
                             f"and an optional string 'method'")
        if row["metric"] in values or i and row.get("method", stem) != label:
            raise ValueError(f"{path}: metrics row {i} repeats metric "
                             f"{row['metric']!r} or is not for {label!r}")
        label = row.get("method", stem)
        values[row["metric"]] = float(row["value"])
    if not values:
        raise ValueError(f"{path}: eval report holds no metric rows")
    return label, values


def cmd_score(args) -> dict:
    paths = [p.strip() for p in args.reports.split(",") if p.strip()]
    if not paths:
        raise ValueError("no report paths given")
    table = {}
    for path in paths:
        label, values = _read_eval_report(path)
        if label in table:
            raise ValueError(f"duplicate method label {label!r}; "
                             f"use distinct --label values in eval")
        table[label] = values
    weights = None
    if args.weights is not None:
        ws = [_number(w, "--weights") for w in args.weights.split(",")]
        metrics = [m for m in metricsmod.DEFAULT_METRICS
                   if m in next(iter(table.values()))]
        if len(ws) != len(metrics):
            raise ValueError(f"{len(ws)} weights for metrics {metrics}; "
                             f"counts must match (order: {metrics})")
        weights = metricsmod.ScoreWeights(dict(zip(metrics, ws)))
    scores = metricsmod.score_table(table, weights)
    for method in sorted(scores, key=lambda m: -scores[m]):
        print(f"{method}\t{scores[method]:.6f}")
    return {"scores": scores}


def cmd_fuse_bn(args) -> None:
    bundle = load_bundle(args.inp)
    fused = {k: fuse_conv_bn(g) for k, g in bundle.items()}
    save_model(fused, args.out)
    before = sum(len(g.layers) for g in bundle.values())
    after = sum(len(g.layers) for g in fused.values())
    print(f"fused model written to {args.out} "
          f"({before} layers -> {after} layers)")


def cmd_build_model(args) -> None:
    seed = check_int(_number(args.seed, "--seed", int), "--seed", 0)
    model = (build_generator() if args.arch == "egvsr"
             else {"net": build_control_srnet(args.arch)})
    if args.init == "random-seeded":
        model = {k: init_random(g, seed + i)
                 for i, (k, g) in enumerate(model.items())}
    total = sum(g.count_params() for g in model.values())
    save_model(model, args.out)
    print(f"{args.arch} ({args.init}, seed {seed}): "
          f"{total} parameters -> {args.out}")


def cmd_estimate_fpga(args) -> dict:
    profile = benchmod.FpgaProfile(_number(args.lut_total, "--lut-total", int),
                                   _number(args.freq, "--freq"))
    rows = benchmod.fpga_table(profile)
    best = max(r["max_flops"] for r in rows)
    # every projection is made before any line is printed, so a bad item
    # leaves no partial output
    projections = None
    if args.flops_per_frame is not None:
        projections = []
        for text in args.flops_per_frame.split(","):
            fpf = _number(text, "--flops-per-frame")
            projections.append({"flops_per_frame": fpf, "max_flops": best,
                                "fps": benchmod.theoretical_fps(best, fpf)})
    if args.table:
        print(f"lut_total={profile.lut_total} "
              f"frequency={profile.frequency:.6g}")
        for r in rows:
            print(f"{r['input_size']}x{r['input_size']} "
                  f"lut={r['lut_tile']} latency={r['latency_cycles']} "
                  f"tile_flops={r['tile_flops']} "
                  f"max_flops={r['max_flops']:.6e} "
                  f"({r['max_tflops']:.3f} T)")
    sections = {"fpga": rows}
    if projections is not None:
        for p in projections:
            print(f"flops_per_frame={p['flops_per_frame']:.6g} -> "
                  f"{p['fps']:.2f} fps")
        sections["projections"] = projections
    return sections


def cmd_inspect(args) -> None:
    bundle = load_bundle(args.model)
    size = None if args.size is None else _parse_size(args.size)[::-1]  # (h, w)
    for gname in sorted(bundle):
        graph = bundle[gname]
        print(f"graph {gname}: in_channels={graph.in_channels} "
              f"layers={len(graph.layers)} meta={json.dumps(graph.meta, sort_keys=True)}")
        report = plan_graph(bundle, gname, size) if size else None
        for i, layer in enumerate(graph.layers):
            line = (f"  {i:3d} {layer.name:<16} {layer.kind:<18} "
                    f"params={layer.param_count()}")
            if report is not None:
                per = report.per_layer[i]
                n, c, hh, ww = per["out_shape"]
                line += (f" out={c}x{hh}x{ww} macs={per['macs']} "
                         f"pointwise={per['pointwise_ops']}")
            print(line)
        print(f"graph {gname} total params={graph.count_params()}")
        if report is not None:
            _, _, h, w = report.in_shape
            print(f"graph {gname} ops at {w}x{h}: "
                  f"macs={report.macs} pointwise={report.pointwise_ops} "
                  f"mac_total={report.mac_total} flops={report.flops}")
    if len(bundle) > 1:
        print(f"model total params="
              f"{sum(g.count_params() for g in bundle.values())}")


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsrkit",
        description="CNN inference engine and video super-resolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", default=None, metavar="PATH")
    report.add_argument("--format", choices=("json", "csv"), default="json")
    metric_names = ",".join(metricsmod.DEFAULT_METRICS)

    p = sub.add_parser("upscale", help="upscale a frame directory")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="inp", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--scale", default=None,
                   help="expected upscale factor (checked against the model)")
    p.add_argument("--conv", choices=BACKENDS, default="gemm")
    p.add_argument("--fuse-bn", action="store_true")
    p.add_argument("--format", choices=("ppm", "f32"), default=None,
                   help="output frame container (default: ppm for RGB)")
    p.set_defaults(fn=cmd_upscale)

    p = sub.add_parser("bench", parents=[report],
                       help="time the pipeline on synthetic frames")
    p.add_argument("--model", required=True)
    p.add_argument("--size", required=True, metavar="WxH")
    p.add_argument("--frames", default=30)
    p.add_argument("--warmup", default=5)
    p.add_argument("--conv", choices=BACKENDS, default="gemm")
    p.add_argument("--fuse-bn", action="store_true")
    p.add_argument("--seed", default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("eval", parents=[report],
                       help="compare a generated sequence against its "
                            "reference")
    p.add_argument("--gen", required=True, metavar="DIR")
    p.add_argument("--ref", required=True, metavar="DIR")
    p.add_argument("--metrics", default=metric_names)
    p.add_argument("--label", default=None,
                   help="method name recorded in the report")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("score", parents=[report],
                       help="combine eval reports into one score per method")
    p.add_argument("--reports", required=True, metavar="PATH[,PATH...]")
    p.add_argument("--weights", default=None, metavar="w1,w2,...",
                   help="per-metric weights in canonical order "
                        f"({metric_names} restricted to present metrics); "
                        "default equal")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("fuse-bn", help="fold batch-norm layers into convs")
    p.add_argument("--in", dest="inp", required=True, metavar="MODEL")
    p.add_argument("--out", required=True, metavar="MODEL")
    p.set_defaults(fn=cmd_fuse_bn)

    p = sub.add_parser("build-model", help="construct and save a network")
    p.add_argument("--arch", choices=ARCH_NAMES, required=True)
    p.add_argument("--init", choices=("random-seeded", "zeros"),
                   default="random-seeded")
    p.add_argument("--seed", default=0)
    p.add_argument("--out", required=True, metavar="MODEL")
    p.set_defaults(fn=cmd_build_model)

    p = sub.add_parser("estimate-fpga", parents=[report],
                       help="analytical accelerator throughput bounds")
    p.add_argument("--lut-total", default=benchmod.DEFAULT_LUT_TOTAL)
    p.add_argument("--freq", default=benchmod.DEFAULT_FREQUENCY)
    p.add_argument("--flops-per-frame", default=None, metavar="N[,N...]",
                   help="project frame rates for these per-frame FLOPs")
    p.add_argument("--table", action="store_true",
                   help="print the per-tile-size throughput table")
    p.set_defaults(fn=cmd_estimate_fpga)

    p = sub.add_parser("inspect", help="print layer table and cost counters")
    p.add_argument("--model", required=True)
    p.add_argument("--size", default=None, metavar="WxH",
                   help="input size for operation counting")
    p.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sections = args.fn(args)
        if getattr(args, "report", None):
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(benchmod.emit_report(sections, args.format))
            print(f"report written to {args.report}")
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
