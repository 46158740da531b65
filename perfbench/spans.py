"""Tracing vsrkit from outside, and the per-layer metrics derived from it.

Only the traced run imports this. :meth:`Tracer.install` rebinds public
vsrkit functions to timing wrappers: the module attribute itself and every
other module-level reference to the same function object inside the
``vsrkit`` package (re-exports such as ``metrics.warp`` and dispatch tables
such as the conv backend map). A target that no longer exists is recorded
in ``Tracer.missing``; a target that exists but is never called yields no
spans. Either way its metrics read 0 and its name is listed as absent in
the trace file, never as an error.

Spans stay in memory (name, start, end, parent span, call attributes) and
are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "attrs")

    def __init__(self, sid, parent, name):
        self.id, self.parent, self.name = sid, parent, name
        self.t0 = self.t1 = 0.0
        self.attrs = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _conv_attrs(args, kwargs, out):
    x, kern = args[0], args[1]
    co, ci, k, _ = kern.weights.shape
    backend = args[2] if len(args) > 2 else kwargs.get("backend")
    return {"n": x.shape[0], "ci": ci, "co": co, "k": k,
            "stride": kern.stride, "oh": out.shape[2], "ow": out.shape[3],
            "backend": backend}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _flow_attrs(args, kwargs, out):
    return {"degenerate": float(out.degenerate_fraction)}


# (module, attribute path, attribute extractor)
TARGETS = (
    ("vsrkit.model_io", "load_bundle", None),
    ("vsrkit.graph", "fuse_conv_bn", None),
    ("vsrkit.graph", "NetworkGraph.forward", None),
    ("vsrkit.graph", "batchnorm_forward", None),
    ("vsrkit.pipeline", "vsr_run", None),
    ("vsrkit.pipeline", "vsr_step", None),
    ("vsrkit.pipeline", "estimate_flow", None),
    ("vsrkit.pipeline", "warp", None),
    ("vsrkit.conv", "conv2d", _conv_attrs),
    ("vsrkit.conv", "conv2d_gemm", _conv_attrs),
    ("vsrkit.conv", "conv2d_winograd", _conv_attrs),
    ("vsrkit.conv", "activation", None),
    ("vsrkit.conv", "maxpool2", None),
    ("vsrkit.tensor", "bilinear_resize", None),
    ("vsrkit.tensor", "pixel_shuffle", None),
    ("vsrkit.tensor", "space_to_depth", None),
    ("vsrkit.tensor", "concat_channels", None),
    ("vsrkit.frame_io", "read_sequence", None),
    ("vsrkit.frame_io", "write_sequence", None),
    ("vsrkit.frame_io", "read_ppm", _file_bytes),
    ("vsrkit.frame_io", "read_f32", _file_bytes),
    ("vsrkit.frame_io", "write_ppm", _file_bytes),
    ("vsrkit.frame_io", "write_f32", _file_bytes),
    ("vsrkit.metrics", "evaluate_sequence", None),
    ("vsrkit.metrics", "psnr", None),
    ("vsrkit.metrics", "ssim", None),
    ("vsrkit.metrics", "dense_flow", _flow_attrs),
    ("vsrkit.metrics", "tlp", None),
)


def span_name(module: str, path: str) -> str:
    return module.split(".", 1)[1] + "." + path


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.installed: list[str] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, attrs_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, name)
            spans.append(span)
            stack.append(span.id)
            span.t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        for module, path, attrs_of in TARGETS:
            name = span_name(module, path)
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, orig, attrs_of)
            setattr(owner, attr, wrapper)
            _rebind_references(orig, wrapper)
            self.installed.append(name)

    def dump(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = self.spans[0].t0 if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start_ms": 1e3 * (s.t0 - base), "dur_ms": 1e3 * s.dur,
                    "attrs": s.attrs}) + "\n")


def _rebind_references(orig, wrapper) -> None:
    """Point every module-level reference to ``orig`` in vsrkit at
    ``wrapper``, including values of module-level dicts."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "vsrkit":
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
            elif isinstance(val, dict):
                for key, item in val.items():
                    if item is orig:
                        val[key] = wrapper


# ---------------------------------------------------------------------------
# computed costs

def conv_macs(a: dict) -> int:
    return a["n"] * a["ci"] * a["k"] * a["k"] * a["co"] * a["oh"] * a["ow"]


def im2col_shape(a: dict) -> tuple:
    """(M, K, N) of the matmul a gemm lowering of this conv performs."""
    return (a["n"] * a["oh"] * a["ow"], a["ci"] * a["k"] * a["k"], a["co"])


def im2col_bytes(a: dict) -> int:
    """Size of the float32 im2col buffer a gemm lowering builds."""
    m, k, _ = im2col_shape(a)
    return 4 * m * k


def matmul_ceiling(shapes, reps: int = 5) -> dict:
    """Median seconds of a bare float32 numpy matmul per (M, K, N)."""
    rng = np.random.default_rng(0)
    out = {}
    for m, k, n in sorted(set(shapes)):
        a = rng.random((m, k), dtype=np.float32)
        b = rng.random((k, n), dtype=np.float32)
        a @ b
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            a @ b
            times.append(time.perf_counter() - t)
        out[(m, k, n)] = statistics.median(times)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# per-run set-up times; every other *_ms is per frame and gets a share
SETUP_MS = ("graph.fuse_ms", "model_io.load_ms")


def layer_metrics(setup: list, loop: list, frames: int, frame_s: float,
                  macs_per_frame: int) -> tuple:
    """Per-layer metrics from the spans of set-up and of the timed passes.

    Returns (metrics, absent): metrics maps name -> (value, unit); absent
    lists the span names the loop never produced.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in loop:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total(spans):
        return sum(s.dur for s in spans)

    def named(name):
        return total(by_name[name])

    def ms(seconds):
        return 1e3 * seconds / frames

    def per_frame(count):
        return count / frames

    conv = by_name["conv.conv2d"]
    gemm = by_name["conv.conv2d_gemm"]
    wino = by_name["conv.conv2d_winograd"]
    conv_s = total(conv)
    ceiling = matmul_ceiling(im2col_shape(s.attrs) for s in conv)
    fallbacks = [s for s in wino
                 if any(c.name == "conv.conv2d_gemm" for c in children[s.id])]
    wino_gemm_s = sum(c.dur for s in fallbacks for c in children[s.id]
                      if c.name == "conv.conv2d_gemm")

    steps = by_name["pipeline.vsr_step"]
    step_kids = [c for s in steps for c in children[s.id]]
    fnet = [c for c in step_kids if c.name == "pipeline.estimate_flow"]
    srnet = [c for c in step_kids if c.name == "graph.NetworkGraph.forward"]
    glue = [c for c in step_kids
            if c.name not in ("pipeline.estimate_flow",
                              "graph.NetworkGraph.forward")]
    step_s = total(steps)
    stage_s = total(fnet) + total(glue) + total(srnet)

    forward_self = sum(s.dur - sum(c.dur for c in children[s.id])
                       for s in by_name["graph.NetworkGraph.forward"])
    flows = by_name["metrics.dense_flow"]
    setup_names = defaultdict(float)
    for s in setup:
        setup_names[s.name] += s.dur

    m = {
        "conv.conv2d_ms": (ms(conv_s), "ms"),
        "conv.conv2d_calls": (per_frame(len(conv)), "count"),
        "conv.conv2d_gflops": (
            2 * sum(conv_macs(s.attrs) for s in conv) / conv_s / 1e9
            if conv_s > 0 else 0.0, "GFLOP/s"),
        "conv.conv2d_gemm_calls": (per_frame(len(gemm)), "count"),
        "conv.ceiling_ratio": (
            sum(ceiling[im2col_shape(s.attrs)] for s in conv) / conv_s
            if conv_s > 0 else 0.0, "ratio"),
        "conv.im2col_mb": (
            per_frame(sum(im2col_bytes(s.attrs) for s in gemm)) / 1e6, "MB"),
        "conv.winograd_ms": (ms(named("conv.conv2d_winograd") - wino_gemm_s),
                             "ms"),
        "conv.winograd_fallback_frac": (
            len(fallbacks) / len(wino) if wino else 0.0, "ratio"),
        "conv.activation_ms": (ms(named("conv.activation")), "ms"),
        "conv.maxpool2_ms": (ms(named("conv.maxpool2")), "ms"),
        "tensor.bilinear_resize_ms": (ms(named("tensor.bilinear_resize")),
                                      "ms"),
        "tensor.pixel_shuffle_ms": (ms(named("tensor.pixel_shuffle")), "ms"),
        "tensor.space_to_depth_ms": (ms(named("tensor.space_to_depth")),
                                     "ms"),
        "tensor.concat_ms": (ms(named("tensor.concat_channels")), "ms"),
        "graph.forward_self_ms": (ms(forward_self), "ms"),
        "graph.batchnorm_ms": (ms(named("graph.batchnorm_forward")), "ms"),
        "graph.fuse_ms": (1e3 * setup_names["graph.fuse_conv_bn"], "ms"),
        "graph.macs_per_frame": (macs_per_frame, "count"),
        "model_io.load_ms": (1e3 * setup_names["model_io.load_bundle"], "ms"),
        "pipeline.step_ms": (ms(step_s), "ms"),
        "pipeline.fnet_ms": (ms(total(fnet)), "ms"),
        "pipeline.glue_ms": (ms(total(glue)), "ms"),
        "pipeline.srnet_ms": (ms(total(srnet)), "ms"),
        "pipeline.stage_cover": (stage_s / step_s if step_s > 0 else 0.0,
                                 "ratio"),
        "pipeline.warp_ms": (ms(named("pipeline.warp")), "ms"),
        "pipeline.warp_calls": (per_frame(len(by_name["pipeline.warp"])),
                                "count"),
        "frame_io.read_ms": (ms(named("frame_io.read_sequence")), "ms"),
        "frame_io.write_ms": (ms(named("frame_io.write_sequence")), "ms"),
        "frame_io.mb_read": (per_frame(sum(
            s.attrs["bytes"] for n in ("frame_io.read_ppm", "frame_io.read_f32")
            for s in by_name[n])) / 1e6, "MB"),
        "frame_io.mb_written": (per_frame(sum(
            s.attrs["bytes"] for n in ("frame_io.write_ppm",
                                       "frame_io.write_f32")
            for s in by_name[n])) / 1e6, "MB"),
        "metrics.psnr_ms": (ms(named("metrics.psnr")), "ms"),
        "metrics.ssim_ms": (ms(named("metrics.ssim")), "ms"),
        "metrics.dense_flow_ms": (ms(named("metrics.dense_flow")), "ms"),
        "metrics.dense_flow_calls": (per_frame(len(flows)), "count"),
        "metrics.lk_valid_frac": (
            1.0 - statistics.fmean(s.attrs["degenerate"] for s in flows)
            if flows else 0.0, "ratio"),
        "metrics.tlp_ms": (ms(named("metrics.tlp")), "ms"),
    }
    frame_ms = 1e3 * frame_s / frames
    for name in [n for n in m if n.endswith("_ms") and n not in SETUP_MS]:
        m[name[:-len("_ms")] + "_share"] = (m[name][0] / frame_ms, "ratio")
    called = {name for name, spans in by_name.items() if spans}
    absent = sorted({span_name(mod, path) for mod, path, _ in TARGETS}
                    - called - set(setup_names))
    return m, absent
