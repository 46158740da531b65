"""Wall-clock benchmarking, analytical FPGA throughput estimation, and
deterministic report emission.

The FPGA model: one accelerator tile implements a 3x3 convolution over an
n x n input patch using a known LUT budget and pipeline latency. Filling
the device's total LUT budget with copies of that tile bounds attainable
arithmetic throughput:

    max_flops = lut_total / lut_tile * tile_flops * frequency / latency

Dividing by a network's per-frame FLOPs gives a theoretical frame rate.
"""
from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics as qmetrics
from .graph import fuse_conv_bn
from .pipeline import plan_sequence, upscale_steps
from .tensor import ShapeError, check_int

# Default device budget: a Kintex-7 325T class part (326k LUTs) at a
# 300 MHz clock; the per-row peaks it implies are pinned in tests.
DEFAULT_LUT_TOTAL = 326_080
DEFAULT_FREQUENCY = 300e6


def conv_flops(ci: int, hi: int, wi: int, k: int, co: int) -> int:
    """Multiply count ci*hi*wi*k^2*co of a dense conv over an hi x wi input."""
    ci, hi, wi, k, co = (check_int(v, "factor", 1) for v in (ci, hi, wi, k, co))
    return ci * hi * wi * k * k * co


@dataclass(frozen=True)
class FpgaProfile:
    """Device LUT budget, clock, and per-tile-size implementation costs.

    ``rows`` is a fixed table, not a field: one (input tile size n, LUTs
    per tile, pipeline latency in cycles) row per size.
    """

    lut_total: int = DEFAULT_LUT_TOTAL
    frequency: float = DEFAULT_FREQUENCY
    rows = ((4, 827, 6), (5, 2682, 10), (6, 4242, 12), (7, 10214, 16),
            (8, 16499, 17))

    def __post_init__(self):
        check_int(self.lut_total, "lut_total", 1)
        if not 0 < self.frequency < math.inf:
            raise ValueError("frequency must be positive and finite, "
                             f"got {self.frequency!r}")
        try:
            finite = all(fpga_max_flops(self, r[0]) < math.inf
                         for r in self.rows)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"lut_total {self.lut_total} and frequency "
                             f"{self.frequency:g} give an infinite bound")

    def row(self, input_size: int):
        n = check_int(input_size, "input_size")
        for r in self.rows:
            if r[0] == n:
                return r
        raise ValueError(f"no profile row for input size {input_size}, "
                         f"available: {[r[0] for r in self.rows]}")


def fpga_max_flops(profile: FpgaProfile, input_size: int) -> float:
    """Throughput bound for the given tile size, in FLOPs per second."""
    n, lut_tile, latency = profile.row(input_size)
    tile_flops = conv_flops(1, n, n, 3, 1)
    return (profile.lut_total / lut_tile) * tile_flops \
        * (profile.frequency / latency)


def theoretical_fps(max_flops: float, flops_per_frame: float) -> float:
    """Frame rate supported by a throughput bound for a per-frame cost."""
    if (not 0 < flops_per_frame < math.inf
            or max_flops / flops_per_frame == math.inf):
        raise ValueError(f"flops_per_frame must be positive and finite, and "
                         f"give a finite frame rate, got {flops_per_frame}")
    return max_flops / flops_per_frame


# ---------------------------------------------------------------------------
# wall-clock benchmarking

@dataclass
class BenchResult:
    """One timed configuration; fps = frames / wall_time_s by construction."""

    arch: str
    height: int
    width: int
    scale: int
    backend: str
    fused: bool
    frames: int
    warmup: int
    wall_time_s: float
    fps: float
    mean_frame_s: float
    median_frame_s: float
    macs_per_frame: int
    flops_per_frame: int


def time_pipeline(bundle, size, frames: int, backend: str = "gemm",
                  fused: bool = False, warmup: int = 5,
                  seed: int = 0) -> BenchResult:
    """Steady-state FPS on a seeded synthetic sequence of ``size`` =
    (height, width) frames.

    ``bundle`` is any name -> graph dict :func:`vsr_run` accepts; it fixes
    the frames' channel count. Warm-up frames run first and are not timed.
    Each frame's time is the monotonic gap between consecutive frames of
    :func:`upscale_steps`, spread evenly over each flow chunk, whose first
    frame carries its flows. Scale, channels, chunk and costs come from the
    run's one :func:`plan_sequence`.
    """
    frames = check_int(frames, "frames", 1)
    warmup = check_int(warmup, "warmup", 0)
    seed = check_int(seed, "seed", 0)
    h, w = (check_int(v, "size") for v in size)
    if h < 1 or w < 1:
        raise ShapeError(f"size must be >= 1, got {(h, w)}")
    if fused:
        bundle = {k: fuse_conv_bn(g) for k, g in bundle.items()}
    plan = plan_sequence(bundle, (h, w), backend)
    # graph names in reverse order: a recurrent pair reads <srnet>+<fnet>
    arch = "+".join(str(bundle[k].meta.get("arch", k))
                    for k in sorted(bundle, reverse=True))
    seq = np.random.default_rng(seed).random(
        (frames + warmup, plan.channels, h, w), dtype=np.float32)

    times = []
    t0 = time.perf_counter()
    for _ in upscale_steps(bundle, seq, backend, plan=plan):
        t1 = time.perf_counter()
        times.append(t1 - t0)
        t0 = t1
    even = []
    for i in range(0, len(times), plan.chunk):
        part = times[i:i + plan.chunk]
        even += [sum(part) / len(part)] * len(part)
    times = even[warmup:]

    wall = float(sum(times))
    reps = plan.plans.values()
    macs, flops = sum(r.mac_total for r in reps), sum(r.flops for r in reps)
    return BenchResult(arch=arch, height=h, width=w, scale=plan.scale,
                       backend=backend, fused=fused, frames=frames,
                       warmup=warmup, wall_time_s=wall,
                       fps=frames / wall if wall > 0 else float("inf"),
                       mean_frame_s=wall / frames,
                       median_frame_s=float(statistics.median(times)),
                       macs_per_frame=macs, flops_per_frame=flops)


# ---------------------------------------------------------------------------
# reports

def conventions() -> dict:
    """Every unstated-convention choice that shapes reported numbers."""
    return {
        "tensor_layout": "NCHW, 32-bit floats",
        "luma_weights": list(qmetrics.LUMA_WEIGHTS),
        "psnr_cap_db": qmetrics.PSNR_CAP_DB,
        "ssim": {"window": qmetrics.SSIM_WINDOW, "sigma": qmetrics.SSIM_SIGMA,
                 "k1": qmetrics.SSIM_K1, "k2": qmetrics.SSIM_K2,
                 "border": "valid windows only"},
        "flow_estimator": {"algorithm": "pyramidal lucas-kanade",
                           "levels": qmetrics.LK_LEVELS,
                           "window": qmetrics.LK_WINDOW,
                           "iterations": qmetrics.LK_ITERS,
                           "max_displacement": qmetrics.LK_MAX_DISP},
        "perceptual_proxy": qmetrics.default_perceptual_distance().name,
        "temporal_reduction": "mean per pixel, then mean over frame pairs",
        "flops_convention": ("macs_per_frame counts one op per MAC and per "
                             "pointwise element; flops_per_frame counts 2 "
                             "per MAC; graph layers only, pipeline glue "
                             "(warp, flow resize, packing) excluded"),
        "normalization": "min-max per metric across methods, 0 = best",
    }


def _rows_of(items) -> list:
    rows = []
    for it in items:
        if hasattr(it, "__dataclass_fields__"):
            rows.append(asdict(it))
        elif isinstance(it, dict):
            rows.append(dict(it))
        else:
            raise TypeError(f"cannot serialize {type(it).__name__} into a report")
    return rows


def emit_report(sections: dict, fmt: str = "json") -> str:
    """Render result collections deterministically.

    ``sections`` maps section name (e.g. "bench", "metrics", "scores") to a
    list of dataclasses/dicts, or to a plain scalar mapping. JSON output is
    sorted and indented; CSV output emits one block per section with an
    explicit header, preceded by comment lines carrying the conventions
    metadata. Re-emitting the same collections is byte-identical.
    """
    if not sections:
        raise ValueError("no result sections to report")
    for name, items in sections.items():
        if items is None or (hasattr(items, "__len__") and len(items) == 0):
            raise ValueError(f"section {name!r} is empty")
    if fmt == "json":
        doc = {"conventions": conventions(), "sections": {
            name: items if isinstance(items, dict) else _rows_of(items)
            for name, items in sections.items()}}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        out.write("# conventions: " + json.dumps(conventions(), sort_keys=True)
                  + "\n")
        for name in sorted(sections):
            items = sections[name]
            out.write(f"# section: {name}\n")
            if isinstance(items, dict):
                rows = [{"key": k, "value": items[k]} for k in sorted(items)]
            else:
                rows = _rows_of(items)
            writer = csv.DictWriter(out, fieldnames=list(rows[0]),
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        return out.getvalue()
    raise ValueError(f"unknown report format {fmt!r}, expected json or csv")


def fpga_table(profile: FpgaProfile) -> list:
    """Max-throughput rows for every tile size in the profile."""
    rows = []
    for n, luts, lat in profile.rows:
        mx = fpga_max_flops(profile, n)
        rows.append({"input_size": n, "lut_tile": luts, "latency_cycles": lat,
                     "tile_flops": conv_flops(1, n, n, 3, 1),
                     "max_flops": mx, "max_tflops": mx / 1e12})
    return rows
