"""Throughput estimation, wall-clock benchmarking, and report emission."""

import ast
import csv
import importlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vsrkit import (
    BenchResult,
    FpgaProfile,
    ShapeError,
    build_control_srnet,
    build_fnet,
    build_srnet,
    conv_flops,
    conventions,
    emit_report,
    fpga_max_flops,
    fpga_table,
    init_random,
    theoretical_fps,
    time_pipeline,
)


# ---------------------------------------------------------------------------
# analytic FLOPs

def test_conv_flops_examples():
    assert conv_flops(1, 1, 1, 1, 1) == 1
    assert conv_flops(1, 4, 4, 3, 1) == 144
    assert conv_flops(1, 5, 5, 3, 1) == 225
    assert conv_flops(3, 8, 8, 3, 16) == 3 * 64 * 9 * 16


def test_conv_flops_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        conv_flops(0, 4, 4, 3, 1)
    with pytest.raises(ValueError):
        conv_flops(1, 4, 4, -3, 1)


@pytest.mark.parametrize("args", [(1.5, 4, 4, 3, 1), (1, 4, 4.0, 3, 1),
                                  (1, 4, 4, 3, True)])
def test_conv_flops_rejects_non_integer_factors(args):
    # int() would return 144 for conv_flops(1.5, 4, 4, 3, 1)
    with pytest.raises(ShapeError, match="factor must be an integer"):
        conv_flops(*args)


@pytest.mark.parametrize("size", [4.9, 4.0, True])
def test_fpga_rows_are_looked_up_by_integer_size(size):
    # int() would read the n=4 row for 4.9
    profile = FpgaProfile()
    with pytest.raises(ShapeError, match="input_size must be an integer"):
        profile.row(size)
    with pytest.raises(ShapeError, match="input_size must be an integer"):
        fpga_max_flops(profile, size)


# ---------------------------------------------------------------------------
# accelerator profile

def test_profile_row_lookup():
    profile = FpgaProfile()
    assert profile.row(4) == (4, 827, 6)
    with pytest.raises(ValueError, match="9"):
        profile.row(9)


def test_fpga_max_flops_scales_with_resources():
    base = FpgaProfile(lut_total=326_080, frequency=300e6)
    double_luts = FpgaProfile(lut_total=652_160, frequency=300e6)
    double_clock = FpgaProfile(lut_total=326_080, frequency=600e6)
    got = fpga_max_flops(base, 4)
    assert abs(fpga_max_flops(double_luts, 4) - 2 * got) / got < 1e-12
    assert abs(fpga_max_flops(double_clock, 4) - 2 * got) / got < 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_fpga_profile_rejects_non_finite_or_non_positive_frequency(bad):
    with pytest.raises(ValueError, match="frequency"):
        FpgaProfile(frequency=bad)


def test_fpga_profile_rejects_non_finite_lut_total():
    with pytest.raises(ValueError, match="lut_total"):
        FpgaProfile(lut_total=float("inf"))


@pytest.mark.parametrize("kwargs, match", [
    (dict(lut_total=1000.5), r"lut_total must be an integer, got 1000.5"),
    (dict(rows=((4.5, 827, 6),)),
     r"profile row \(4.5, 827, 6\) entry must be an integer, got 4.5"),
    (dict(rows=((4, 827.5, 6),)),
     r"profile row \(4, 827.5, 6\) entry must be an integer, got 827.5"),
    (dict(rows=((4, 827, True),)),
     r"profile row \(4, 827, True\) entry must be an integer, got True"),
], ids=["lut_total", "row size", "row luts", "row latency"])
def test_fpga_profile_counts_must_be_integers(kwargs, match):
    with pytest.raises(ShapeError, match=match):
        FpgaProfile(**kwargs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_theoretical_fps_rejects_non_finite_frame_cost(bad):
    with pytest.raises(ValueError, match="flops_per_frame"):
        theoretical_fps(1e12, bad)


def test_fpga_table_peak_values():
    profile = FpgaProfile(lut_total=326_080, frequency=300e6)
    rows = fpga_table(profile)
    assert [r["input_size"] for r in rows] == [4, 5, 6, 7, 8]
    expected_tflops = [2.839, 0.821, 0.623, 0.264, 0.201]
    for row, want in zip(rows, expected_tflops):
        assert abs(row["max_tflops"] - want) / want < 5e-3
        assert row["max_flops"] == pytest.approx(row["max_tflops"] * 1e12,
                                                 rel=1e-9)
    # smaller tiles amortize best: the table is monotonically decreasing
    peaks = [r["max_flops"] for r in rows]
    assert peaks == sorted(peaks, reverse=True)


@pytest.mark.parametrize("rows, match", [
    (((4, 827, 6), (5, 0, 10)), r"profile row \(5, 0, 10\) has non-positive"),
    (((0, 827, 6),), r"profile row \(0, 827, 6\) has non-positive"),
])
def test_fpga_profile_rejects_non_positive_rows(rows, match):
    with pytest.raises(ValueError, match=match):
        FpgaProfile(rows=rows)


def test_fpga_profile_rejects_a_repeated_input_size():
    # fpga_table looks each row's peak up by size, so a second n=4 row
    # printed its own LUTs and latency beside the first row's peak
    with pytest.raises(ValueError, match="profile rows repeat input size 4"):
        FpgaProfile(rows=((4, 827, 6), (5, 2682, 10), (4, 1000, 8)))
    rows = fpga_table(FpgaProfile(rows=((5, 2682, 10), (4, 827, 6))))
    assert [r["max_flops"] for r in rows] == [
        fpga_max_flops(FpgaProfile(), 5), fpga_max_flops(FpgaProfile(), 4)]


def test_theoretical_fps_projections():
    profile = FpgaProfile(lut_total=326_080, frequency=300e6)
    peak = fpga_max_flops(profile, 4)
    for fpf, want in [(28.55e9, 99.44), (64.06e9, 44.32), (257.01e9, 11.05)]:
        assert abs(theoretical_fps(peak, fpf) - want) / want < 1e-3
    with pytest.raises(ValueError):
        theoretical_fps(peak, 0.0)


# ---------------------------------------------------------------------------
# wall-clock benchmarking

def test_time_pipeline_single_graph():
    g = init_random(build_control_srnet("control-a"), 0)
    res = time_pipeline({"net": g}, (12, 12), frames=3, warmup=1, seed=0)
    assert isinstance(res, BenchResult)
    assert res.frames == 3 and res.warmup == 1
    assert res.scale == 3
    assert res.height == 12 and res.width == 12
    assert res.wall_time_s > 0
    assert res.fps == pytest.approx(res.frames / res.wall_time_s, rel=1e-9)
    assert res.mean_frame_s == pytest.approx(res.wall_time_s / res.frames,
                                             rel=1e-9)
    assert res.macs_per_frame > 0
    assert res.flops_per_frame >= 2 * res.macs_per_frame - res.macs_per_frame


def test_time_pipeline_recurrent_bundle():
    gen = {"fnet": init_random(build_fnet(), 1),
           "srnet": init_random(build_srnet(), 2)}
    res = time_pipeline(gen, (16, 16), frames=2, warmup=0, seed=1)
    assert res.scale == 4
    assert "fnet" in res.arch
    # analytic per-frame cost covers both nets
    assert res.macs_per_frame > 1e8
    # each at the input vsr_step feeds it: a frame pair, and the frame
    # with the 4x4 space-to-depth packed warp
    reps = [gen["fnet"].count_flops((1, 2 * 3, 16, 16)),
            gen["srnet"].count_flops((1, 3 * (1 + 4 * 4), 16, 16))]
    assert res.macs_per_frame == sum(r.mac_total for r in reps)
    assert res.flops_per_frame == sum(r.flops for r in reps)


def test_time_pipeline_costs_the_fnet_at_its_padded_size():
    gen = {"fnet": build_fnet(), "srnet": build_srnet()}
    res = time_pipeline(gen, (12, 12), frames=1, warmup=0)
    # the fnet's three pooling levels pad 12x12 frame pairs to 16x16
    reps = [gen["fnet"].count_flops((1, 6, 16, 16)),
            gen["srnet"].count_flops((1, 51, 12, 12))]
    assert res.macs_per_frame == sum(r.mac_total for r in reps) == 147_334_144
    assert res.flops_per_frame == sum(r.flops for r in reps)
    # a single net is never padded, whatever its name
    net = build_control_srnet("control-a")
    single = time_pipeline({"fnet": net}, (12, 12), frames=1, warmup=0)
    assert single.macs_per_frame == net.count_flops((1, 1, 12, 12)).mac_total


def test_time_pipeline_cost_fields_are_run_independent():
    g = init_random(build_control_srnet("control-b"), 3)
    a = time_pipeline({"net": g}, (10, 10), frames=2, warmup=0, seed=5)
    b = time_pipeline({"net": g}, (10, 10), frames=2, warmup=0, seed=5)
    for field in ("arch", "height", "width", "scale", "backend", "fused",
                  "frames", "warmup", "macs_per_frame", "flops_per_frame"):
        assert getattr(a, field) == getattr(b, field), field


def test_time_pipeline_validates_counts():
    g = build_control_srnet("control-a")
    with pytest.raises(ValueError):
        time_pipeline({"net": g}, (8, 8), frames=0)
    with pytest.raises(ValueError):
        time_pipeline({"net": g}, (8, 8), frames=1, warmup=-1)


def test_time_pipeline_takes_an_integer_height_and_width():
    g = build_control_srnet("control-a")
    with pytest.raises(ValueError, match="too many values"):
        time_pipeline({"net": g}, (1, 1, 8, 8), frames=1, warmup=0)
    with pytest.raises(ShapeError, match="size must be an integer, got 8.5"):
        time_pipeline({"net": g}, (8.5, 8), frames=1, warmup=0)
    for counts, match in ((dict(frames=1.5), "frames must be an integer"),
                          (dict(frames=True), "frames must be an integer"),
                          (dict(frames=1, warmup=0.5),
                           "warmup must be an integer")):
        with pytest.raises(ShapeError, match=match):
            time_pipeline({"net": g}, (8, 8), **counts)


@pytest.mark.parametrize("size", [(-2, 8), (8, 0)])
def test_time_pipeline_rejects_a_size_below_one(size):
    g = build_control_srnet("control-a")
    with pytest.raises(ShapeError, match=re.escape(f"size must be >= 1, "
                                                   f"got {size}")):
        time_pipeline({"net": g}, size, frames=1, warmup=0)


# ---------------------------------------------------------------------------
# report emission

def _result(**overrides):
    base = dict(arch="net", height=8, width=8, scale=3, backend="gemm",
                fused=False, frames=4, warmup=1, wall_time_s=0.5, fps=8.0,
                mean_frame_s=0.125, median_frame_s=0.12,
                macs_per_frame=1000, flops_per_frame=2100)
    base.update(overrides)
    return BenchResult(**base)


def test_emit_report_json_structure():
    doc = emit_report({"bench": [_result()]}, fmt="json")
    parsed = json.loads(doc)
    assert set(parsed) == {"conventions", "sections"}
    assert parsed["sections"]["bench"][0]["fps"] == 8.0
    conv = parsed["conventions"]
    assert conv["tensor_layout"].startswith("NCHW")
    assert conv["luma_weights"] == [0.299, 0.587, 0.114]
    assert doc.endswith("\n")


def test_emit_report_rejects_a_row_it_cannot_serialize():
    with pytest.raises(TypeError, match="cannot serialize int into a report"):
        emit_report({"bench": [5]})


def test_emit_report_is_deterministic():
    sections = {"bench": [_result(), _result(backend="winograd")],
                "fpga": [{"input_size": 4, "max_flops": 1.0}]}
    assert emit_report(sections, "json") == emit_report(sections, "json")
    assert emit_report(sections, "csv") == emit_report(sections, "csv")


def test_emit_report_csv_single_row_has_header():
    doc = emit_report({"bench": [_result()]}, fmt="csv")
    rows = [ln for ln in doc.splitlines() if ln and not ln.startswith("#")]
    parsed = list(csv.DictReader(io.StringIO("\n".join(rows))))
    assert len(parsed) == 1
    assert parsed[0]["fps"] == "8.0"
    assert "backend" in parsed[0]
    # conventions ride along as a comment line
    assert any(ln.startswith("# conventions:") for ln in doc.splitlines())


def test_emit_report_csv_multiple_sections():
    doc = emit_report({"a": [{"x": 1}], "b": [{"y": 2}]}, fmt="csv")
    assert "# section: a" in doc
    assert "# section: b" in doc


def test_emit_report_rejects_empty_and_unknown_format():
    with pytest.raises(ValueError):
        emit_report({}, "json")
    with pytest.raises(ValueError):
        emit_report({"bench": []}, "json")
    with pytest.raises(ValueError):
        emit_report({"bench": [_result()]}, "xml")


def test_conventions_cover_reporting_choices():
    conv = conventions()
    for key in ("tensor_layout", "luma_weights", "psnr_cap_db", "ssim",
                "flow_estimator", "perceptual_proxy", "flops_convention",
                "temporal_reduction", "normalization"):
        assert key in conv, key


# ---------------------------------------------------------------------------
# benchmark trace targets

def test_perfbench_trace_targets_resolve():
    # the traced benchmark records a renamed target as absent and reads its
    # metrics as 0, so a rename must fail here instead
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None)
                      for t in node.targets] == ["TARGETS"])
    targets = [(entry.elts[0].value, entry.elts[1].value)
               for entry in table.elts]
    assert len(targets) > 20
    for module, path in targets:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{module} {path}"
