"""Command-line interface: subcommand workflows, reports, error paths."""

import json
import math
import re

import numpy as np
import pytest

from vsrkit import (
    GraphError,
    ModelFormatError,
    NetworkGraph,
    activation_layer,
    batch_norm_layer,
    build_generator,
    conv2d_layer,
    conv_transpose2d_layer,
    conventions,
    evaluate_sequence,
    init_random,
    load_bundle,
    luma,
    maxpool2_layer,
    model_geometry,
    pixel_shuffle_layer,
    read_sequence,
    save_model,
    score_table,
    vsr_run,
    write_sequence,
)
from vsrkit.cli import main
from vsrkit.metrics import DEFAULT_METRICS


@pytest.fixture()
def control_model(tmp_path):
    path = tmp_path / "control.vsm"
    assert main(["build-model", "--arch", "control-a", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


def _write_lr_frames(tmp_path, t=3, c=1, h=10, w=10, seed=0):
    frames = np.random.default_rng(seed).random((t, c, h, w),
                                                dtype=np.float32)
    d = tmp_path / "lr"
    d.mkdir(exist_ok=True)
    write_sequence(frames, d)
    return d, frames


# ---------------------------------------------------------------------------
# build-model / inspect

def test_build_model_reports_parameter_total(tmp_path, capsys):
    out = tmp_path / "m.vsm"
    assert main(["build-model", "--arch", "control-b", "--out",
                 str(out)]) == 0
    text = capsys.readouterr().out
    assert "30177 parameters" in text
    assert out.exists()


def test_build_model_seeds_are_reproducible(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.vsm", "b.vsm", "c.vsm"))
    main(["build-model", "--arch", "control-a", "--seed", "9", "--out", str(a)])
    main(["build-model", "--arch", "control-a", "--seed", "9", "--out", str(b)])
    main(["build-model", "--arch", "control-a", "--seed", "8", "--out", str(c)])
    wa = load_bundle(a)["net"].layers[0].arrays["weight"]
    wb = load_bundle(b)["net"].layers[0].arrays["weight"]
    wc = load_bundle(c)["net"].layers[0].arrays["weight"]
    assert np.array_equal(wa, wb)
    assert not np.array_equal(wa, wc)


def test_build_model_egvsr_bundle(tmp_path, capsys):
    out = tmp_path / "g.vsm"
    assert main(["build-model", "--arch", "egvsr", "--out", str(out)]) == 0
    assert "2546662 parameters" in capsys.readouterr().out
    bundle = load_bundle(out)
    assert set(bundle) == {"fnet", "srnet"}


def test_inspect_lists_layers_and_ops(control_model, capsys):
    assert main(["inspect", "--model", str(control_model),
                 "--size", "16x12"]) == 0
    out = capsys.readouterr().out
    assert "in_channels=1" in out
    assert re.search(r"conv1 +conv2d +params=1664", out)
    assert "total params=29409" in out
    # per-layer op counters appear when a size is given
    assert "macs=" in out and "mac_total=" in out
    # conv1 on a 16x12 grid: 25 taps, 64 filters
    assert re.search(r"conv1 .*macs=" + str(25 * 64 * 16 * 12), out)
    # one graph: no model total
    assert "model total" not in out


def test_inspect_totals_the_params_of_a_two_graph_model(tmp_path, capsys):
    model = tmp_path / "g.vsm"
    assert main(["build-model", "--arch", "egvsr", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["inspect", "--model", str(model)]) == 0
    lines = capsys.readouterr().out.splitlines()
    totals = [ln for ln in lines if "total params=" in ln]
    assert totals == ["graph fnet total params=1750882",
                      "graph srnet total params=795780",
                      "model total params=2546662"]
    assert lines[-1] == totals[-1]


def test_inspect_costs_a_pair_at_the_sizes_bench_runs(tmp_path, capsys):
    model, report = tmp_path / "g.vsm", tmp_path / "b.json"
    assert main(["build-model", "--arch", "egvsr", "--init", "zeros",
                 "--out", str(model)]) == 0
    ops = {}
    for size in ("12x12", "16x16"):
        capsys.readouterr()
        assert main(["inspect", "--model", str(model), "--size", size]) == 0
        ops[size] = re.findall(r"graph (\w+) ops at (\w+): .* "
                               r"mac_total=(\d+)", capsys.readouterr().out)
    # the fnet pads 12x12 frame pairs to 16x16, as it runs and is benched
    assert ops == {
        "12x12": [("fnet", "16x16", "32567296"),
                  ("srnet", "12x12", "114766848")],
        "16x16": [("fnet", "16x16", "32567296"),
                  ("srnet", "16x16", "204029952")]}
    assert main(["bench", "--model", str(model), "--size", "12x12",
                 "--frames", "1", "--warmup", "0", "--report",
                 str(report)]) == 0
    row = json.loads(report.read_text())["sections"]["bench"][0]
    assert row["macs_per_frame"] == sum(int(m) for *_, m in ops["12x12"])


@pytest.mark.parametrize("name", ["three-graphs", "downscaling-net"])
def test_inspect_costs_models_that_do_not_upscale_as_a_sequence(
        tmp_path, capsys, name):
    # inspect costs each graph on its own: a bundle of three graphs (whose
    # "fnet" is not padded, as it is no pair's) and a net that maps 10x10
    # to 5x5 are shown, though neither can upscale a sequence
    bundles = {
        "three-graphs": {
            "fnet": NetworkGraph([maxpool2_layer("pool")], 2),
            "srnet": NetworkGraph([conv2d_layer("c", 5, 4, 3),
                                   pixel_shuffle_layer("up", 2)], 5),
            "extra": NetworkGraph([], 1)},
        "downscaling-net": {"net": NetworkGraph(
            [conv2d_layer("down", 1, 2, 3, stride=2),
             activation_layer("act", "relu")], 1)}}
    texts = {
        "three-graphs": """\
graph extra: in_channels=1 layers=0 meta={}
graph extra total params=0
graph extra ops at 10x10: macs=0 pointwise=0 mac_total=0 flops=0
graph fnet: in_channels=2 layers=1 meta={}
    0 pool             maxpool2           params=0 out=2x5x5 macs=0 pointwise=50
graph fnet total params=0
graph fnet ops at 10x10: macs=0 pointwise=50 mac_total=50 flops=50
graph srnet: in_channels=5 layers=2 meta={}
    0 c                conv2d             params=184 out=4x10x10 macs=18000 pointwise=0
    1 up               pixel_shuffle      params=0 out=1x20x20 macs=0 pointwise=0
graph srnet total params=184
graph srnet ops at 10x10: macs=18000 pointwise=0 mac_total=18000 flops=36000
model total params=184
""",
        "downscaling-net": """\
graph net: in_channels=1 layers=2 meta={}
    0 down             conv2d             params=20 out=2x5x5 macs=450 pointwise=0
    1 act              activation         params=0 out=2x5x5 macs=0 pointwise=50
graph net total params=20
graph net ops at 10x10: macs=450 pointwise=50 mac_total=500 flops=950
"""}
    model = tmp_path / "m.vsm"
    save_model(bundles[name], model)
    with pytest.raises(GraphError):
        model_geometry(bundles[name], (10, 10))
    assert main(["inspect", "--model", str(model), "--size", "10x10"]) == 0
    assert capsys.readouterr().out == texts[name]


# ---------------------------------------------------------------------------
# upscale

def test_upscale_writes_tripled_frames(tmp_path, control_model, capsys):
    lr_dir, frames = _write_lr_frames(tmp_path)
    out_dir = tmp_path / "hr"
    assert main(["upscale", "--model", str(control_model),
                 "--in", str(lr_dir), "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "wrote 3 frames" in text
    hr = read_sequence(out_dir)
    assert hr.shape == (3, 1, 30, 30)
    assert np.all(hr >= 0.0) and np.all(hr <= 1.0)


def test_upscale_is_deterministic(tmp_path, control_model):
    lr_dir, _ = _write_lr_frames(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["upscale", "--model", str(control_model),
                     "--in", str(lr_dir), "--out", str(out)]) == 0
    assert np.array_equal(read_sequence(out_a), read_sequence(out_b))


def test_upscale_checks_scale_flag(tmp_path, control_model, capsys):
    lr_dir, _ = _write_lr_frames(tmp_path)
    code = main(["upscale", "--model", str(control_model),
                 "--in", str(lr_dir), "--out", str(tmp_path / "x"),
                 "--scale", "4"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_upscale_recurrent_bundle(tmp_path, capsys):
    model = tmp_path / "gen.vsm"
    main(["build-model", "--arch", "egvsr", "--out", str(model)])
    lr_dir, _ = _write_lr_frames(tmp_path, t=2, c=3, h=16, w=16, seed=4)
    out_dir = tmp_path / "hr"
    assert main(["upscale", "--model", str(model), "--in", str(lr_dir),
                 "--out", str(out_dir), "--fuse-bn"]) == 0
    hr = read_sequence(out_dir)
    assert hr.shape == (2, 3, 64, 64)


def test_upscale_takes_the_luma_of_rgb_frames_for_a_1_channel_model(
        tmp_path, control_model):
    lr_dir, _ = _write_lr_frames(tmp_path, c=3)
    out_dir = tmp_path / "hr"
    assert main(["upscale", "--model", str(control_model),
                 "--in", str(lr_dir), "--out", str(out_dir)]) == 0
    gray = luma(read_sequence(lr_dir))[:, None].astype(np.float32)
    want = np.clip(vsr_run(load_bundle(control_model), gray), 0, 1)
    assert np.array_equal(read_sequence(out_dir), want)


# ---------------------------------------------------------------------------
# eval / score

def _eval_report(tmp_path, gen_dir, ref_dir, name):
    report = tmp_path / f"{name}.json"
    assert main(["eval", "--gen", str(gen_dir), "--ref", str(ref_dir),
                 "--metrics", "psnr,tof", "--label", name,
                 "--report", str(report)]) == 0
    return report


def test_eval_identical_sequences(tmp_path, capsys):
    gen_dir, _ = _write_lr_frames(tmp_path, t=3, c=3, h=40, w=40, seed=5)
    report = tmp_path / "r.json"
    assert main(["eval", "--gen", str(gen_dir), "--ref", str(gen_dir),
                 "--metrics", "psnr,ssim,tof,tlp",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    values = dict(re.findall(r"(\w+) ([0-9.]+)", out))
    assert float(values["psnr"]) == 100.0
    assert float(values["ssim"]) == 1.0
    assert float(values["tof"]) == 0.0
    assert float(values["tlp"]) == 0.0
    doc = json.loads(report.read_text())
    rows = doc["sections"]["metrics"]
    assert {r["metric"] for r in rows} == {"psnr", "ssim", "tof", "tlp"}


def test_eval_rejects_mismatched_sequences(tmp_path, capsys):
    gen_dir, _ = _write_lr_frames(tmp_path, t=3, c=3, h=40, w=40, seed=6)
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    write_sequence(np.zeros((2, 3, 40, 40), dtype=np.float32), ref_dir)
    assert main(["eval", "--gen", str(gen_dir), "--ref", str(ref_dir)]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_single_frame_needs_two_only_for_temporal_metrics(tmp_path,
                                                              capsys):
    gen_dir, _ = _write_lr_frames(tmp_path, t=1, c=3, h=40, w=40, seed=8)
    assert main(["eval", "--gen", str(gen_dir), "--ref", str(gen_dir),
                 "--metrics", "psnr"]) == 0
    assert capsys.readouterr().out == "psnr 100.000000\n"
    assert main(["eval", "--gen", str(gen_dir), "--ref", str(gen_dir),
                 "--metrics", "psnr,tof"]) == 1
    assert "at least 2 frames" in capsys.readouterr().err


def test_eval_rejects_a_repeated_metric_and_writes_no_report(tmp_path,
                                                             capsys):
    gen_dir, _ = _write_lr_frames(tmp_path, t=2, c=3, h=16, w=16, seed=9)
    report = tmp_path / "r.json"
    assert main(["eval", "--gen", str(gen_dir), "--ref", str(gen_dir),
                 "--metrics", "psnr,psnr", "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: metric 'psnr' is requested more than "
                            "once\n")
    assert captured.out == "" and not report.exists()


def test_score_ranks_methods(tmp_path, capsys):
    rng = np.random.default_rng(7)
    ref = rng.random((3, 3, 40, 40), dtype=np.float32)
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    write_sequence(ref, ref_dir)
    # close: small noise; far: heavy noise
    for name, sigma in (("close", 0.01), ("far", 0.3)):
        d = tmp_path / name
        d.mkdir()
        noisy = np.clip(ref + rng.normal(0, sigma, ref.shape), 0, 1)
        write_sequence(noisy.astype(np.float32), d)
    r1 = _eval_report(tmp_path, tmp_path / "close", ref_dir, "close")
    r2 = _eval_report(tmp_path, tmp_path / "far", ref_dir, "far")
    capsys.readouterr()
    assert main(["score", "--reports", f"{r1},{r2}"]) == 0
    out = capsys.readouterr().out
    scores = dict(re.findall(r"(\w+)\t([0-9.]+)", out))
    assert set(scores) == {"close", "far"}
    assert float(scores["close"]) > float(scores["far"])
    # best-on-everything method scores exactly 1
    assert float(scores["close"]) == 1.0


def test_score_accepts_weights(tmp_path, capsys):
    gen_dir, _ = _write_lr_frames(tmp_path, t=3, c=3, h=40, w=40, seed=8)
    r1 = _eval_report(tmp_path, gen_dir, gen_dir, "self")
    capsys.readouterr()
    assert main(["score", "--reports", str(r1),
                 "--weights", "0.7,0.3"]) == 0
    assert main(["score", "--reports", str(r1),
                 "--weights", "0.7,0.7"]) == 1
    capsys.readouterr()
    # NaN passed both the sign and the sum check, and scored nan
    for weights in ("nan,0", "inf,0", "1,nan"):
        assert main(["score", "--reports", str(r1),
                     "--weights", weights]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: weights must be finite")


def test_eval_report_keeps_per_frame_values_and_score_reads_the_metrics(
        tmp_path):
    rng = np.random.default_rng(9)
    ref = rng.random((3, 3, 40, 40), dtype=np.float32)
    write_sequence(ref, tmp_path / "ref")
    table, reports = {}, []
    for name, sigma in (("close", 0.02), ("far", 0.2)):
        noisy = np.clip(ref + rng.normal(0, sigma, ref.shape), 0, 1)
        write_sequence(noisy.astype(np.float32), tmp_path / name)
        values = evaluate_sequence(read_sequence(tmp_path / name),
                                   read_sequence(tmp_path / "ref"))
        table[name] = {m: values[m] for m in DEFAULT_METRICS}
        report = tmp_path / f"{name}.json"
        assert main(["eval", "--gen", str(tmp_path / name),
                     "--ref", str(tmp_path / "ref"), "--label", name,
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())["sections"]
        assert [(r["metric"], r["value"]) for r in doc["metrics"]] == \
            list(table[name].items())
        assert doc["per_frame"] == [
            {"method": name, "frame": t, "psnr": values["per_frame_psnr"][t],
             "ssim": values["per_frame_ssim"][t]} for t in range(3)]
        reports.append(str(report))
    scores = tmp_path / "scores.json"
    assert main(["score", "--reports", ",".join(reports),
                 "--report", str(scores)]) == 0
    assert json.loads(scores.read_text())["sections"]["scores"] == \
        score_table(table)


@pytest.mark.parametrize("metrics", [
    [{"value": 1.0}],
    [{"metric": "psnr", "value": None}],
    [{"metric": "psnr", "value": True}],
    [{"metric": "psnr", "value": "30"}],
    [{"metric": "psnr", "value": 1.0}, {"metric": "tof", "value": math.nan}],
    [{"metric": "psnr", "value": math.inf}],
    [{"metric": "psnr", "value": -math.inf}],
    [{"metric": 3, "value": 1.0}],
    [{"metric": "psnr", "value": 1.0, "method": 7}],
    [{"metric": "psnr", "value": 1.0}, ["tof", 0.5]],
    {"metric": "psnr", "value": 1.0},
    "psnr",
    [["psnr", 1.0]],
    [{"method": "a", "metric": "psnr", "value": 30.0},
     {"method": "b", "metric": "ssim", "value": 0.9}],
    [{"method": "a", "metric": "psnr", "value": 30.0},
     {"method": "a", "metric": "ssim", "value": 0.9},
     {"method": "a", "metric": "psnr", "value": 10.0}],
    [],
], ids=["no metric", "null value", "bool value", "text value", "nan value",
         "infinite value", "negative infinite value", "int metric",
        "int method", "list row", "object", "string", "list of lists",
        "second method", "repeated metric", "no rows"])
def test_score_names_a_malformed_report(tmp_path, capsys, metrics):
    report = tmp_path / "bad.json"
    report.write_text(json.dumps({"sections": {"metrics": metrics}}))
    assert main(["score", "--reports", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(report) in err
    if metrics == []:
        assert err.endswith(": eval report holds no metric rows\n")
    elif isinstance(metrics, list):
        assert f"row {len(metrics) - 1}" in err


def test_score_writes_a_csv_report(tmp_path, capsys):
    paths = []
    for name, psnr_db, tof_err in (("close", 30.0, 0.1), ("far", 25.0, 0.5)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"sections": {"metrics": [
            {"method": name, "metric": "psnr", "value": psnr_db},
            {"method": name, "metric": "tof", "value": tof_err}]}}))
        paths.append(str(path))
    report = tmp_path / "scores.csv"
    assert main(["score", "--reports", ",".join(paths), "--report",
                 str(report), "--format", "csv"]) == 0
    assert capsys.readouterr().out == (f"close\t1.000000\nfar\t0.000000\n"
                                       f"report written to {report}\n")
    lines = report.read_text().splitlines()
    assert lines[0] == "# conventions: " + json.dumps(conventions(),
                                                      sort_keys=True)
    assert lines[1:] == ["# section: scores", "key,value", "close,1.0",
                         "far,0.0"]


@pytest.mark.parametrize("text", ['{"sections": {"metr', "", "\x00"])
def test_score_names_a_report_that_is_not_json(tmp_path, capsys, text):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"sections": {"metrics": [
        {"metric": "psnr", "value": 30.0, "method": "good"}]}}))
    report = tmp_path / "bad.json"
    report.write_text(text)
    assert main(["score", "--reports", f"{good},{report}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}: not a JSON report")


# ---------------------------------------------------------------------------
# fuse-bn

def test_fuse_bn_preserves_outputs(tmp_path):
    model = tmp_path / "gen.vsm"
    main(["build-model", "--arch", "egvsr", "--seed", "2",
          "--out", str(model)])
    fused_path = tmp_path / "fused.vsm"
    assert main(["fuse-bn", "--in", str(model),
                 "--out", str(fused_path)]) == 0
    orig = load_bundle(model)
    fused = load_bundle(fused_path)
    assert len(fused["fnet"].layers) < len(orig["fnet"].layers)
    x = np.random.default_rng(1).random((1, 6, 16, 16), dtype=np.float32)
    a = orig["fnet"].forward(x)
    b = fused["fnet"].forward(x)
    denom = max(float(np.max(np.abs(a))), 1e-6)
    assert float(np.max(np.abs(a - b))) / denom <= 1e-4


def test_fuse_bn_reports_layer_counts(tmp_path, capsys):
    model = tmp_path / "gen.vsm"
    main(["build-model", "--arch", "egvsr", "--out", str(model)])
    capsys.readouterr()
    assert main(["fuse-bn", "--in", str(model),
                 "--out", str(tmp_path / "f.vsm")]) == 0
    m = re.search(r"\((\d+) layers -> (\d+) layers\)",
                  capsys.readouterr().out)
    assert m and int(m.group(2)) < int(m.group(1))


# ---------------------------------------------------------------------------
# bench / estimate-fpga

def test_bench_emits_report(tmp_path, capsys):
    model = tmp_path / "c.vsm"
    main(["build-model", "--arch", "control-a", "--out", str(model)])
    report = tmp_path / "bench.json"
    assert main(["bench", "--model", str(model), "--size", "12x10",
                 "--frames", "2", "--warmup", "1",
                 "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    row = doc["sections"]["bench"][0]
    assert row["frames"] == 2
    assert row["height"] == 10 and row["width"] == 12
    assert row["fps"] > 0


def test_bench_fuse_bn_times_the_fused_model(tmp_path, capsys):
    model = tmp_path / "gen.vsm"
    main(["build-model", "--arch", "egvsr", "--out", str(model)])
    rows = {}
    for flag in ([], ["--fuse-bn"]):
        report = tmp_path / f"bench{len(flag)}.json"
        assert main(["bench", "--model", str(model), "--size", "16x16",
                     "--frames", "1", "--warmup", "0", "--report",
                     str(report)] + flag) == 0
        rows[bool(flag)] = json.loads(report.read_text())["sections"]["bench"][0]
    assert "fused=True" in capsys.readouterr().out
    assert rows[True]["fused"] and not rows[False]["fused"]
    # the folded batch-norms no longer cost their one MAC per element
    assert rows[True]["macs_per_frame"] < rows[False]["macs_per_frame"]


def test_estimate_fpga_table_and_projections(capsys):
    assert main(["estimate-fpga", "--table",
                 "--flops-per-frame", "28.55e9,64.06e9"]) == 0
    out = capsys.readouterr().out
    assert "4x4 lut=827" in out
    fps = [float(v) for v in re.findall(r"-> ([0-9.]+) fps", out)]
    assert len(fps) == 2
    assert abs(fps[0] - 99.44) < 0.1
    assert abs(fps[1] - 44.32) < 0.05


def test_estimate_fpga_csv_report(tmp_path):
    report = tmp_path / "fpga.csv"
    assert main(["estimate-fpga", "--report", str(report),
                 "--format", "csv"]) == 0
    text = report.read_text()
    assert "# section: fpga" in text
    assert "input_size" in text


@pytest.mark.parametrize("argv", [
    ["--flops-per-frame", "nan"],
    ["--flops-per-frame", "1e9,inf"],
    ["--freq", "nan"],
    ["--freq", "inf"],
])
def test_estimate_fpga_rejects_non_finite_values(capsys, argv):
    assert main(["estimate-fpga"] + argv) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "finite" in captured.err
    assert "nan fps" not in captured.out and "-> 0.00 fps" not in captured.out


@pytest.mark.parametrize("argv", [
    ["--lut-total", "9" * 400],
    ["--freq", "1e308", "--table"],
    ["--freq", "1e308", "--flops-per-frame", "1e9"],
], ids=["lut-total", "freq", "freq-with-projection"])
def test_estimate_fpga_rejects_an_infinite_bound(capsys, argv):
    # the profile names its two values, not the frame cost; no table row
    # with an inf bound is printed first
    code = main(["estimate-fpga"] + argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: lut_total ")
    assert captured.err.endswith(" give an infinite bound\n")
    assert "flops_per_frame" not in captured.err


@pytest.mark.parametrize("argv", [
    ["--flops-per-frame", "1,zz"],
    ["--table", "--flops-per-frame", "1e9,zz"],
    ["--table", "--flops-per-frame", "1e9,1e-320"],
], ids=["text", "text-with-table", "inf-fps-with-table"])
def test_estimate_fpga_bad_item_leaves_no_partial_output(capsys, argv):
    # every item is read and projected before the first line is printed
    assert main(["estimate-fpga"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# ---------------------------------------------------------------------------
# error handling

@pytest.mark.parametrize("argv, message", [
    (["inspect", "--model", "{model}", "--size", "0x8"],
     "--size dimensions must be positive, got '0x8'"),
    # int() rejects '²', which str.isdigit() accepts
    (["inspect", "--model", "{model}", "--size", "\u00b2x5"],
     "bad --size '\u00b2x5', expected WxH like 320x180"),
    (["upscale", "--model", "{model}", "--in", "{d}/lr", "--out", "{d}/hr"],
     "model expects 1-channel frames, directory holds 2-channel frames"),
    (["score", "--reports", "{d}/nosec.json"],
     "nosec.json: not an eval report (missing sections/metrics)"),
    (["score", "--reports", " , "], "no report paths given"),
    (["score", "--reports", "{d}/a.json,{d}/a.json"],
     "duplicate method label 'a'; use distinct --label values in eval"),
    (["score", "--reports", "{d}/a.json", "--weights", "0.5,0.5"],
     "2 weights for metrics ['psnr']; counts must match"),
], ids=["zero-size", "superscript-size", "frame-channels",
        "no-metrics-section", "no-reports", "duplicate-label", "weight-count"])
def test_argument_faults_are_clean_errors(tmp_path, capsys, control_model,
                                          argv, message):
    _write_lr_frames(tmp_path, c=2)
    (tmp_path / "nosec.json").write_text(json.dumps({"sections": {}}))
    (tmp_path / "a.json").write_text(json.dumps({"sections": {"metrics": [
        {"method": "a", "metric": "psnr", "value": 30.0}]}}))
    argv = [a.format(model=control_model, d=tmp_path) for a in argv]
    _assert_clean_error(main(argv), capsys, message)
    assert not (tmp_path / "hr").exists()


def test_bench_out_of_memory_is_a_clean_error(capsys, monkeypatch, control_model):
    from vsrkit import bench

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. TiB for an array")

    monkeypatch.setattr(bench, "time_pipeline", exhausted)
    assert main(["bench", "--model", str(control_model),
                 "--size", "200000x200000", "--frames", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err


def test_missing_model_file_is_a_clean_error(tmp_path, capsys):
    assert main(["inspect", "--model", str(tmp_path / "nope.vsm")]) == 1
    assert "error:" in capsys.readouterr().err


def test_upscale_non_finite_frame_is_a_clean_error(tmp_path, capsys,
                                                   write_raw_f32):
    model = tmp_path / "gen.vsm"
    main(["build-model", "--arch", "egvsr", "--out", str(model)])
    frames = np.random.default_rng(8).random((2, 3, 16, 16),
                                             dtype=np.float32)
    frames[1, 2, 7, 7] = np.nan
    lr_dir = tmp_path / "lr"
    lr_dir.mkdir()
    for t, frame in enumerate(frames):
        write_raw_f32(lr_dir / f"{t:04d}.f32", frame)
    capsys.readouterr()
    assert main(["upscale", "--model", str(model), "--in", str(lr_dir),
                 "--out", str(tmp_path / "hr")]) == 1
    err = capsys.readouterr().err
    assert "0001.f32: payload holds 1 non-finite values" in err
    assert "Traceback" not in err


def _set_attr(kind, key, value):
    """Header edit: set (or, with value None, drop) one attribute of the
    first layer of ``kind``."""
    def edit(header):
        layer = next(ly for ly in header["graphs"][0]["layers"]
                     if ly["kind"] == kind)
        if value is None:
            del layer["attrs"][key]
        else:
            layer["attrs"][key] = value
    return edit


def test_inspect_rejects_zero_pixel_shuffle_factor(tmp_path, capsys,
                                                   edit_vsm_header):
    model = tmp_path / "c.vsm"
    main(["build-model", "--arch", "control-c", "--out", str(model)])
    edit_vsm_header(model, _set_attr("pixel_shuffle", "r", 0))
    capsys.readouterr()
    assert main(["inspect", "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'shuffle'" in err


def test_inspect_rejects_zero_conv_stride(tmp_path, capsys, edit_vsm_header):
    model = tmp_path / "a.vsm"
    main(["build-model", "--arch", "control-a", "--out", str(model)])
    edit_vsm_header(model, _set_attr("conv2d", "stride", 0))
    capsys.readouterr()
    assert main(["inspect", "--model", str(model), "--size", "8x8"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "stride must be >= 1, got 0" in err


def test_fuse_bn_rejects_batch_norm_without_eps(tmp_path, capsys,
                                                edit_vsm_header):
    model = tmp_path / "bn.vsm"
    save_model({"net": NetworkGraph([conv2d_layer("c", 2, 3, 3),
                                     batch_norm_layer("bn", 3)],
                                    in_channels=2)}, model)
    edit_vsm_header(model, _set_attr("batch_norm", "eps", None))
    assert main(["fuse-bn", "--in", str(model),
                 "--out", str(tmp_path / "f.vsm")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "eps" in err


def _faults():
    """(layer name, edit) for each parameter fault found at load."""
    def arr(key, fn):
        return lambda ly: ly.arrays.__setitem__(key, fn(ly.arrays[key]))

    def attr(key, value):
        return lambda ly: ly.attrs.__setitem__(key, value)

    def short_bn(ly):
        for key in ("gamma", "beta", "mean", "var"):
            arr(key, lambda a: a[:-1])(ly)

    negative = lambda a: np.concatenate([a[:-1], [-1.0]])
    return {
        "short beta": ("bn", arr("beta", lambda a: a[:-1])),
        "short mean": ("bn", arr("mean", lambda a: a[:-1])),
        "short var": ("bn", arr("var", lambda a: a[:-1])),
        "negative var": ("bn", arr("var", negative)),
        "nan eps": ("bn", attr("eps", float("nan"))),
        "text alpha": ("act", attr("alpha", "abc")),
        "nan alpha": ("act", attr("alpha", float("nan"))),
        "infinite scale": ("act", attr("scale", float("inf"))),
        "short conv bias": ("c", arr("bias", lambda a: a[:-1])),
        # a layer's geometry is the shape of its arrays
        "conv weight of 3 input channels": (
            "c", arr("weight", lambda a: np.zeros((3, 3, 3, 3)))),
        "non-square conv weight": ("c", arr("weight", lambda a: a[..., :2])),
        "3-D conv weight": ("c", arr("weight", lambda a: a.reshape(3, 2, 9))),
        "zero conv stride": ("c", attr("stride", 0)),
        "zero transposed scale": ("t", attr("scale", 0)),
        "transposed pad without an exact x2": ("t", attr("pad", 0)),
        "short batch-norm": ("bn", short_bn),
    }


@pytest.mark.parametrize("command", ["inspect", "fuse-bn"])
@pytest.mark.parametrize("fault", sorted(_faults()))
def test_parameter_faults_are_named_at_load(tmp_path, capsys, command, fault):
    name, edit = _faults()[fault]
    g = NetworkGraph([conv2d_layer("c", 2, 3, 3), batch_norm_layer("bn", 3),
                      activation_layer("act", "leaky_relu"),
                      conv_transpose2d_layer("t", 3, 3, 4, 2, 1)],
                     in_channels=2)
    edit(next(ly for ly in g.layers if ly.name == name))
    model = tmp_path / "bad.vsm"
    save_model({"net": g}, model)
    with pytest.raises(ModelFormatError, match=rf"graph 'net' fails "
                                               rf"validation: layer \d+ "
                                               rf"\({name!r}, ") as info:
        load_bundle(model)
    assert isinstance(info.value.__cause__, GraphError)
    argv = (["inspect", "--model", str(model)] if command == "inspect" else
            ["fuse-bn", "--in", str(model), "--out", str(tmp_path / "f.vsm")])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "graph 'net'" in err
    assert f"({name!r}, " in err
    if fault == "zero transposed scale":    # named as the file names it
        assert "scale must be >= 1, got 0" in err
    assert not (tmp_path / "f.vsm").exists()


@pytest.mark.parametrize("key, value", [("stride", True)])
def test_inspect_rejects_integer_attributes_of_another_type(
        tmp_path, capsys, edit_vsm_header, key, value):
    model = tmp_path / "c.vsm"
    save_model({"net": NetworkGraph([conv2d_layer("c", 3, 3, 3)],
                                    in_channels=3)}, model)
    edit_vsm_header(model, _set_attr("conv2d", key, value))
    code = main(["inspect", "--model", str(model), "--size", "8x8"])
    _assert_clean_error(code, capsys, f"graph 'net' fails validation: layer 0 "
                                      f"('c', conv2d): {key} must be an "
                                      f"integer, got {value!r}")


def _first_conv(header):
    return next(ly for ly in header["graphs"][0]["layers"]
                if ly["kind"] == "conv2d")


def _set_conv_field(key, value):
    def edit(header):
        _first_conv(header)[key] = value
    return edit


def _set_weight_shape(shape):
    def edit(header):
        _first_conv(header)["shapes"]["weight"] = shape
    return edit


def _set_graphs(header):
    header["graphs"] = 5


def _drop_graph_field(key):
    def edit(header):
        del header["graphs"][0][key]
    return edit


def _set_graph_field(key, value):
    def edit(header):
        header["graphs"][0][key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set_conv_field("attrs", 5), "layer 0: 'attrs' is not an object"),
    (_set_graphs, "'graphs' must be a list of objects"),
    (_drop_graph_field("layers"),
     "graph 'net': 'layers' is missing or not a list"),
    (_set_conv_field("shapes", {"weight": 5, "bias": [64]}),
     "layer 0: 'shapes' is not an object of lists"),
    (_set_weight_shape([64, 1, 5.5, 5]),
     "array 'weight' has shape [64, 1, 5.5, 5]"),
    (_set_weight_shape([64, 1, -5, -5]),
     "array 'weight' has shape [64, 1, -5, -5]"),
    (_set_weight_shape([64, 2 ** 20, 2 ** 10, 5]), "payload truncated"),
    (_set_conv_field("name", None), "layer 0: not an object with string"),
    (_set_conv_field("kind", ["conv2d"]), "layer 0: not an object with string"),
    (_set_graph_field("in_channels", None), "'in_channels' must be an integer"),
    (_set_graph_field("meta", 5), "graph 'net': 'meta' is not an object"),
    (_set_graph_field("name", None), "graph 0: 'name' is missing or not a"),
    (_set_graph_field("name", 5), "graph 0: 'name' is missing or not a"),
    (_drop_graph_field("name"), "graph 0: 'name' is missing or not a"),
], ids=["attrs-not-object", "graphs-not-list", "layers-missing",
        "shapes-not-lists", "fractional-dim", "negative-dim", "huge-shape",
        "name-not-string", "kind-not-string", "in-channels-not-int",
        "meta-not-object", "graph-name-null", "graph-name-number",
        "graph-name-missing"])
def test_inspect_rejects_malformed_header_structure(tmp_path, capsys,
                                                   edit_vsm_header, edit,
                                                   message):
    model = tmp_path / "a.vsm"
    main(["build-model", "--arch", "control-a", "--out", str(model)])
    edit_vsm_header(model, edit)
    capsys.readouterr()
    assert main(["inspect", "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def egvsr_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("egvsr") / "gen.vsm"
    assert main(["build-model", "--arch", "egvsr", "--out", str(path)]) == 0
    return path


def _set_srnet_meta(key, value):
    """Header edit: set (or, with value None, drop) one srnet meta key."""
    def edit(header):
        meta = next(g for g in header["graphs"]
                    if g["name"] == "srnet")["meta"]
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    return edit


def _assert_clean_error(code, capsys, message):
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and message in err
    assert "Traceback" not in err


def _old_meta(header):
    """Header edit: the meta keys that older builders wrote."""
    for g in header["graphs"]:
        g["meta"].update({"fnet": {"max_flow": 24.0},
                          "srnet": {"scale": 4, "frame_channels": 3}}
                         [g["name"]])


def _run(command, model, tmp_path, tag):
    """What ``command`` makes of ``model``: the bench row without its
    timings, or the bytes of the upscaled frames."""
    out = tmp_path / tag
    if command == "bench":
        assert main(["bench", "--model", str(model), "--size", "16x16",
                     "--frames", "1", "--warmup", "0",
                     "--report", str(out)]) == 0
        row = json.loads(out.read_text())["sections"]["bench"][0]
        timings = ("wall_time_s", "fps", "mean_frame_s", "median_frame_s")
        return {k: v for k, v in row.items() if k not in timings}
    lr_dir, _ = _write_lr_frames(tmp_path, t=2, c=3, h=16, w=16)
    assert main(["upscale", "--model", str(model), "--in", str(lr_dir),
                 "--out", str(out)]) == 0
    return read_sequence(out).tobytes()


@pytest.mark.parametrize("command", ["bench", "upscale"])
@pytest.mark.parametrize("key, value", [
    ("arch", "srnet"), ("scale", None), ("scale", "x"), ("scale", 0),
    ("scale", 4.5), ("frame_channels", None), ("frame_channels", [1]),
    ("frame_channels", 1), ("scale", 2),
], ids=["as-written", "scale-missing", "scale-str", "scale-zero",
        "scale-fractional", "frame-channels-missing", "frame-channels-list",
        "frame-channels-vs-fnet", "scale-vs-srnet"])
def test_srnet_meta_edits_change_nothing(tmp_path, edit_vsm_header,
                                        egvsr_model, command, key, value):
    # an older file's meta keys, edited or dropped, are carried along
    # unread: the geometry comes from the graphs
    model = tmp_path / "gen.vsm"
    model.write_bytes(egvsr_model.read_bytes())
    edit_vsm_header(model, _old_meta)
    edit_vsm_header(model, _set_srnet_meta(key, value))
    got = _run(command, model, tmp_path, "edited")
    assert got == _run(command, egvsr_model, tmp_path, "plain")
    save_model(load_bundle(model), tmp_path / "again.vsm")
    bundle = load_bundle(tmp_path / "again.vsm")
    assert bundle["srnet"].meta.get(key) == value
    assert bundle["fnet"].meta == {"arch": "fnet", "max_flow": 24.0}


def test_upscale_scale_flag_is_checked_against_the_graph(
        tmp_path, capsys, edit_vsm_header, control_model):
    def lie(header):
        header["graphs"][0]["meta"]["scale"] = 2
    edit_vsm_header(control_model, lie)
    lr_dir, _ = _write_lr_frames(tmp_path, h=8, w=8)
    out_dir = tmp_path / "hr"
    argv = ["upscale", "--model", str(control_model), "--in", str(lr_dir),
            "--out", str(out_dir), "--scale"]
    capsys.readouterr()
    _assert_clean_error(main(argv + ["2"]), capsys,
                        "model upscales x3, but --scale 2 was requested")
    assert not out_dir.exists()
    assert main(argv + ["3"]) == 0
    assert read_sequence(out_dir).shape == (3, 1, 24, 24)


@pytest.mark.parametrize("command", ["bench", "upscale"])
def test_single_net_that_downsizes_is_a_clean_error(tmp_path, capsys,
                                                    command):
    model = tmp_path / "down.vsm"
    save_model({"net": init_random(NetworkGraph(
        [conv2d_layer("down", 1, 1, 3, stride=2)], 1), 0)}, model)
    if command == "bench":
        argv = ["bench", "--model", str(model), "--size", "10x10",
                "--frames", "1", "--warmup", "0"]
    else:
        lr_dir, _ = _write_lr_frames(tmp_path)
        argv = ["upscale", "--model", str(model), "--in", str(lr_dir),
                "--out", str(tmp_path / "hr")]
    capsys.readouterr()
    _assert_clean_error(main(argv), capsys, "graph 'net' maps 10x10 frames "
                                            "to 5x5, not an integer multiple")


@pytest.mark.parametrize("probe", ["three-channel-flow", "pooled-flow",
                                   "empty-conv-upscale", "empty-conv-inspect"])
def test_a_graph_that_fails_at_the_frame_size_is_a_clean_error(
        tmp_path, capsys, probe):
    model = tmp_path / "m.vsm"
    if probe.startswith("empty-conv"):
        save_model({"net": NetworkGraph([conv2d_layer("c", 1, 1, 3, pad=0)],
                                        1)}, model)
        lr_dir, _ = _write_lr_frames(tmp_path, c=1, h=1, w=1)
        message = ("graph 'net': layer 0 ('c', conv2d): conv geometry gives "
                   "empty output")
    else:
        gen = build_generator()
        layers = gen["fnet"].layers
        if probe == "three-channel-flow":
            layers[-2] = conv2d_layer("head_conv2", 32, 3, 3)
        else:
            layers.append(maxpool2_layer("extra_pool"))
        gen["fnet"] = NetworkGraph(layers, gen["fnet"].in_channels)
        save_model(gen, model)
        lr_dir, _ = _write_lr_frames(tmp_path, c=3, h=16, w=16)
        message = ("graph 'fnet' maps 16x16 frame pairs to "
                   + ("3x16x16" if probe == "three-channel-flow" else "2x8x8")
                   + ", not a 2x16x16 flow")
    argv = (["inspect", "--model", str(model), "--size", "1x1"]
            if probe.endswith("inspect") else
            ["upscale", "--model", str(model), "--in", str(lr_dir),
             "--out", str(tmp_path / "hr")])
    capsys.readouterr()
    _assert_clean_error(main(argv), capsys, message)
    assert not (tmp_path / "hr").exists()


def _save_with_nan_weight(bundle, gname, path):
    conv = next(ly for ly in bundle[gname].layers if ly.kind == "conv2d")
    conv.arrays["weight"][0, 0, 0, 0] = np.nan
    save_model(bundle, path)


@pytest.mark.parametrize("arch, gname, c, fmt", [
    ("control-a", "net", 1, "f32"), ("egvsr", "srnet", 3, "ppm"),
])
def test_upscale_nan_weight_is_a_clean_error(tmp_path, capsys, arch, gname,
                                             c, fmt):
    model = tmp_path / "m.vsm"
    assert main(["build-model", "--arch", arch, "--out", str(model)]) == 0
    _save_with_nan_weight(load_bundle(model), gname, model)
    lr_dir, _ = _write_lr_frames(tmp_path, t=2, c=c, h=16, w=16)
    out_dir = tmp_path / "hr"
    capsys.readouterr()
    code = main(["upscale", "--model", str(model), "--in", str(lr_dir),
                 "--out", str(out_dir), "--format", fmt])
    _assert_clean_error(code, capsys, f"frame 0: graph '{gname}' output "
                                      f"holds")
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_bad_size_argument(tmp_path, capsys):
    model = tmp_path / "c.vsm"
    main(["build-model", "--arch", "control-a", "--out", str(model)])
    capsys.readouterr()
    assert main(["bench", "--model", str(model), "--size", "twelve"]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# start-up cost

# the upscale path and every command but eval, in one fresh process; the
# JSON line lists the scipy modules loaded by the end
_UPSCALE_PATH = """
import json, os, sys
import numpy as np
from vsrkit import (BACKENDS, fuse_conv_bn, load_bundle, read_sequence,
                    vsr_run, write_sequence)
from vsrkit.cli import main

d = sys.argv[1]
model, fused = os.path.join(d, "g.vsm"), os.path.join(d, "f.vsm")
lr, report = os.path.join(d, "lr"), os.path.join(d, "e.json")
write_sequence(np.random.default_rng(0).random((2, 3, 8, 12),
                                               dtype=np.float32), lr)
with open(report, "w") as fh:
    json.dump({"sections": {"metrics": [
        {"method": "a", "metric": "psnr", "value": 30.0}]}}, fh)
codes = [
    main(["build-model", "--arch", "egvsr", "--out", model]),
    main(["inspect", "--model", model, "--size", "12x8"]),
    main(["fuse-bn", "--in", model, "--out", fused]),
    main(["upscale", "--model", model, "--in", lr, "--out",
          os.path.join(d, "hr"), "--fuse-bn", "--conv", "winograd"]),
    main(["bench", "--model", fused, "--size", "12x8", "--frames", "1",
          "--warmup", "0"]),
    main(["score", "--reports", report]),
    main(["estimate-fpga", "--table", "--flops-per-frame", "1e9"]),
]
bundle = load_bundle(model)
frames = read_sequence(lr)
for b in (bundle, {k: fuse_conv_bn(g) for k, g in bundle.items()}):
    for backend in BACKENDS:
        write_sequence(np.clip(vsr_run(b, frames, backend=backend), 0, 1),
                       os.path.join(d, "out"), fmt="f32")
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_the_upscale_path_and_commands_never_load_scipy(tmp_path,
                                                        fresh_python):
    # scipy.ndimage costs about half of a fresh process's start-up and
    # 25 MB; only the quality metrics filter, and they import it there
    got = fresh_python(_UPSCALE_PATH, tmp_path)
    assert got == {"codes": [0] * 7, "scipy": []}
