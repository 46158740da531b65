"""The buffer-lean warp, Lucas-Kanade step, luma, sequence reader,
overlapped evaluation, single frame loop, per-kind layer steps and costs,
and batch-norm fusion against straightforward reference implementations.

``_reference_warp`` and ``_reference_lk_level`` are the plain formulations
(meshgrid coordinates, an NHWC gather, ``np.where`` and ``np.stack``);
``_reference_resize_flow`` is the tracker's own flow upsample that the
shared ``tensor.bilinear_sample`` replaced.
The library versions must reproduce them bit for bit, and must stay inside
the ``tracemalloc`` peaks measured for them at 384x512.
"""

import threading
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from vsrkit import (
    build_control_srnet,
    build_generator,
    default_perceptual_distance,
    dense_flow,
    estimate_flow,
    evaluate_sequence,
    psnr,
    read_f32,
    read_ppm,
    read_sequence,
    fuse_conv_bn,
    init_random,
    luma,
    ssim,
    time_pipeline,
    tlp,
    tof,
    vsr_run,
    vsr_step,
    warp,
    write_sequence,
)
from vsrkit import BACKENDS, bench, conv, graph, metrics, tensor
from vsrkit.conv import ConvKernel
from vsrkit.tensor import DTYPE

from test_graph import _kind_cases


def _reference_warp(x, flow):
    x = np.asarray(x, dtype=DTYPE)
    flow = np.asarray(flow, dtype=DTYPE)
    n, c, h, w = x.shape
    gy, gx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    sx = gx[None] + flow[:, 0].astype(np.float64)
    sy = gy[None] + flow[:, 1].astype(np.float64)
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (sx - x0).astype(DTYPE)[..., None]
    fy = (sy - y0).astype(DTYPE)[..., None]

    xv = np.ascontiguousarray(x.transpose(0, 2, 3, 1))  # (n, h, w, c)
    b = np.arange(n, dtype=np.intp)[:, None, None]
    v00 = xv[b, y0, x0]
    v01 = xv[b, y0, x1]
    v10 = xv[b, y1, x0]
    v11 = xv[b, y1, x1]
    top = v00 + (v01 - v00) * fx
    bot = v10 + (v11 - v10) * fx
    out = top + (bot - top) * fy
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2)).astype(DTYPE)


def _reference_lk_level(a, b, flow):
    h, w = a.shape
    degenerate = np.zeros((h, w), dtype=bool)
    for _ in range(metrics.LK_ITERS):
        bw = _reference_warp(b[None, None].astype(DTYPE),
                             flow[None].astype(DTYPE))[0, 0].astype(np.float64)
        gy, gx = np.gradient(bw)
        it = bw - a
        win = metrics.LK_WINDOW
        sxx = ndimage.uniform_filter(gx * gx, win)
        syy = ndimage.uniform_filter(gy * gy, win)
        sxy = ndimage.uniform_filter(gx * gy, win)
        sxt = ndimage.uniform_filter(gx * it, win)
        syt = ndimage.uniform_filter(gy * it, win)
        det = sxx * syy - sxy * sxy
        degenerate = det < metrics.LK_DET_EPS
        safe = np.where(degenerate, 1.0, det)
        du = np.where(degenerate, 0.0, -(syy * sxt - sxy * syt) / safe)
        dv = np.where(degenerate, 0.0, -(sxx * syt - sxy * sxt) / safe)
        flow = flow + np.stack([du, dv])
        flow = np.clip(flow, -metrics.LK_MAX_DISP, metrics.LK_MAX_DISP)
    return flow, degenerate


def _reference_resize_flow(flow, target):
    """The flow upsample the tracker used before it shared the tensor
    sampler: float64, one channel at a time, sample positions clamped to
    the border before the weights are taken."""
    th, tw = target
    h, w = flow.shape[1:]
    ys = (np.arange(th) + 0.5) * (h / th) - 0.5
    xs = (np.arange(tw) + 0.5) * (w / tw) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    out = np.empty((2, th, tw))
    for ch in range(2):
        y0 = np.floor(ys).astype(int)
        y1 = np.minimum(y0 + 1, h - 1)
        fy = (ys - y0)[:, None]
        rows = flow[ch][y0] * (1 - fy) + flow[ch][y1] * fy
        x0 = np.floor(xs).astype(int)
        x1 = np.minimum(x0 + 1, w - 1)
        fx = xs - x0
        out[ch] = rows[:, x0] * (1 - fx) + rows[:, x1] * fx
    return out


def _reference_bilinear_resize(t, scale):
    """``bilinear_resize`` as it was written before it called the shared
    sampler: fancy indexing, float32 weights, a w-major result."""
    n, c, h, w = t.shape
    oh, ow = int(round(h * scale)), int(round(w * scale))
    sy = (np.arange(oh, dtype=np.float64) + 0.5) * (h / oh) - 0.5
    sx = (np.arange(ow, dtype=np.float64) + 0.5) * (w / ow) - 0.5
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    wy = (sy - y0).astype(DTYPE)
    wx = (sx - x0).astype(DTYPE)
    rows0 = t[:, :, np.clip(y0, 0, h - 1), :]
    rows1 = t[:, :, np.clip(y0 + 1, 0, h - 1), :]
    rows = (rows0 * (1.0 - wy)[None, None, :, None]
            + rows1 * wy[None, None, :, None])
    out = (rows[:, :, :, np.clip(x0, 0, w - 1)] * (1.0 - wx)[None, None, None, :]
           + rows[:, :, :, np.clip(x0 + 1, 0, w - 1)] * wx[None, None, None, :])
    return out.astype(DTYPE, copy=False)


def _texture_pair(seed, h, w, dy=1, dx=2):
    tex = ndimage.gaussian_filter(
        np.random.default_rng(seed).random((h + 8, w + 8)), 1.5)
    return tex[4:4 + h, 4:4 + w], tex[4 + dy:4 + dy + h, 4 + dx:4 + dx + w]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# warp

def _warp_cases():
    rng = np.random.default_rng(11)

    def case(shape, scale):
        n, c, h, w = shape
        return (rng.random(shape, dtype=np.float32),
                (rng.standard_normal((n, 2, h, w)) * scale).astype(np.float32))

    wide = rng.random((2, 5, 24, 32), dtype=np.float32)
    return {
        "n2-c3-across-borders": case((2, 3, 24, 32), 40.0),
        "zero-flow": (case((2, 3, 24, 32), 0.0)[0],
                      np.zeros((2, 2, 24, 32), dtype=np.float32)),
        "channel-slice": (wide[:, 1:4],
                          case((2, 3, 24, 32), 3.0)[1]),
        "h1": case((1, 3, 1, 17), 4.0),
        "w1": case((2, 2, 9, 1), 4.0),
        "several-strips": case((1, 2, 300, 64), 6.0),
        "row-wider-than-a-strip": case((1, 1, 2, 20000), 30.0),
    }


@pytest.mark.parametrize("name", sorted(_warp_cases()))
def test_warp_is_bit_identical_to_reference(name):
    x, flow = _warp_cases()[name]
    out = warp(x, flow)
    assert out.dtype == np.float32 and out.flags.c_contiguous
    assert np.array_equal(out, _reference_warp(x, flow))


def test_warp_peak_memory_at_384x512():
    rng = np.random.default_rng(12)
    x = rng.random((1, 3, 384, 512), dtype=np.float32)
    flow = (rng.standard_normal((1, 2, 384, 512)) * 3).astype(np.float32)
    # measured 3.6 MB (1.5x the 2.4 MB output); the reference peaks at 38 MB
    assert _peak_bytes(warp, x, flow) < 2.5 * x.nbytes


# ---------------------------------------------------------------------------
# Lucas-Kanade

@pytest.mark.parametrize("scale", [0.0, 0.3, 4.0, 80.0])
def test_lk_level_is_bit_identical_to_reference(scale):
    a, b = _texture_pair(13, 96, 128)
    flow = np.random.default_rng(14).standard_normal((2, 96, 128)) * scale
    got_flow, got_deg = metrics._lk_level(a, b, flow.copy())
    want_flow, want_deg = _reference_lk_level(a, b, flow.copy())
    assert np.array_equal(got_flow, want_flow)
    assert np.array_equal(got_deg, want_deg)


def _reference_dense_flow(monkeypatch, a, b):
    with monkeypatch.context() as m:
        m.setattr(metrics, "_lk_level", _reference_lk_level)
        m.setattr(metrics, "bilinear_sample", lambda t, oh, ow:
                  _reference_resize_flow(t[0], (oh, ow))[None])
        return dense_flow(a, b)


def _flow_pairs():
    rng = np.random.default_rng(15)
    faint = 0.5 + 1e-2 * rng.standard_normal((96, 128))
    return {
        "shifted-texture": _texture_pair(16, 96, 128),
        "flat": (np.full((96, 128), 0.4), np.full((96, 128), 0.4)),
        # a faint texture under a large brightness step drives the
        # Lucas-Kanade update into the displacement clamp both ways
        "clamped": (faint, faint + 1.0),
        # levels that do not halve exactly: 45x61 -> 23x31 (two levels),
        # 101x67 -> 51x34 -> 26x17
        "odd-45x61": _texture_pair(18, 45, 61),
        "odd-101x67": _texture_pair(19, 101, 67),
    }


@pytest.mark.parametrize("name", sorted(_flow_pairs()))
def test_dense_flow_is_bit_identical_to_reference(name, monkeypatch):
    a, b = _flow_pairs()[name]
    got = dense_flow(a, b)
    want = _reference_dense_flow(monkeypatch, a, b)
    assert np.array_equal(got.flow, want.flow)
    assert got.degenerate_fraction == want.degenerate_fraction
    if name == "clamped":
        assert got.flow.max() == metrics.LK_MAX_DISP
        assert got.flow.min() == -metrics.LK_MAX_DISP


@pytest.mark.parametrize("shape, target", [((2, 12, 16), (24, 32)),
                                           ((2, 23, 31), (45, 61)),
                                           ((2, 26, 17), (51, 34))])
def test_bilinear_sample_of_a_float64_flow(shape, target):
    flow = np.random.default_rng(20).standard_normal(shape) * 5
    got = tensor.bilinear_sample(flow[None], *target)[0]
    assert got.dtype == np.float64 and got.flags.c_contiguous
    want = _reference_resize_flow(flow, target)
    # a border sample is clamped by its index here and by its position in
    # the reference: v*(1-w) + v*w against v. That is the same bits when
    # the size doubles exactly, else a last-bit difference on the border
    if target == (24, 32):
        assert np.array_equal(got, want)
    assert np.array_equal(got[:, 1:-1, 1:-1], want[:, 1:-1, 1:-1])
    assert np.abs(got - want).max() <= np.spacing(np.abs(flow).max())


@pytest.mark.parametrize("scale", [1.5, 2.0, 3.0, 4.0])
def test_bilinear_resize_equals_its_previous_expression(scale):
    x = np.random.default_rng(21).standard_normal((2, 5, 11, 14)).astype(
        np.float32)
    got = tensor.bilinear_resize(x, scale)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(
        _reference_bilinear_resize(x, scale)).tobytes()


def test_dense_flow_peak_memory_at_384x512():
    a, b = _texture_pair(17, 384, 512)
    # measured 17.4 MB; the reference step and warp peak at 54 MB
    assert _peak_bytes(dense_flow, a, b) < 20e6


# ---------------------------------------------------------------------------
# luma

@pytest.mark.parametrize("shape", [(3, 24, 32), (4, 3, 24, 32), (1, 24, 32)],
                         ids=["frame", "sequence", "gray"])
def test_luma_is_bit_identical_to_the_weighted_sum(shape):
    x = np.random.default_rng(23).random(shape, dtype=np.float32)
    planes = x.astype(np.float64)
    if shape[-3] == 1:
        want = planes[..., 0, :, :]
    else:
        r, g, b = (planes[..., i, :, :] for i in range(3))
        want = 0.299 * r + 0.587 * g + 0.114 * b
    got = luma(x)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# read_sequence

@pytest.mark.parametrize("fmt", ["ppm", "f32"])
def test_read_sequence_equals_stacked_frame_reads(tmp_path, fmt):
    seq = np.random.default_rng(18).random((5, 3, 12, 20), dtype=np.float32)
    paths = write_sequence(seq, tmp_path, fmt=fmt)
    reader = read_ppm if fmt == "ppm" else read_f32
    got = read_sequence(tmp_path)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert np.array_equal(got, np.stack([reader(p) for p in paths]))


def test_read_sequence_peak_memory_is_one_copy(tmp_path):
    seq = np.random.default_rng(19).random((8, 3, 384, 512), dtype=np.float32)
    write_sequence(seq, tmp_path, fmt="ppm")
    frame = seq[0].nbytes
    # measured 1.16x the result (one frame plus its bytes on top of it);
    # reading a list, stacking it and casting the stack peaks at 3x
    assert _peak_bytes(read_sequence, tmp_path) < seq.nbytes + 2 * frame


# ---------------------------------------------------------------------------
# evaluate_sequence

def _sequences(t=3, seed=20, h=40, w=48):
    rng = np.random.default_rng(seed)
    ref = rng.random((t, 3, h, w), dtype=np.float32)
    gen = np.clip(ref + rng.normal(0, 0.05, ref.shape), 0, 1).astype(DTYPE)
    gen[1:] = np.roll(gen[1:], 1, axis=-1)
    return gen, ref


def _check_evaluate_sequence_equals_the_metric_functions(gen, ref):
    frames = range(gen.shape[0])
    frame_psnr = [psnr(gen[t], ref[t]) for t in frames]
    frame_ssim = [ssim(gen[t], ref[t]) for t in frames]
    want = {"psnr": float(np.mean(frame_psnr)),
            "ssim": float(np.mean(frame_ssim)),
            "tof": tof(gen, ref),
            "tlp": tlp(gen, ref, pd=default_perceptual_distance()),
            "per_frame_psnr": frame_psnr,
            "per_frame_ssim": frame_ssim}
    assert evaluate_sequence(gen, ref) == want
    assert evaluate_sequence(gen, ref, metrics=("tof", "psnr")) == {
        "psnr": want["psnr"], "tof": want["tof"],
        "per_frame_psnr": frame_psnr}


def test_evaluate_sequence_equals_the_metric_functions_one_by_one():
    _check_evaluate_sequence_equals_the_metric_functions(*_sequences())


def test_evaluate_sequence_equals_the_metric_functions_on_three_levels():
    # 96x128 gives dense_flow all three pyramid levels; 40x48 gives two
    gen, ref = _sequences(t=5, h=96, w=128)
    _check_evaluate_sequence_equals_the_metric_functions(gen, ref)


def test_evaluate_sequence_of_1_channel_sequences():
    # gray frames take the luma plane as is, and the perceptual distance
    # sees them as three equal channels
    gen, ref = (seq[:, :1].copy() for seq in _sequences(t=4))
    _check_evaluate_sequence_equals_the_metric_functions(gen, ref)
    rgb = [np.repeat(seq, 3, axis=1) for seq in (gen, ref)]
    assert evaluate_sequence(gen, ref)["tlp"] == tlp(*rgb)


def _reference_tlp(gen, ref, pd):
    """tLP pair by pair: the distance of each consecutive generated pair
    against that of the reference pair, each frame's features computed
    once per pair it is in."""
    return float(np.mean([abs(pd.distance(gen[t - 1], gen[t])
                              - pd.distance(ref[t - 1], ref[t]))
                          for t in range(1, gen.shape[0])]))


@pytest.mark.parametrize("t", [2, 5])
@pytest.mark.parametrize("c", [3, 1], ids=["rgb", "gray"])
def test_tlp_is_bit_identical_to_reference(t, c):
    gen, ref = (seq[:, :c].copy() for seq in _sequences(t=t, h=45, w=61))
    want = _reference_tlp(gen, ref, default_perceptual_distance())
    assert want > 0.0
    assert tlp(gen, ref) == want
    assert evaluate_sequence(gen, ref, metrics=("tlp",))["tlp"] == want
    assert evaluate_sequence(gen, ref)["tlp"] == want


def test_tlp_peak_memory_at_384x512():
    gen, ref = _sequences(t=3, h=384, w=512)
    tlp(gen[:2], ref[:2])           # the default distance is built once
    # measured 11.9 MB: two frames' features (2.65 MB each) and the conv
    # buffers of the one being made, as one distance call holds; a pair
    # kept bound while the next frame's features are made read 14.6 MB
    assert _peak_bytes(tlp, gen, ref) < 13.3e6


def test_evaluate_sequence_runs_at_most_two_computations_at_once(
        monkeypatch):
    lock = threading.Lock()
    running = [0]
    peak = [0]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                calls[name] += 1
            try:
                time.sleep(0.002)       # long enough for tasks to overlap
                return fn(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1
        return wrapper

    for name in ("dense_flow", "psnr", "ssim", "tlp"):
        monkeypatch.setattr(metrics, name,
                            counted(name, getattr(metrics, name)))
    gen, ref = _sequences(t=4)
    evaluate_sequence(gen, ref)
    assert calls == {"dense_flow": 6, "psnr": 4, "ssim": 4, "tlp": 1}
    assert peak[0] == 2


def test_evaluate_sequence_peak_memory_at_384x512():
    gen, ref = _sequences(t=3, h=384, w=512)
    # measured 39.3-40.9 MB: two dense_flow calls at a time, and the
    # flows of the pairs not yet reduced
    assert _peak_bytes(evaluate_sequence, gen, ref) < 47e6


# ---------------------------------------------------------------------------
# the frame loop behind vsr_run

def _reference_vsr_run(generator, frames, backend):
    """One flow and one step per frame: frame 0 is its own predecessor and
    starts from a black x4 output."""
    t, c, h, w = frames.shape
    hr = np.zeros((1, c, 4 * h, 4 * w), DTYPE)
    outs = []
    for i in range(t):
        lr = frames[i:i + 1]
        flow = estimate_flow(generator["fnet"], lr,
                             frames[max(i - 1, 0):max(i, 1)], backend)
        hr = vsr_step(generator["srnet"], lr, flow, hr, backend)
        outs.append(hr[0])
    return np.stack(outs).astype(DTYPE)


def _reference_upscale_frames(graph, frames, backend):
    outs = [graph.forward(frames[t:t + 1], backend)[0]
            for t in range(frames.shape[0])]
    return np.stack(outs).astype(DTYPE)


def _egvsr(fused):
    gen = build_generator()
    gen = {"fnet": init_random(gen["fnet"], 0),
           "srnet": init_random(gen["srnet"], 1)}
    if fused:
        gen = {k: fuse_conv_bn(g) for k, g in gen.items()}
    return gen


@pytest.mark.parametrize("fused, backend", [(True, "gemm"),
                                            (False, "winograd")],
                         ids=["fused-gemm", "unfused-winograd"])
def test_vsr_run_recurrent_is_bit_identical_to_reference(fused, backend):
    gen = _egvsr(fused)
    frames = np.random.default_rng(21).random((3, 3, 16, 24),
                                              dtype=np.float32)
    got = vsr_run(gen, frames, backend)
    want = _reference_vsr_run(gen, frames, backend)
    assert got.dtype == want.dtype == DTYPE
    assert np.array_equal(got, want)


@pytest.mark.parametrize("variant", ["control-a", "control-b", "control-c"])
def test_vsr_run_single_net_is_bit_identical_to_reference(variant):
    net = init_random(build_control_srnet(variant), 0)
    frames = np.random.default_rng(22).random((3, 1, 12, 10),
                                              dtype=np.float32)
    got = vsr_run({"net": net}, frames, "gemm")
    want = _reference_upscale_frames(net, frames, "gemm")
    assert got.dtype == want.dtype == DTYPE
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["recurrent", "single"])
def test_time_pipeline_times_the_gaps_between_frames(kind, monkeypatch):
    # a clock that advances one second per reading: every timed frame is
    # exactly one gap, and the warm-up gaps are dropped
    ticks = iter(range(1000))
    monkeypatch.setattr(bench, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    if kind == "recurrent":
        models, size, arch = _egvsr(False), (16, 16), "srnet+fnet"
    else:
        models, size, arch = ({"net": build_control_srnet("control-a")},
                              (12, 12), "control-a")
    res = time_pipeline(models, size, frames=3, warmup=2)
    assert (res.arch, res.frames, res.warmup) == (arch, 3, 2)
    assert res.wall_time_s == 3.0 and res.fps == 1.0
    assert res.mean_frame_s == res.median_frame_s == 1.0
    assert next(ticks) == 6         # one reading before the loop, one a frame


# ---------------------------------------------------------------------------
# layer steps and costs

def _reference_forward(g, x, backend):
    """One if-chain over the layer kinds, run layer by layer."""
    x = tensor.check_tensor(x, "graph input")
    wanted = g.referenced_sources()
    saved = {}
    for ly in g.layers:
        a = ly.attrs
        if ly.kind == "conv2d":
            x = conv.conv2d(x, ConvKernel(ly.arrays["weight"], ly.arrays["bias"],
                                          stride=a["stride"], pad=a["pad"]),
                            backend)
        elif ly.kind == "conv_transpose2d":
            x = conv.conv_transpose2d(
                x, ConvKernel(ly.arrays["weight"], ly.arrays["bias"],
                              stride=a["scale"], pad=a["pad"]))
        elif ly.kind == "batch_norm":
            x = graph.batchnorm_forward(x, graph._bn_params_of(ly))
        elif ly.kind == "activation":
            x = conv.activation(x, a["fn"], alpha=a.get("alpha", 0.2),
                                scale=a.get("scale", 1.0))
        elif ly.kind == "maxpool2":
            x = conv.maxpool2(x)
        elif ly.kind == "bilinear_up":
            x = tensor.bilinear_resize(x, a["scale"])
        elif ly.kind == "pixel_shuffle":
            x = tensor.pixel_shuffle(x, a["r"])
        else:
            x = x + saved[a["source"]]
        if ly.name in wanted:
            saved[ly.name] = x
    return x


def _reference_cost(g, input_shape):
    """(macs, pointwise_ops, per-layer rows) from one if-chain over kinds."""
    n = input_shape[0]
    rows = []
    prev = tuple(input_shape[1:])
    shapes = [r["out_shape"][1:] for r in g.count_flops(input_shape).per_layer]
    for ly, (c, h, w) in zip(g.layers, shapes):
        m = e = 0
        if ly.kind in ("conv2d", "conv_transpose2d"):
            c_out, c_in, k, _ = ly.arrays["weight"].shape
            grid = (h, w) if ly.kind == "conv2d" else prev[1:]
            m = c_in * grid[0] * grid[1] * k ** 2 * c_out
        elif ly.kind == "batch_norm":
            m = c * h * w
        elif ly.kind in ("activation", "maxpool2", "bilinear_up",
                         "residual_add"):
            e = c * h * w
        rows.append({"name": ly.name, "kind": ly.kind,
                     "out_shape": (n, c, h, w), "params": ly.param_count(),
                     "macs": n * m, "pointwise_ops": n * e})
        prev = (c, h, w)
    return (sum(r["macs"] for r in rows),
            sum(r["pointwise_ops"] for r in rows), rows)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", sorted(_kind_cases()))
def test_forward_of_each_kind_is_bit_identical_to_reference(kind, backend):
    layers, c = _kind_cases()[kind]
    g = init_random(graph.NetworkGraph(layers, in_channels=c), seed=26)
    x = np.random.default_rng(27).random((2, c, 7, 9), dtype=np.float32)
    got = g.forward(x, backend)
    want = _reference_forward(g, x, backend)
    assert got.dtype == want.dtype == DTYPE
    assert np.array_equal(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
def test_forward_of_egvsr_is_bit_identical_to_reference(fused, backend):
    rng = np.random.default_rng(28)
    for net in _egvsr(fused).values():
        x = rng.random((1, net.in_channels, 8, 16), dtype=np.float32)
        got = net.forward(x, backend)
        want = _reference_forward(net, x, backend)
        assert got.dtype == want.dtype == DTYPE
        assert np.array_equal(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_source_that_two_adds_read_is_held_until_the_second(backend):
    # r2 reads c0 after the stream has gone through r1, which read it first
    conv = graph.conv2d_layer
    g = init_random(graph.NetworkGraph([
        conv("c0", 2, 3, 3), conv("c1", 3, 3, 3),
        graph.residual_add_layer("r1", "c0"), conv("c2", 3, 3, 3),
        graph.residual_add_layer("r2", "c0"),
        graph.residual_add_layer("r3", "r1")], in_channels=2), seed=30)
    x = np.random.default_rng(31).random((2, 2, 7, 9), dtype=np.float32)
    assert g.count_flops(x.shape).last_read == {"c0": 4, "r1": 5}
    assert np.array_equal(g.forward(x, backend),
                          _reference_forward(g, x, backend))


def test_forward_lets_each_skip_output_go_after_its_last_reader():
    # eight residual blocks whose adds each read their own block's first
    # output: a pass that held every such output to the end would keep
    # eight of them at once, one that lets them go at most one
    layers = []
    for i in range(8):
        layers += [graph.batch_norm_layer(f"b{i}", 4),
                   graph.activation_layer(f"a{i}", "relu"),
                   graph.residual_add_layer(f"r{i}", f"b{i}")]
    g = init_random(graph.NetworkGraph(layers, in_channels=4), seed=32)
    x = np.random.default_rng(33).random((1, 4, 64, 64), dtype=np.float32)
    want = _reference_forward(g, x, "gemm")
    peak = _peak_bytes(g.forward, x)
    assert np.array_equal(g.forward(x), want)
    # the block's first output, its activation and its sum, plus slack
    assert peak < 4 * x.nbytes, peak / x.nbytes


@pytest.mark.parametrize("arch", ["egvsr", "control-a", "control-b",
                                  "control-c"])
def test_count_flops_equals_reference(arch):
    if arch == "egvsr":
        nets = list(build_generator().values())
        nets += [fuse_conv_bn(g) for g in nets]
    else:
        nets = [build_control_srnet(arch)]
    for net in nets:
        shape = (2, net.in_channels, 24, 40)
        report = net.count_flops(shape)
        macs, pointwise, rows = _reference_cost(net, shape)
        assert (report.macs, report.pointwise_ops) == (macs, pointwise)
        assert report.per_layer == rows


# ---------------------------------------------------------------------------
# batch-norm fusion

def _reference_fuse(g):
    """The two-index fusion loop: a conv consumes the run of batch-norms
    right after it while no skip reads the conv or an earlier member of the
    run; every other layer is copied."""
    referenced = g.referenced_sources()
    out, renames, i = [], {}, 0
    while i < len(g.layers):
        ly = g.layers[i]
        j = i + 1
        if ly.kind != "conv2d":
            out.append(ly.copy())
            i = j
            continue
        w, b = ly.arrays["weight"], ly.arrays["bias"]
        while (j < len(g.layers) and g.layers[j].kind == "batch_norm"
               and g.layers[j - 1].name not in referenced):
            scale, shift = graph._bn_params_of(g.layers[j]).affine()
            w = (w.astype(np.float64) * scale[:, None, None, None]).astype(DTYPE)
            b = (b.astype(np.float64) * scale + shift).astype(DTYPE)
            renames[g.layers[j].name] = ly.name
            j += 1
        c_out, c_in, k, _ = w.shape
        out.append(graph.conv2d_layer(
            ly.name, c_in, c_out, k, stride=ly.attrs["stride"],
            pad=ly.attrs["pad"], weights=w, bias=b))
        i = j
    for ly in out:
        if ly.attrs.get("source") in renames:
            ly.attrs["source"] = renames[ly.attrs["source"]]
    return out


def _fusion_cases():
    # init_random draws every conv weight and batch-norm statistic
    bn, conv2d = graph.batch_norm_layer, graph.conv2d_layer
    small = {
        "skip-referenced conv": [conv2d("c1", 3, 4, 3), bn("b1", 4),
                                 graph.residual_add_layer("r", "c1"),
                                 conv2d("c2", 4, 4, 3), bn("b2", 4),
                                 graph.residual_add_layer("add", "b2")],
        "standalone batch-norm": [bn("b0", 3), conv2d("c1", 3, 4, 3),
                                  graph.activation_layer("a1", "relu"),
                                  bn("b1", 4)],
        "conv-bn-bn": [conv2d("c1", 3, 4, 3), bn("b1", 4), bn("b2", 4),
                       graph.residual_add_layer("r", "b2")],
        "conv-bn-bn-bn read mid-run": [conv2d("c1", 3, 4, 3), bn("b1", 4),
                                       bn("b2", 4), bn("b3", 4),
                                       graph.residual_add_layer("r", "b1")],
    }
    cases = {name: init_random(graph.NetworkGraph(layers, in_channels=3), 30)
             for name, layers in small.items()}
    cases.update((f"egvsr {k}", g) for k, g in _egvsr(False).items())
    return cases


@pytest.mark.parametrize("case", sorted(_fusion_cases()))
def test_fuse_conv_bn_equals_the_two_index_loop(case):
    g = _fusion_cases()[case]
    got = fuse_conv_bn(g).layers
    want = _reference_fuse(g)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.name, a.kind, a.attrs) == (b.name, b.kind, b.attrs)
        assert a.arrays.keys() == b.arrays.keys()
        for key in a.arrays:
            assert a.arrays[key].dtype == b.arrays[key].dtype == DTYPE
            assert np.array_equal(a.arrays[key], b.arrays[key]), (a.name, key)
