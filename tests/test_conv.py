"""Convolution backends: direct reference, im2col+GEMM, Winograd, adjoint."""

import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vsrkit import (
    ConvKernel,
    NetworkGraph,
    ShapeError,
    activation,
    build_fnet,
    build_srnet,
    conv2d,
    conv2d_gemm,
    conv2d_layer,
    conv2d_naive,
    conv2d_winograd,
    conv_transpose2d,
    im2col,
    init_random,
    maxpool2,
    vsr_run,
)
from vsrkit import conv
from vsrkit.conv import WINOGRAD_AT, WINOGRAD_BT, _at_passes, _bt_passes


def _conv_ref(x, w, b, stride, pad):
    """Six-loop scalar convolution used as the ground-truth oracle."""
    n, ci, h, w_in = x.shape
    co, _, k, _ = w.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w_in + 2 * pad - k) // stride + 1
    xp = np.zeros((n, ci, h + 2 * pad, w_in + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + w_in] = x
    out = np.zeros((n, co, oh, ow), dtype=np.float64)
    for bi in range(n):
        for o in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for c in range(ci):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (xp[bi, c, oy * stride + ky,
                                           ox * stride + kx]
                                        * float(w[o, c, ky, kx]))
                    out[bi, o, oy, ox] = acc + float(b[o])
    return out.astype(np.float32)


def test_naive_matches_scalar_reference():
    rng = np.random.default_rng(10)
    for _ in range(8):
        ci = int(rng.integers(1, 4))
        co = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3]))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = rng.random((2, ci, 6, 5), dtype=np.float32)
        w = rng.standard_normal((co, ci, k, k)).astype(np.float32)
        b = rng.standard_normal(co).astype(np.float32)
        kern = ConvKernel(w, b, stride=stride, pad=pad)
        got = conv2d_naive(x, kern)
        ref = _conv_ref(x, w, b, stride, pad)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-5


def test_all_ones_kernel_sums_window():
    x = np.ones((1, 1, 5, 5), dtype=np.float32)
    kern = ConvKernel(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = conv2d_naive(x, kern)
    assert out.shape == (1, 1, 3, 3)
    assert np.all(out == 9.0)


def test_zero_kernel_yields_bias():
    kern = ConvKernel(np.zeros((2, 3, 3, 3), dtype=np.float32),
                      np.array([1.5, -0.5], dtype=np.float32))
    x = np.random.default_rng(0).random((1, 3, 6, 6), dtype=np.float32)
    for backend in ("naive", "gemm", "winograd"):
        out = conv2d(x, kern, backend)
        assert np.allclose(out[0, 0], 1.5, atol=1e-7)
        assert np.allclose(out[0, 1], -0.5, atol=1e-7)


def test_im2col_geometry_and_content():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    cols = im2col(x, 3)
    assert cols.shape == (4, 9)
    # first patch is the top-left 3x3 window flattened row-major
    assert np.array_equal(cols[0], x[0, 0, :3, :3].ravel())
    # last patch is the bottom-right window
    assert np.array_equal(cols[3], x[0, 0, 1:, 1:].ravel())


def test_im2col_multichannel_column_order():
    rng = np.random.default_rng(4)
    x = rng.random((1, 3, 5, 5), dtype=np.float32)
    cols = im2col(x, 3, stride=2)
    assert cols.shape == (4, 27)
    # columns group by channel first, then kernel row, then kernel column
    assert np.array_equal(cols[0, :9], x[0, 0, :3, :3].ravel())
    assert np.array_equal(cols[0, 9:18], x[0, 1, :3, :3].ravel())


def test_im2col_rejects_undersized_input():
    x = np.zeros((1, 1, 2, 2), dtype=np.float32)
    with pytest.raises(ShapeError):
        im2col(x, 3)


@pytest.mark.parametrize("call, match", [
    (lambda: im2col(np.zeros((2, 1, 5, 5), dtype=np.float32), 3),
     r"im2col expects a single image \(n=1\), got n=2"),
    (lambda: im2col(np.zeros((1, 1, 5, 5), dtype=np.float32), 3, stride=0),
     "invalid geometry k=3 stride=0 pad=0"),
    (lambda: im2col(np.zeros((1, 1, 5, 5), dtype=np.float32), 3, pad=-1),
     "invalid geometry k=3 stride=1 pad=-1"),
    (lambda: conv2d(np.zeros((1, 2, 5, 5), dtype=np.float32),
                    ConvKernel(np.zeros((4, 3, 3, 3)))),
     "input has 2 channels, kernel expects 3"),
], ids=["im2col-batch", "im2col-stride", "im2col-pad", "conv-channels"])
def test_conv_entry_points_reject_mismatched_input(call, match):
    with pytest.raises(ShapeError, match=match):
        call()


def test_im2col_geometry_must_be_integers():
    x = np.zeros((1, 1, 5, 5), dtype=np.float32)
    with pytest.raises(ShapeError, match="k must be an integer, got 2.9"):
        im2col(x, 2.9)
    with pytest.raises(ShapeError, match="stride must be an integer"):
        im2col(x, 3, stride=1.5)
    assert np.array_equal(im2col(x, np.int64(3), stride=np.int32(2)),
                          im2col(x, 3, stride=2))


def test_gemm_against_loop_reference():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 5)).astype(np.float32)
    b = rng.standard_normal((5, 3)).astype(np.float32)
    got = a @ b
    ref = np.zeros((7, 3))
    for i in range(7):
        for j in range(3):
            ref[i, j] = sum(float(a[i, l]) * float(b[l, j]) for l in range(5))
    assert np.max(np.abs(got - ref)) < 1e-5


def test_gemm_path_reproduces_naive():
    rng = np.random.default_rng(6)
    cases = []
    for _ in range(30):
        ci = int(rng.integers(1, 9))
        co = int(rng.integers(1, 9))
        k = int(rng.choice([1, 3, 5]))
        h = int(rng.integers(k, 15))
        w = int(rng.integers(k, 15))
        kern = ConvKernel(rng.standard_normal((co, ci, k, k)).astype(np.float32),
                          rng.standard_normal(co).astype(np.float32),
                          stride=int(rng.integers(1, 3)),
                          pad=int(rng.integers(0, 3)))
        cases.append((rng.random((2, ci, h, w), dtype=np.float32), kern))
    # the widths egvsr and the perceptual net run: (n, c_in, c_out, stride)
    for n, ci, co, stride in ((1, 51, 64, 1), (1, 64, 64, 1),
                              (1, 256, 128, 1), (1, 3, 8, 2), (3, 16, 8, 1)):
        kern = ConvKernel(
            rng.standard_normal((co, ci, 3, 3)).astype(np.float32),
            rng.standard_normal(co).astype(np.float32), stride=stride, pad=1)
        cases.append((rng.random((n, ci, 7, 6), dtype=np.float32), kern))
    # a non-contiguous input: a channel slice of a wider tensor
    wide = rng.random((2, 12, 9, 8), dtype=np.float32)
    kern = ConvKernel(rng.standard_normal((5, 6, 3, 3)).astype(np.float32),
                      rng.standard_normal(5).astype(np.float32), pad=1)
    cases.append((wide[:, 3:9], kern))
    assert not cases[-1][0].flags.c_contiguous
    for x, kern in cases:
        ref = conv2d_naive(x, kern)
        got = conv2d_gemm(x, kern)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == ref.shape
        denom = max(float(np.max(np.abs(ref))), 1e-6)
        assert float(np.max(np.abs(got - ref))) / denom <= 1e-6


def _on_worker(fn, *args):
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result(timeout=60)


@pytest.mark.parametrize("n,ci,co,h,w", [
    (2, 64, 64, 23, 32),
    # narrow bands, where the BLAS edge kernels would round a one-band
    # product differently from a two-band one
    (1, 8, 4, 17, 13),
    (1, 3, 5, 9, 7),
])
def test_gemm_bits_do_not_depend_on_the_thread(n, ci, co, h, w):
    # on the main thread the second row band runs on the helper; on a worker
    # both bands run in turn; the partition, and so every bit, is the same
    rng = np.random.default_rng(30)
    x = rng.random((n, ci, h, w), dtype=np.float32)
    kern = ConvKernel(rng.standard_normal((co, ci, 3, 3)).astype(np.float32),
                      rng.standard_normal(co).astype(np.float32), pad=1)
    assert threading.current_thread() is threading.main_thread()
    main = conv2d_gemm(x, kern)
    assert np.array_equal(main, _on_worker(conv2d_gemm, x, kern))
    assert np.array_equal(main, conv2d_gemm(x, kern))


def test_gemm_main_and_worker_calls_at_once_keep_their_bits():
    # three workers (more than the cores) convolve while the main thread
    # does, its second bands on the helper; with a short switch interval
    # a band written to the wrong output or buffer would show
    rng = np.random.default_rng(38)
    x = rng.random((1, 8, 17, 13), dtype=np.float32)
    kern = ConvKernel(rng.standard_normal((4, 8, 3, 3)).astype(np.float32),
                      pad=1)
    want = conv2d_gemm(x, kern)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as pool:
            jobs = [pool.submit(conv2d_gemm, x, kern) for _ in range(60)]
            mains = [conv2d_gemm(x, kern) for _ in range(60)]
            workers = [j.result(timeout=60) for j in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(got, want) for got in mains + workers)


# (n, h, w, k, stride, pad): oh of 1, 2 and 3, odd oh, band edges at
# strides 2 and 3 where the bands' input rows overlap or leave a gap
BAND_CASES = [
    (1, 3, 7, 3, 1, 0),    # oh = 1: one band only
    (1, 4, 5, 3, 1, 0),    # oh = 2
    (1, 5, 6, 3, 1, 0),    # oh = 3
    (1, 11, 9, 3, 1, 1),   # oh = 11
    (1, 9, 8, 3, 2, 1),    # stride 2, oh = 5: bands overlap by one row
    (1, 14, 10, 3, 2, 0),  # stride 2, oh = 6
    (1, 16, 11, 5, 3, 2),  # stride 3, oh = 6
    (1, 13, 7, 1, 3, 0),   # stride 3 with k = 1: rows between bands unread
    (3, 10, 12, 3, 1, 1),  # a batch of 3
]


@pytest.mark.parametrize("n,h,w,k,stride,pad", BAND_CASES)
def test_gemm_bands_reproduce_naive(n, h, w, k, stride, pad):
    rng = np.random.default_rng(31 + h * w + k + stride)
    kern = ConvKernel(rng.standard_normal((6, 4, k, k)).astype(np.float32),
                      rng.standard_normal(6).astype(np.float32),
                      stride=stride, pad=pad)
    x = rng.random((n, 4, h, w), dtype=np.float32)
    # and the same image as a non-contiguous view: every other column
    wide = np.repeat(x, 2, axis=3)[..., ::2]
    assert not wide.flags.c_contiguous
    ref = conv2d_naive(x, kern)
    denom = max(float(np.max(np.abs(ref))), 1e-6)
    for inp in (x, wide):
        for got in (conv2d_gemm(inp, kern), _on_worker(conv2d_gemm, inp, kern)):
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert float(np.max(np.abs(got - ref))) / denom <= 1e-6


@pytest.mark.parametrize("failing", ["first", "second"])
def test_gemm_band_error_waits_for_the_other_band(monkeypatch, failing):
    band = conv._gemm_band
    finished = []

    def flaky(xp, wmat, out, k, stride, ow, cols, r0, r1):
        if (r0 == 0) == (failing == "first"):
            raise RuntimeError(f"{failing} band failed")
        time.sleep(0.2)
        band(xp, wmat, out, k, stride, ow, cols, r0, r1)
        finished.append(r0)

    monkeypatch.setattr(conv, "_gemm_band", flaky)
    rng = np.random.default_rng(32)
    x = rng.random((1, 3, 8, 8), dtype=np.float32)
    kern = ConvKernel(rng.standard_normal((2, 3, 3, 3)).astype(np.float32))
    with pytest.raises(RuntimeError, match=f"{failing} band failed"):
        conv2d_gemm(x, kern)
    # the band that did not fail ran to its end before the error came out
    assert finished == [3 if failing == "first" else 0]


def test_vsr_run_bits_do_not_depend_on_the_thread():
    bundle = {"fnet": init_random(build_fnet(), 33),
              "srnet": init_random(build_srnet(), 34)}
    frames = np.random.default_rng(35).random((3, 3, 24, 16), dtype=np.float32)
    main = vsr_run(bundle, frames)
    assert np.array_equal(main, _on_worker(vsr_run, bundle, frames))


def test_winograd_reproduces_naive_for_3x3_stride1():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(30):
        ci = int(rng.integers(1, 7))
        co = int(rng.integers(1, 7))
        h = int(rng.integers(4, 14))
        w = int(rng.integers(4, 14))
        kern = ConvKernel(rng.standard_normal((co, ci, 3, 3)).astype(np.float32),
                          rng.standard_normal(co).astype(np.float32),
                          pad=int(rng.integers(0, 2)))
        cases.append((rng.random((1, ci, h, w), dtype=np.float32), kern))
    # egvsr's widths at its benchmark size, odd sizes that crop a ragged
    # tile row and column, and a batch: (n, c_in, c_out, h, w, pad)
    for n, ci, co, h, w, pad in ((1, 51, 64, 48, 64, 1), (1, 64, 64, 48, 64, 1),
                                 (1, 4, 5, 13, 17, 0), (1, 4, 5, 13, 17, 1),
                                 (3, 6, 4, 9, 10, 1)):
        kern = ConvKernel(rng.standard_normal((co, ci, 3, 3)).astype(np.float32),
                          rng.standard_normal(co).astype(np.float32), pad=pad)
        cases.append((rng.random((n, ci, h, w), dtype=np.float32), kern))
    # a non-contiguous input: a channel slice of a wider tensor
    wide = rng.random((2, 12, 9, 8), dtype=np.float32)
    kern = ConvKernel(rng.standard_normal((5, 6, 3, 3)).astype(np.float32),
                      rng.standard_normal(5).astype(np.float32), pad=1)
    cases.append((wide[:, 3:9], kern))
    assert not cases[-1][0].flags.c_contiguous
    for x, kern in cases:
        before = x.copy()
        ref = conv2d_naive(x, kern)
        got = conv2d_winograd(x, kern)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == ref.shape
        assert np.array_equal(x, before)
        denom = max(float(np.max(np.abs(ref))), 1e-6)
        assert float(np.max(np.abs(got - ref))) / denom <= 1e-4


def test_winograd_transform_passes_match_the_matrices():
    # the add/subtract passes are the definition of BT and AT written out
    tile = np.random.default_rng(14).standard_normal((4, 4)).astype(np.float32)
    rows = np.empty((4, 4), dtype=np.float32)
    v = np.empty((4, 4), dtype=np.float32)
    _bt_passes(list(tile), rows)
    _bt_passes(list(rows.T), v.T)
    assert np.allclose(v, WINOGRAD_BT @ tile @ WINOGRAD_BT.T, atol=1e-6)
    mrows = np.empty((2, 4), dtype=np.float32)
    y = np.empty((2, 2), dtype=np.float32)
    _at_passes(list(tile), mrows)
    _at_passes(list(mrows.T), y.T)
    assert np.allclose(y, WINOGRAD_AT @ tile @ WINOGRAD_AT.T, atol=1e-6)


def test_winograd_exact_on_small_integers():
    # the transform constants are powers of two, so integer data stays exact
    rng = np.random.default_rng(8)
    x = rng.integers(-3, 4, (1, 2, 6, 6)).astype(np.float32)
    kern = ConvKernel(rng.integers(-3, 4, (2, 2, 3, 3)).astype(np.float32))
    assert np.array_equal(conv2d_winograd(x, kern), conv2d_naive(x, kern))


def test_winograd_falls_back_for_unsupported_geometry(caplog):
    rng = np.random.default_rng(9)
    x = rng.random((1, 2, 8, 8), dtype=np.float32)
    kern = ConvKernel(rng.standard_normal((2, 2, 5, 5)).astype(np.float32))
    with caplog.at_level(logging.INFO, logger="vsrkit.conv"):
        out = conv2d_winograd(x, kern)
    assert any("falling back" in rec.message for rec in caplog.records)
    assert np.array_equal(out, conv2d_gemm(x, kern))


def test_winograd_fallback_logs_once_per_cause(caplog):
    rng = np.random.default_rng(36)
    g = init_random(NetworkGraph([
        conv2d_layer("c3", 2, 4, 3),
        conv2d_layer("c1", 4, 2, 1),
        conv2d_layer("s2", 2, 2, 3, stride=2),
    ], in_channels=2), seed=37)
    x = rng.random((1, 2, 8, 8), dtype=np.float32)
    with caplog.at_level(logging.INFO, logger="vsrkit.conv"):
        g.forward(x, backend="winograd")
        g.forward(x, backend="winograd")
    lines = [r.getMessage() for r in caplog.records if "falling back" in r.message]
    assert len(lines) == 2
    assert any("k=1 stride=1" in m for m in lines)
    assert any("k=3 stride=2" in m for m in lines)


def test_conv2d_rejects_unknown_backend():
    x = np.zeros((1, 1, 4, 4), dtype=np.float32)
    kern = ConvKernel(np.zeros((1, 1, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        conv2d(x, kern, "fft")


def test_conv_kernel_validates_geometry():
    with pytest.raises(ShapeError):
        ConvKernel(np.zeros((1, 1, 3, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        ConvKernel(np.zeros((1, 1, 3, 3), dtype=np.float32),
                   np.zeros(2, dtype=np.float32))
    with pytest.raises(ValueError):
        ConvKernel(np.zeros((1, 1, 3, 3), dtype=np.float32), stride=0)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    with pytest.raises(ShapeError, match="stride must be an integer, got 1.5"):
        ConvKernel(w, stride=1.5)
    with pytest.raises(ShapeError, match="pad must be an integer, got 0.5"):
        ConvKernel(w, pad=0.5)
    kern = ConvKernel(w, stride=np.int64(2), pad=np.int32(1))
    assert (kern.stride, kern.pad) == (2, 1)


def test_conv_transpose_shapes_scale_output():
    # 32->1 deconvolution, kernel 5, stride 3, pad 1 triples the grid
    rng = np.random.default_rng(11)
    kern = ConvKernel(rng.standard_normal((1, 32, 5, 5)).astype(np.float32) * 0.1,
                      stride=3, pad=1)
    x = rng.random((1, 32, 8, 8), dtype=np.float32)
    out = conv_transpose2d(x, kern)
    assert out.shape == (1, 1, 24, 24)


def test_conv_transpose_is_adjoint_of_strided_conv():
    # <T x, y> == <x, D y> where D is the stride-s conv with the same taps
    # and channel axes swapped
    rng = np.random.default_rng(12)
    for _ in range(12):
        ci = int(rng.integers(1, 4))
        co = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 2))
        k = s + 2 * pad  # exact-scale geometry (zero output padding)
        h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        taps = rng.standard_normal((co, ci, k, k)).astype(np.float32)
        x = rng.random((1, ci, h, w), dtype=np.float32)
        tx = conv_transpose2d(x, ConvKernel(taps, stride=s, pad=pad))
        assert tx.shape == (1, co, h * s, w * s)
        y = rng.random(tx.shape, dtype=np.float32)
        down = ConvKernel(np.ascontiguousarray(taps.transpose(1, 0, 2, 3)),
                          stride=s, pad=pad)
        dy = conv2d_naive(y, down)
        assert dy.shape == x.shape
        lhs = float(np.sum(tx.astype(np.float64) * y))
        rhs = float(np.sum(x.astype(np.float64) * dy))
        assert abs(lhs - rhs) <= 1e-3 * max(abs(lhs), 1.0)


def test_conv_transpose_rejects_incompatible_geometry():
    kern = ConvKernel(np.zeros((1, 4, 3, 3), dtype=np.float32), stride=2, pad=2)
    x = np.zeros((1, 4, 5, 5), dtype=np.float32)
    # implied output padding 2*2 - 3 + 2*2 = 5 is not inside [0, stride)
    with pytest.raises(ShapeError):
        conv_transpose2d(x, kern)


def test_maxpool2_window_oracle():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
    assert float(maxpool2(x)[0, 0, 0, 0]) == 4.0
    rng = np.random.default_rng(13)
    t = rng.random((2, 3, 8, 8), dtype=np.float32)
    out = maxpool2(t)
    assert out.shape == (2, 3, 4, 4)
    for y in range(4):
        for x_ in range(4):
            ref = t[:, :, 2 * y:2 * y + 2, 2 * x_:2 * x_ + 2].max(axis=(2, 3))
            assert np.array_equal(out[:, :, y, x_], ref)


def test_maxpool2_pads_odd_dims_by_replication():
    t = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
    out = maxpool2(t)
    assert out.shape == (1, 1, 2, 2)
    # bottom-right output sees only the replicated corner value 8
    assert float(out[0, 0, 1, 1]) == 8.0


def test_activation_values():
    x = np.array([-10.0, -1.0, 0.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 4)
    assert np.array_equal(activation(x, "relu").ravel(), [0.0, 0.0, 0.0, 2.0])
    got = activation(x, "leaky_relu", alpha=0.2)
    assert np.allclose(got.ravel(), [-2.0, -0.2, 0.0, 2.0], atol=1e-7)
    t = activation(x, "tanh", scale=24.0)
    assert np.allclose(t, 24.0 * np.tanh(x), atol=1e-5)
    assert np.allclose(activation(x, "tanh") + activation(-x, "tanh"), 0.0,
                       atol=1e-7)


def test_activation_rejects_unknown_kind():
    with pytest.raises(ValueError):
        activation(np.zeros((1, 1, 2, 2), dtype=np.float32), "gelu")
