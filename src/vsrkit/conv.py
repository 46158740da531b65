"""Convolution backends, pooling and activations.

Three interchangeable forward-convolution implementations are provided:

* :func:`conv2d_naive`   -- direct sliding-window cross-correlation, the
  reference every other backend is checked against;
* :func:`conv2d_gemm`    -- a lowering multiplied by the filter matrix
  straight into the NCHW output (col2im is a plain reshape, no
  transpose), in two fixed row bands, the second on a helper thread when
  called from the main thread, with the same bits on any thread; a large
  stride-1 conv lowers with a 1xk window (column taps only) and stacks
  its row-tap filters;
* :func:`conv2d_winograd`-- minimal-filtering F(4x4,3x3) tiling, 36
  multiplications per 4x4 output tile instead of 144: the input, filter
  and output transforms are each one BLAS matmul by a Kronecker matrix,
  around one batched matmul of the 36 transformed filter matrices.

All backends add the bias, return float32 NCHW tensors, and agree with the
naive reference within the tolerances stated on each function.
:func:`im2col` exposes the full k*k lowering transposed, as the paper's
(oh*ow, c_in*k*k) row layout: one row per activation zone.
"""
from __future__ import annotations

import functools
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, ShapeError, check_int, check_tensor, pad_zero

log = logging.getLogger(__name__)

ACTIVATIONS = ("relu", "leaky_relu", "tanh")

# second row band of main-thread gemm convs; its thread starts on first use
_HELPER = ThreadPoolExecutor(1, thread_name_prefix="vsrkit-gemm")

# a stride-1 gemm conv takes the stacked form only when its smaller row
# band spans at least this many rows and output positions (and the stacked
# scratch is the smaller, see _stacks). Measured per call against the
# lowered form on a 2-vCPU Xeon VM, one BLAS thread, widths 32-256, k 3
# and 5, bands of 6-48 rows: shorter bands multiply k-1 extra input rows
# for too few outputs (256->128 at 12 rows of 32: 1.10x slower), narrower
# ones leave too few columns to the stacked product (256->256 at 16
# columns: 1.06-1.95x slower up to 32 rows); 64->64 at 16 rows of 64 was
# 0.97x
STACK_MIN_ROWS = 16
STACK_MIN_COLS = 1024

# F(4x4,3x3) transform matrices at points 0, +-1, +-2 and infinity (Lavin &
# Gray, CVPR 2016): input (BT d B), filter (G g GT), output (AT m A). The
# element-wise product stage touches 6x6 = 36 values per tile where direct
# computation of the same 4x4 output needs 16*9 = 144 multiplies.
WINOGRAD_BT = np.array(
    [[4, 0, -5, 0, 1, 0],
     [0, -4, -4, 1, 1, 0],
     [0, 4, -4, -1, 1, 0],
     [0, -2, -1, 2, 1, 0],
     [0, 2, -1, -2, 1, 0],
     [0, 4, 0, -5, 0, 1]], dtype=np.float64)
WINOGRAD_G = np.array(
    [[6, 0, 0],
     [-4, -4, -4],
     [-4, 4, -4],
     [1, 2, 4],
     [1, -2, 4],
     [0, 0, 24]]) / 24.0
WINOGRAD_AT = np.array(
    [[1, 1, 1, 1, 1, 0],
     [0, 1, -1, 2, -2, 0],
     [0, 1, 1, 4, 4, 0],
     [0, 1, -1, 8, -8, 1]], dtype=np.float64)


@dataclass
class ConvKernel:
    """Weights and geometry of one 2-D convolution.

    ``weights`` has shape (c_out, c_in, k, k); ``bias`` has length c_out.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        self.stride = check_int(self.stride, "stride", 1)
        self.pad = check_int(self.pad, "pad", 0)
        self.weights = np.asarray(self.weights, dtype=DTYPE)
        if self.weights.ndim != 4 or self.weights.shape[2] != self.weights.shape[3]:
            raise ShapeError(
                f"weights must be (c_out, c_in, k, k), got {self.weights.shape}")
        if self.bias is None:
            self.bias = np.zeros(self.weights.shape[0], dtype=DTYPE)
        self.bias = np.asarray(self.bias, dtype=DTYPE).ravel()
        if self.bias.size != self.weights.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.size} != c_out {self.weights.shape[0]}")
        check_int(self.k, "k", 1)

    @property
    def c_out(self) -> int:
        return self.weights.shape[0]

    @property
    def c_in(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.weights.shape[2]


def out_dims(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    """Spatial output dims of a convolution: floor((d + 2*pad - k)/stride) + 1."""
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv geometry gives empty output for input {h}x{w}, "
            f"k={k} stride={stride} pad={pad}")
    return oh, ow


def _check_conv_input(x: np.ndarray, kern: ConvKernel) -> np.ndarray:
    x = check_tensor(x, "conv input")
    if x.shape[1] != kern.c_in:
        raise ShapeError(
            f"input has {x.shape[1]} channels, kernel expects {kern.c_in}")
    return x


def conv2d_naive(x: np.ndarray, kern: ConvKernel) -> np.ndarray:
    """Direct sliding-window cross-correlation plus bias.

    The loop nest over (ky, kx, c_out): each tap's strided input window is
    copied once into a contiguous float64 array, and each output channel
    adds the dot product over c_in of that window with its weights for the
    tap. Every output accumulates in float64 with the taps in fixed
    row-major order; within a tap, the order of summation over c_in is
    BLAS's. This is the reference oracle for the gemm and winograd
    backends. Slow by design; use those for real workloads.
    """
    x = _check_conv_input(x, kern)
    n, c_in, h, w = x.shape
    k, s, p = kern.k, kern.stride, kern.pad
    oh, ow = out_dims(h, w, k, s, p)
    xp = pad_zero(x, p).astype(np.float64)
    wts = kern.weights.astype(np.float64)
    ye = (oh - 1) * s + 1
    xe = (ow - 1) * s + 1
    out = np.zeros((n, kern.c_out, oh * ow), dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            window = xp[:, :, ky:ky + ye:s, kx:kx + xe:s].reshape(
                n, c_in, oh * ow)
            for co in range(kern.c_out):
                out[:, co] += wts[co, :, ky, kx] @ window
    out += kern.bias.astype(np.float64)[None, :, None]
    return out.reshape(n, kern.c_out, oh, ow).astype(DTYPE)


def _lower(xp: np.ndarray, window: tuple[int, int], stride: int, oh: int,
           ow: int, cols: np.ndarray) -> np.ndarray:
    """Fill ``cols`` with the ``window`` = (kh, kw) fields of one padded image.

    ``xp`` is a (c, hp, wp) zero-padded image and ``cols`` a C-contiguous
    (c*kh*kw, oh*ow) buffer. Row (ci, ky, kx) of ``cols`` receives tap
    (ky, kx) of channel ci at every output position, i.e. the strided slice
    ``xp[ci, ky::stride, kx::stride]`` cropped to (oh, ow), so every row is
    a contiguous copy of one output grid. A (k, k) window is the full
    lowering; the stacked gemm form passes (1, k), one row per (channel,
    column tap). Pure data movement; returns ``cols``.
    """
    win = np.lib.stride_tricks.sliding_window_view(xp, window, axis=(1, 2))
    taps = win[:, ::stride, ::stride].transpose(0, 3, 4, 1, 2)  # (c, kh, kw, oh, ow)
    np.copyto(cols.reshape(-1, *window, oh, ow), taps)
    return cols


def im2col(x: np.ndarray, k: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Rearrange convolution receptive fields into matrix rows.

    Row r holds the flattened (c_in*k*k) receptive field of activation zone
    r, zones enumerated top-left to bottom-right, columns grouped by channel,
    then kernel row, then kernel column. Pure data movement, no arithmetic.
    A 4x4 single-channel input with k=3, stride 1 yields a 4x9 matrix.

    This row layout is the transpose of the channel-major (c_in*k*k, oh*ow)
    matrix :func:`conv2d_gemm` multiplies in its lowered form; a large
    stride-1 conv takes the stacked form, which lowers with a 1xk window,
    by (channel, column tap) only, and never builds this matrix.
    """
    x = check_tensor(x, "im2col input")
    if x.shape[0] != 1:
        raise ShapeError(f"im2col expects a single image (n=1), got n={x.shape[0]}")
    k, stride, pad = (check_int(k, "k", 1), check_int(stride, "stride", 1),
                      check_int(pad, "pad", 0))
    _, c, h, w = x.shape
    oh, ow = out_dims(h, w, k, stride, pad)
    cols = np.empty((c * k * k, oh * ow), dtype=DTYPE)
    _lower(pad_zero(x, pad)[0], (k, k), stride, oh, ow, cols)
    return np.ascontiguousarray(cols.T)


def _gemm_band(xp, wmat, out, k, stride, ow, cols, r0, r1) -> None:
    """Lower output rows [r0, r1) of every image into the band's ``cols``
    and multiply them straight into their columns of ``out``."""
    cols = cols.reshape(wmat.shape[1], (r1 - r0) * ow)
    rows = slice(r0 * stride, (r1 - 1) * stride + k)
    for b in range(xp.shape[0]):
        np.matmul(wmat, _lower(xp[b, :, rows], (k, k), stride, r1 - r0, ow,
                              cols), out=out[b, :, r0 * ow:r1 * ow])


def _stacked_band(xp, wst, out, k, ow, buf, r0, r1) -> None:
    """Compute output rows [r0, r1) of every image of a stride-1 conv in
    the stacked form (see :func:`conv2d_gemm`): ``buf`` holds the band's
    (c_in*k, (rows+k-1)*ow) lowering, then the k partial products."""
    nr, co = r1 - r0, out.shape[1]
    m = (nr + k - 1) * ow
    cols = buf[:wst.shape[1] * m].reshape(-1, m)
    part = buf[cols.size:].reshape(k, co, m)
    for b in range(xp.shape[0]):
        _lower(xp[b, :, r0:r1 + k - 1], (1, k), 1, nr + k - 1, ow, cols)
        np.matmul(wst, cols, out=part.reshape(k * co, m))
        band = out[b, :, r0 * ow:r1 * ow]
        np.add(part[0, :, :nr * ow], part[1, :, ow:ow + nr * ow], out=band)
        for ky in range(2, k):
            band += part[ky, :, ky * ow:ky * ow + nr * ow]


def _stacks(c: int, co: int, k: int, stride: int, nr: int, ow: int) -> bool:
    """Whether :func:`conv2d_gemm` takes the stacked form for a conv whose
    smaller row band is ``nr`` rows of ``ow``: stride 1, a band of at
    least ``STACK_MIN_ROWS`` rows and ``STACK_MIN_COLS`` positions, and a
    stacked scratch, (c_in + c_out)*k rows over nr+k-1, smaller than the
    c_in*k*k-row lowering over nr; then the larger band's is smaller too.
    Never for k = 1 or c_out >= c_in*(k-1).
    """
    return (stride == 1 and nr >= STACK_MIN_ROWS and nr * ow >= STACK_MIN_COLS
            and (c + co) * (nr + k - 1) < c * k * nr)


def conv2d_gemm(x: np.ndarray, kern: ConvKernel) -> np.ndarray:
    """Convolution as a lowering followed by matrix multiplications
    straight into the output.

    The input is zero-padded once. Each image's output is computed in two
    fixed row bands, rows [0, oh//2) and [oh//2, oh), each in its part of
    one scratch buffer reused across the batch, in one of two forms:

    * lowered: the k*k strided tap slices of the input rows a band reads
      fill its (c_in*k*k, rows*ow) part, and the (c_out, c_in*k*k) filter
      matrix multiplies that into the band's columns of the image's
      (c_out, oh*ow) output;
    * stacked, for a stride-1 conv whose bands are tall and wide enough
      and whose stacked scratch is the smaller (:func:`_stacks`): the
      band's rows+k-1 input rows are lowered by :func:`_lower` with a 1xk
      window, one row per (channel, column tap): a (c_in*k, (rows+k-1)*ow)
      matrix, which one matmul by the k row-tap filters stacked along M,
      (k*c_out, c_in*k), turns into all k partial products; the band is
      their sum at row offsets 0 to k-1 (Cho & Brand, "MEC:
      Memory-efficient Convolution", ICML 2017).

    Called from the main thread, the second band runs on a helper thread
    meanwhile; elsewhere both run in turn, so the bits do not depend on
    the thread. The bias is added in place and the result reshaped to NCHW
    without a copy. Returns a C-contiguous float32 tensor equal to
    :func:`conv2d_naive` within 1e-6 relative.
    """
    x = _check_conv_input(x, kern)
    n, c, h, w = x.shape
    co, k, s, p = kern.c_out, kern.k, kern.stride, kern.pad
    oh, ow = out_dims(h, w, k, s, p)
    xp = pad_zero(x, p) if p else x
    mid = oh // 2
    bands = ((0, mid), (mid, oh)) if mid else ((0, oh),)
    # out before the scratch, so the short-lived scratch sits above the
    # result on the heap and is returned when freed; the reverse order
    # leaves a scratch-sized hole under each output (about 10% more peak
    # RSS on egvsr). One buffer for both bands, made here and not on each
    # band's thread, where the helper's would land in its own arena. The
    # stacked scratch is smaller than the 28 MB lowerings that used to
    # raise glibc's trim threshold, so a freed heap top is returned and
    # faulted back in: 2,200-2,700 minor faults per vsr_run call on fused
    # egvsr at 128x96 (8 before), about 8 ms of a 700 ms 2-frame pass
    out = np.empty((n, co, oh * ow), dtype=DTYPE)
    if _stacks(c, co, k, s, mid, ow):  # lowering, then the k partial products
        sizes = [(c + co) * k * (r1 - r0 + k - 1) * ow for r0, r1 in bands]
        wst = kern.weights.transpose(2, 0, 1, 3).reshape(k * co, c * k)
        run = functools.partial(_stacked_band, xp, wst, out, k, ow)
    else:
        sizes = [c * k * k * (r1 - r0) * ow for r0, r1 in bands]
        wmat = kern.weights.reshape(co, -1)  # (c_out, c_in*k*k)
        run = functools.partial(_gemm_band, xp, wmat, out, k, s, ow)
    scratch = np.split(np.empty(sum(sizes), dtype=DTYPE), np.cumsum(sizes[:-1]))
    bands = [(buf, r0, r1) for buf, (r0, r1) in zip(scratch, bands)]
    if len(bands) == 2 and threading.current_thread() is threading.main_thread():
        second = _HELPER.submit(run, *bands[1])
        try:
            run(*bands[0])
        finally:  # nothing may write to out once this returns or raises
            second.result()
    else:
        for band in bands:
            run(*band)
    out += kern.bias[:, None]
    return out.reshape(n, co, oh, ow)


# (k, stride) pairs whose gemm fallback has been logged; once per cause
_FALLBACK_LOGGED: set = set()
_FALLBACK_LOCK = threading.Lock()

# the 2-D transforms as float32 matrices on flattened tiles: row 6a+b of
# kron(BT, BT) applied to a flattened 6x6 tile d gives (BT d B)[a, b], and
# likewise (36, 9) kron(G, G) for a 3x3 filter, (16, 36) kron(AT, AT) for m
_WINOGRAD_BB = np.kron(WINOGRAD_BT, WINOGRAD_BT).astype(DTYPE)
_WINOGRAD_GG = np.kron(WINOGRAD_G, WINOGRAD_G).astype(DTYPE)
_WINOGRAD_AA = np.kron(WINOGRAD_AT, WINOGRAD_AT).astype(DTYPE)


def conv2d_winograd(x: np.ndarray, kern: ConvKernel) -> np.ndarray:
    """F(4x4,3x3) minimal-filtering convolution.

    Requires k=3 and stride 1; any other geometry falls back to
    :func:`conv2d_gemm` (logged once per (k, stride) per process). Per image,
    the input is zero-padded once into a buffer holding every 6x6 tile at
    stride 4, and one strided copy gathers the tiles into a contiguous
    (36, c_in*tiles) buffer. Each of the three transforms is one BLAS
    matmul by a Kronecker matrix: kron(BT, BT) gives V, kron(G, G) gives
    the (36, c_out, c_in) filters U of this call, and after the one batched
    matmul U @ V of the 36 (c_out, tiles) Hadamard terms, kron(AT, AT)
    gives the 16 output phases, copied with one strided copy into a
    (n, c_out, 4*th, 4*tw) result of whole tiles. That is cropped to
    (oh, ow), a copy only when oh or ow is not a multiple of 4, before the
    bias is added. Returns a C-contiguous float32 tensor equal to
    :func:`conv2d_naive` within 1e-4 relative.
    """
    x = _check_conv_input(x, kern)
    if kern.k != 3 or kern.stride != 1:
        with _FALLBACK_LOCK:
            first = (kern.k, kern.stride) not in _FALLBACK_LOGGED
            _FALLBACK_LOGGED.add((kern.k, kern.stride))
        if first:
            log.info("winograd backend: k=%d stride=%d unsupported, "
                     "falling back to gemm", kern.k, kern.stride)
        return conv2d_gemm(x, kern)
    n, ci, h, w = x.shape
    co, p = kern.c_out, kern.pad
    oh, ow = out_dims(h, w, 3, 1, p)
    th, tw = (oh + 3) // 4, (ow + 3) // 4
    u = (_WINOGRAD_GG @ kern.weights.reshape(co * ci, 9).T).reshape(36, co, ci)

    out = np.empty((n, co, 4 * th, 4 * tw), dtype=DTYPE)
    # each 6x6 tile at stride 4 reads rows up to 4*(t-1)+6 = 4t+2; the
    # border stays zero across images, only the interior is rewritten
    xp = np.zeros((ci, 4 * th + 2, 4 * tw + 2), dtype=DTYPE)
    tiles = np.lib.stride_tricks.sliding_window_view(
        xp, (6, 6), axis=(1, 2))[:, ::4, ::4].transpose(3, 4, 0, 1, 2)
    d = np.empty((36, ci * th * tw), dtype=DTYPE)
    v = np.empty((36, ci, th * tw), dtype=DTYPE)
    m = np.empty((36, co, th * tw), dtype=DTYPE)
    y = np.empty((16, co * th * tw), dtype=DTYPE)
    for b in range(n):
        xp[:, p:p + h, p:p + w] = x[b]
        np.copyto(d.reshape(tiles.shape), tiles)
        np.matmul(_WINOGRAD_BB, d, out=v.reshape(36, -1))
        np.matmul(u, v, out=m)
        np.matmul(_WINOGRAD_AA, m.reshape(36, -1), out=y)
        # phase (i, j) of out[b] is out[b, :, i::4, j::4]
        np.copyto(out[b].reshape(co, th, 4, tw, 4).transpose(2, 4, 0, 1, 3),
                  y.reshape(4, 4, co, th, tw))
    out = np.ascontiguousarray(out[:, :, :oh, :ow])
    out += kern.bias[:, None, None]
    return out


_CONV_DISPATCH = {
    "naive": conv2d_naive,
    "gemm": conv2d_gemm,
    "winograd": conv2d_winograd,
}
BACKENDS = tuple(_CONV_DISPATCH)


def conv2d(x: np.ndarray, kern: ConvKernel, backend: str = "gemm") -> np.ndarray:
    """Run a convolution through the named backend."""
    try:
        fn = _CONV_DISPATCH[backend]
    except KeyError:
        raise ValueError(f"unknown conv backend {backend!r}, choose from {BACKENDS}")
    return fn(x, kern)


def check_transpose_geometry(k: int, s: int, p: int) -> None:
    """Raise :class:`ShapeError` unless a transposed conv lands on exactly
    ``s`` times its input: implied output padding s - k + 2p in [0, s)."""
    if not 0 <= s - k + 2 * p < s:
        raise ShapeError(
            f"transposed conv k={k} pad={p} cannot produce an exact x{s} "
            f"output (implied output padding {s - k + 2 * p})")


def conv_transpose2d(x: np.ndarray, kern: ConvKernel) -> np.ndarray:
    """Transposed convolution producing an exactly ``kern.stride``-times
    larger output.

    This is the adjoint of the corresponding strided convolution: input
    element (oy, ox) scatters weights[c_out, c_in] into output positions
    (oy*s + ky - pad, ox*s + kx - pad). The geometry must pass
    :func:`check_transpose_geometry` so the output lands on exactly
    (h*s, w*s).
    """
    x = _check_conv_input(x, kern)
    k, s, p = kern.k, kern.stride, kern.pad
    check_transpose_geometry(k, s, p)
    n, _, h, w = x.shape
    oh, ow = h * s, w * s
    # tap (ky, kx) of input (iy, ix) lands at (ky + iy*s, kx + ix*s) of a
    # buffer that also holds the crop [p:p+oh, p:p+ow]; taps outside the
    # crop are scattered too and cut away with the rest of the border
    ye, xe = (h - 1) * s + 1, (w - 1) * s + 1
    full = np.zeros((n, kern.c_out, max(ye + k - 1, p + oh),
                     max(xe + k - 1, p + ow)), dtype=DTYPE)
    for ky in range(k):
        for kx in range(k):
            full[:, :, ky:ky + ye:s, kx:kx + xe:s] += np.einsum(
                "nihw,oi->nohw", x, kern.weights[:, :, ky, kx])
    return full[:, :, p:p + oh, p:p + ow] + kern.bias[None, :, None, None]


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2.

    Odd spatial dims are padded on the right/bottom by edge replication,
    which is equivalent to padding with negative infinity for a max window.
    The four stride-2 slices of the window meet in three element-wise
    maxima written into the first result, which is C-contiguous.
    """
    x = check_tensor(x, "maxpool input")
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        x = np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)), mode="edge")
    out = np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2])
    np.maximum(out, x[:, :, 1::2, 0::2], out=out)
    return np.maximum(out, x[:, :, 1::2, 1::2], out=out)


def activation(x: np.ndarray, kind: str, alpha: float = 0.2,
               scale: float = 1.0) -> np.ndarray:
    """Element-wise activation: relu, leaky_relu (slope ``alpha``) or tanh.

    ``scale`` multiplies the result; it matters only for tanh heads that
    must emit values in a configured range.
    """
    x = check_tensor(x, "activation input")
    if kind == "relu":
        out = np.maximum(x, 0)
    elif kind == "leaky_relu":
        # the larger of x and alpha*x for 0 <= alpha <= 1: the where form's
        # bits, +-0 included; a negative alpha (-0 too) would flip a
        # zero's sign, so it and alpha > 1 keep the where form
        a = DTYPE(alpha)
        out = a * x
        if 0 <= a <= 1 and not np.signbit(a):
            np.maximum(x, out, out=out)
        else:
            out = np.where(x >= 0, x, out)
    elif kind == "tanh":
        out = np.tanh(x)
    else:
        raise ValueError(f"unknown activation {kind!r}")
    if scale != 1.0:
        out = out * DTYPE(scale)
    return out.astype(DTYPE, copy=False)
