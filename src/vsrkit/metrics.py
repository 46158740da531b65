"""Image and video quality metrics.

Spatial fidelity: PSNR and SSIM on the luma plane of [0, 1] RGB frames.
Temporal consistency: tOF compares motion fields estimated from consecutive
reference frames against those from the corresponding output frames; tLP
does the same with each frame's perceptual features. A min-max normalized,
weighted combination folds all four into one score per method.

``scipy.ndimage`` is imported inside the three functions that filter
(:func:`ssim`, :func:`_downsample2`, :func:`_window_sums`), so importing
vsrkit, and every upscale path, never loads scipy.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import pairwise, starmap

import numpy as np

from .conv import ConvKernel, conv2d
from .pipeline import warp
from .tensor import DTYPE, ShapeError, bilinear_sample, check_finite

# ITU-R 601 luma weights
LUMA_WEIGHTS = (0.299, 0.587, 0.114)

PSNR_CAP_DB = 100.0

# metric orientation: whether larger values mean better output
HIGHER_IS_BETTER = {"psnr": True, "ssim": True, "tof": False, "tlp": False}
DEFAULT_METRICS = tuple(HIGHER_IS_BETTER)   # the canonical order


def luma(frame: np.ndarray) -> np.ndarray:
    """Collapse (..., c, h, w) RGB to (..., h, w) luma; gray passes through.

    The float64 plane is built one channel at a time, so no float64 copy
    of the whole frame is made; the products and their order of summation
    are those of ``0.299 * r + 0.587 * g + 0.114 * b`` on float64.
    """
    frame = np.asarray(frame)
    c = frame.shape[-3]
    if c == 1:
        return np.asarray(frame[..., 0, :, :], dtype=np.float64)
    if c != 3:
        raise ShapeError(f"expected 1 or 3 channels, got {c}")
    y = np.multiply(frame[..., 0, :, :], LUMA_WEIGHTS[0], dtype=np.float64)
    part = np.multiply(frame[..., 1, :, :], LUMA_WEIGHTS[1], dtype=np.float64)
    y += part
    np.multiply(frame[..., 2, :, :], LUMA_WEIGHTS[2], out=part,
                dtype=np.float64)
    y += part
    return y


def _check_pair(ref, test, names=("reference", "test")):
    """Equal shapes and finite values; a fault names the frame's role."""
    ref = np.asarray(ref)
    test = np.asarray(test)
    if ref.shape != test.shape:
        raise ShapeError(f"frame shapes differ: {ref.shape} vs {test.shape}")
    for name, frame in zip(names, (ref, test)):
        check_finite(frame, f"{name} frame")
    return ref, test


def psnr(ref: np.ndarray, test: np.ndarray) -> float:
    """Luma PSNR in dB for [0, 1] frames, capped at 100 for exact matches."""
    ref, test = _check_pair(ref, test)
    err = luma(ref) - luma(test)
    mse = float(np.mean(err * err))
    if mse <= 1e-10:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP_DB)


SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def ssim(ref: np.ndarray, test: np.ndarray) -> float:
    """Mean structural similarity on luma, 11x11 Gaussian window, sigma 1.5.

    Border pixels whose window would leave the image are excluded, which
    matches the classical valid-window formulation.
    """
    from scipy import ndimage

    ref, test = _check_pair(ref, test)
    x = luma(ref)
    y = luma(test)
    r = SSIM_WINDOW // 2
    if min(x.shape[-2:]) < SSIM_WINDOW:
        raise ShapeError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} "
                         f"analysis window: {x.shape[-2:]}")
    # truncate = r/sigma makes gaussian_filter use exactly an 11-tap kernel
    blur = lambda im: ndimage.gaussian_filter(im, SSIM_SIGMA,
                                              truncate=r / SSIM_SIGMA)
    mx, my = blur(x), blur(y)
    mxx = blur(x * x) - mx * mx
    myy = blur(y * y) - my * my
    mxy = blur(x * y) - mx * my
    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
    num = (2 * mx * my + c1) * (2 * mxy + c2)
    den = (mx * mx + my * my + c1) * (mxx + myy + c2)
    return float(np.mean((num / den)[..., r:-r, r:-r]))


# ---------------------------------------------------------------------------
# dense motion estimation (pyramidal Lucas-Kanade)

LK_WINDOW = 7
LK_LEVELS = 3
LK_ITERS = 3
LK_DET_EPS = 1e-9
LK_MAX_DISP = 64.0


@dataclass
class FlowResult:
    """Dense flow (2, h, w) in pixels plus a texture-degeneracy fraction."""

    flow: np.ndarray
    degenerate_fraction: float


def _downsample2(im: np.ndarray) -> np.ndarray:
    from scipy import ndimage

    return ndimage.gaussian_filter(im, 1.0)[::2, ::2]


def _window_sums(a: np.ndarray, b32: np.ndarray, flow: np.ndarray,
                 sums: np.ndarray) -> None:
    """Warp ``b32`` by ``flow`` and write the 7x7 box sums of gx*gx, gy*gy,
    gx*gy, gx*it and gy*it into ``sums``; ``it`` is the warped frame minus
    ``a``.

    Each product is formed in the ``syt`` plane, not yet filled, and
    filtered from there as soon as it is formed; the last one is formed in
    ``gx``, which is no longer needed by then. A function of its own so
    that the warped frame and its gradients are freed on return, not held
    through the next iteration's warp.
    """
    from scipy import ndimage

    bw = warp(b32, flow[None].astype(DTYPE))[0, 0].astype(np.float64)
    gy = np.empty_like(bw)
    gx = np.empty_like(bw)
    # np.gradient(bw) written straight into gy and gx (gx through the
    # transposed views): the same central differences inside and
    # one-sided ones at the edges
    for g, f in ((gy, bw), (gx.T, bw.T)):
        np.subtract(f[2:], f[:-2], out=g[1:-1])
        g[1:-1] /= 2.0
        np.subtract(f[1], f[0], out=g[0])
        np.subtract(f[-1], f[-2], out=g[-1])
    it = np.subtract(bw, a, out=bw)
    sxx, syy, sxy, sxt, syt = sums
    for out, p, q, scratch in ((sxx, gx, gx, syt), (syy, gy, gy, syt),
                               (sxy, gx, gy, syt), (sxt, gx, it, syt),
                               (syt, gy, it, gx)):
        np.multiply(p, q, out=scratch)
        ndimage.uniform_filter(scratch, LK_WINDOW, output=out)


# elements per row strip of the 2x2 solve: the strip's buffers and its
# slices of the window sums stay in cache
LK_STRIP = 1 << 14


def _lk_level(a: np.ndarray, b: np.ndarray, flow: np.ndarray) -> tuple:
    """Refine ``flow`` at one pyramid level in place; returns (flow,
    degenerate mask).

    ``b`` is cast to float32 once and the float64 plane is let go; every
    iteration warps it by the current flow through :func:`warp` and forms
    the full-plane window sums in a (5, h, w) array (:func:`_window_sums`).
    The 2x2 solve then runs over row strips with ``out=`` and masked
    ``copyto`` on strip-sized buffers. Each float64 operation is the one
    the formula in the comment above it names, in the same order, so the
    flow is bit-identical to evaluating those formulas directly.
    """
    h, w = a.shape
    b32 = b[None, None].astype(DTYPE)
    del b
    sums = np.empty((5, h, w))
    rows = max(1, LK_STRIP // w)
    det = np.empty((rows, w))
    step = np.empty((rows, w))
    tmp = np.empty((rows, w))
    degenerate = np.empty((h, w), dtype=bool)
    for _ in range(LK_ITERS):
        _window_sums(a, b32, flow, sums)
        for y in range(0, h, rows):
            s = slice(y, y + rows)
            sxx, syy, sxy, sxt, syt = sums[:, s]
            n = sxx.shape[0]
            d, st, tm, deg = det[:n], step[:n], tmp[:n], degenerate[s]
            # det = sxx * syy - sxy * sxy; degenerate windows divide by 1
            np.multiply(sxx, syy, out=d)
            np.multiply(sxy, sxy, out=tm)
            d -= tm
            np.less(d, LK_DET_EPS, out=deg)
            np.copyto(d, 1.0, where=deg)
            # du = -(syy * sxt - sxy * syt) / det, 0 where degenerate
            np.multiply(syy, sxt, out=st)
            np.multiply(sxy, syt, out=tm)
            st -= tm
            np.negative(st, out=st)
            st /= d
            np.copyto(st, 0.0, where=deg)
            flow[0, s] += st
            # dv = -(sxx * syt - sxy * sxt) / det, 0 where degenerate
            np.multiply(sxx, syt, out=st)
            np.multiply(sxy, sxt, out=tm)
            st -= tm
            np.negative(st, out=st)
            st /= d
            np.copyto(st, 0.0, where=deg)
            flow[1, s] += st
            np.clip(flow[:, s], -LK_MAX_DISP, LK_MAX_DISP, out=flow[:, s])
    return flow, degenerate


def dense_flow(a: np.ndarray, b: np.ndarray) -> FlowResult:
    """Estimate per-pixel displacement f with a(p) ~ b(p + f(p)).

    Coarse-to-fine Lucas-Kanade over a 3-level pyramid with 7x7 windows;
    each level's flow is doubled onto the next with the bilinear sampler
    of the ``bilinear_up`` layer (:func:`tensor.bilinear_sample`). Window
    systems with a near-singular structure tensor (flat texture) contribute
    zero update and are reported via ``degenerate_fraction``.
    """
    a, b = _check_pair(a, b, names=("first", "second"))
    pyr_a = [luma(a) if a.ndim == 3 else np.asarray(a, dtype=np.float64)]
    pyr_b = [luma(b) if b.ndim == 3 else np.asarray(b, dtype=np.float64)]
    if min(pyr_a[0].shape) < 2:
        raise ShapeError(f"dense_flow needs frames of at least 2x2 pixels, "
                         f"got {pyr_a[0].shape}")
    levels = LK_LEVELS
    while (levels > 1
           and min(pyr_a[0].shape) // 2 ** (levels - 1) < 2 * LK_WINDOW):
        levels -= 1
    for _ in range(levels - 1):
        pyr_a.append(_downsample2(pyr_a[-1]))
        pyr_b.append(_downsample2(pyr_b[-1]))
    # coarsest level first; each level's planes are handed over, not kept
    flow = np.zeros((2,) + pyr_a[-1].shape)
    while True:
        flow, degenerate = _lk_level(pyr_a.pop(), pyr_b.pop(), flow)
        if not pyr_a:
            break
        flow = bilinear_sample(flow[None], *pyr_a[-1].shape)[0]
        flow *= 2.0
    return FlowResult(flow=flow.astype(DTYPE),
                      degenerate_fraction=float(np.mean(degenerate)))


def _check_sequences(gen, ref, temporal: bool = True):
    """Float32 (t, c, h, w) sequences of one shape with finite values; at
    least 2 frames when ``temporal``. A fault names the sequence and the
    frame."""
    gen = np.asarray(gen, dtype=DTYPE)
    ref = np.asarray(ref, dtype=DTYPE)
    if gen.ndim != 4 or ref.ndim != 4:
        raise ShapeError("sequences must be (t, c, h, w)")
    if gen.shape != ref.shape:
        raise ShapeError(f"sequence shapes differ: generated {gen.shape} "
                         f"vs reference {ref.shape}")
    if gen.shape[0] < (2 if temporal else 1):
        raise ShapeError("temporal metrics need at least 2 frames"
                         if temporal else "sequences are empty")
    for name, seq in (("generated", gen), ("reference", ref)):
        for t in range(seq.shape[0]):
            check_finite(seq[t], f"{name} frame {t}")
    return gen, ref


def _flow_gaps(mapper, gen, ref):
    """tOF's term for each consecutive pair, in order. ``mapper`` is ``map``
    or an executor's ``map``, which submits every flow now, a pair's two
    side by side, and lets each go once its gap is taken."""
    pairs = range(1, gen.shape[0])
    flows = mapper(dense_flow,
                   [seq[t - 1] for t in pairs for seq in (gen, ref)],
                   [seq[t] for t in pairs for seq in (gen, ref)])
    return (float(np.mean(np.abs(g.flow - r.flow)))
            for g, r in zip(flows, flows))


def tof(gen: np.ndarray, ref: np.ndarray) -> float:
    """Temporal flow error: mean L1 gap between the motion estimated from
    consecutive generated frames and from the corresponding reference frames."""
    gen, ref = _check_sequences(gen, ref)
    return float(np.mean([*_flow_gaps(map, gen, ref)]))


# ---------------------------------------------------------------------------
# perceptual features

class RandomFeatureDistance:
    """Deterministic perceptual distance from a fixed random conv stack.

    Three stride-2 conv+relu stages with seed-pinned weights provide a
    stable multi-scale feature space; the distance is the mean over stages
    of the magnitude-normalized L1 feature difference (:func:`_feature_gap`).
    """

    WIDTHS = (8, 16, 24)
    SEED = 2024

    def __init__(self):
        rng = np.random.default_rng(self.SEED)
        self.name = (f"random-conv-{'x'.join(map(str, self.WIDTHS))}"
                     f"-seed{self.SEED}")
        self.kernels = []
        c_in = 3
        for c_out in self.WIDTHS:
            std = math.sqrt(2.0 / (c_in * 9))
            w = rng.normal(0.0, std, (c_out, c_in, 3, 3)).astype(DTYPE)
            self.kernels.append(ConvKernel(w, stride=2, pad=1))
            c_in = c_out

    def _features(self, frame: np.ndarray) -> list:
        x = np.asarray(frame, dtype=DTYPE)
        if x.ndim != 3:
            raise ShapeError(f"expected one (c, h, w) frame, got {x.shape}")
        if x.shape[0] == 1:
            x = np.repeat(x, 3, axis=0)
        x = x[None]
        feats = []
        for kern in self.kernels:
            x = np.maximum(conv2d(x, kern, "gemm"), 0.0)
            feats.append(x)
        return feats

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return _feature_gap(self._features(a), self._features(b))


def _feature_gap(fa: list, fb: list) -> float:
    """The distance between two frames, from their features."""
    return float(np.mean([
        float(np.mean(np.abs(xa - xb)))
        / (float(np.mean(np.abs(xa)) + np.mean(np.abs(xb))) + 1e-8)
        for xa, xb in zip(fa, fb)]))


@cache
def default_perceptual_distance() -> RandomFeatureDistance:
    return RandomFeatureDistance()


def tlp(gen: np.ndarray, ref: np.ndarray, pd=None) -> float:
    """Temporal perceptual error: the mean absolute difference between the
    feature gaps of consecutive generated frames and of the corresponding
    reference frames. ``pd`` is a :class:`RandomFeatureDistance`, the default
    one when None; each frame's features are computed once."""
    gen, ref = _check_sequences(gen, ref)
    if pd is None:
        pd = default_perceptual_distance()
    # starmap lets each pair go before the next frame's features are made
    g, r = ([*starmap(_feature_gap, pairwise(map(pd._features, seq)))]
            for seq in (gen, ref))
    return float(np.mean([abs(x - y) for x, y in zip(g, r)]))


# ---------------------------------------------------------------------------
# score aggregation

@dataclass
class MetricRecord:
    """One raw metric value together with its dataset-wide value range.

    ``metric`` must be one of ``HIGHER_IS_BETTER``'s keys, which fix its
    orientation.
    """

    metric: str
    value: float
    m_min: float
    m_max: float

    def __post_init__(self):
        if self.metric not in HIGHER_IS_BETTER:
            raise ValueError(f"unknown metric {self.metric!r}, expected one "
                             f"of {sorted(HIGHER_IS_BETTER)}")
        if not self.m_min <= self.value <= self.m_max:
            raise ValueError(f"{self.metric}: value {self.value} outside "
                             f"range [{self.m_min}, {self.m_max}]")


def normalize_metric(rec: MetricRecord) -> float:
    """Min-max rescale of one record to [0, 1] where larger means worse.

    Lower-is-better metrics map as (v - min)/(max - min); higher-is-better
    metrics are negated first, giving (max - v)/(max - min), so 0 is always
    the best method. A flat range normalizes to 0.0 instead of raising.
    """
    span = rec.m_max - rec.m_min
    if span <= 0:
        return 0.0
    if HIGHER_IS_BETTER[rec.metric]:
        return (rec.m_max - rec.value) / span
    return (rec.value - rec.m_min) / span


@dataclass
class ScoreWeights:
    """Per-metric combination weights; finite, non-negative, summing to 1."""

    weights: dict

    def __post_init__(self):
        self.weights = {k: float(v) for k, v in self.weights.items()}
        if not all(0 <= v < math.inf for v in self.weights.values()):
            raise ValueError(f"weights must be finite and non-negative, "
                             f"got {self.weights}")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    @classmethod
    def equal(cls, metrics) -> "ScoreWeights":
        metrics = list(metrics)
        return cls({m: 1.0 / len(metrics) for m in metrics})


def quality_score(records: list, weights: ScoreWeights | None = None) -> float:
    """Unified score 1 - sum_i w_i * normalized_i for one method's records.

    Requires exactly one record per weighted metric. Higher is better: a
    method that is best on every metric scores 1, worst on every metric
    scores 0 (with weights summing to 1).
    """
    if not records:
        raise ValueError("no metric records given")
    if weights is None:
        weights = ScoreWeights.equal([r.metric for r in records])
    have = sorted(r.metric for r in records)
    want = sorted(weights.weights)
    if have != want:
        raise ValueError(f"records cover metrics {have}, weights cover {want}")
    return 1.0 - sum(weights.weights[r.metric] * normalize_metric(r)
                     for r in records)


def score_table(table: dict, weights: ScoreWeights | None = None) -> dict:
    """Scores for several methods from a {method: {metric: value}} table.

    The per-metric value range is taken across the methods in the table, as
    the normalization is only meaningful relative to a method population.
    """
    methods = sorted(table)
    if not methods:
        raise ValueError("empty metric table")
    metrics = sorted(table[methods[0]])
    for m in methods:
        if sorted(table[m]) != metrics:
            raise ValueError(f"method {m!r} reports metrics "
                             f"{sorted(table[m])}, expected {metrics}")
    ranges = {k: (min(table[m][k] for m in methods),
                  max(table[m][k] for m in methods)) for k in metrics}
    scores = {}
    for m in methods:
        recs = [MetricRecord(k, table[m][k], ranges[k][0], ranges[k][1])
                for k in metrics]
        scores[m] = quality_score(recs, weights)
    return scores


def evaluate_sequence(gen: np.ndarray, ref: np.ndarray, pd=None,
                      metrics=DEFAULT_METRICS) -> dict:
    """The named metrics (all four by default) of one generated sequence
    against its reference, plus the per-frame lists of PSNR and SSIM when
    those are asked for.

    The inputs are checked first. Two worker threads then compute tLP,
    every flow of tOF and each frame's PSNR and SSIM, so at most two
    computations run at once; this thread submits them and reduces each
    pair's two flows to their gap as they come in. Each value is what its
    own function returns for the same inputs, so the threads change no
    value. At least 2 frames are needed only for tOF and tLP.
    """
    wanted = list(metrics)
    unknown = [m for m in wanted if m not in DEFAULT_METRICS]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; available: "
                         f"{list(DEFAULT_METRICS)}")
    if not wanted:
        raise ValueError("no metrics requested")
    for m in wanted:
        if wanted.count(m) > 1:
            raise ValueError(f"metric {m!r} is requested more than once")
    gen, ref = _check_sequences(gen, ref,
                                temporal="tof" in wanted or "tlp" in wanted)
    values = {}
    with ThreadPoolExecutor(2) as pool:
        # the longest task first, then the flows, the generated and the
        # reference flow of a pair side by side, then the per-frame tasks
        lp = pool.submit(tlp, gen, ref, pd=pd) if "tlp" in wanted else None
        gaps = _flow_gaps(pool.map, gen, ref) if "tof" in wanted else None
        per_frame = {m: pool.map(fn, gen, ref)
                     for m, fn in (("psnr", psnr), ("ssim", ssim))
                     if m in wanted}
        if gaps is not None:
            # each pair is reduced to its gap as soon as both flows are in,
            # and let go, so the flows held do not grow with the sequence
            values["tof"] = float(np.mean([*gaps]))
        per_frame = {m: [*vals] for m, vals in per_frame.items()}
    values.update((m, float(np.mean(vals))) for m, vals in per_frame.items())
    if lp is not None:
        values["tlp"] = lp.result()
    out = {m: values[m] for m in DEFAULT_METRICS if m in values}
    out.update((f"per_frame_{m}", vals) for m, vals in per_frame.items())
    return out
