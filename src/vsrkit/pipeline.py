"""Recurrent video upscaling: flow estimation, warping, reconstruction.

Per frame t the pipeline estimates motion between the previous and current
low-resolution frames, warps the previous high-resolution output by the
upscaled flow, packs the warp into the low-resolution grid with
space-to-depth, and lets the reconstruction net fuse both. Frame 0 uses
the current frame as its own predecessor and a black previous output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tops
from .graph import NetworkGraph
from .tensor import DTYPE, NonFiniteError, ShapeError


def warp(x: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward-warp ``x`` by a dense displacement field.

    ``flow`` has two channels in pixel units: channel 0 is the horizontal
    displacement u, channel 1 the vertical displacement v. Output pixel
    (y, x) bilinearly samples the input at (y + v, x + u), clamping sample
    coordinates to the image border. Non-finite flow raises
    :class:`NonFiniteError`.
    """
    x = tops.check_tensor(x, "warp input")
    flow = tops.check_tensor(flow, "flow")
    n, c, h, w = x.shape
    if flow.shape != (n, 2, h, w):
        raise ShapeError(f"flow shape {flow.shape} does not match "
                         f"({n}, 2, {h}, {w})")
    tops.check_finite(flow, "flow")
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


@dataclass
class RecurrentState:
    """What one step hands to the next: the frame pair the flow net needs."""

    prev_lr: np.ndarray
    prev_hr: np.ndarray


def _pool_factor(fnet: NetworkGraph) -> int:
    levels = sum(1 for ly in fnet.layers if ly.kind == "maxpool2")
    return 2 ** levels


def _check_generator(generator: dict) -> tuple:
    for key in ("fnet", "srnet"):
        if key not in generator:
            raise ValueError(f"generator bundle is missing the {key!r} graph")
    fnet, srnet = generator["fnet"], generator["srnet"]
    scale = int(srnet.meta.get("scale", 0))
    if scale < 1:
        raise ValueError("srnet graph does not declare its scale factor")
    frame_c = int(srnet.meta.get("frame_channels", 3))
    return fnet, srnet, scale, frame_c


def estimate_flow(fnet: NetworkGraph, cur: np.ndarray, prev: np.ndarray,
                  backend: str = "gemm") -> np.ndarray:
    """Dense flow from prev to cur on the input grid.

    The encoder halves resolution once per pooling level, so the frame pair
    is edge-padded up to the nearest multiple of the total pooling factor
    and the flow is cropped back afterwards.
    """
    pair = tops.concat_channels(cur, prev)
    n, c, h, w = pair.shape
    f = _pool_factor(fnet)
    ph = (f - h % f) % f
    pw = (f - w % f) % f
    if ph or pw:
        pair = np.pad(pair, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="edge")
    flow = fnet.forward(pair, backend)
    return np.ascontiguousarray(flow[:, :, :h, :w])


def vsr_step(generator: dict, lr: np.ndarray,
             state: RecurrentState | None = None,
             backend: str = "gemm") -> tuple:
    """One recurrent step; returns (hr_frame, flow, next_state).

    A non-finite input frame, or a non-finite flow (from non-finite
    weights), raises :class:`NonFiniteError`.
    """
    fnet, srnet, scale, frame_c = _check_generator(generator)
    lr = tops.check_tensor(lr, "low-resolution frame")
    tops.check_finite(lr, "low-resolution frame")
    n, c, h, w = lr.shape
    if c != frame_c:
        raise ShapeError(f"frame has {c} channels, net expects {frame_c}")
    if state is None:
        state = RecurrentState(
            prev_lr=lr,
            prev_hr=tops.tensor_new((n, c, h * scale, w * scale)))
    if state.prev_lr.shape != lr.shape:
        raise ShapeError(f"state frame shape {state.prev_lr.shape} does not "
                         f"match input {lr.shape}")

    flow = estimate_flow(fnet, lr, state.prev_lr, backend)
    flow_hr = tops.bilinear_resize(flow, float(scale)) * DTYPE(scale)
    warped = warp(state.prev_hr, flow_hr)
    packed = tops.space_to_depth(warped, scale)
    hr = srnet.forward(tops.concat_channels(lr, packed), backend)
    return hr, flow, RecurrentState(prev_lr=lr, prev_hr=hr)


def vsr_run(generator: dict, frames: np.ndarray,
            backend: str = "gemm") -> np.ndarray:
    """Upscale a whole (t, c, h, w) sequence; returns (t, c, h*s, w*s).

    A :class:`NonFiniteError` from any step is re-raised naming its frame.
    """
    frames = np.asarray(frames, dtype=DTYPE)
    if frames.ndim != 4:
        raise ShapeError(f"expected (t, c, h, w) sequence, got {frames.shape}")
    if frames.shape[0] < 1:
        raise ShapeError("sequence is empty")
    state = None
    outs = []
    for t in range(frames.shape[0]):
        try:
            hr, _, state = vsr_step(generator, frames[t:t + 1], state, backend)
        except NonFiniteError as e:
            raise NonFiniteError(f"frame {t}: {e}") from None
        outs.append(hr[0])
    return np.stack(outs).astype(DTYPE)


def upscale_frames(graph: NetworkGraph, frames: np.ndarray,
                   backend: str = "gemm") -> np.ndarray:
    """Frame-independent upscaling for the single-image nets.

    A non-finite input frame raises :class:`NonFiniteError` naming the frame.
    """
    frames = np.asarray(frames, dtype=DTYPE)
    if frames.ndim != 4:
        raise ShapeError(f"expected (t, c, h, w) sequence, got {frames.shape}")
    outs = []
    for t in range(frames.shape[0]):
        tops.check_finite(frames[t], f"frame {t}: low-resolution frame")
        outs.append(graph.forward(frames[t:t + 1], backend)[0])
    return np.stack(outs).astype(DTYPE)
