"""Recurrent video upscaling: flow estimation, warping, reconstruction.

Per frame t the pipeline estimates motion between the previous and current
low-resolution frames, warps the previous high-resolution output by the
upscaled flow, packs the warp into the low-resolution grid with
space-to-depth, and lets the reconstruction net fuse both. Frame 0 uses
the current frame as its own predecessor and a black previous output.
The scale and the frame channels are read from the graphs' shape rules.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tops
from .graph import GraphError, NetworkGraph
from .tensor import DTYPE, NonFiniteError, ShapeError


# samples per strip of output rows that warp processes at once: its
# scratch buffers stay a few hundred kB, reused across strips and images
WARP_STRIP = 16384


def warp(x: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward-warp ``x`` by a dense displacement field.

    ``flow`` has two channels in pixel units: channel 0 is the horizontal
    displacement u, channel 1 the vertical displacement v. Output pixel
    (y, x) bilinearly samples the input at (y + v, x + u), clamping sample
    coordinates to the image border. Non-finite flow raises
    :class:`NonFiniteError`.

    Each image is done in strips of whole rows, about ``WARP_STRIP``
    samples each, on scratch buffers allocated once per call. In a strip
    the sample coordinates are ``flow + arange`` in float64, clipped in
    place and floored straight into integer cells; the float32 weights
    are the float64 fractions. Each corner is one flat index ``y * w + x``
    gathered with ``take`` from the (c, h * w) planes, and the float32
    interpolation writes into the preallocated NCHW output.
    """
    x = tops.check_tensor(x, "warp input")
    flow = tops.check_tensor(flow, "flow")
    n, c, h, w = x.shape
    if flow.shape != (n, 2, h, w):
        raise ShapeError(f"flow shape {flow.shape} does not match "
                         f"({n}, 2, {h}, {w})")
    tops.check_finite(flow, "flow")
    out = np.empty((n, c, h, w), dtype=DTYPE)
    rows = max(1, min(h, WARP_STRIP // w))
    gx = np.arange(w, dtype=np.float64)
    gy = np.arange(h, dtype=np.float64)[:, None]
    s = np.empty((2, rows, w))              # sample x, y, then fractions
    frac = np.empty((2, rows * w), dtype=DTYPE)
    cell = np.empty((2, rows, w), dtype=np.intp)
    far = s.view(np.intp)                   # s is dead once frac is taken
    v = np.empty((2, c, rows * w), dtype=DTYPE)
    for i in range(n):
        planes = x[i].reshape(c, h * w)
        for r0 in range(0, h, rows):
            r = min(rows, h - r0)
            m = r * w
            sx, sy = s[:, :r]
            np.add(flow[i, 0, r0:r0 + r], gx, out=sx)
            np.add(flow[i, 1, r0:r0 + r], gy[r0:r0 + r], out=sy)
            np.clip(sx, 0.0, w - 1.0, out=sx)
            np.clip(sy, 0.0, h - 1.0, out=sy)
            x0, y0 = cell[:, :r]
            x1, y1 = far[:, :r]
            np.floor(sx, out=x0, casting="unsafe")
            np.floor(sy, out=y0, casting="unsafe")
            np.subtract(sx, x0, out=sx)
            np.subtract(sy, y0, out=sy)
            fx, fy = frac[:, :m]
            fx[...] = sx.reshape(m)
            fy[...] = sy.reshape(m)
            # corner indices; x1 - x0 and y1 - y0 are 0 at the far border
            np.add(x0, 1, out=x1)
            np.minimum(x1, w - 1, out=x1)
            y0 *= w
            np.add(y0, w, out=y1)
            np.minimum(y1, (h - 1) * w, out=y1)
            x1 -= x0                        # dx
            y0 += x0                        # (y0, x0)
            y1 += x0                        # (y1, x0)
            np.add(y0, x1, out=x0)          # (y0, x1)
            np.add(y1, x1, out=x1)          # (y1, x1)
            i00, i01, i10, i11 = (k.reshape(m) for k in (y0, x0, y1, x1))

            # the indices are in range by construction; mode="clip" lets
            # take write into out without an intermediate buffer
            o = out[i].reshape(c, h * w)[:, r0 * w:r0 * w + m]
            p, q = v[:, :, :m]
            np.take(planes, i01, axis=1, out=o, mode="clip")
            np.take(planes, i00, axis=1, out=p, mode="clip")
            o -= p                          # top = v00 + (v01 - v00) * fx
            o *= fx
            o += p
            np.take(planes, i11, axis=1, out=p, mode="clip")
            np.take(planes, i10, axis=1, out=q, mode="clip")
            p -= q                          # bot = v10 + (v11 - v10) * fx
            p *= fx
            p += q
            p -= o                          # out = top + (bot - top) * fy
            p *= fy
            o += p
    return out


@dataclass
class RecurrentState:
    """What one step hands to the next: the frame pair the flow net needs."""

    prev_lr: np.ndarray
    prev_hr: np.ndarray


def fnet_size(fnet: NetworkGraph, size) -> tuple:
    """The (h, w) the fnet runs at: ``size`` padded to its pooling factor."""
    f = 2 ** sum(ly.kind == "maxpool2" for ly in fnet.layers)
    return tuple(-(-v // f) * f for v in size)


def run_size(bundle: dict, name: str, size) -> tuple:
    """(h, w) graph ``name`` runs at: a pair's fnet at :func:`fnet_size`."""
    if name == "fnet" and set(bundle) == {"fnet", "srnet"}:
        return fnet_size(bundle[name], size)
    return tuple(size)


def graph_cost(bundle: dict, name: str, size):
    """``count_flops`` of graph ``name`` for a frame of ``size`` at its
    :func:`run_size`; a failing shape rule raises a GraphError naming it."""
    net, size = bundle[name], run_size(bundle, name, size)
    try:
        return net.count_flops((1, net.in_channels, *size))
    except GraphError as e:
        raise GraphError(f"graph {name!r}: {e}") from e


def _out_shape(bundle: dict, name: str, size) -> tuple:
    rows = graph_cost(bundle, name, size).per_layer
    return (rows[-1]["out_shape"] if rows
            else (1, bundle[name].in_channels, *size))


def _pair(bundle: dict):
    """(fnet, srnet) for a recurrent bundle, None for a single net."""
    if set(bundle) == {"fnet", "srnet"}:
        return bundle["fnet"], bundle["srnet"]
    if len(bundle) != 1:
        raise GraphError(f"model holds graphs {sorted(bundle)}; expected "
                         f"either a single net or an fnet+srnet pair")
    return None


def model_geometry(bundle: dict, size) -> tuple:
    """(scale, frame_channels) of a single net or of an fnet+srnet pair,
    read from the graphs' shape rules at ``size`` = (h, w).

    The net that makes the frames (a pair's srnet) must output an integer
    s >= 1 times ``size``; s is the scale. A single net takes frames of its
    input channel count. A pair takes frames of the srnet's output channel
    count c, so its fnet must take 2c channels and its srnet c * (1 + s^2),
    and the fnet must map a frame pair at :func:`fnet_size` to a 2-channel
    flow of that size. Anything else, a bundle of other graphs or a shape
    rule that fails at ``size`` included, raises :class:`GraphError`
    naming the graph before any layer runs.
    """
    pair = _pair(bundle)
    name = "srnet" if pair else next(iter(bundle))
    h, w = size
    _, c, oh, ow = _out_shape(bundle, name, size)
    s = oh // h
    if s < 1 or (oh, ow) != (h * s, w * s):
        raise GraphError(f"graph {name!r} maps {h}x{w} frames to {oh}x{ow}, "
                         f"not an integer multiple >= 1 of them")
    if pair is None:
        return s, bundle[name].in_channels
    for gname, want in (("fnet", 2 * c), ("srnet", c * (1 + s * s))):
        if bundle[gname].in_channels != want:
            raise GraphError(f"graph {gname!r} takes "
                             f"{bundle[gname].in_channels} input channels; a "
                             f"x{s} pair of {c}-channel frames needs {want}")
    fh, fw = fnet_size(bundle["fnet"], size)
    _, fc, foh, fow = _out_shape(bundle, "fnet", size)
    if (fc, foh, fow) != (2, fh, fw):
        raise GraphError(f"graph 'fnet' maps {fh}x{fw} frame pairs to "
                         f"{fc}x{foh}x{fow}, not a 2x{fh}x{fw} flow")
    return s, c


def estimate_flow(fnet: NetworkGraph, cur: np.ndarray, prev: np.ndarray,
                  backend: str = "gemm") -> np.ndarray:
    """Dense flow from prev to cur on the input grid.

    The encoder halves resolution once per pooling level, so the frame pair
    is edge-padded to :func:`fnet_size`, a multiple of the total pooling
    factor, and the flow is cropped back afterwards.
    """
    pair = tops.concat_channels(cur, prev)
    h, w = pair.shape[2:]
    ph, pw = fnet_size(fnet, (h, w))
    if (ph, pw) != (h, w):
        pair = np.pad(pair, ((0, 0), (0, 0), (0, ph - h), (0, pw - w)),
                      mode="edge")
    flow = fnet.forward(pair, backend)
    return np.ascontiguousarray(flow[:, :, :h, :w])


def vsr_step(generator: dict, lr: np.ndarray,
             state: RecurrentState | None = None,
             backend: str = "gemm") -> tuple:
    """One recurrent step; returns (hr_frame, flow, next_state).

    A bundle that is not an fnet+srnet pair, or one whose graphs disagree
    (see :func:`model_geometry`), raises :class:`GraphError`. A non-finite
    input frame, or a non-finite flow (from non-finite weights), raises
    :class:`NonFiniteError`.
    """
    pair = _pair(generator)
    if pair is None:
        raise GraphError(f"vsr_step needs an fnet+srnet pair, model holds "
                         f"graphs {sorted(generator)}")
    fnet, srnet = pair
    lr = tops.check_tensor(lr, "low-resolution frame")
    scale, frame_c = model_geometry(generator, lr.shape[2:])
    tops.check_finite(lr, "low-resolution frame")
    n, c, h, w = lr.shape
    if c != frame_c:
        raise ShapeError(f"frame has {c} channels, net expects {frame_c}")
    if state is None:
        state = RecurrentState(
            prev_lr=lr,
            prev_hr=np.zeros((n, c, h * scale, w * scale), DTYPE))
    if state.prev_lr.shape != lr.shape:
        raise ShapeError(f"state frame shape {state.prev_lr.shape} does not "
                         f"match input {lr.shape}")

    flow = estimate_flow(fnet, lr, state.prev_lr, backend)
    flow_hr = tops.bilinear_resize(flow, float(scale)) * DTYPE(scale)
    warped = warp(state.prev_hr, flow_hr)
    packed = tops.space_to_depth(warped, scale)
    hr = srnet.forward(tops.concat_channels(lr, packed), backend)
    return hr, flow, RecurrentState(prev_lr=lr, prev_hr=hr)


def upscale_steps(bundle: dict, frames: np.ndarray, backend: str = "gemm"):
    """Yield the upscaled (c, h*s, w*s) frames of a (t, c, h, w) sequence,
    one per input frame, for either bundle kind.

    An fnet+srnet pair runs the recurrent :func:`vsr_step` chain; a single
    net runs ``forward`` on each frame independently. A non-finite input
    frame, flow or output raises :class:`NonFiniteError` naming the frame
    (and, for an output, the graph that produced it).
    """
    frames = tops.check_tensor(frames, "sequence")
    model_geometry(bundle, frames.shape[2:])
    recurrent = _pair(bundle) is not None
    name, net = ("srnet", None) if recurrent else next(iter(bundle.items()))
    state = None
    for t in range(frames.shape[0]):
        try:
            if recurrent:
                # through the module global, so rebinding vsr_step reaches it
                hr, _, state = vsr_step(bundle, frames[t:t + 1], state, backend)
            else:
                tops.check_finite(frames[t], "low-resolution frame")
                hr = net.forward(frames[t:t + 1], backend)
            tops.check_finite(hr, f"graph {name!r} output")
        except NonFiniteError as e:
            raise NonFiniteError(f"frame {t}: {e}") from None
        yield hr[0]


def vsr_run(bundle: dict, frames: np.ndarray,
            backend: str = "gemm") -> np.ndarray:
    """Upscale a whole (t, c, h, w) sequence with a single net or an
    fnet+srnet pair; returns (t, c, h*s, w*s). See :func:`upscale_steps`."""
    return np.stack(list(upscale_steps(bundle, frames, backend)))
