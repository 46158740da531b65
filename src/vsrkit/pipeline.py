"""Recurrent video upscaling: flow estimation, warping, reconstruction.

Per frame t the flow net estimates motion between the previous and current
low-resolution frames; :func:`vsr_step` warps the previous high-resolution
output by the upscaled flow, packs the warp into the low-resolution grid
with space-to-depth, and lets the reconstruction net fuse both.
:func:`plan_sequence` works out a sequence's scale, channels, flow chunk
and graph plans once; :func:`upscale_steps` runs those plans.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import tensor as tops
from .graph import GraphError, NetworkGraph
from .tensor import DTYPE, NonFiniteError, ShapeError, check_int


# samples per strip of output rows that warp processes at once: its
# scratch buffers stay a few hundred kB, reused across strips and images
WARP_STRIP = 16384

# bytes the largest fnet layer output of one batched estimate_flow call
# may take: a chunk holds as many frames as fit, and at least one
FLOW_BATCH_BYTES = 8 << 20


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


def fnet_size(fnet: NetworkGraph, size) -> tuple:
    """The (h, w) the fnet runs at: ``size`` padded to its pooling factor."""
    f = 2 ** sum(ly.kind == "maxpool2" for ly in fnet.layers)
    return tuple(-(-v // f) * f for v in size)


def plan_graph(bundle: dict, name: str, size, backend: str = "gemm"):
    """The :class:`~vsrkit.graph.Plan` at n = 1 of graph ``name`` of any
    bundle for a frame of ``size``, a pair's fnet at :func:`fnet_size`; a
    failing shape rule raises a GraphError naming the graph."""
    net = bundle[name]
    if name == "fnet" and set(bundle) == {"fnet", "srnet"}:
        size = fnet_size(net, size)
    try:
        return net._plan((1, net.in_channels, *(
            check_int(v, "input_shape", 1) for v in size)), backend)
    except GraphError as e:
        raise GraphError(f"graph {name!r}: {e}") from e


SequencePlan = namedtuple("SequencePlan", "scale channels chunk plans")


def plan_sequence(bundle: dict, size, backend: str = "gemm") -> SequencePlan:
    """The ``SequencePlan`` of a single net or an fnet+srnet pair for frames
    of ``size`` = (h, w) on ``backend``: the scale, the frame channels, the
    frames per :func:`estimate_flow` call and, by graph name, each graph's
    :func:`plan_graph`. Nothing runs.

    The net that makes the frames (a pair's srnet) must output an integer
    s >= 1 times ``size``; s is the scale. A single net takes frames of its
    input channel count, one per chunk. A pair takes frames of the srnet's
    output channel count c, so its fnet must take 2c channels and its srnet
    c * (1 + s^2), and the fnet must map a frame pair at :func:`fnet_size`
    to a 2-channel flow of that size. Anything else raises
    :class:`GraphError` naming the graph. A pair's chunk is as many frames
    as the fnet's largest layer output (or input) fits in
    ``FLOW_BATCH_BYTES``, at least 1, so the n = 1 plan's memory check
    covers every chunk."""
    pair = set(bundle) == {"fnet", "srnet"}
    if not pair and len(bundle) != 1:
        raise GraphError(f"model holds graphs {sorted(bundle)}; expected "
                         f"either a single net or an fnet+srnet pair")
    name = "srnet" if pair else next(iter(bundle))
    plans = {name: plan_graph(bundle, name, size, backend)}
    h, w = size
    _, c, oh, ow = plans[name].out_shape
    s = oh // h
    if s < 1 or (oh, ow) != (h * s, w * s):
        raise GraphError(f"graph {name!r} maps {h}x{w} frames to {oh}x{ow}, "
                         f"not an integer multiple >= 1 of them")
    if not pair:
        return SequencePlan(s, bundle[name].in_channels, 1, plans)
    for gname, want in (("fnet", 2 * c), ("srnet", c * (1 + s * s))):
        if bundle[gname].in_channels != want:
            raise GraphError(f"graph {gname!r} takes "
                             f"{bundle[gname].in_channels} input channels; a "
                             f"x{s} pair of {c}-channel frames needs {want}")
    plan = plans["fnet"] = plan_graph(bundle, "fnet", size, backend)
    (_, _, fh, fw), (_, fc, foh, fow) = plan.in_shape, plan.out_shape
    if (fc, foh, fow) != (2, fh, fw):
        raise GraphError(f"graph 'fnet' maps {fh}x{fw} frame pairs to "
                         f"{fc}x{foh}x{fow}, not a 2x{fh}x{fw} flow")
    largest = max((math.prod(r["out_shape"]) for r in plan.per_layer),
                  default=math.prod(plan.in_shape)) * np.dtype(DTYPE).itemsize
    return SequencePlan(s, c, max(1, FLOW_BATCH_BYTES // largest), plans)


def model_geometry(bundle: dict, size) -> tuple:
    """(scale, frame_channels) of :func:`plan_sequence` at ``size``."""
    return plan_sequence(bundle, size)[:2]


def estimate_flow(fnet: NetworkGraph, cur: np.ndarray, prev: np.ndarray,
                  backend: str = "gemm", *, plan=None) -> np.ndarray:
    """Dense flow from prev to cur on the input grid: the frame pair is
    edge-padded to :func:`fnet_size`, a multiple of the fnet's pooling
    factor, run (by ``plan``, as in ``forward``) and cropped back."""
    pair = tops.concat_channels(cur, prev)
    h, w = pair.shape[2:]
    ph, pw = fnet_size(fnet, (h, w))
    if (ph, pw) != (h, w):
        pair = np.pad(pair, ((0, 0), (0, 0), (0, ph - h), (0, pw - w)), "edge")
    flow = fnet.forward(pair, backend, plan=plan)
    return np.ascontiguousarray(flow[:, :, :h, :w])


def vsr_step(srnet: NetworkGraph, lr: np.ndarray, flow: np.ndarray,
             prev_hr: np.ndarray, backend: str = "gemm", *,
             plan=None) -> np.ndarray:
    """One recurrent step: the (n, c, h*s, w*s) output for frame ``lr``.

    ``flow`` is the (n, 2, h, w) flow from the previous frame to ``lr``, as
    :func:`estimate_flow` gives it, and ``prev_hr`` the previous output;
    the scale s is read from ``prev_hr``. A ``prev_hr`` that is not
    (n, c, h*s, w*s) for an integer s >= 1 with c * (1 + s^2) the srnet's
    input channels, or a flow of another shape, raises :class:`ShapeError`
    before any layer runs. A non-finite input frame, or a non-finite flow
    (from non-finite weights), raises :class:`NonFiniteError`. ``plan`` is
    as in ``forward``."""
    lr = tops.check_tensor(lr, "low-resolution frame")
    tops.check_finite(lr, "low-resolution frame")
    n, c, h, w = lr.shape
    if np.shape(flow) != (n, 2, h, w):
        raise ShapeError(f"flow shape {np.shape(flow)} does not match "
                         f"({n}, 2, {h}, {w})")
    prev_hr = tops.check_tensor(prev_hr, "previous output")
    s = prev_hr.shape[2] // h
    if (s < 1 or prev_hr.shape != (n, c, h * s, w * s)
            or srnet.in_channels != c * (1 + s * s)):
        raise ShapeError(f"previous output shape {prev_hr.shape} is not "
                         f"({n}, {c}, {h}s, {w}s) for an integer s >= 1 with "
                         f"{c} * (1 + s^2) = {srnet.in_channels} (srnet inputs)")
    # nested, so that only the srnet's input is alive while it runs
    x = tops.concat_channels(lr, tops.space_to_depth(warp(
        prev_hr, tops.bilinear_resize(flow, float(s)) * DTYPE(s)), s))
    return srnet.forward(x, backend, plan=plan)


def upscale_steps(bundle: dict, frames: np.ndarray, backend: str = "gemm",
                  *, plan=None):
    """Yield the upscaled (c, h*s, w*s) frames of a (t, c, h, w) sequence,
    one per input frame, for either bundle kind.

    The bundle is checked once, by :func:`plan_sequence` (or ``plan`` is its
    result), and frames of another channel count raise :class:`ShapeError`;
    each graph then runs its plan. A pair runs the recurrent
    :func:`vsr_step` chain, each step handed the last output; frame 0 gets
    a black one. Its flows are estimated a chunk of frames at a time: one
    :func:`estimate_flow` call on the chunk's (n, 2c, h, w) frame pairs,
    pair t being (frame t, frame t-1) and frame 0 its own predecessor.
    Every backend runs a batch image by image, so the bits are those of the
    per-frame chain. A single net runs ``forward`` on each frame. A
    non-finite input frame, flow or output raises :class:`NonFiniteError`
    naming the frame (and, for an output, the graph that produced it),
    after the frames before it.
    """
    frames = tops.check_tensor(frames, "sequence")
    _, c, h, w = frames.shape
    plan = plan or plan_sequence(bundle, (h, w), backend)
    if c != plan.channels:
        raise ShapeError(f"frame has {c} channels, net expects {plan.channels}")
    pair, chunk, plans = len(plan.plans) == 2, plan.chunk, plan.plans
    name = next(iter(plans))            # the net that makes the frames
    # frame 0 has a black previous output and is its own predecessor
    hr = np.zeros((1, c, h * plan.scale, w * plan.scale), DTYPE)
    for t in range(frames.shape[0]):
        try:
            if pair:
                # both through their module globals, so rebinding reaches them
                if t % chunk == 0:
                    cur = frames[t:t + chunk]
                    prev = frames[np.arange(t - 1, t - 1 + len(cur)).clip(0)]
                    flows = estimate_flow(bundle["fnet"], cur, prev, backend,
                                          plan=plans["fnet"])
                j = t % chunk
                hr = vsr_step(bundle[name], frames[t:t + 1], flows[j:j + 1],
                              hr, backend, plan=plans[name])
            else:
                tops.check_finite(frames[t], "low-resolution frame")
                hr = bundle[name].forward(frames[t:t + 1], backend,
                                          plan=plans[name])
            tops.check_finite(hr, f"graph {name!r} output")
        except NonFiniteError as e:
            raise NonFiniteError(f"frame {t}: {e}") from None
        yield hr[0]


def vsr_run(bundle: dict, frames: np.ndarray,
            backend: str = "gemm") -> np.ndarray:
    """Upscale a whole (t, c, h, w) sequence with a single net or an
    fnet+srnet pair; returns (t, c, h*s, w*s). See :func:`upscale_steps`."""
    return np.stack(list(upscale_steps(bundle, frames, backend)))
