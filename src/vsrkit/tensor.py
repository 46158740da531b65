"""NCHW tensor primitives shared by every other module.

A "tensor" here is simply a 4-D ``numpy.ndarray`` of ``float32`` laid out as
(batch, channels, height, width). All operations are pure: they never mutate
their inputs and are safe to call concurrently.
"""
from __future__ import annotations

import operator

import numpy as np

DTYPE = np.float32


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operation's contract."""


class NonFiniteError(ValueError):
    """Raised when a tensor that must be finite holds NaN or infinity."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def check_int(v, name: str, least: int | None = None) -> int:
    """``v`` as an int of at least ``least``; anything else, even 2.0 or
    True, raises ShapeError."""
    try:
        if isinstance(v, bool):
            raise TypeError
        n = operator.index(v)
    except TypeError:
        raise ShapeError(f"{name} must be an integer, got {v!r}") from None
    if least is not None and n < least:
        raise ShapeError(f"{name} must be >= {least}, got {n}")
    return n


def check_tensor(t: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate that ``t`` is a well-formed NCHW tensor and return it."""
    t = np.asarray(t)
    _require(t.ndim == 4, f"{name}: expected 4-D NCHW array, got {t.ndim}-D")
    _require(min(t.shape) >= 1, f"{name}: all dims must be >= 1, got {t.shape}")
    if t.dtype != DTYPE:
        t = t.astype(DTYPE)
    return t


def check_finite(t: np.ndarray, name: str = "tensor") -> None:
    """Raise :class:`NonFiniteError` if ``t`` holds NaN or infinity,
    giving the count and the index of the first such value."""
    bad = ~np.isfinite(t)
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonFiniteError(f"{name} holds {int(bad.sum())} non-finite "
                             f"values, first at index {first}")


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate two tensors along the channel axis (a's channels first)."""
    a = check_tensor(a, "a")
    b = check_tensor(b, "b")
    _require(
        a.shape[0] == b.shape[0] and a.shape[2:] == b.shape[2:],
        f"batch/spatial mismatch: {a.shape} vs {b.shape}",
    )
    return np.concatenate([a, b], axis=1)


def space_to_depth(t: np.ndarray, block: int) -> np.ndarray:
    """Fold each ``block x block`` spatial cell into channels.

    Output shape is (n, c*block^2, h/block, w/block). Exact inverse of
    :func:`pixel_shuffle` with the same block size: the sub-pixel at offset
    (dy, dx) lands in output channel c*block^2 + dy*block + dx.
    """
    t = check_tensor(t)
    block = check_int(block, "block", 1)
    n, c, h, w = t.shape
    _require(
        h % block == 0 and w % block == 0,
        f"spatial dims {h}x{w} not divisible by block {block}",
    )
    x = t.reshape(n, c, h // block, block, w // block, block)
    x = x.transpose(0, 1, 3, 5, 2, 4)  # n, c, dy, dx, h', w'
    return np.ascontiguousarray(x.reshape(n, c * block * block, h // block, w // block))


def pixel_shuffle(t: np.ndarray, r: int) -> np.ndarray:
    """Rearrange c*r^2 channels into an r-times larger spatial grid.

    Element at output (n, c', y*r+dy, x*r+dx) equals input
    (n, c'*r^2 + dy*r + dx, y, x).
    """
    t = check_tensor(t)
    r = check_int(r, "upscale factor", 1)
    n, c, h, w = t.shape
    _require(c % (r * r) == 0, f"channels {c} not divisible by r^2={r * r}")
    c_out = c // (r * r)
    x = t.reshape(n, c_out, r, r, h, w)
    x = x.transpose(0, 1, 4, 2, 5, 3)  # n, c', h, dy, w, dx
    return np.ascontiguousarray(x.reshape(n, c_out, h * r, w * r))


def pad_zero(t: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes by ``pad`` on every side."""
    t = check_tensor(t)
    pad = check_int(pad, "pad", 0)
    return np.pad(t, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def bilinear_resize(t: np.ndarray, scale: float) -> np.ndarray:
    """Bilinear resampling by an arbitrary positive scale factor to
    round(h*scale) x round(w*scale), through :func:`bilinear_sample`."""
    t = check_tensor(t)
    scale = float(scale)
    _require(0 < scale < np.inf,
             f"scale must be positive and finite, got {scale}")
    n, c, h, w = t.shape
    oh = int(round(h * scale))
    ow = int(round(w * scale))
    _require(oh >= 1 and ow >= 1, f"output dims {oh}x{ow} must be >= 1")
    if oh == h and ow == w and scale == 1.0:
        return t.copy()
    return bilinear_sample(t, oh, ow)


def bilinear_sample(t: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Bilinear resampling of an NCHW array of any float dtype to oh x ow,
    computed in that dtype; the result is C-contiguous.

    Uses the align-corners-false convention: output pixel i samples the
    source at (i + 0.5) * h/oh - 0.5, with reads clamped to the border.
    Rows are interpolated first, then columns, each as v0*(1-f) + v1*f.
    """
    h, w = t.shape[2:]
    sy = (np.arange(oh, dtype=np.float64) + 0.5) * (h / oh) - 0.5
    sx = (np.arange(ow, dtype=np.float64) + 0.5) * (w / ow) - 0.5
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    wy = (sy - y0).astype(t.dtype)[None, None, :, None]
    wx = (sx - x0).astype(t.dtype)
    rows = (np.take(t, np.clip(y0, 0, h - 1), axis=2) * (1 - wy)
            + np.take(t, np.clip(y0 + 1, 0, h - 1), axis=2) * wy)
    return (np.take(rows, np.clip(x0, 0, w - 1), axis=3) * (1 - wx)
            + np.take(rows, np.clip(x0 + 1, 0, w - 1), axis=3) * wx)
