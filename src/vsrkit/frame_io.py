"""Frame-sequence I/O.

Frames live one per file inside a directory, named by zero-padded decimal
index (``0000.ppm``, ``0001.ppm``, ...). Two containers are supported:

* P6 binary portable pixmap, 8-bit, maxval 255. Values map to [0, 1] by
  division by 255 on read and round-to-nearest with clamping on write.
  Lossy by quantization, universally viewable.
* ``.f32``: a raw planar container for lossless fixtures. 16-byte header
  of four little-endian u32 (n, c, h, w; n is always 1), then n*c*h*w
  32-bit little-endian floats in channel-major order, all finite.
"""
from __future__ import annotations

import os
import re
import struct

import numpy as np

from .tensor import DTYPE, NonFiniteError, ShapeError, check_finite, check_int


class FrameFormatError(ValueError):
    """Malformed frame file or inconsistent frame directory."""


# ---------------------------------------------------------------------------
# single-frame containers

def _check_finite_frame(frame: np.ndarray, path, name: str) -> None:
    try:
        check_finite(frame, name)
    except NonFiniteError as e:
        raise FrameFormatError(f"{path}: {e}") from None


def write_ppm(path, frame: np.ndarray) -> None:
    """Write one (3, h, w) [0,1] frame as binary P6, rounding to 8 bits.

    A non-finite frame raises :class:`FrameFormatError` before the file
    is opened."""
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[0] != 3:
        raise ShapeError(f"P6 needs a (3, h, w) frame, got {frame.shape}")
    _check_finite_frame(frame, path, "frame")
    _, h, w = frame.shape
    pixels = np.rint(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels.transpose(1, 2, 0)).tobytes())


def _left(fh) -> int:
    """Bytes left in ``fh``; caps each read a header sizes to the file."""
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_ppm_token(fh, path) -> bytes:
    """Next whitespace-delimited header token, skipping # comments."""
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise FrameFormatError(f"{path}: header ended prematurely")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch
        if len(token) > 10:     # 10 digits hold any u32
            raise FrameFormatError(f"{path}: header token {token!r}... is "
                                   f"longer than 10 bytes")


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 file into a (3, h, w) float32 frame in [0, 1]."""
    with open(path, "rb") as fh:
        if fh.read(2) != b"P6":
            raise FrameFormatError(f"{path}: not a binary P6 file")
        fields = []
        for name in ("width", "height", "maxval"):
            token = _read_ppm_token(fh, path)
            if not token.isdigit():
                raise FrameFormatError(f"{path}: non-numeric {name} "
                                       f"{token!r} in header")
            fields.append(int(token))
        w, h, maxval = fields
        if w < 1 or h < 1:
            raise FrameFormatError(f"{path}: empty image {w}x{h}")
        if maxval != 255:
            raise FrameFormatError(f"{path}: unsupported maxval {maxval}, "
                                   f"only 255 is accepted")
        data = fh.read(min(3 * h * w, _left(fh)))
    if len(data) != 3 * h * w:
        raise FrameFormatError(f"{path}: pixel data truncated, expected "
                               f"{3 * h * w} bytes, found {len(data)}")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    frame = pixels.transpose(2, 0, 1).astype(DTYPE)
    frame /= DTYPE(255.0)
    return frame


F32_HEADER = struct.Struct("<IIII")


def write_f32(path, frame: np.ndarray) -> None:
    """Write one (c, h, w) frame losslessly; a non-finite frame raises
    :class:`FrameFormatError` before the file is opened."""
    frame = np.asarray(frame, dtype=DTYPE)
    if frame.ndim != 3:
        raise ShapeError(f"expected a (c, h, w) frame, got {frame.shape}")
    _check_finite_frame(frame, path, "frame")
    c, h, w = frame.shape
    with open(path, "wb") as fh:
        fh.write(F32_HEADER.pack(1, c, h, w))
        fh.write(np.ascontiguousarray(frame, dtype="<f4").tobytes())


def read_f32(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(F32_HEADER.size)
        if len(head) != F32_HEADER.size:
            raise FrameFormatError(f"{path}: truncated shape header "
                                   f"({len(head)} of {F32_HEADER.size} bytes)")
        n, c, h, w = F32_HEADER.unpack(head)
        if n != 1 or min(c, h, w) < 1:
            raise FrameFormatError(f"{path}: bad frame shape "
                                   f"({n}, {c}, {h}, {w})")
        data = fh.read(min(4 * c * h * w, _left(fh)))
    if len(data) != 4 * c * h * w:
        raise FrameFormatError(f"{path}: payload truncated, expected "
                               f"{4 * c * h * w} bytes, found {len(data)}")
    frame = np.frombuffer(data, dtype="<f4").reshape(c, h, w).astype(DTYPE)
    _check_finite_frame(frame, path, "payload")
    return frame


# ---------------------------------------------------------------------------
# directories of frames

_FRAME_RE = re.compile(r"^(\d+)\.(ppm|f32)$")


def _scan_dir(directory) -> list:
    if not os.path.isdir(directory):
        raise FrameFormatError(f"{directory}: not a directory")
    found = []
    for name in os.listdir(directory):
        m = _FRAME_RE.match(name)
        if m:
            found.append((int(m.group(1)), m.group(2), name))
    if not found:
        raise FrameFormatError(f"{directory}: no frame files "
                               f"(NNNN.ppm or NNNN.f32) found")
    exts = {ext for _, ext, _ in found}
    if len(exts) > 1:
        raise FrameFormatError(f"{directory}: mixed frame formats {sorted(exts)}")
    found.sort()
    width = len(found[0][2].split(".")[0])
    for pos, (idx, _, _) in enumerate(found):
        want = found[0][0] + pos
        if idx != want:
            raise FrameFormatError(f"{directory}: missing frame index "
                                   f"{str(want).zfill(width)}")
    return found


def read_sequence(directory) -> np.ndarray:
    """Read all frames of a directory into a (t, c, h, w) float32 array.

    Frames are ordered by filename index, which must be contiguous; all
    frames must agree in shape. The result is allocated once the first
    frame is read, and every frame is written straight into it, so the
    sequence is held once plus the frame being read.
    """
    found = _scan_dir(directory)
    reader = read_ppm if found[0][1] == "ppm" else read_f32
    seq = None
    for t, (_, _, name) in enumerate(found):
        frame = reader(os.path.join(directory, name))
        if seq is None:
            seq = np.empty((len(found),) + frame.shape, dtype=DTYPE)
        elif frame.shape != seq.shape[1:]:
            raise FrameFormatError(
                f"{directory}/{name}: frame shape {frame.shape} differs "
                f"from first frame {seq.shape[1:]}")
        seq[t] = frame
        del frame                       # not held across the next read
    return seq


def write_sequence(seq: np.ndarray, directory, fmt: str | None = None,
                   start: int = 0) -> list:
    """Write a (t, c, h, w) array as numbered frame files; returns paths.

    ``fmt`` defaults to "ppm" for 3-channel sequences and "f32" otherwise.
    Every frame is checked before anything is written, the directory
    included: a non-finite frame raises :class:`FrameFormatError` naming
    its path, and a ppm frame without 3 channels raises :class:`ShapeError`,
    as does a ``start`` that is not an integer >= 0.
    """
    start = check_int(start, "start", 0)
    seq = np.asarray(seq, dtype=DTYPE)
    if seq.ndim != 4:
        raise ShapeError(f"expected (t, c, h, w), got {seq.shape}")
    if fmt is None:
        fmt = "ppm" if seq.shape[1] == 3 else "f32"
    if fmt not in ("ppm", "f32"):
        raise ValueError(f"unknown frame format {fmt!r}")
    writer = write_ppm if fmt == "ppm" else write_f32
    paths = [os.path.join(directory, f"{start + t:04d}.{fmt}")
             for t in range(seq.shape[0])]
    if fmt == "ppm" and seq.shape[1] != 3:
        raise ShapeError(f"P6 needs a (3, h, w) frame, got {seq.shape[1:]}")
    for path, frame in zip(paths, seq):
        _check_finite_frame(frame, path, "frame")
    os.makedirs(directory, exist_ok=True)
    for path, frame in zip(paths, seq):
        writer(path, frame)
    return paths
