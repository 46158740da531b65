"""Shared test helpers."""

import json
import struct

import numpy as np
import pytest

from vsrkit import conv


def _edit_vsm_header(path, edit):
    """Rewrite the JSON header of the .vsm file at ``path`` in place.

    ``edit`` receives the decoded header dict and mutates it; the payload is
    kept byte for byte and the header length field is updated.
    """
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    edit(header)
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(hbytes)) + hbytes
                     + raw[12 + hlen:])


@pytest.fixture()
def edit_vsm_header():
    return _edit_vsm_header


def _write_raw_f32(path, frame):
    """Write a (c, h, w) frame as an .f32 file byte for byte, without the
    writer's checks, so tests can make files that hold non-finite values."""
    c, h, w = frame.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IIII", 1, c, h, w))
        fh.write(np.ascontiguousarray(frame, dtype="<f4").tobytes())


@pytest.fixture()
def write_raw_f32():
    return _write_raw_f32


@pytest.fixture(autouse=True)
def _no_winograd_fallback_logged_yet(monkeypatch):
    """Each test starts as a fresh process does: the winograd backend has
    logged no gemm fallback yet, so a test that looks for that line sees it
    whichever tests ran before."""
    monkeypatch.setattr(conv, "_FALLBACK_LOGGED", set())
