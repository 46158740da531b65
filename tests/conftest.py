"""Shared test helpers."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import vsrkit
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


def _declare_geometry(header):
    """Give each conv the ``c_in``, ``c_out`` and ``k`` attributes and each
    batch-norm the ``c`` attribute that .vsm writers stated beside the
    arrays before a layer's geometry was read from its arrays alone; with
    ``sort_keys`` this rebuilds such a file's header byte for byte."""
    for g in header["graphs"]:
        for ly in g["layers"]:
            if ly["kind"] in ("conv2d", "conv_transpose2d"):
                c_out, c_in, k, _ = ly["shapes"]["weight"]
                ly["attrs"].update(c_in=c_in, c_out=c_out, k=k)
            elif ly["kind"] == "batch_norm":
                ly["attrs"]["c"] = ly["shapes"]["gamma"][0]


@pytest.fixture(scope="session")
def declare_geometry():
    return _declare_geometry


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


def _fresh_python(script, *args):
    """Run ``script`` in a new interpreter that finds this vsrkit, and return
    the JSON its last stdout line holds."""
    src = os.path.dirname(os.path.dirname(vsrkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def fresh_python():
    return _fresh_python


@pytest.fixture(autouse=True)
def _no_winograd_fallback_logged_yet(monkeypatch):
    """Each test starts as a fresh process does: the winograd backend has
    logged no gemm fallback yet, so a test that looks for that line sees it
    whichever tests ran before."""
    monkeypatch.setattr(conv, "_FALLBACK_LOGGED", set())
