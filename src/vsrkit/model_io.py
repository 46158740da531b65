"""Binary model container.

Layout (all integers little-endian unsigned 32-bit):

    offset 0   magic bytes "EGVS"
    offset 4   format version (currently 1)
    offset 8   header length H in bytes
    offset 12  header: UTF-8 JSON describing one or more named graphs
               (per layer: kind id, kind, name, attrs, array shapes)
    offset 12+H  payload: raw 32-bit little-endian floats, graphs in header
               order, layers in graph order, arrays per layer in the order
               ``graph.LAYER_KINDS`` gives (weights before biases; batch-norm:
               gamma, beta, mean, variance), each array channel-major

The header is parsed and its structure checked before the payload is
touched, and the payload size it declares is checked against the file
size before anything is read, so a wrong magic, a bogus header or a huge
declared array never triggers a payload-sized allocation.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .graph import LAYER_KINDS, Layer, NetworkGraph

MAGIC = b"EGVS"
VERSION = 1

class ModelFormatError(ValueError):
    """Malformed model file; messages carry the byte offset of the fault."""


def save_model(bundle, path) -> None:
    """Serialize a bundle, a dict of name -> graph, to ``path``.

    load_bundle(save_model(bundle)) rebuilds graphs whose forward outputs
    are bit-identical.
    """
    graphs = dict(bundle)
    if not graphs:
        raise ValueError("no graphs to save")
    header = {"graphs": []}
    chunks = []
    for gname, graph in graphs.items():
        if not isinstance(gname, str):
            raise ModelFormatError(f"graph name {gname!r} is not a string")
        if not isinstance(graph, NetworkGraph):
            raise TypeError(f"graph {gname!r} is {type(graph).__name__}, "
                            f"expected NetworkGraph")
        layer_entries = []
        for layer in graph.layers:
            shapes = {}
            for aname in LAYER_KINDS[layer.kind][2]:
                arr = layer.arrays[aname]
                shapes[aname] = list(arr.shape)
                chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            layer_entries.append({
                "kind_id": LAYER_KINDS[layer.kind][0],
                "kind": layer.kind,
                "name": layer.name,
                "attrs": layer.attrs,
                "shapes": shapes,
            })
        header["graphs"].append({
            "name": gname,
            "in_channels": graph.in_channels,
            "meta": graph.meta,
            "layers": layer_entries,
        })
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(hbytes)) + hbytes)
        fh.writelines(chunks)


def _payload_elements(header: dict) -> int:
    """Check the structure of a parsed header and return the number of
    float32 values its arrays declare. Every fault names its graph and
    layer, so nothing below has to guard against a wrong type."""
    graphs = header["graphs"]
    if not isinstance(graphs, list) or not all(
            isinstance(g, dict) for g in graphs):
        raise ModelFormatError("header 'graphs' must be a list of objects")
    total = 0
    for gi, g in enumerate(graphs):
        gname = g.get("name")
        if not isinstance(gname, str):
            raise ModelFormatError(f"graph {gi}: 'name' is missing or not a "
                                   f"string")
        if type(g.get("in_channels")) is not int:
            raise ModelFormatError(f"graph {gname!r}: 'in_channels' must be "
                                   f"an integer")
        if not isinstance(g.get("meta", {}), dict):
            raise ModelFormatError(f"graph {gname!r}: 'meta' is not an object")
        layers = g.get("layers")
        if not isinstance(layers, list):
            raise ModelFormatError(f"graph {gname!r}: 'layers' is missing or "
                                   f"not a list")
        for i, ly in enumerate(layers):
            where = f"graph {gname!r} layer {i}"
            if not isinstance(ly, dict) or not all(
                    isinstance(ly.get(k), str) for k in ("kind", "name")):
                raise ModelFormatError(f"{where}: not an object with string "
                                       f"'kind' and 'name'")
            kind = ly["kind"]
            if kind not in LAYER_KINDS:
                raise ModelFormatError(f"{where}: unknown kind {kind!r}")
            kind_id, _, want = LAYER_KINDS[kind]
            if type(ly.get("kind_id")) is not int or ly["kind_id"] != kind_id:
                raise ModelFormatError(f"{where}: kind id {ly.get('kind_id')} "
                                       f"does not match {kind!r} ({kind_id})")
            if not isinstance(ly.get("attrs"), dict):
                raise ModelFormatError(f"{where}: 'attrs' is not an object")
            shapes = ly.get("shapes")
            if not isinstance(shapes, dict) or not all(
                    isinstance(s, list) for s in shapes.values()):
                raise ModelFormatError(f"{where}: 'shapes' is not an object "
                                       f"of lists")
            if sorted(shapes) != sorted(want):
                raise ModelFormatError(f"{where} ({kind}): declares arrays "
                                       f"{sorted(shapes)}, expected "
                                       f"{sorted(want)}")
            for aname, shape in shapes.items():
                if not all(type(d) is int and d >= 1 for d in shape):
                    raise ModelFormatError(
                        f"{where}: array {aname!r} has shape {shape}; every "
                        f"dimension must be an integer >= 1")
                total += math.prod(shape)
    return total


def _parse_header(fh):
    magic = fh.read(4)
    if len(magic) < 4:
        raise ModelFormatError(f"file truncated at offset {len(magic)}: "
                               f"expected 4 magic bytes")
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r} at offset 0, "
                               f"expected {MAGIC!r}")
    fixed = fh.read(8)
    if len(fixed) < 8:
        raise ModelFormatError(f"file truncated at offset {4 + len(fixed)}: "
                               f"expected version and header length")
    version, hlen = struct.unpack("<II", fixed)
    if version != VERSION:
        raise ModelFormatError(f"unsupported format version {version} at "
                               f"offset 4, expected {VERSION}")
    hbytes = fh.read(hlen)
    if len(hbytes) < hlen:
        raise ModelFormatError(f"file truncated at offset {12 + len(hbytes)}: "
                               f"header declares {hlen} bytes")
    try:
        header = json.loads(hbytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFormatError(f"malformed JSON header at offset 12: {e}") from e
    if not isinstance(header, dict) or "graphs" not in header:
        raise ModelFormatError("header at offset 12 lacks a 'graphs' table")
    return header, 12 + hlen


def _rebuild_graph(gname: str, gdesc: dict, payload: memoryview,
                   cursor: int) -> tuple:
    layers = []
    for ly in gdesc["layers"]:
        arrays = {}
        for aname in LAYER_KINDS[ly["kind"]][2]:
            shape = tuple(ly["shapes"][aname])
            count = math.prod(shape)
            arr = np.frombuffer(payload, dtype="<f4", count=count,
                                offset=cursor).reshape(shape)
            arrays[aname] = arr.copy()
            cursor += count * 4
        layers.append(Layer(ly["kind"], ly["name"], dict(ly["attrs"]), arrays))
    try:
        graph = NetworkGraph(layers, gdesc["in_channels"],
                             dict(gdesc.get("meta", {})))
    except ValueError as e:
        raise ModelFormatError(f"graph {gname!r} fails validation: {e}") from e
    return graph, cursor


def load_bundle(path) -> dict:
    """Load a model file written by :func:`save_model` as a dict of
    name -> graph."""
    with open(path, "rb") as fh:
        header, payload_offset = _parse_header(fh)
        expected = _payload_elements(header) * 4
        # sized from the file, not the header: a header that declares a
        # huge array must not drive a payload-sized read
        available = os.fstat(fh.fileno()).st_size - payload_offset
        if available < expected:
            raise ModelFormatError(
                f"payload truncated at offset {payload_offset + available}: "
                f"header declares {expected} payload bytes from offset "
                f"{payload_offset}, file holds {available}")
        if available > expected:
            raise ModelFormatError(
                f"unexpected trailing data at offset "
                f"{payload_offset + expected}")
        payload = fh.read(expected)
    view = memoryview(payload)
    graphs = {}
    cursor = 0
    for gdesc in header["graphs"]:
        gname = gdesc["name"]
        if gname in graphs:
            raise ModelFormatError(f"duplicate graph name {gname!r}")
        graphs[gname], cursor = _rebuild_graph(gname, gdesc, view, cursor)
    if not graphs:
        raise ModelFormatError("model file contains no graphs")
    return graphs
