"""Binary model container.

Layout (all integers little-endian unsigned 32-bit):

    offset 0   magic bytes "EGVS"
    offset 4   format version (currently 1)
    offset 8   header length H in bytes
    offset 12  header: UTF-8 JSON describing one or more named graphs
               (per layer: kind id, kind, name, attrs, array shapes)
    offset 12+H  payload: raw 32-bit little-endian floats, graphs in header
               order, layers in graph order, arrays per layer in a fixed
               per-kind order (weights before biases; batch-norm stores
               gamma, beta, mean, variance), each array channel-major

The header is parsed and validated before the payload is touched, so a
wrong magic or a bogus header never triggers a payload-sized allocation.
"""
from __future__ import annotations

import json
import struct

import numpy as np

from .graph import LAYER_KINDS, Layer, NetworkGraph

MAGIC = b"EGVS"
VERSION = 1

# deterministic array serialization order per layer kind
ARRAY_ORDER = {
    "conv2d": ("weight", "bias"),
    "conv_transpose2d": ("weight", "bias"),
    "batch_norm": ("gamma", "beta", "mean", "var"),
}


class ModelFormatError(ValueError):
    """Malformed model file; messages carry the byte offset of the fault."""


def _layer_arrays(layer: Layer) -> list:
    order = ARRAY_ORDER.get(layer.kind, ())
    missing = [k for k in order if k not in layer.arrays]
    if missing:
        raise ModelFormatError(f"layer {layer.name!r} lacks arrays {missing}")
    return [(k, layer.arrays[k]) for k in order]


def save_model(model, path) -> None:
    """Serialize one graph, or a named bundle of graphs, to ``path``.

    ``model`` is a :class:`NetworkGraph` (stored under the name "net") or a
    dict of name -> graph. load_model(save_model(g)) rebuilds graphs whose
    forward outputs are bit-identical.
    """
    graphs = {"net": model} if isinstance(model, NetworkGraph) else dict(model)
    if not graphs:
        raise ValueError("no graphs to save")
    header = {"graphs": []}
    chunks = []
    for gname, graph in graphs.items():
        if not isinstance(graph, NetworkGraph):
            raise TypeError(f"graph {gname!r} is {type(graph).__name__}, "
                            f"expected NetworkGraph")
        layer_entries = []
        for layer in graph.layers:
            shapes = {}
            for aname, arr in _layer_arrays(layer):
                shapes[aname] = list(arr.shape)
                chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            layer_entries.append({
                "kind_id": LAYER_KINDS[layer.kind],
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
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(hbytes)))
        fh.write(hbytes)
        for chunk in chunks:
            fh.write(chunk)


def _payload_elements(header: dict) -> int:
    total = 0
    for g in header["graphs"]:
        for ly in g["layers"]:
            for shape in ly["shapes"].values():
                count = 1
                for d in shape:
                    count *= int(d)
                total += count
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
    for i, ly in enumerate(gdesc["layers"]):
        kind = ly.get("kind")
        if kind not in LAYER_KINDS:
            raise ModelFormatError(f"graph {gname!r} layer {i}: unknown kind "
                                   f"{kind!r}")
        if ly.get("kind_id") != LAYER_KINDS[kind]:
            raise ModelFormatError(f"graph {gname!r} layer {i}: kind id "
                                   f"{ly.get('kind_id')} does not match "
                                   f"{kind!r} ({LAYER_KINDS[kind]})")
        want = ARRAY_ORDER.get(kind, ())
        got = tuple(ly["shapes"].keys())
        if sorted(got) != sorted(want):
            raise ModelFormatError(f"graph {gname!r} layer {i} ({kind}): "
                                   f"declares arrays {sorted(got)}, expected "
                                   f"{sorted(want)}")
        arrays = {}
        for aname in want:
            shape = tuple(int(d) for d in ly["shapes"][aname])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            arr = np.frombuffer(payload, dtype="<f4", count=count,
                                offset=cursor).reshape(shape)
            arrays[aname] = arr.copy()
            cursor += count * 4
        layers.append(Layer(kind, ly["name"], dict(ly["attrs"]), arrays))
    try:
        graph = NetworkGraph(layers, int(gdesc["in_channels"]),
                             dict(gdesc.get("meta", {})))
    except ValueError as e:
        raise ModelFormatError(f"graph {gname!r} fails validation: {e}") from e
    return graph, cursor


def load_model(path):
    """Load a model file; returns a single graph, or a dict for bundles.

    Files written by :func:`save_model` from one NetworkGraph come back as
    one NetworkGraph; multi-graph bundles come back as name -> graph dicts.
    """
    with open(path, "rb") as fh:
        header, payload_offset = _parse_header(fh)
        expected = _payload_elements(header) * 4
        payload = fh.read(expected)
        if len(payload) != expected:
            raise ModelFormatError(
                f"payload truncated at offset {payload_offset + len(payload)}: "
                f"expected {expected} bytes, found {len(payload)}")
        trailing = fh.read(1)
        if trailing:
            raise ModelFormatError(
                f"unexpected trailing data at offset "
                f"{payload_offset + expected}")
    view = memoryview(payload)
    graphs = {}
    cursor = 0
    for gdesc in header["graphs"]:
        gname = str(gdesc.get("name", f"graph{len(graphs)}"))
        if gname in graphs:
            raise ModelFormatError(f"duplicate graph name {gname!r}")
        graphs[gname], cursor = _rebuild_graph(gname, gdesc, view, cursor)
    if not graphs:
        raise ModelFormatError("model file contains no graphs")
    if set(graphs) == {"net"}:
        return graphs["net"]
    return graphs


def load_bundle(path) -> dict:
    """Like load_model but always returns a name -> graph dict."""
    model = load_model(path)
    if isinstance(model, NetworkGraph):
        return {"net": model}
    return model
