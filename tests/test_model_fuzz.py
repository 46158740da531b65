"""Seeded .vsm header fuzzing: a malformed header ends in a named error."""

import json
import random
import struct

import numpy as np
import pytest

from vsrkit import (
    GraphError,
    ModelFormatError,
    NonFiniteError,
    ShapeError,
    load_bundle,
    model_geometry,
    vsr_run,
)
from vsrkit.cli import main
from vsrkit.models import ARCH_NAMES

NAMED = (ModelFormatError, GraphError, ShapeError, NonFiniteError)

# every value is small: no mutation can declare more than a few MB
SWAPS = (None, True, 0, -1, 3.0, 1.5, float("nan"), "x", [], {})
KINDS = (("gelu", 3), ("space_to_depth", 7), ("concat", 8),
         ("interpolation_resize", 10))


def _slots(node, path=()):
    """Path of every dict entry and list item below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _at(header, path):
    for key in path:
        header = header[key]
    return header


def _mutate(header, rng):
    """Apply one seeded header edit; returns its description."""
    slots = list(_slots(header))
    layers = [ly for g in header["graphs"] for ly in g["layers"]]
    op = rng.choice(("swap", "swap", "drop", "extra", "kind"))
    if op == "swap":
        path = rng.choice(slots)
        value = rng.choice(SWAPS)
        _at(header, path[:-1])[path[-1]] = value
        return f"{path} = {value!r}"
    if op == "drop":
        path = rng.choice([p for p in slots
                           if isinstance(_at(header, p[:-1]), dict)])
        del _at(header, path[:-1])[path[-1]]
        return f"del {path}"
    if op == "extra":
        # an extra key in any object; in 'shapes' it declares a 1-value array
        path = rng.choice([p for p in slots
                           if isinstance(_at(header, p), dict)])
        _at(header, path)["extra"] = [1]
        return f"{path}['extra'] = [1]"
    layer = rng.choice(layers)
    layer["kind"], layer["kind_id"] = rng.choice(KINDS)
    return f"layer {layer['name']!r} kind {layer['kind']!r}"


@pytest.fixture(scope="module")
def seed0_models(tmp_path_factory):
    """(arch, header, payload) of each seed-0 ``build-model`` file."""
    root = tmp_path_factory.mktemp("seed0")
    models = []
    for arch in ARCH_NAMES:
        path = root / f"{arch}.vsm"
        assert main(["build-model", "--arch", arch, "--seed", "0",
                     "--out", str(path)]) == 0
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        models.append((arch, raw[12:12 + hlen], raw[12 + hlen:]))
    return models


def _use(path):
    """Load, cost and run a model the way the CLI does."""
    bundle = load_bundle(path)
    for g in bundle.values():
        g.count_flops((1, g.in_channels, 12, 16))
    _, c = model_geometry(bundle, (12, 16))
    frames = np.random.default_rng(0).random((2, c, 12, 16), dtype=np.float32)
    vsr_run(bundle, frames, backend="gemm")


def test_header_mutations_end_in_named_errors(tmp_path, seed0_models):
    rng = random.Random(0)
    path = tmp_path / "m.vsm"
    outcomes = {"loaded": 0, "rejected": 0}
    for case in range(160):
        arch, hbytes, payload = seed0_models[case % len(seed0_models)]
        header = json.loads(hbytes)
        what = _mutate(header, rng)
        hbytes = json.dumps(header).encode("utf-8")
        path.write_bytes(b"EGVS" + struct.pack("<II", 1, len(hbytes))
                         + hbytes + payload)
        try:
            _use(path)
            outcomes["loaded"] += 1
        except NAMED:
            outcomes["rejected"] += 1
        except Exception as e:  # noqa: BLE001 - the fault being looked for
            pytest.fail(f"case {case} on {arch}, {what}: "
                        f"{type(e).__name__}: {e}")
    # both outcomes occur, so the loop exercises loading and rejecting
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("value", SWAPS + ("drop",))
def test_graph_name_swaps_end_in_named_errors(tmp_path, seed0_models, value):
    # a graph name is a string; anything else used to load as str(value)
    path = tmp_path / "m.vsm"
    for arch, hbytes, payload in seed0_models:
        header = json.loads(hbytes)
        gi = len(header["graphs"]) - 1
        if value == "drop":
            del header["graphs"][gi]["name"]
        else:
            header["graphs"][gi]["name"] = value
        hbytes = json.dumps(header).encode("utf-8")
        path.write_bytes(b"EGVS" + struct.pack("<II", 1, len(hbytes))
                         + hbytes + payload)
        if isinstance(value, str) and value != "drop":
            assert value in load_bundle(path)
            continue
        with pytest.raises(ModelFormatError, match=f"graph {gi}: 'name' is "
                                                   f"missing or not a string"):
            load_bundle(path)
