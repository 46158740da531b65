"""Seeded .vsm fuzzing: a malformed header, a truncated file or a flipped
bit ends in a named error or in a model that runs."""

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


@pytest.fixture(scope="module")
def written_files(seed0_models, declare_geometry):
    """(label, bytes) of each seed-0 file as written now, and as written
    when conv and batch-norm layers also stated c_in, c_out, k and c."""
    files = []
    for arch, hbytes, payload in seed0_models:
        header = json.loads(hbytes)
        declare_geometry(header)
        declared = json.dumps(header, sort_keys=True).encode("utf-8")
        for label, hb in ((arch, hbytes), (f"{arch} declared", declared)):
            files.append((label, b"EGVS" + struct.pack("<II", 1, len(hb))
                          + hb + payload))
    return files


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


def _regions(raw):
    """(name, start, end) of each part of a .vsm file."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    return (("magic", 0, 4), ("version", 4, 8), ("header length", 8, 12),
            ("header", 12, 12 + hlen), ("payload", 12 + hlen, len(raw)))


def test_truncated_files_end_in_named_errors(tmp_path, written_files):
    rng = random.Random(1)
    path = tmp_path / "m.vsm"
    for label, raw in written_files:
        for region, start, end in _regions(raw):
            for cut in (start, rng.randrange(start, end), end - 1):
                path.write_bytes(raw[:cut])
                with pytest.raises(ModelFormatError,
                                   match=f"truncated at offset {cut}:"):
                    load_bundle(path)


def _flip(raw, byte, bit):
    return raw[:byte] + bytes([raw[byte] ^ (1 << bit)]) + raw[byte + 1:]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in a conv
def test_payload_bit_flips_run_or_end_in_named_errors(tmp_path,
                                                      written_files):
    rng = random.Random(2)
    path = tmp_path / "m.vsm"
    outcomes = {"ran": 0, "rejected": 0}
    for label, raw in written_files:
        _, start, end = _regions(raw)[-1]
        # three bits anywhere, then the sign and the top exponent bit of one
        # little-endian float32
        value = start + 4 * rng.randrange((end - start) // 4)
        flips = [(rng.randrange(start, end), rng.randrange(8))
                 for _ in range(3)] + [(value + 3, 7), (value + 3, 6)]
        for byte, bit in flips:
            path.write_bytes(_flip(raw, byte, bit))
            try:
                _use(path)
                outcomes["ran"] += 1
            except NAMED:
                outcomes["rejected"] += 1
            except Exception as e:  # noqa: BLE001 - the fault being looked for
                pytest.fail(f"{label}, bit {bit} of byte {byte}: "
                            f"{type(e).__name__}: {e}")
    assert min(outcomes.values()) > 0, outcomes


def test_header_bit_flips_load_or_end_in_named_errors(tmp_path,
                                                      written_files):
    # no forward: a flip can turn a bilinear_up scale of 3.0 into 7.0, which
    # loads and costs but makes every later layer larger
    rng = random.Random(3)
    path = tmp_path / "m.vsm"
    outcomes = {"loaded": 0, "rejected": 0}
    for label, raw in written_files:
        _, start, end = _regions(raw)[3]
        for _ in range(24):
            byte, bit = rng.randrange(start, end), rng.randrange(8)
            path.write_bytes(_flip(raw, byte, bit))
            try:
                bundle = load_bundle(path)
                for g in bundle.values():
                    g.count_flops((1, g.in_channels, 12, 16))
                model_geometry(bundle, (12, 16))
                outcomes["loaded"] += 1
            except NAMED:
                outcomes["rejected"] += 1
            except Exception as e:  # noqa: BLE001 - the fault being looked for
                pytest.fail(f"{label}, bit {bit} of byte {byte} "
                            f"({raw[byte:byte + 1]!r}): "
                            f"{type(e).__name__}: {e}")
    assert min(outcomes.values()) > 0, outcomes
