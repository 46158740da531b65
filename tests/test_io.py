"""Serialization: model container files and frame directories."""

import json
import os
import re
import struct

import numpy as np
import pytest

from vsrkit import (
    FrameFormatError,
    ModelFormatError,
    NetworkGraph,
    ShapeError,
    activation_layer,
    batch_norm_layer,
    build_control_srnet,
    build_generator,
    conv2d_layer,
    conv_transpose2d_layer,
    fuse_conv_bn,
    init_random,
    load_bundle,
    read_f32,
    read_ppm,
    read_sequence,
    residual_add_layer,
    save_model,
    write_f32,
    write_ppm,
    write_sequence,
)


# ---------------------------------------------------------------------------
# model container

def test_model_roundtrip_single_graph(tmp_path):
    g = init_random(build_control_srnet("control-a"), 7)
    path = tmp_path / "net.vsm"
    save_model({"net": g}, path)
    loaded = load_bundle(path)["net"]
    assert [l.name for l in loaded.layers] == [l.name for l in g.layers]
    assert loaded.meta == g.meta
    for la, lb in zip(loaded.layers, g.layers):
        assert la.kind == lb.kind
        assert la.attrs == lb.attrs
        for key in lb.arrays:
            assert np.array_equal(la.arrays[key], lb.arrays[key]), \
                (la.name, key)
    x = np.random.default_rng(0).random((1, 1, 8, 8), dtype=np.float32)
    assert np.array_equal(loaded.forward(x), g.forward(x))


def test_model_roundtrip_bundle(tmp_path):
    gen = build_generator()
    gen = {k: init_random(g, i) for i, (k, g) in enumerate(gen.items())}
    path = tmp_path / "gen.vsm"
    save_model(gen, path)
    loaded = load_bundle(path)
    assert set(loaded) == {"fnet", "srnet"}
    for name in gen:
        for la, lb in zip(loaded[name].layers, gen[name].layers):
            for key in lb.arrays:
                assert np.array_equal(la.arrays[key], lb.arrays[key])


def test_load_bundle_always_returns_mapping(tmp_path):
    g = build_control_srnet("control-b")
    path = tmp_path / "one.vsm"
    save_model({"net": g}, path)
    bundle = load_bundle(path)
    assert isinstance(bundle, dict)
    assert len(bundle) == 1


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.vsm"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ModelFormatError, match="offset 0"):
        load_bundle(path)


def test_load_rejects_unsupported_version(tmp_path):
    g = build_control_srnet("control-a")
    path = tmp_path / "net.vsm"
    save_model({"net": g}, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="version"):
        load_bundle(path)


def test_load_rejects_truncated_header(tmp_path):
    path = tmp_path / "trunc.vsm"
    path.write_bytes(b"EGVS" + struct.pack("<I", 1) + struct.pack("<I", 500)
                     + b"{}")
    with pytest.raises(ModelFormatError):
        load_bundle(path)


def test_load_rejects_truncated_payload(tmp_path):
    g = init_random(build_control_srnet("control-a"), 1)
    path = tmp_path / "net.vsm"
    save_model({"net": g}, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-40])
    with pytest.raises(ModelFormatError, match="bytes"):
        load_bundle(path)


def test_load_checks_declared_payload_against_file_size(tmp_path,
                                                        edit_vsm_header):
    # 4 TiB declared: reading it would raise MemoryError, not a format error
    g = init_random(build_control_srnet("control-a"), 3)
    path = tmp_path / "net.vsm"
    save_model({"net": g}, path)
    payload = sum(a.size for ly in g.layers for a in ly.arrays.values()) * 4

    def grow(header):
        conv = header["graphs"][0]["layers"][0]
        conv["shapes"]["weight"] = [2 ** 20, 2 ** 20, 1, 1]
    edit_vsm_header(path, grow)
    offset = path.stat().st_size - payload
    declared = payload + (2 ** 40 - 64 * 25) * 4
    with pytest.raises(ModelFormatError) as err:
        load_bundle(path)
    assert str(err.value) == (
        f"payload truncated at offset {offset + payload}: header declares "
        f"{declared} payload bytes from offset {offset}, file holds {payload}")


def test_load_rejects_trailing_bytes(tmp_path):
    g = init_random(build_control_srnet("control-a"), 2)
    path = tmp_path / "net.vsm"
    save_model({"net": g}, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ModelFormatError):
        load_bundle(path)


def test_load_rejects_corrupted_json(tmp_path):
    header = b"not json at all"
    path = tmp_path / "bad.vsm"
    path.write_bytes(b"EGVS" + struct.pack("<I", 1)
                     + struct.pack("<I", len(header)) + header)
    with pytest.raises(ModelFormatError):
        load_bundle(path)


def test_save_rejects_unknown_objects(tmp_path):
    with pytest.raises((TypeError, ValueError)):
        save_model({"net": object()}, tmp_path / "x.vsm")


@pytest.mark.parametrize("name", [5, None, ("net",)])
def test_save_rejects_graph_names_that_are_not_strings(tmp_path, name):
    g = NetworkGraph([conv2d_layer("c", 1, 1, 3)], in_channels=1)
    path = tmp_path / "x.vsm"
    with pytest.raises(ModelFormatError, match="is not a string"):
        save_model({name: g}, path)
    assert not path.exists()


def _skip_graph():
    return NetworkGraph([conv2d_layer("c", 2, 2, 3),
                         activation_layer("a", "relu"),
                         residual_add_layer("add", source="c")], in_channels=2)


def test_saved_kind_ids_are_pinned(tmp_path):
    # the ids are part of the file format: retiring kinds 7, 8 and 10 must
    # not renumber the kinds after them
    path = tmp_path / "skip.vsm"
    save_model({"net": _skip_graph()}, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    ids = {ly["kind"]: ly["kind_id"] for ly in header["graphs"][0]["layers"]}
    assert ids == {"conv2d": 0, "activation": 3, "residual_add": 9}
    assert load_bundle(path)["net"].layers[2].kind == "residual_add"


@pytest.mark.parametrize("kind,kind_id", [("space_to_depth", 7),
                                          ("concat", 8),
                                          ("interpolation_resize", 10)])
def test_load_rejects_retired_kinds(tmp_path, edit_vsm_header, kind, kind_id):
    path = tmp_path / "retired.vsm"
    save_model({"net": _skip_graph()}, path)

    def retire(header):
        layer = header["graphs"][0]["layers"][1]
        layer.update(kind=kind, kind_id=kind_id, attrs={"scale": 2.0})

    edit_vsm_header(path, retire)
    with pytest.raises(ModelFormatError, match=f"unknown kind '{kind}'"):
        load_bundle(path)


def test_load_checks_the_whole_header_before_the_payload(tmp_path,
                                                          edit_vsm_header):
    path = tmp_path / "unknown.vsm"
    save_model({"net": _skip_graph()}, path)
    edit_vsm_header(path, lambda h: h["graphs"][0]["layers"][1].update(
        kind="gelu"))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ModelFormatError,
                       match="graph 'net' layer 1: unknown kind 'gelu'"):
        load_bundle(path)


@pytest.mark.parametrize("layer, kind_id", [(0, 0.0), (0, False),
                                            (1, True), (1, 1.0)])
def test_load_requires_an_integer_kind_id(tmp_path, edit_vsm_header, layer,
                                          kind_id):
    # each value compares equal to the true id (conv2d 0, transposed 1)
    path = tmp_path / "ids.vsm"
    g = NetworkGraph([conv2d_layer("c", 2, 2, 3),
                      conv_transpose2d_layer("t", 2, 2, 4, 2, 1)],
                     in_channels=2)
    save_model({"net": g}, path)
    edit_vsm_header(path, lambda h: h["graphs"][0]["layers"][layer].update(
        kind_id=kind_id))
    with pytest.raises(ModelFormatError,
                       match=rf"graph 'net' layer {layer}: kind id "
                             rf"{kind_id} does not match"):
        load_bundle(path)


def test_load_carries_a_legacy_frozen_key(tmp_path, edit_vsm_header):
    # older files wrote "frozen" into every batch-norm; it is ignored
    path = tmp_path / "legacy.vsm"
    g = init_random(NetworkGraph([conv2d_layer("c", 2, 3, 3),
                                  batch_norm_layer("b", 3)], in_channels=2), 4)
    save_model({"net": g}, path)
    edit_vsm_header(path, lambda h: h["graphs"][0]["layers"][1]["attrs"]
                    .update(frozen=False))
    loaded = load_bundle(path)["net"]
    assert loaded.layers[1].attrs["frozen"] is False
    fused = fuse_conv_bn(loaded)
    assert [l.kind for l in fused.layers] == ["conv2d"]
    x = np.random.default_rng(1).random((1, 2, 6, 7), dtype=np.float32)
    ref = g.forward(x)
    assert np.array_equal(loaded.forward(x), ref)
    dev = np.max(np.abs(fused.forward(x) - ref))
    assert dev / max(float(np.max(np.abs(ref))), 1e-6) <= 1e-5


# ---------------------------------------------------------------------------
# ppm frames

def test_ppm_roundtrip_within_quantization(tmp_path):
    rng = np.random.default_rng(3)
    frame = rng.random((3, 6, 8), dtype=np.float32)
    path = tmp_path / "f.ppm"
    write_ppm(path, frame)
    back = read_ppm(path)
    assert back.shape == frame.shape
    assert back.dtype == np.float32
    # 8-bit container: half a quantization step of error at most
    assert float(np.max(np.abs(back - frame))) <= 0.5 / 255 + 1e-6


def test_ppm_write_clamps_out_of_range(tmp_path):
    frame = np.array([[-0.5, 0.0], [1.0, 2.0]], dtype=np.float32)
    frame = np.stack([frame] * 3)
    path = tmp_path / "c.ppm"
    write_ppm(path, frame)
    back = read_ppm(path)
    assert float(back[0, 0, 0]) == 0.0
    assert float(back[0, 1, 1]) == 1.0


def test_ppm_reader_handles_comments(tmp_path):
    path = tmp_path / "c.ppm"
    pixels = bytes(range(12))
    path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + pixels)
    frame = read_ppm(path)
    assert frame.shape == (3, 2, 2)
    assert abs(float(frame[0, 0, 0]) - 0.0) < 1e-6
    assert abs(float(frame[2, 1, 1]) - 11 / 255) < 1e-6


def test_ppm_reader_rejects_bad_files(tmp_path):
    p1 = tmp_path / "bad_magic.ppm"
    p1.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(FrameFormatError):
        read_ppm(p1)
    p2 = tmp_path / "bad_maxval.ppm"
    p2.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(FrameFormatError, match="255"):
        read_ppm(p2)
    p3 = tmp_path / "short.ppm"
    p3.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(FrameFormatError):
        read_ppm(p3)


@pytest.mark.parametrize("name, header", [
    ("0000.ppm", b"P6\n99999 99999\n255\n"),
    ("0000.f32", struct.pack("<IIII", 1, 3, 60000, 60000)),
])
def test_frame_readers_size_the_read_from_the_file(tmp_path, name, header):
    # a 30-byte file declaring a 30 GB frame: a read sized by the header
    # would raise MemoryError, so it is capped at the bytes the file holds
    path = tmp_path / name
    path.write_bytes(header + bytes(8))
    reader = read_ppm if name.endswith("ppm") else read_f32
    with pytest.raises(FrameFormatError,
                       match=rf"^{re.escape(str(path))}: .*truncated, "
                             rf"expected \d+ bytes, found 8$"):
        reader(path)
    with pytest.raises(FrameFormatError, match=re.escape(str(path))):
        read_sequence(tmp_path)


# ---------------------------------------------------------------------------
# raw float frames

def test_f32_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(4)
    frame = rng.standard_normal((5, 7, 9)).astype(np.float32)
    path = tmp_path / "f.f32"
    write_f32(path, frame)
    back = read_f32(path)
    assert back.shape == frame.shape
    assert np.array_equal(back, frame)


def test_f32_rejects_truncation(tmp_path):
    frame = np.zeros((1, 4, 4), dtype=np.float32)
    path = tmp_path / "f.f32"
    write_f32(path, frame)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FrameFormatError):
        read_f32(path)
    path.write_bytes(raw[:10])
    with pytest.raises(FrameFormatError):
        read_f32(path)


def test_f32_rejects_non_finite_payload(tmp_path, write_raw_f32):
    frame = np.zeros((2, 3, 3), dtype=np.float32)
    frame[1, 2, 0] = np.nan
    frame[0, 0, 1] = -np.inf
    path = tmp_path / "0007.f32"
    write_raw_f32(path, frame)
    with pytest.raises(FrameFormatError, match=r"0007\.f32: payload holds 2 "
                                               r"non-finite values"):
        read_f32(path)


def test_write_f32_refuses_non_finite_frame(tmp_path):
    frame = np.zeros((2, 3, 3), dtype=np.float32)
    frame[1, 0, 2] = np.inf
    path = tmp_path / "0003.f32"
    with pytest.raises(FrameFormatError, match=r"0003\.f32: frame holds 1 "
                                               r"non-finite values, first at "
                                               r"index \(1, 0, 2\)"):
        write_f32(path, frame)
    assert not path.exists()


def test_write_ppm_refuses_non_finite_frame(tmp_path):
    frame = np.full((3, 2, 4), 0.5, dtype=np.float32)
    frame[2, 1, 3] = np.nan
    path = tmp_path / "0004.ppm"
    with pytest.raises(FrameFormatError, match=r"0004\.ppm: frame holds 1 "
                                               r"non-finite values, first at "
                                               r"index \(2, 1, 3\)"):
        write_ppm(path, frame)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["ppm", "f32"])
def test_write_sequence_with_a_non_finite_frame_writes_nothing(tmp_path, fmt):
    seq = np.full((4, 3, 2, 5), 0.5, dtype=np.float32)
    seq[2, 0, 1, 1] = np.nan
    out = tmp_path / "seq"
    with pytest.raises(FrameFormatError, match=rf"0002\.{fmt}: frame holds 1 "
                                               r"non-finite values"):
        write_sequence(seq, out, fmt=fmt)
    assert not out.exists()


def test_write_sequence_of_1_channel_ppm_frames_creates_no_directory(tmp_path):
    out = tmp_path / "seq"
    with pytest.raises(ShapeError, match=r"P6 needs a \(3, h, w\) frame, "
                                         r"got \(1, 8, 8\)"):
        write_sequence(np.full((2, 1, 8, 8), 0.5, dtype=np.float32), out,
                       fmt="ppm")
    assert not out.exists()


# ---------------------------------------------------------------------------
# sequence directories

def test_sequence_roundtrip_rgb(tmp_path):
    rng = np.random.default_rng(5)
    seq = rng.random((4, 3, 6, 6), dtype=np.float32)
    paths = write_sequence(seq, tmp_path)
    assert len(paths) == 4
    assert all(p.endswith(".ppm") for p in paths)
    back = read_sequence(tmp_path)
    assert back.shape == seq.shape
    assert float(np.max(np.abs(back - seq))) <= 0.5 / 255 + 1e-6


def test_sequence_roundtrip_raw_single_channel(tmp_path):
    rng = np.random.default_rng(6)
    seq = rng.standard_normal((3, 1, 5, 5)).astype(np.float32)
    paths = write_sequence(seq, tmp_path)
    assert all(p.endswith(".f32") for p in paths)
    assert np.array_equal(read_sequence(tmp_path), seq)


def test_sequence_read_orders_by_index(tmp_path):
    seq = np.arange(2 * 1 * 2 * 2, dtype=np.float32).reshape(2, 1, 2, 2)
    write_f32(tmp_path / "0001.f32", seq[1])
    write_f32(tmp_path / "0000.f32", seq[0])
    assert np.array_equal(read_sequence(tmp_path), seq)


def test_sequence_rejects_gap_naming_missing_index(tmp_path):
    seq = np.zeros((4, 1, 2, 2), dtype=np.float32)
    write_sequence(seq, tmp_path)
    os.remove(tmp_path / "0002.f32")
    with pytest.raises(FrameFormatError, match="0002"):
        read_sequence(tmp_path)


def test_sequence_rejects_mixed_containers(tmp_path):
    write_f32(tmp_path / "0000.f32", np.zeros((1, 2, 2), dtype=np.float32))
    write_ppm(tmp_path / "0001.ppm", np.zeros((3, 2, 2), dtype=np.float32))
    with pytest.raises(FrameFormatError):
        read_sequence(tmp_path)


def test_sequence_rejects_ragged_shapes(tmp_path):
    write_f32(tmp_path / "0000.f32", np.zeros((1, 2, 2), dtype=np.float32))
    write_f32(tmp_path / "0001.f32", np.zeros((1, 3, 2), dtype=np.float32))
    with pytest.raises(FrameFormatError, match="0001"):
        read_sequence(tmp_path)


def test_sequence_rejects_empty_directory(tmp_path):
    with pytest.raises(FrameFormatError):
        read_sequence(tmp_path)


def test_write_sequence_start_offset(tmp_path):
    seq = np.zeros((2, 1, 2, 2), dtype=np.float32)
    paths = write_sequence(seq, tmp_path, start=5)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["0005.f32", "0006.f32"]


@pytest.mark.parametrize("start, match", [
    (-1, "start must be >= 0, got -1"),
    (1.5, "start must be an integer, got 1.5"),
    (True, "start must be an integer, got True"),
])
def test_write_sequence_rejects_a_bad_start(tmp_path, start, match):
    out = tmp_path / "out"
    with pytest.raises(ShapeError, match=match):
        write_sequence(np.zeros((2, 1, 2, 2), dtype=np.float32), out,
                       start=start)
    assert not out.exists()
