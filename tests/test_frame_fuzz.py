"""Seeded .ppm/.f32 mutation: a malformed frame file ends in a named error."""

import random
import struct
import tracemalloc

import numpy as np
import pytest

from vsrkit import (
    FrameFormatError,
    NonFiniteError,
    ShapeError,
    read_f32,
    read_ppm,
    read_sequence,
    write_f32,
    write_ppm,
)

NAMED = (FrameFormatError, ShapeError, NonFiniteError)

# declared sizes far beyond any file here; 2**32 - 1 is the u32 maximum
HUGE = (60000, 99999, 2 ** 32 - 1)

# one message per reader branch; the loop must reach each of them
BRANCHES = ("not a binary P6", "header ended prematurely", "non-numeric",
            "empty image", "unsupported maxval", "longer than 10 bytes",
            "pixel data truncated",
            "truncated shape header", "bad frame shape", "payload truncated",
            "non-finite")


def _mutate(raw, fmt, rng):
    """Apply one seeded edit to the bytes of a frame file."""
    raw = bytearray(raw)
    hlen = raw.index(b"255\n") + 4 if fmt == "ppm" else 16
    op = rng.choice(("flip", "ones", "truncate", "digits", "huge"))
    if op == "flip":
        # the header more often than its share of the file
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(hlen if rng.random() < 0.5 else len(raw))
            raw[pos] ^= rng.randrange(1, 256)
    elif op == "ones":
        # an all-ones aligned byte pair: in a .f32 payload, half of these
        # land on a float's exponent and make it NaN
        pos = rng.randrange(0, len(raw) - 1, 2)
        raw[pos:pos + 2] = b"\xff\xff"
    elif op == "truncate":
        del raw[rng.randrange(len(raw)):]
    elif fmt == "f32":
        # one header word: a small value, or a huge one
        word = rng.randrange(4)
        value = rng.choice((0, 1, 2, 3, 5) if op == "digits" else HUGE)
        raw[4 * word:4 * word + 4] = struct.pack("<I", value)
    else:
        digits = [i for i in range(2, hlen) if chr(raw[i]).isdigit()]
        pos = rng.choice(digits)
        if op == "huge":
            raw[pos:pos + 1] = str(rng.choice(HUGE)).encode()
        else:
            raw[pos:pos + 1] = rng.choice((b"", b"0", b"7", b"00", b"x",
                                           b" ", b"#"))
    return bytes(raw)


def test_frame_mutations_end_in_named_errors(tmp_path):
    rng = random.Random(0)
    frame = np.random.default_rng(0).random((3, 5, 4), dtype=np.float32)
    seeds = {}
    for fmt, writer in (("ppm", write_ppm), ("f32", write_f32)):
        writer(tmp_path / f"seed.{fmt}", frame)
        seeds[fmt] = (tmp_path / f"seed.{fmt}").read_bytes()
    messages = []
    tracemalloc.start()
    try:
        for case in range(600):
            fmt = ("ppm", "f32")[case % 2]
            raw = _mutate(seeds[fmt], fmt, rng)
            # frame 1 of a two-frame directory; frame 0 is the intact seed
            seq = tmp_path / f"case{case}"
            seq.mkdir()
            (seq / f"0000.{fmt}").write_bytes(seeds[fmt])
            path = seq / f"0001.{fmt}"
            path.write_bytes(raw)
            reader = read_ppm if fmt == "ppm" else read_f32
            for read, where in ((reader, path), (read_sequence, seq)):
                try:
                    read(where)
                except NAMED as e:
                    assert str(e).startswith(str(seq)), (case, str(e))
                    messages.append(str(e))
                except Exception as e:  # noqa: BLE001 - the fault looked for
                    pytest.fail(f"case {case} ({fmt}, {raw[:24]!r}): "
                                f"{type(e).__name__}: {e}")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no case allocated more than a small multiple of its file size
    assert peak < 4 * 2 ** 20, peak
    missing = [b for b in BRANCHES if not any(b in m for m in messages)]
    assert not missing, missing


@pytest.mark.parametrize("width", [b"9" * 5000, b"0" * 11, b"12345678901"],
                         ids=["5000 digits", "11 zeros", "11 digits"])
def test_ppm_header_tokens_longer_than_a_u32_are_named(tmp_path, width):
    # the reader stops at byte 11, before int() sees the token
    path = tmp_path / "long.ppm"
    path.write_bytes(b"P6\n" + width + b" 4\n255\n" + bytes(3 * 4))
    with pytest.raises(FrameFormatError, match="longer than 10 bytes") as e:
        read_ppm(path)
    assert str(e.value).startswith(str(path))
    # ten digits still parse: the largest u32 is a truncated file, not a
    # token fault
    path.write_bytes(b"P6\n4294967295 1\n255\n" + bytes(3))
    with pytest.raises(FrameFormatError, match="pixel data truncated"):
        read_ppm(path)
