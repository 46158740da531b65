"""Tensor layout primitives: channel packing, padding, resampling."""

import numpy as np
import pytest

from vsrkit import (
    ShapeError,
    bilinear_resize,
    concat_channels,
    pad_zero,
    pixel_shuffle,
    space_to_depth,
)


def test_concat_channels_layout():
    rng = np.random.default_rng(0)
    a = rng.random((2, 3, 5, 5), dtype=np.float32)
    b = rng.random((2, 4, 5, 5), dtype=np.float32)
    c = concat_channels(a, b)
    assert c.shape == (2, 7, 5, 5)
    assert np.array_equal(c[:, :3], a)
    assert np.array_equal(c[:, 3:], b)


def test_concat_channels_rejects_mismatched_grids():
    a = np.zeros((1, 1, 4, 4), dtype=np.float32)
    b = np.zeros((1, 1, 4, 5), dtype=np.float32)
    with pytest.raises(ShapeError):
        concat_channels(a, b)


def test_pixel_shuffle_2x2_element_map():
    # channel index c*r*r + dy*r + dx lands at output pixel (y*r+dy, x*r+dx)
    t = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 4, 1, 1)
    out = pixel_shuffle(t, 2)
    assert out.shape == (1, 1, 2, 2)
    assert np.array_equal(out[0, 0], [[1.0, 2.0], [3.0, 4.0]])


def test_pixel_shuffle_index_convention():
    rng = np.random.default_rng(1)
    r = 3
    t = rng.random((2, 2 * r * r, 4, 5), dtype=np.float32)
    out = pixel_shuffle(t, r)
    assert out.shape == (2, 2, 12, 15)
    for c in range(2):
        for dy in range(r):
            for dx in range(r):
                src = t[:, c * r * r + dy * r + dx]
                assert np.array_equal(out[:, c, dy::r, dx::r], src)


def test_space_to_depth_inverts_pixel_shuffle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = int(rng.integers(2, 5))
        c = int(rng.integers(1, 4))
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        t = rng.random((1, c * r * r, h, w), dtype=np.float32)
        assert np.array_equal(space_to_depth(pixel_shuffle(t, r), r), t)
        u = rng.random((1, c, h * r, w * r), dtype=np.float32)
        assert np.array_equal(pixel_shuffle(space_to_depth(u, r), r), u)


def test_space_to_depth_rejects_indivisible_grid():
    t = np.zeros((1, 1, 5, 4), dtype=np.float32)
    with pytest.raises(ShapeError):
        space_to_depth(t, 2)


def test_pixel_shuffle_rejects_indivisible_channels():
    t = np.zeros((1, 6, 2, 2), dtype=np.float32)
    with pytest.raises(ShapeError):
        pixel_shuffle(t, 2)


def test_pad_zero_geometry_and_content():
    t = np.full((1, 2, 3, 3), 5.0, dtype=np.float32)
    out = pad_zero(t, 2)
    assert out.shape == (1, 2, 7, 7)
    assert np.array_equal(out[:, :, 2:5, 2:5], t)
    assert float(out.sum()) == float(t.sum())
    assert np.array_equal(pad_zero(t, 0), t)
    assert not np.shares_memory(pad_zero(t, 0), t)


@pytest.mark.parametrize("op, name, value", [
    (pixel_shuffle, "upscale factor", 2.6),
    (pixel_shuffle, "upscale factor", 2.0),
    (space_to_depth, "block", 2.5),
    (pad_zero, "pad", 1.5),
    (pixel_shuffle, "upscale factor", True),
    (pad_zero, "pad", False),
])
def test_counts_and_factors_must_be_integers(op, name, value):
    # int() would truncate: pixel_shuffle(t, 2.6) would run with r=2
    t = np.zeros((1, 4, 4, 4), dtype=np.float32)
    with pytest.raises(ShapeError, match=f"{name} must be an integer, "
                                         f"got {value!r}"):
        op(t, value)


def test_counts_and_factors_accept_numpy_integers():
    t = np.arange(64, dtype=np.float32).reshape(1, 4, 4, 4)
    two = np.int64(2)
    assert np.array_equal(pixel_shuffle(t, two), pixel_shuffle(t, 2))
    assert np.array_equal(space_to_depth(t, two), space_to_depth(t, 2))
    assert np.array_equal(pad_zero(t, two), pad_zero(t, 2))


def _bilinear_ref(img, scale):
    # scalar half-pixel-center resampling oracle with border clamping;
    # source coordinates use the realized in/out ratio, not 1/scale
    h, w = img.shape
    oh, ow = int(round(h * scale)), int(round(w * scale))
    out = np.zeros((oh, ow))
    for oy in range(oh):
        for ox in range(ow):
            sy = (oy + 0.5) * (h / oh) - 0.5
            sx = (ox + 0.5) * (w / ow) - 0.5
            y0 = int(np.floor(sy))
            x0 = int(np.floor(sx))
            fy, fx = sy - y0, sx - x0
            y0c, y1c = np.clip([y0, y0 + 1], 0, h - 1)
            x0c, x1c = np.clip([x0, x0 + 1], 0, w - 1)
            top = img[y0c, x0c] * (1 - fx) + img[y0c, x1c] * fx
            bot = img[y1c, x0c] * (1 - fx) + img[y1c, x1c] * fx
            out[oy, ox] = top * (1 - fy) + bot * fy
    return out


def test_bilinear_resize_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for scale in (2.0, 0.5, 1.5, 3.0):
        img = rng.random((6, 7), dtype=np.float32)
        out = bilinear_resize(img[None, None], scale)[0, 0]
        ref = _bilinear_ref(img.astype(np.float64), scale)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) < 1e-6, scale


def test_bilinear_resize_constant_and_identity():
    t = np.full((1, 3, 4, 4), 0.7, dtype=np.float32)
    up = bilinear_resize(t, 4.0)
    assert up.shape == (1, 3, 16, 16)
    assert np.allclose(up, 0.7, atol=1e-7)
    same = bilinear_resize(t, 1.0)
    assert np.allclose(same, t, atol=1e-7)


def test_bilinear_resize_output_shape_rounding():
    t = np.zeros((1, 1, 5, 5), dtype=np.float32)
    out = bilinear_resize(t, 0.5)
    # round(5 * 0.5) = 2 under round-half-even
    assert out.shape[2:] == (2, 2)


def test_bilinear_resize_rejects_bad_scale():
    t = np.zeros((1, 1, 4, 4), dtype=np.float32)
    with pytest.raises((ShapeError, ValueError)):
        bilinear_resize(t, 0.0)
    # an infinite scale must not reach int(round(h * scale))
    for scale in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ShapeError, match="positive and finite"):
            bilinear_resize(t, scale)
