"""One rule for every count: an integer of at least its minimum.

Each entry point below checks its count through ``tensor.check_int(v, name,
least)``, so a count one below its minimum raises the same ``ShapeError``
text everywhere, and a numpy integer at the minimum is taken. Inside a
graph the same text reaches the caller as a ``GraphError`` naming the layer.
"""

import re

import numpy as np
import pytest

from vsrkit import (
    FpgaProfile,
    GraphError,
    Layer,
    NetworkGraph,
    ShapeError,
    batch_norm_layer,
    conv2d_layer,
    conv_flops,
    pad_zero,
    pixel_shuffle,
    pixel_shuffle_layer,
    space_to_depth,
    time_pipeline,
    write_sequence,
)

_T = np.zeros((1, 4, 4, 4), dtype=np.float32)
_NET = {"net": NetworkGraph([conv2d_layer("c", 1, 4, 3),
                             pixel_shuffle_layer("p", 2)], in_channels=1)}


def _time(**counts):
    return time_pipeline(_NET, (4, 4), **{"frames": 1, "warmup": 0,
                                          "seed": 0, **counts})


# (name in the message, minimum, call taking the count)
COUNTS = {
    "space_to_depth": ("block", 1, lambda v, d: space_to_depth(_T, v)),
    "pixel_shuffle": ("upscale factor", 1, lambda v, d: pixel_shuffle(_T, v)),
    "pad_zero": ("pad", 0, lambda v, d: pad_zero(_T, v)),
    "write_sequence": ("start", 0, lambda v, d: write_sequence(
        np.zeros((1, 1, 2, 2)), d / "out", start=v)),
    "time_pipeline-frames": ("frames", 1, lambda v, d: _time(frames=v)),
    "time_pipeline-warmup": ("warmup", 0, lambda v, d: _time(warmup=v)),
    "time_pipeline-seed": ("seed", 0, lambda v, d: _time(seed=v)),
    "conv_flops": ("factor", 1, lambda v, d: conv_flops(1, 4, 4, v, 1)),
    "FpgaProfile": ("lut_total", 1, lambda v, d: FpgaProfile(lut_total=v)),
    "conv2d_layer-c_in": ("c_in", 1, lambda v, d: conv2d_layer("l", v, 2, 3)),
    "conv2d_layer-c_out": ("c_out", 1,
                           lambda v, d: conv2d_layer("l", 2, v, 3)),
    "conv2d_layer-k": ("k", 1, lambda v, d: conv2d_layer("l", 2, 2, v)),
    "batch_norm_layer": ("c", 1, lambda v, d: batch_norm_layer("l", v)),
    "pixel_shuffle_layer": ("r", 1, lambda v, d: pixel_shuffle_layer("l", v)),
    "count_flops": ("input_shape", 1, lambda v, d: _NET["net"].count_flops(
        (v, 1, 4, 4))),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_a_count_below_its_minimum_is_one_named_shape_error(entry, tmp_path):
    name, least, call = COUNTS[entry]
    message = f"{name} must be >= {least}, got {least - 1}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call(least - 1, tmp_path)
    assert not (tmp_path / "out").exists()
    call(np.int64(least), tmp_path)


@pytest.mark.parametrize("layer, message", [
    (Layer("conv2d", "l", {"stride": 0, "pad": 1},
           {"weight": np.zeros((4, 4, 3, 3)), "bias": np.zeros(4)}),
     "stride must be >= 1, got 0"),
    (Layer("conv_transpose2d", "l", {"scale": -1, "pad": 1},
           {"weight": np.zeros((4, 4, 4, 4)), "bias": np.zeros(4)}),
     "scale must be >= 1, got -1"),
    (Layer("pixel_shuffle", "l", {"r": 0}), "r must be >= 1, got 0"),
], ids=["conv2d-stride", "conv_transpose2d-scale", "pixel_shuffle-r"])
def test_a_graph_count_below_its_minimum_is_a_graph_error(layer, message):
    prefix = f"layer 0 ('l', {layer.kind}): "
    with pytest.raises(GraphError, match=f"^{re.escape(prefix + message)}$"):
        NetworkGraph([layer], in_channels=4)
