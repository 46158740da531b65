"""Builders for the super-resolution networks.

Two cooperating nets make up the recurrent x4 generator:

* the flow net: a 3-level encoder/decoder that maps a pair of consecutive
  low-resolution frames (concatenated, 6 channels) to a dense 2-channel
  motion field, bounded by a scaled tanh;
* the SR net: a residual trunk over the current frame concatenated with
  the space-to-depth packing of the warped previous output, ending in a
  pixel-shuffle upsampler.

Also included are three small single-channel x3 upsamplers sharing one
backbone and differing only in the output stage (interpolation + 1x1 conv,
strided transposed conv, sub-pixel shuffle). They exist to compare the
cost and behavior of the three standard upsampling strategies.

A graph's ``meta`` holds only its ``arch``: the scale and the frame channels
are facts of the layers, read by :func:`vsrkit.pipeline.plan_sequence`.
"""
from __future__ import annotations

from .graph import (
    NetworkGraph,
    activation_layer,
    batch_norm_layer,
    bilinear_up_layer,
    conv2d_layer,
    conv_transpose2d_layer,
    maxpool2_layer,
    pixel_shuffle_layer,
    residual_add_layer,
)

CONTROL_VARIANTS = ("control-a", "control-b", "control-c")
ARCH_NAMES = ("egvsr",) + CONTROL_VARIANTS

# the egvsr generator: frames of FRAME_CHANNELS channels upscaled x SCALE
FRAME_CHANNELS = 3
SCALE = 4
# flow net: encoder and decoder unit widths, head width, leaky-relu slope,
# and the tanh bound on the flow in pixels
FNET_ENCODER_WIDTHS = (32, 64, 128)
FNET_DECODER_WIDTHS = (256, 128, 64)
FNET_HEAD_WIDTH = 32
LEAKY_ALPHA = 0.2
MAX_FLOW = 24.0
# reconstruction net: trunk width and residual block count
SRNET_WIDTH = 64
SRNET_BLOCKS = 10


def build_fnet() -> NetworkGraph:
    """Flow estimator: 3 pooling encoder units, 3 upsampling decoder units,
    then a 2-channel head with tanh output scaled to +-MAX_FLOW pixels."""
    layers = []
    c = in_c = 2 * FRAME_CHANNELS

    def unit(tag, c_in, width, tail):
        return [
            conv2d_layer(f"{tag}_conv1", c_in, width, 3),
            batch_norm_layer(f"{tag}_bn1", width),
            activation_layer(f"{tag}_act1", "leaky_relu", alpha=LEAKY_ALPHA),
            conv2d_layer(f"{tag}_conv2", width, width, 3),
            batch_norm_layer(f"{tag}_bn2", width),
            activation_layer(f"{tag}_act2", "leaky_relu", alpha=LEAKY_ALPHA),
            tail,
        ]

    for i, width in enumerate(FNET_ENCODER_WIDTHS, start=1):
        layers += unit(f"enc{i}", c, width, maxpool2_layer(f"enc{i}_pool"))
        c = width
    for i, width in enumerate(FNET_DECODER_WIDTHS, start=1):
        layers += unit(f"dec{i}", c, width, bilinear_up_layer(f"dec{i}_up"))
        c = width
    layers += [
        conv2d_layer("head_conv1", c, FNET_HEAD_WIDTH, 3),
        activation_layer("head_act", "leaky_relu", alpha=LEAKY_ALPHA),
        conv2d_layer("head_conv2", FNET_HEAD_WIDTH, 2, 3),
        activation_layer("flow_tanh", "tanh", scale=MAX_FLOW),
    ]
    return NetworkGraph(layers, in_c, meta={"arch": "fnet"})


def build_srnet() -> NetworkGraph:
    """Reconstruction net: entry conv, identity residual blocks, sub-pixel
    x SCALE upsampling, and a final frame-space conv."""
    w = SRNET_WIDTH
    # current frame plus the space-to-depth packing of the warped output
    in_c = FRAME_CHANNELS * (1 + SCALE * SCALE)
    layers = [
        conv2d_layer("in_conv", in_c, w, 3),
        activation_layer("in_act", "relu"),
    ]
    skip = "in_act"
    for i in range(1, SRNET_BLOCKS + 1):
        layers += [
            conv2d_layer(f"b{i}_conv1", w, w, 3),
            activation_layer(f"b{i}_act", "relu"),
            conv2d_layer(f"b{i}_conv2", w, w, 3),
            residual_add_layer(f"b{i}_add", skip),
        ]
        skip = f"b{i}_add"
    layers += [
        conv2d_layer("up_conv", w, FRAME_CHANNELS * SCALE * SCALE, 3),
        pixel_shuffle_layer("up_shuffle", SCALE),
        activation_layer("up_act", "relu"),
        conv2d_layer("out_conv", FRAME_CHANNELS, FRAME_CHANNELS, 3),
    ]
    return NetworkGraph(layers, in_c, meta={"arch": "srnet"})


CONTROL_SCALE = 3


def build_control_srnet(variant: str) -> NetworkGraph:
    """Single-channel x3 upsampler; variants share the backbone and swap
    only the output stage.

    control-a: bilinear x3 resize then 1x1 conv.
    control-b: strided 5x5 transposed conv straight to x3.
    control-c: 1x1 conv to 9 channels then pixel shuffle.
    """
    if variant not in CONTROL_VARIANTS:
        raise ValueError(f"unknown control variant {variant!r}, "
                         f"expected one of {CONTROL_VARIANTS}")
    layers = [
        conv2d_layer("conv1", 1, 64, 5),
        activation_layer("act1", "tanh"),
        conv2d_layer("conv2", 64, 32, 3),
        activation_layer("act2", "tanh"),
        conv2d_layer("conv3", 32, 32, 3),
        activation_layer("act3", "tanh"),
    ]
    if variant == "control-a":
        layers += [
            bilinear_up_layer("up", scale=float(CONTROL_SCALE)),
            conv2d_layer("out_conv", 32, 1, 1),
        ]
    elif variant == "control-b":
        # output pad s-k+2p = 3-5+2*1 = 0 keeps the grid at exactly x3
        layers += [
            conv_transpose2d_layer("out_deconv", 32, 1, 5,
                                   scale=CONTROL_SCALE, pad=1),
        ]
    else:
        layers += [
            conv2d_layer("out_conv", 32, CONTROL_SCALE ** 2, 1),
            pixel_shuffle_layer("shuffle", CONTROL_SCALE),
        ]
    return NetworkGraph(layers, 1, meta={"arch": variant})


def build_generator() -> dict:
    """The full recurrent generator as a named pair of graphs."""
    return {"fnet": build_fnet(), "srnet": build_srnet()}
