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
"""
from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class FNetConfig:
    in_channels: int = 6
    encoder_widths: tuple = (32, 64, 128)
    decoder_widths: tuple = (256, 128, 64)
    head_width: int = 32
    leaky_alpha: float = 0.2
    max_flow: float = 24.0


@dataclass(frozen=True)
class SRNetConfig:
    frame_channels: int = 3
    width: int = 64
    num_blocks: int = 10
    scale: int = 4

    @property
    def in_channels(self) -> int:
        # current frame plus the space-to-depth packing of the warped output
        return self.frame_channels * (1 + self.scale * self.scale)


def build_fnet(cfg: FNetConfig = FNetConfig()) -> NetworkGraph:
    """Flow estimator: 3 pooling encoder units, 3 upsampling decoder units,
    then a 2-channel head with tanh output scaled to +-max_flow pixels."""
    alpha = cfg.leaky_alpha
    layers = []
    c = cfg.in_channels

    def unit(tag, c_in, width, tail):
        steps = [
            conv2d_layer(f"{tag}_conv1", c_in, width, 3),
            batch_norm_layer(f"{tag}_bn1", width),
            activation_layer(f"{tag}_act1", "leaky_relu", alpha=alpha),
            conv2d_layer(f"{tag}_conv2", width, width, 3),
            batch_norm_layer(f"{tag}_bn2", width),
            activation_layer(f"{tag}_act2", "leaky_relu", alpha=alpha),
        ]
        steps.append(tail)
        return steps

    for i, width in enumerate(cfg.encoder_widths, start=1):
        layers += unit(f"enc{i}", c, width, maxpool2_layer(f"enc{i}_pool"))
        c = width
    for i, width in enumerate(cfg.decoder_widths, start=1):
        layers += unit(f"dec{i}", c, width, bilinear_up_layer(f"dec{i}_up"))
        c = width
    layers += [
        conv2d_layer("head_conv1", c, cfg.head_width, 3),
        activation_layer("head_act", "leaky_relu", alpha=alpha),
        conv2d_layer("head_conv2", cfg.head_width, 2, 3),
        activation_layer("flow_tanh", "tanh", scale=cfg.max_flow),
    ]
    return NetworkGraph(layers, cfg.in_channels,
                        meta={"arch": "fnet", "max_flow": cfg.max_flow})


def build_srnet(cfg: SRNetConfig = SRNetConfig()) -> NetworkGraph:
    """Reconstruction net: entry conv, identity residual blocks, sub-pixel
    x`scale` upsampling, and a final frame-space conv."""
    w = cfg.width
    layers = [
        conv2d_layer("in_conv", cfg.in_channels, w, 3),
        activation_layer("in_act", "relu"),
    ]
    skip = "in_act"
    for i in range(1, cfg.num_blocks + 1):
        layers += [
            conv2d_layer(f"b{i}_conv1", w, w, 3),
            activation_layer(f"b{i}_act", "relu"),
            conv2d_layer(f"b{i}_conv2", w, w, 3),
            residual_add_layer(f"b{i}_add", skip),
        ]
        skip = f"b{i}_add"
    up_c = cfg.frame_channels * cfg.scale * cfg.scale
    layers += [
        conv2d_layer("up_conv", w, up_c, 3),
        pixel_shuffle_layer("up_shuffle", cfg.scale),
        activation_layer("up_act", "relu"),
        conv2d_layer("out_conv", cfg.frame_channels, cfg.frame_channels, 3),
    ]
    return NetworkGraph(layers, cfg.in_channels,
                        meta={"arch": "srnet", "scale": cfg.scale,
                              "frame_channels": cfg.frame_channels})


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
    return NetworkGraph(layers, 1, meta={"arch": variant,
                                         "scale": CONTROL_SCALE,
                                         "frame_channels": 1})


def build_generator(fnet_cfg: FNetConfig = FNetConfig(),
                    srnet_cfg: SRNetConfig = SRNetConfig()) -> dict:
    """The full recurrent generator as a named pair of graphs."""
    return {"fnet": build_fnet(fnet_cfg), "srnet": build_srnet(srnet_cfg)}
