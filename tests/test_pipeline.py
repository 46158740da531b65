"""Recurrent upscaling pipeline: warping, per-step recursion, sequence runs."""

import numpy as np
import pytest

from vsrkit import (
    GraphError,
    NetworkGraph,
    NonFiniteError,
    RecurrentState,
    ShapeError,
    bilinear_up_layer,
    build_control_srnet,
    build_fnet,
    build_generator,
    build_srnet,
    conv2d_layer,
    init_random,
    maxpool2_layer,
    model_geometry,
    pixel_shuffle_layer,
    vsr_run,
    vsr_step,
    warp,
)
from vsrkit import pipeline


@pytest.fixture(scope="module")
def generator():
    return {"fnet": init_random(build_fnet(), 21),
            "srnet": init_random(build_srnet(), 22)}


# ---------------------------------------------------------------------------
# warping

def test_warp_zero_flow_is_identity():
    rng = np.random.default_rng(0)
    x = rng.random((2, 3, 9, 11), dtype=np.float32)
    flow = np.zeros((2, 2, 9, 11), dtype=np.float32)
    assert np.max(np.abs(warp(x, flow) - x)) < 1e-6


def test_warp_unit_horizontal_flow_shifts_left():
    # flow channel 0 holds the horizontal displacement: sampling at x+1
    # shifts content left; the right border replicates its last column
    rng = np.random.default_rng(1)
    x = rng.random((1, 1, 6, 8), dtype=np.float32)
    flow = np.zeros((1, 2, 6, 8), dtype=np.float32)
    flow[:, 0] = 1.0
    out = warp(x, flow)
    assert np.max(np.abs(out[..., :-1] - x[..., 1:])) < 1e-6
    assert np.max(np.abs(out[..., -1] - x[..., -1])) < 1e-6


def test_warp_unit_vertical_flow_shifts_up():
    rng = np.random.default_rng(2)
    x = rng.random((1, 2, 7, 5), dtype=np.float32)
    flow = np.zeros((1, 2, 7, 5), dtype=np.float32)
    flow[:, 1] = 1.0
    out = warp(x, flow)
    assert np.max(np.abs(out[:, :, :-1] - x[:, :, 1:])) < 1e-6


def test_warp_half_pixel_flow_averages_neighbors():
    x = np.zeros((1, 1, 1, 4), dtype=np.float32)
    x[0, 0, 0] = [0.0, 1.0, 2.0, 3.0]
    flow = np.zeros((1, 2, 1, 4), dtype=np.float32)
    flow[:, 0] = 0.5
    out = warp(x, flow)
    assert np.allclose(out[0, 0, 0, :3], [0.5, 1.5, 2.5], atol=1e-6)


def test_warp_constant_image_is_invariant():
    x = np.full((1, 3, 8, 8), 0.4, dtype=np.float32)
    rng = np.random.default_rng(3)
    flow = rng.normal(0, 5, (1, 2, 8, 8)).astype(np.float32)
    assert np.max(np.abs(warp(x, flow) - 0.4)) < 1e-6


def test_warp_rejects_mismatched_flow():
    x = np.zeros((1, 3, 8, 8), dtype=np.float32)
    with pytest.raises(ShapeError):
        warp(x, np.zeros((1, 3, 8, 8), dtype=np.float32))
    with pytest.raises(ShapeError):
        warp(x, np.zeros((1, 2, 4, 4), dtype=np.float32))


def test_warp_rejects_non_finite_flow():
    x = np.zeros((1, 3, 8, 8), dtype=np.float32)
    flow = np.zeros((1, 2, 8, 8), dtype=np.float32)
    flow[0, 1, 2, 5] = np.inf
    with pytest.raises(NonFiniteError, match=r"flow holds 1 non-finite "
                                             r"values, first at index "
                                             r"\(0, 1, 2, 5\)"):
        warp(x, flow)


# ---------------------------------------------------------------------------
# single step

def test_vsr_step_shapes_and_state(generator):
    lr = np.random.default_rng(4).random((1, 3, 32, 32), dtype=np.float32)
    hr, flow, state = vsr_step(generator, lr)
    assert hr.shape == (1, 3, 128, 128)
    assert flow.shape == (1, 2, 32, 32)
    assert isinstance(state, RecurrentState)
    assert np.array_equal(state.prev_lr, lr)
    assert np.array_equal(state.prev_hr, hr)
    assert np.all(np.isfinite(hr))


def test_vsr_step_first_frame_uses_zero_history(generator):
    lr = np.random.default_rng(5).random((1, 3, 32, 32), dtype=np.float32)
    zero_state = RecurrentState(
        prev_lr=np.zeros_like(lr),
        prev_hr=np.zeros((1, 3, 128, 128), dtype=np.float32))
    hr_default, _, _ = vsr_step(generator, lr)
    hr_explicit, _, _ = vsr_step(generator, lr, zero_state)
    # the implicit first-frame state is all-zero history except prev_lr,
    # which repeats the current frame; flows differ so outputs may too,
    # but both paths stay finite and share the output grid
    assert hr_default.shape == hr_explicit.shape
    assert np.all(np.isfinite(hr_explicit))


def test_vsr_step_is_a_pure_function_of_state(generator):
    rng = np.random.default_rng(6)
    a = rng.random((1, 3, 24, 24), dtype=np.float32)
    b = rng.random((1, 3, 24, 24), dtype=np.float32)
    _, _, state = vsr_step(generator, a)
    hr1, flow1, _ = vsr_step(generator, b, state)
    rebuilt = RecurrentState(prev_lr=state.prev_lr.copy(),
                             prev_hr=state.prev_hr.copy())
    hr2, flow2, _ = vsr_step(generator, b, rebuilt)
    assert np.array_equal(hr1, hr2)
    assert np.array_equal(flow1, flow2)


def test_vsr_step_pads_non_multiple_sizes(generator):
    # 30x22 is not a multiple of the flow net's 8x downsampling factor
    lr = np.random.default_rng(7).random((1, 3, 30, 22), dtype=np.float32)
    hr, flow, _ = vsr_step(generator, lr)
    assert flow.shape == (1, 2, 30, 22)
    assert hr.shape == (1, 3, 120, 88)


def test_vsr_step_flow_respects_displacement_cap(generator):
    lr = np.random.default_rng(8).random((1, 3, 32, 32), dtype=np.float32)
    _, flow, _ = vsr_step(generator, lr)
    assert float(np.max(np.abs(flow))) <= 24.0


def test_vsr_step_identical_frames_with_zero_flow_reuse_history(generator):
    # a zero-weight flow net makes warping the identity, so the recurrent
    # frame re-enters the reconstruction net unchanged
    gen = {"fnet": build_fnet(), "srnet": generator["srnet"]}
    lr = np.random.default_rng(9).random((1, 3, 16, 16), dtype=np.float32)
    hr1, flow, state = vsr_step(gen, lr)
    assert np.all(flow == 0.0)
    hr2, _, _ = vsr_step(gen, lr, state)
    assert np.all(np.isfinite(hr2))


def test_vsr_step_validates_generator(generator):
    lr = np.zeros((1, 3, 16, 16), dtype=np.float32)
    with pytest.raises(GraphError, match=r"needs an fnet\+srnet pair"):
        vsr_step({"fnet": generator["fnet"]}, lr)


@pytest.mark.parametrize("frame, state_size, match", [
    ((1, 1, 16, 16), None, "frame has 1 channels, net expects 3"),
    ((1, 3, 16, 16), (24, 24), r"state frame shape \(1, 3, 24, 24\) does "
                               r"not match input \(1, 3, 16, 16\)"),
])
def test_vsr_step_rejects_a_frame_or_state_of_another_shape(
        generator, monkeypatch, frame, state_size, match):
    state = None
    if state_size is not None:
        state = vsr_step(generator, np.zeros((1, 3, *state_size),
                                             dtype=np.float32))[2]
    ran = []
    monkeypatch.setattr(pipeline, "estimate_flow",
                        lambda *args: ran.append(1))
    with pytest.raises(ShapeError, match=match):
        vsr_step(generator, np.zeros(frame, dtype=np.float32), state)
    assert not ran


# ---------------------------------------------------------------------------
# sequence runs

def test_vsr_run_shapes_and_determinism(generator):
    frames = np.random.default_rng(10).random((4, 3, 24, 24),
                                              dtype=np.float32)
    out = vsr_run(generator, frames)
    assert out.shape == (4, 3, 96, 96)
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, vsr_run(generator, frames))


def test_vsr_run_single_frame(generator):
    frames = np.random.default_rng(11).random((1, 3, 16, 16),
                                              dtype=np.float32)
    out = vsr_run(generator, frames)
    assert out.shape == (1, 3, 64, 64)


def test_vsr_run_first_frame_matches_vsr_step(generator):
    frames = np.random.default_rng(12).random((3, 3, 16, 16),
                                              dtype=np.float32)
    out = vsr_run(generator, frames)
    hr0, _, state = vsr_step(generator, frames[0:1])
    assert np.array_equal(out[0:1], hr0)
    hr1, _, _ = vsr_step(generator, frames[1:2], state)
    assert np.array_equal(out[1:2], hr1)


def test_vsr_run_rejects_empty_sequence(generator):
    with pytest.raises(ShapeError):
        vsr_run(generator, np.zeros((0, 3, 16, 16), dtype=np.float32))


def test_vsr_run_names_the_non_finite_frame(generator):
    frames = np.random.default_rng(5).random((3, 3, 16, 16),
                                             dtype=np.float32)
    frames[1, 0, 3, 3] = np.nan
    with pytest.raises(NonFiniteError, match=r"^frame 1: low-resolution "
                                             r"frame holds 1 non-finite"):
        vsr_run(generator, frames)
    assert issubclass(NonFiniteError, ValueError)


def test_vsr_run_names_the_frame_of_non_finite_flow():
    # NaN weights in the flow net give NaN flow, caught before warping
    fnet = init_random(build_fnet(), 21)
    conv = next(ly for ly in fnet.layers if ly.kind == "conv2d")
    conv.arrays["weight"][0, 0, 0, 0] = np.nan
    generator = {"fnet": fnet, "srnet": init_random(build_srnet(), 22)}
    frames = np.random.default_rng(6).random((2, 3, 16, 16),
                                             dtype=np.float32)
    with pytest.raises(NonFiniteError, match=r"^frame 0: flow holds"):
        vsr_run(generator, frames)


def test_vsr_run_applies_single_graph_per_frame():
    g = init_random(build_control_srnet("control-a"), 13)
    frames = np.random.default_rng(13).random((3, 1, 10, 10),
                                              dtype=np.float32)
    out = vsr_run({"net": g}, frames)
    assert out.shape == (3, 1, 30, 30)
    # frames are independent: reordering the input reorders the output
    flipped = vsr_run({"net": g}, frames[::-1].copy())
    assert np.array_equal(flipped, out[::-1])


def test_vsr_run_names_the_non_finite_frame_of_a_single_net():
    g = init_random(build_control_srnet("control-a"), 14)
    frames = np.random.default_rng(14).random((3, 1, 10, 10),
                                              dtype=np.float32)
    frames[2, 0, 4, 7] = np.inf
    with pytest.raises(NonFiniteError, match=r"^frame 2: low-resolution "
                                             r"frame holds 1 non-finite "
                                             r"values, first at index "
                                             r"\(0, 4, 7\)"):
        vsr_run({"net": g}, frames)


def _nan_weight(graph):
    g = graph.copy()
    conv = next(ly for ly in g.layers if ly.kind == "conv2d")
    conv.arrays["weight"][0, 0, 0, 0] = np.nan
    return g


def test_vsr_run_names_the_frame_and_graph_of_non_finite_output(generator):
    frames = np.random.default_rng(15).random((2, 3, 16, 16),
                                              dtype=np.float32)
    bad = {"fnet": generator["fnet"], "srnet": _nan_weight(generator["srnet"])}
    with pytest.raises(NonFiniteError, match=r"^frame 0: graph 'srnet' "
                                             r"output holds \d+ non-finite"):
        vsr_run(bad, frames)
    net = _nan_weight(init_random(build_control_srnet("control-b"), 16))
    with pytest.raises(NonFiniteError, match=r"^frame 0: graph 'net' "
                                             r"output holds \d+ non-finite"):
        vsr_run({"net": net}, frames[:, :1])


def test_vsr_run_calls_vsr_step_through_the_module_global(generator,
                                                          monkeypatch):
    # the benchmark's tracer times pipeline stages by rebinding
    # pipeline.vsr_step; vsr_run must look the name up on every frame
    calls = []
    step = pipeline.vsr_step

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(pipeline, "vsr_step", counting)
    frames = np.random.default_rng(17).random((3, 3, 16, 16),
                                              dtype=np.float32)
    vsr_run(generator, frames)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# bundle geometry

def test_model_geometry_of_both_bundle_kinds(generator):
    assert model_geometry(generator, (16, 16)) == (4, 3)
    for variant in ("control-a", "control-b", "control-c"):
        net = build_control_srnet(variant)
        assert model_geometry({"net": net}, (8, 10)) == (3, 1), variant
    # a graph with no layers passes its frames through unchanged
    assert model_geometry({"net": NetworkGraph([], 2)}, (5, 7)) == (1, 2)


def test_model_geometry_ignores_meta(generator):
    frame = np.random.default_rng(8).random((1, 3, 16, 16), dtype=np.float32)
    want = vsr_step(generator, frame)[0]
    for key, value in (("scale", None), ("scale", "x"), ("scale", 0),
                       ("scale", 4.5), ("scale", True),
                       ("frame_channels", [1]), ("frame_channels", 1),
                       ("scale", 2)):
        srnet = generator["srnet"].copy()
        srnet.meta.update(scale=4, frame_channels=3)
        if value is None:
            del srnet.meta[key]
        else:
            srnet.meta[key] = value
        bundle = {"fnet": generator["fnet"], "srnet": srnet}
        assert model_geometry(bundle, (16, 16)) == (4, 3), (key, value)
        assert np.array_equal(vsr_step(bundle, frame)[0], want), (key, value)
    control = build_control_srnet("control-a")
    control.meta.update(scale=2, frame_channels=3)
    assert model_geometry({"net": control}, (8, 8)) == (3, 1)


def _x2_srnet(srnet):
    """The x4 srnet with its upsampler swapped for a x2 one, so its input
    still packs a x4 warp."""
    layers = [ly for ly in srnet.layers if ly.name not in
              ("up_conv", "up_shuffle")]
    at = [ly.name for ly in layers].index("up_act")
    layers[at:at] = [conv2d_layer("up_conv", 64, 3 * 2 * 2, 3),
                     pixel_shuffle_layer("up_shuffle", 2)]
    return init_random(NetworkGraph(layers, srnet.in_channels), 3)


def _fnet_with(fnet, flow_channels=2, pool=False):
    """The fnet with its last conv emitting ``flow_channels``, and with a
    maxpool after its last layer when ``pool``."""
    layers = [ly.copy() for ly in fnet.layers]
    head = layers[-2]
    layers[-2] = conv2d_layer(head.name, head.arrays["weight"].shape[1],
                              flow_channels, 3)
    if pool:
        layers.append(maxpool2_layer("extra_pool"))
    return init_random(NetworkGraph(layers, fnet.in_channels), 4)


def test_pair_that_disagrees_is_a_named_error_before_any_forward(
        generator, monkeypatch):
    ran = []
    forward = NetworkGraph.forward

    def counting(self, *args, **kwargs):
        ran.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(NetworkGraph, "forward", counting)
    frames = np.zeros((2, 3, 16, 16), dtype=np.float32)
    srnet = generator["srnet"]
    x2 = {"fnet": generator["fnet"], "srnet": _x2_srnet(srnet)}
    narrow = {"fnet": init_random(NetworkGraph(
        [conv2d_layer("flow", 4, 2, 3)], 4), 0), "srnet": srnet}
    for bundle, match in (
            (x2, "graph 'srnet' takes 51 input channels; a x2 pair of "
                 "3-channel frames needs 15"),
            (narrow, "graph 'fnet' takes 4 input channels; a x4 pair of "
                     "3-channel frames needs 6"),
            ({"fnet": _fnet_with(generator["fnet"], flow_channels=3),
              "srnet": srnet}, "graph 'fnet' maps 16x16 frame pairs to "
                               "3x16x16, not a 2x16x16 flow"),
            ({"fnet": _fnet_with(generator["fnet"], pool=True),
              "srnet": srnet}, "graph 'fnet' maps 16x16 frame pairs to "
                               "2x8x8, not a 2x16x16 flow"),
            ({"fnet": NetworkGraph([conv2d_layer("wide", 6, 2, 17, pad=0)],
                                   6), "srnet": srnet},
             "graph 'fnet': layer 0 \\('wide', conv2d\\): conv geometry")):
        with pytest.raises(GraphError, match=match):
            model_geometry(bundle, (16, 16))
        with pytest.raises(GraphError, match=match):
            vsr_step(bundle, frames[:1])
        with pytest.raises(GraphError, match=match):
            vsr_run(bundle, frames)
    assert not ran


def test_single_net_that_does_not_upscale_is_a_named_error():
    down = NetworkGraph([conv2d_layer("down", 1, 1, 3, stride=2)], 1)
    odd = NetworkGraph([bilinear_up_layer("up", scale=1.5)], 1)
    for net, size, got in ((down, (8, 8), "4x4"), (odd, (8, 8), "12x12")):
        with pytest.raises(GraphError, match=f"graph 'net' maps 8x8 frames "
                                             f"to {got}, not an integer"):
            model_geometry({"net": net}, size)
    # a shape rule that fails at this size names the graph and the layer
    with pytest.raises(GraphError, match="^graph 'net': layer 0 \\('c', "
                                         "conv2d\\): conv geometry"):
        model_geometry({"net": NetworkGraph(
            [conv2d_layer("c", 1, 1, 3, pad=0)], 1)}, (1, 1))


def test_model_geometry_rejects_other_bundles(generator):
    net = NetworkGraph([], in_channels=3)
    for bundle in ({}, {"fnet": generator["fnet"], "other": net},
                   dict(generator, extra=net)):
        with pytest.raises(GraphError, match="expected either a single net "
                                             "or an fnet\\+srnet pair"):
            model_geometry(bundle, (8, 8))
