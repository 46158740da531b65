"""Recurrent upscaling pipeline: warping, per-step recursion, sequence runs."""

import math
import re
import weakref

import numpy as np
import pytest

from vsrkit import (
    GraphError,
    NetworkGraph,
    NonFiniteError,
    ShapeError,
    bilinear_up_layer,
    build_control_srnet,
    build_fnet,
    build_generator,
    build_srnet,
    concat_channels,
    conv2d_layer,
    estimate_flow,
    fuse_conv_bn,
    init_random,
    maxpool2_layer,
    model_geometry,
    pixel_shuffle_layer,
    space_to_depth,
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
# flow estimation

def test_estimate_flow_pads_non_multiple_sizes(generator):
    # 30x22 is not a multiple of the flow net's 8x downsampling factor
    lr = np.random.default_rng(7).random((2, 3, 30, 22), dtype=np.float32)
    assert estimate_flow(generator["fnet"], lr, lr[::-1]).shape == (2, 2,
                                                                    30, 22)
    assert pipeline.fnet_size(generator["fnet"], (30, 22)) == (32, 24)


def test_estimate_flow_respects_displacement_cap(generator):
    lr = np.random.default_rng(8).random((1, 3, 32, 32), dtype=np.float32)
    flow = estimate_flow(generator["fnet"], lr, lr[..., ::-1])
    assert float(np.max(np.abs(flow))) <= 24.0


# ---------------------------------------------------------------------------
# single step

def _zeros_hr(lr):
    """The black x4 previous output of frame 0."""
    n, c, h, w = lr.shape
    return np.zeros((n, c, 4 * h, 4 * w), dtype=np.float32)


def test_vsr_step_shapes_and_state(generator):
    rng = np.random.default_rng(4)
    a, b = rng.random((2, 1, 3, 32, 32), dtype=np.float32)
    hr = vsr_step(generator["srnet"], a, estimate_flow(generator["fnet"], a, a),
                  _zeros_hr(a))
    assert isinstance(hr, np.ndarray) and hr.shape == (1, 3, 128, 128)
    assert np.all(np.isfinite(hr))
    # the output is the next step's previous output
    hr2 = vsr_step(generator["srnet"], b, estimate_flow(generator["fnet"], b, a),
                   hr)
    assert hr2.shape == hr.shape and np.all(np.isfinite(hr2))


def test_vsr_step_first_frame_uses_zero_history(generator):
    frames = np.random.default_rng(5).random((2, 3, 16, 16), dtype=np.float32)
    f0 = frames[:1]
    flow = estimate_flow(generator["fnet"], f0, f0)
    hr0 = vsr_step(generator["srnet"], f0, flow, _zeros_hr(f0))
    # vsr_run's frame 0 is its own predecessor, with a black previous output
    assert np.array_equal(vsr_run(generator, frames)[0], hr0[0])
    # a black previous output warps to black whatever the flow
    other = np.random.default_rng(6).normal(0, 3, flow.shape).astype(np.float32)
    assert np.array_equal(vsr_step(generator["srnet"], f0, other, _zeros_hr(f0)),
                          hr0)


def test_vsr_step_is_a_pure_function_of_state(generator):
    rng = np.random.default_rng(6)
    a, b = rng.random((2, 1, 3, 24, 24), dtype=np.float32)
    srnet = generator["srnet"]
    prev = vsr_step(srnet, a, estimate_flow(generator["fnet"], a, a),
                    _zeros_hr(a))
    kept = prev.copy()
    flow = estimate_flow(generator["fnet"], b, a)
    hr1 = vsr_step(srnet, b, flow, prev)
    assert np.array_equal(prev, kept)
    assert np.array_equal(vsr_step(srnet, b, flow.copy(), kept), hr1)


def test_vsr_step_identical_frames_with_zero_flow_reuse_history(generator):
    # a zero-weight flow net makes warping the identity, so the recurrent
    # frame re-enters the reconstruction net unchanged
    srnet = generator["srnet"]
    lr = np.random.default_rng(9).random((1, 3, 16, 16), dtype=np.float32)
    flow = estimate_flow(build_fnet(), lr, lr)
    assert np.all(flow == 0.0)
    hr1 = vsr_step(srnet, lr, flow, _zeros_hr(lr))
    hr2 = vsr_step(srnet, lr, flow, hr1)
    want = srnet.forward(concat_channels(lr, space_to_depth(hr1, 4)))
    assert np.array_equal(hr2, want)
    assert np.all(np.isfinite(hr2))


@pytest.mark.parametrize("prev_shape", [(2, 3, 64, 64), (1, 1, 64, 64),
                                        (1, 3, 40, 40), (1, 3, 64, 48),
                                        (1, 3, 8, 8), (1, 3, 96, 96)],
                         ids=["batch", "channels", "non-integer-multiple",
                              "two-scales", "below-the-frame",
                              "another-scale"])
def test_vsr_step_rejects_a_previous_output_that_does_not_fit(
        generator, monkeypatch, prev_shape):
    ran = []
    forward = NetworkGraph.forward

    def counting(self, *args, **kwargs):
        ran.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(NetworkGraph, "forward", counting)
    monkeypatch.setattr(pipeline, "warp", lambda *args: ran.append(1))
    lr = np.zeros((1, 3, 16, 16), dtype=np.float32)
    flow = np.zeros((1, 2, 16, 16), dtype=np.float32)
    # "another-scale" is the x4 output of a 24x24 frame: x6 of this one,
    # which the srnet's 3 * (1 + 4^2) input channels do not fit
    want = (re.escape(f"previous output shape {prev_shape} is not ")
            + r"\(1, 3, 16s, 16s\) for an integer s >= 1 with "
            + re.escape("3 * (1 + s^2) = 51 (srnet inputs)"))
    with pytest.raises(ShapeError, match=want):
        vsr_step(generator["srnet"], lr, flow,
                 np.zeros(prev_shape, dtype=np.float32))
    assert not ran


def test_vsr_step_rejects_a_flow_of_another_shape(generator):
    lr = np.zeros((1, 3, 16, 16), dtype=np.float32)
    with pytest.raises(ShapeError, match=r"flow shape \(1, 2, 8, 16\) does "
                                         r"not match \(1, 2, 16, 16\)"):
        vsr_step(generator["srnet"], lr, np.zeros((1, 2, 8, 16), np.float32),
                 _zeros_hr(lr))


def test_vsr_step_frees_the_warp_before_the_srnet_runs(generator,
                                                       monkeypatch):
    # the upscaled flow, the warp and its packing are dead once their
    # concatenation exists, so only that input is alive in the srnet pass
    live = []
    s2d, forward = pipeline.tops.space_to_depth, NetworkGraph.forward

    def packing(*args, **kwargs):
        out = s2d(*args, **kwargs)
        live.append(weakref.ref(out))
        return out

    def checking(self, *args, **kwargs):
        assert live and all(ref() is None for ref in live)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(pipeline.tops, "space_to_depth", packing)
    monkeypatch.setattr(NetworkGraph, "forward", checking)
    rng = np.random.default_rng(11)
    lr = rng.random((1, 3, 16, 16), dtype=np.float32)
    flow = rng.normal(0, 2, (1, 2, 16, 16)).astype(np.float32)
    hr = vsr_step(generator["srnet"], lr, flow, _zeros_hr(lr))
    assert len(live) == 1 and hr.shape == (1, 3, 64, 64)


@pytest.mark.parametrize("backend", ["gemm", "winograd"])
def test_a_plan_runs_the_bits_of_planning_again(generator, backend):
    # the plan keyword only hands down what the caller planned
    rng = np.random.default_rng(12)
    frames = rng.random((2, 3, 11, 13), dtype=np.float32)
    plans = pipeline.plan_sequence(generator, (11, 13), backend).plans
    prev = frames[[0, 0]]
    fnet, srnet = generator["fnet"], generator["srnet"]
    flow = estimate_flow(fnet, frames, prev, backend)
    assert np.array_equal(estimate_flow(fnet, frames, prev, backend,
                                        plan=plans["fnet"]), flow)
    hr = rng.random((1, 3, 44, 52), dtype=np.float32)
    assert np.array_equal(
        vsr_step(srnet, frames[:1], flow[:1], hr, backend,
                 plan=plans["srnet"]),
        vsr_step(srnet, frames[:1], flow[:1], hr, backend))


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
    fnet, srnet = generator["fnet"], generator["srnet"]
    f0 = frames[0:1]
    hr0 = vsr_step(srnet, f0, estimate_flow(fnet, f0, f0), _zeros_hr(f0))
    assert np.array_equal(out[0:1], hr0)
    hr1 = vsr_step(srnet, frames[1:2], estimate_flow(fnet, frames[1:2], f0),
                   hr0)
    assert np.array_equal(out[1:2], hr1)


def test_vsr_run_rejects_frames_of_another_channel_count(generator,
                                                         monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph ran")

    monkeypatch.setattr(NetworkGraph, "forward", refuse)
    net = build_control_srnet("control-a")
    for bundle, c, match in ((generator, 1, "frame has 1 channels, net "
                                            "expects 3"),
                             ({"net": net}, 3, "frame has 3 channels, net "
                                               "expects 1")):
        with pytest.raises(ShapeError, match=match):
            vsr_run(bundle, np.zeros((2, c, 16, 16), dtype=np.float32))


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


def _count_plans(monkeypatch, bundle):
    """A list that gets, for each graph of ``bundle`` planned, its name."""
    plans = []
    plan = NetworkGraph._plan

    def counting(self, *args, **kwargs):
        plans.extend(k for k, g in bundle.items() if g is self)
        return plan(self, *args, **kwargs)

    monkeypatch.setattr(NetworkGraph, "_plan", counting)
    return plans


def test_a_sequence_plans_each_graph_once(generator, monkeypatch):
    # plan_sequence plans each graph once, and every frame and every flow
    # chunk runs those plans, whether a chunk holds all frames or one
    frames = np.random.default_rng(20).random((3, 3, 48, 64),
                                              dtype=np.float32)
    assert pipeline.plan_sequence(generator, (48, 64)).chunk >= 3
    plans = _count_plans(monkeypatch, generator)
    for chunk in (10, 1):
        _chunk_of(monkeypatch, generator, (48, 64), chunk)
        for t in (1, 2, 3):
            plans.clear()
            vsr_run(generator, frames[:t])
            assert sorted(plans) == ["fnet", "srnet"], (chunk, t)


# ---------------------------------------------------------------------------
# flows a chunk of frames at a time

def _chunk_of(monkeypatch, bundle, size, frames):
    """Set ``FLOW_BATCH_BYTES`` so that a chunk holds ``frames`` frames."""
    plan = pipeline.plan_sequence(bundle, size).plans["fnet"]
    largest = max(math.prod(r["out_shape"]) for r in plan.per_layer)
    monkeypatch.setattr(pipeline, "FLOW_BATCH_BYTES", 4 * largest * frames)
    assert pipeline.plan_sequence(bundle, size).chunk == frames


def _per_frame_chain(bundle, frames, backend):
    """vsr_run frame by frame: one flow per frame pair, frame 0 paired with
    itself and given a black previous output."""
    _, c, h, w = frames.shape
    scale, _ = model_geometry(bundle, (h, w))
    hr, out = np.zeros((1, c, h * scale, w * scale), np.float32), []
    for t in range(frames.shape[0]):
        lr, prev = frames[t:t + 1], frames[max(t - 1, 0):max(t, 1)]
        flow = estimate_flow(bundle["fnet"], lr, prev, backend)
        hr = vsr_step(bundle["srnet"], lr, flow, hr, backend)
        out.append(hr[0])
    return np.stack(out)


@pytest.mark.parametrize("backend", ["naive", "gemm", "winograd"])
@pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
def test_batched_flows_give_the_bits_of_the_per_frame_chain(
        generator, monkeypatch, backend, fused):
    # 11x13 pads to 16x16 in the fnet; chunks of 1, 2 and all 5 frames
    bundle = ({k: fuse_conv_bn(g) for k, g in generator.items()} if fused
              else generator)
    frames = np.random.default_rng(18).random((5, 3, 11, 13),
                                              dtype=np.float32)
    want = _per_frame_chain(bundle, frames, backend)
    estimate = pipeline.estimate_flow
    for chunk, batches in ((1, [1] * 5), (2, [2, 2, 1]), (5, [5])):
        _chunk_of(monkeypatch, bundle, (11, 13), chunk)
        seen = []

        def counting(fnet, cur, prev, backend, **kwargs):
            seen.append(cur.shape[0])
            return estimate(fnet, cur, prev, backend, **kwargs)

        monkeypatch.setattr(pipeline, "estimate_flow", counting)
        assert np.array_equal(vsr_run(bundle, frames, backend), want), chunk
        assert seen == batches


def test_a_non_finite_frame_in_a_flow_chunk_fails_where_it_did(
        generator, monkeypatch):
    frames = np.random.default_rng(19).random((5, 3, 11, 13),
                                              dtype=np.float32)
    frames[2, 1, 4, 6] = np.nan
    want = _per_frame_chain(generator, frames[:2], "gemm")
    with pytest.raises(NonFiniteError) as per_frame:
        _per_frame_chain(generator, frames[:3], "gemm")
    _chunk_of(monkeypatch, generator, (11, 13), 5)
    got = []
    with pytest.raises(NonFiniteError) as chunked:
        for hr in pipeline.upscale_steps(generator, frames):
            got.append(hr)
    assert np.array_equal(np.stack(got), want)
    assert str(chunked.value) == f"frame 2: {per_frame.value}"
    assert str(chunked.value).startswith("frame 2: low-resolution frame "
                                         "holds 1 non-finite")


def test_flow_chunk_is_read_from_the_plan(generator, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph ran")

    monkeypatch.setattr(NetworkGraph, "forward", refuse)
    # the largest fnet output of a frame is 64 channels at full size:
    # 768 kB at 48x64 and 3 MB at 96x128, so a 3-frame sequence at 48x64
    # is one chunk; a paper-size frame runs alone
    def chunk(bundle, size):
        return pipeline.plan_sequence(bundle, size).chunk

    assert chunk(generator, (48, 64)) == 10
    assert chunk(generator, (96, 128)) == 2
    assert chunk(generator, (540, 960)) == 1
    net = init_random(build_control_srnet("control-a"), 0)
    assert chunk({"net": net}, (48, 64)) == 1
    # a layerless fnet of 1-channel frames is its own flow: its input counts
    x2 = NetworkGraph([conv2d_layer("c", 5, 4, 1), pixel_shuffle_layer("s", 2)],
                      5)
    bare = {"fnet": NetworkGraph([], 2), "srnet": x2}
    assert model_geometry(bare, (48, 64)) == (2, 1)
    assert chunk(bare, (48, 64)) == (8 << 20) // (4 * 2 * 48 * 64)


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
    want = vsr_run(generator, frame)
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
        assert np.array_equal(vsr_run(bundle, frame), want), (key, value)
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
