"""Network builders: flow estimator, reconstruction net, control variants."""

import numpy as np
import pytest

from vsrkit import (
    NetworkGraph,
    build_control_srnet,
    build_fnet,
    build_generator,
    build_srnet,
    init_random,
    model_geometry,
)

FNET_PARAMS = 1_750_882
SRNET_PARAMS = 795_780
TRUNK_PARAMS = 738_560


def test_builders_state_layer_geometry_only_in_arrays():
    nets = list(build_generator().values()) + [
        build_control_srnet(a) for a in ("control-a", "control-b",
                                         "control-c")]
    for net in nets:
        for ly in net.layers:
            assert not {"c_in", "c_out", "k", "c"} & set(ly.attrs), ly.name


def test_fnet_parameter_count():
    assert build_fnet().count_params() == FNET_PARAMS
    # roughly 1.75M parameters by design
    assert abs(FNET_PARAMS - 1.75e6) / 1.75e6 < 0.01


def test_fnet_shape_contract():
    fnet = init_random(build_fnet(), 0)
    x = np.random.default_rng(0).random((1, 6, 64, 64), dtype=np.float32)
    flow = fnet.forward(x)
    assert flow.shape == (1, 2, 64, 64)


def test_fnet_flow_is_bounded():
    fnet = init_random(build_fnet(), 1)
    x = np.random.default_rng(1).random((2, 6, 32, 32), dtype=np.float32)
    flow = fnet.forward(x)
    # final tanh is scaled by the 24-pixel displacement cap
    assert float(np.max(np.abs(flow))) <= 24.0


def test_fnet_zero_weights_give_zero_flow():
    fnet = build_fnet()
    x = np.random.default_rng(2).random((1, 6, 16, 16), dtype=np.float32)
    assert np.all(fnet.forward(x) == 0.0)


def test_srnet_parameter_count_and_trunk():
    srnet = build_srnet()
    assert srnet.count_params() == SRNET_PARAMS
    trunk = sum(l.param_count() for l in srnet.layers
                if l.name.startswith("b"))
    assert trunk == TRUNK_PARAMS


def test_srnet_shape_contract():
    srnet = init_random(build_srnet(), 3)
    x = np.random.default_rng(3).random((1, 51, 32, 32), dtype=np.float32)
    out = srnet.forward(x)
    assert out.shape == (1, 3, 128, 128)


def test_srnet_residual_blocks_pass_identity_when_second_conv_is_zero():
    srnet = init_random(build_srnet(), 4)
    for layer in srnet.layers:
        if layer.name.endswith("_conv2"):
            layer.arrays["weight"][:] = 0.0
            layer.arrays["bias"][:] = 0.0
    x = np.random.default_rng(4).random((1, 51, 8, 8), dtype=np.float32)
    names = [l.name for l in srnet.layers]
    head = NetworkGraph(srnet.layers[:names.index("b1_conv1")],
                        in_channels=srnet.in_channels)
    trunk = NetworkGraph(srnet.layers[:names.index("b10_add") + 1],
                         in_channels=srnet.in_channels)
    assert np.allclose(trunk.forward(x), head.forward(x), atol=1e-6)


def test_generator_bundle():
    gen = build_generator()
    assert set(gen) == {"fnet", "srnet"}
    assert model_geometry(gen, (12, 16)) == (4, 3)
    assert [g.meta for g in gen.values()] == [{"arch": "fnet"},
                                              {"arch": "srnet"}]
    total = sum(g.count_params() for g in gen.values())
    assert total == FNET_PARAMS + SRNET_PARAMS


CONTROL_TOTALS = {"control-a": 29_409, "control-b": 30_177,
                  "control-c": 29_673}
BACKBONE = {"conv1": 1_664, "conv2": 18_464, "conv3": 9_248}
HEADS = {"control-a": {"out_conv": 33}, "control-b": {"out_deconv": 801},
         "control-c": {"out_conv": 297}}


def test_control_variant_parameter_counts():
    for variant, total in CONTROL_TOTALS.items():
        g = build_control_srnet(variant)
        assert g.count_params() == total, variant
        by_name = {l.name: l.param_count() for l in g.layers}
        for name, params in BACKBONE.items():
            assert by_name[name] == params, (variant, name)
        for name, params in HEADS[variant].items():
            assert by_name[name] == params, (variant, name)


@pytest.mark.parametrize("variant", sorted(CONTROL_TOTALS))
def test_control_variants_triple_the_grid(variant):
    g = init_random(build_control_srnet(variant), 5)
    x = np.random.default_rng(5).random((1, 1, 8, 8), dtype=np.float32)
    out = g.forward(x)
    assert out.shape == (1, 1, 24, 24), variant
    assert np.all(np.isfinite(out))


def test_control_variants_share_backbone_structure():
    graphs = {v: build_control_srnet(v) for v in CONTROL_TOTALS}
    for v, g in graphs.items():
        kinds = [l.kind for l in g.layers[:6]]
        assert kinds == ["conv2d", "activation"] * 3, v
        assert model_geometry({"net": g}, (12, 16)) == (3, 1), v
        assert g.meta == {"arch": v}


def test_control_rejects_unknown_variant():
    with pytest.raises(ValueError):
        build_control_srnet("control-z")
