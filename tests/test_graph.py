"""Layer graphs: validation, forward execution, BN folding, cost counters."""

import numpy as np
import pytest

from vsrkit import (
    BACKENDS,
    BatchNormParams,
    GraphError,
    Layer,
    NetworkGraph,
    ShapeError,
    activation_layer,
    batch_norm_layer,
    batchnorm_forward,
    bilinear_up_layer,
    conv2d,
    conv2d_layer,
    conv_transpose2d_layer,
    fuse_conv_bn,
    init_random,
    maxpool2_layer,
    pixel_shuffle_layer,
    residual_add_layer,
)
from vsrkit import conv as conv_module, graph as graph_module
from vsrkit.graph import LAYER_KINDS


def _bn(c, rng):
    return BatchNormParams(gamma=rng.uniform(0.5, 1.5, c),
                           beta=rng.normal(0, 0.3, c),
                           mean=rng.normal(0, 0.3, c),
                           var=rng.uniform(0.2, 2.0, c))


# ---------------------------------------------------------------------------
# batch normalization

def test_batchnorm_scalar_oracle():
    # one channel, three samples: x=[1,2,3], mean 2, variance 2/3
    p = BatchNormParams(gamma=[1.0], beta=[0.0], mean=[2.0], var=[2.0 / 3.0],
                        eps=1e-5)
    x = np.array([1.0, 2.0, 3.0], dtype=np.float32).reshape(1, 1, 1, 3)
    got = batchnorm_forward(x, p)
    expect = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0 + 1e-5)
    assert np.allclose(got.ravel(), expect, atol=1e-6)


def test_batchnorm_gamma_zero_gives_beta():
    p = BatchNormParams(gamma=[0.0, 0.0], beta=[1.0, -2.0],
                        mean=[0.3, 0.7], var=[1.0, 2.0])
    x = np.random.default_rng(0).random((2, 2, 3, 3), dtype=np.float32)
    out = batchnorm_forward(x, p)
    assert np.allclose(out[:, 0], 1.0, atol=1e-6)
    assert np.allclose(out[:, 1], -2.0, atol=1e-6)


def test_batchnorm_params_validation():
    with pytest.raises(ShapeError):
        BatchNormParams(gamma=[1.0, 1.0], beta=[0.0], mean=[0.0], var=[1.0])
    with pytest.raises(ValueError):
        BatchNormParams(gamma=[1.0], beta=[0.0], mean=[0.0], var=[1.0], eps=0.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        BatchNormParams(gamma=[1.0], beta=[0.0], mean=[0.0], var=[1.0],
                        eps=float("nan"))
    with pytest.raises(ValueError):
        BatchNormParams(gamma=[1.0], beta=[0.0], mean=[0.0], var=[-1.0])


def test_batchnorm_forward_rejects_a_channel_mismatch():
    p = BatchNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], mean=[0.0, 0.0],
                        var=[1.0, 1.0])
    with pytest.raises(ShapeError, match="input has 3 channels, batch-norm "
                                         "params have 2"):
        batchnorm_forward(np.zeros((1, 3, 2, 2), dtype=np.float32), p)


def test_batchnorm_affine_closed_form():
    # gamma 2, beta 3, zero mean, unit variance: scale -> 2, shift -> 3
    p = BatchNormParams(gamma=[2.0], beta=[3.0], mean=[0.0], var=[1.0],
                        eps=1e-12)
    scale, shift = p.affine()
    assert scale.shape == shift.shape == (1,)
    assert abs(float(scale[0]) - 2.0) < 1e-6
    assert abs(float(shift[0]) - 3.0) < 1e-6


# ---------------------------------------------------------------------------
# graph construction and validation

def test_graph_rejects_duplicate_names():
    layers = [conv2d_layer("a", 1, 1, 1), activation_layer("a", "relu")]
    with pytest.raises(GraphError, match="duplicate"):
        NetworkGraph(layers, in_channels=1)


def test_graph_rejects_channel_mismatch_naming_layer():
    layers = [conv2d_layer("head", 3, 8, 3),
              conv2d_layer("tail", 4, 2, 3)]
    with pytest.raises(GraphError, match="tail"):
        NetworkGraph(layers, in_channels=3)


def test_graph_rejects_unknown_skip_source():
    layers = [conv2d_layer("head", 1, 1, 3),
              residual_add_layer("add", source="ghost")]
    with pytest.raises(GraphError, match="ghost"):
        NetworkGraph(layers, in_channels=1)


@pytest.mark.parametrize("make, match", [
    (lambda: Layer("bogus", "l"), "unknown layer kind 'bogus'"),
    (lambda: NetworkGraph([], in_channels=0), "in_channels must be >= 1, "
                                              "got 0"),
    (lambda: NetworkGraph([conv2d_layer("a", 3, 3, 3),
                           conv2d_layer("b", 3, 4, 3),
                           residual_add_layer("l", source="a")], 3),
     r"layer 2 \('l', residual_add\): residual source has 3 channels, "
     r"current stream has 4"),
    # a layer's geometry is the shape of its arrays
    (lambda: NetworkGraph([conv2d_layer("l", 3, 2, 3)], 2),
     r"layer 0 \('l', conv2d\): expects 3 input channels, gets 2"),
    (lambda: NetworkGraph([_conv_of((2, 2, 3, 2))], 2),
     r"layer 0 \('l', conv2d\): weights must be \(c_out, c_in, k, k\), "
     r"got \(2, 2, 3, 2\)"),
    (lambda: NetworkGraph([_conv_of((2, 2, 9))], 2),
     r"weights must be \(c_out, c_in, k, k\), got \(2, 2, 9\)"),
    (lambda: NetworkGraph([_conv_of((2, 2, 0, 0))], 2),
     r"invalid geometry k=0 stride=1 pad=1"),
    (lambda: NetworkGraph([conv2d_layer("l", 2, 2, 3, bias=np.zeros(3))], 2),
     r"layer 0 \('l', conv2d\): bias length 3 != c_out 2"),
    (lambda: NetworkGraph([conv2d_layer("l", 2, 2, 3, stride=0)], 2),
     r"layer 0 \('l', conv2d\): invalid geometry k=3 stride=0 pad=1"),
    (lambda: NetworkGraph([conv_transpose2d_layer("l", 2, 2, 4, 0, 1)], 2),
     r"layer 0 \('l', conv_transpose2d\): invalid geometry k=4 stride=0"),
    (lambda: NetworkGraph([batch_norm_layer("l", 3)], 2),
     r"layer 0 \('l', batch_norm\): normalizes 3 channels, gets 2"),
])
def test_graph_rejects_a_malformed_layer_or_graph(make, match):
    with pytest.raises(GraphError, match=match):
        make()


def _conv_of(weight_shape):
    return Layer("conv2d", "l", {"stride": 1, "pad": 1},
                 {"weight": np.zeros(weight_shape), "bias": np.zeros(2)})


def _bad_attr_cases():
    rng = np.random.default_rng(20)
    conv = lambda: conv2d_layer("l", 2, 2, 3)
    deconv = lambda: conv_transpose2d_layer("l", 2, 2, 4, scale=2, pad=1)
    bn = lambda: batch_norm_layer("l", 2, _bn(2, rng))
    return [
        (conv, "stride", 0), (conv, "stride", 1.5), (conv, "pad", -1),
        (conv, "stride", True), (conv, "pad", True),
        (deconv, "scale", 0), (deconv, "scale", True),
        # k=4 pad=0 cannot give a x2 transposed output; 4 channels cannot
        # shuffle by 3
        (deconv, "pad", 0),
        (lambda: pixel_shuffle_layer("l", 2), "r", 3),
        (lambda: pixel_shuffle_layer("l", 2), "r", 0),
        (lambda: pixel_shuffle_layer("l", 2), "r", 2.0),
        (lambda: pixel_shuffle_layer("l", 2), "r", True),
        (lambda: bilinear_up_layer("l", 2.0), "scale", 0.0),
        (lambda: bilinear_up_layer("l", 2.0), "scale", float("nan")),
        (lambda: bilinear_up_layer("l", 2.0), "scale", "2"),
        (lambda: activation_layer("l", "relu"), "fn", "gelu"),
        (bn, "eps", 0.0), (bn, "eps", None), (bn, "eps", float("nan")),
        (lambda: activation_layer("l", "leaky_relu"), "alpha", "abc"),
        (lambda: activation_layer("l", "leaky_relu"), "alpha", float("nan")),
        (lambda: activation_layer("l", "tanh"), "scale", float("inf")),
    ]


@pytest.mark.parametrize("make,key,value", _bad_attr_cases())
def test_graph_rejects_bad_attributes_at_construction(make, key, value):
    layer = make()
    if value is None:
        del layer.attrs[key]
    else:
        layer.attrs[key] = value
    # pixel_shuffle needs 4 input channels to be valid with r=2
    c = 4 if layer.kind == "pixel_shuffle" else 2
    with pytest.raises(GraphError, match=r"layer 0 \('l'"):
        NetworkGraph([layer], in_channels=c)


@pytest.mark.parametrize("make, name, value", [
    (lambda v: conv2d_layer("c", 3, 4, 3, stride=v), "stride", 1.7),
    (lambda v: conv2d_layer("c", 3, 4, 3, stride=v), "stride", True),
    (lambda v: conv2d_layer("c", 3, 4, 3, pad=v), "pad", 0.9),
    (lambda v: conv2d_layer("c", v, 4, 3), "c_in", 3.0),
    (lambda v: conv2d_layer("c", 3, 4, v), "k", 2.5),
    (lambda v: conv_transpose2d_layer("t", 2, 2, 4, v, 1), "scale", 2.5),
    (lambda v: batch_norm_layer("bn", v), "c", 2.5),
    (lambda v: pixel_shuffle_layer("p", v), "r", 2.6),
    (lambda v: NetworkGraph([], in_channels=v), "in_channels", 2.5),
])
def test_constructors_reject_non_integer_counts(make, name, value):
    # int() would store stride=1.7 as 1 and pad=0.9 as 0
    with pytest.raises(ShapeError, match=f"{name} must be an integer, "
                                         f"got {value!r}"):
        make(value)


@pytest.mark.parametrize("make, match", [
    (lambda: conv2d_layer("c", 2, 3, 3, weights=np.zeros((3, 2, 1, 1))),
     r"weights \(3, 2, 1, 1\) != declared \(3, 2, 3, 3\)"),
    (lambda: conv_transpose2d_layer("t", 2, 3, 4, 2, 1,
                                    weights=np.zeros((2, 3, 4, 4))),
     r"weights \(2, 3, 4, 4\) != declared \(3, 2, 4, 4\)"),
    (lambda: batch_norm_layer("bn", 3, _bn(2, np.random.default_rng(0))),
     "2 batch-norm parameters, 3 channels"),
])
def test_constructors_reject_arrays_of_another_geometry(make, match):
    with pytest.raises(ShapeError, match=match):
        make()


def test_layers_state_their_geometry_only_in_their_arrays():
    g = NetworkGraph([conv2d_layer("c", 2, 3, 5, stride=2),
                      conv_transpose2d_layer("t", 3, 4, 4, 2, 1),
                      batch_norm_layer("bn", 4)], in_channels=2)
    assert [ly.attrs for ly in g.layers] == [
        {"stride": 2, "pad": 2}, {"scale": 2, "pad": 1}, {"eps": 1e-5}]
    assert [ly.arrays["weight"].shape for ly in g.layers[:2]] == [
        (3, 2, 5, 5), (4, 3, 4, 4)]
    assert g.count_flops((1, 2, 8, 8)).per_layer[-1]["out_shape"] == (
        1, 4, 8, 8)


def test_constructors_store_numpy_integers_as_ints():
    three = np.int64(3)
    conv = conv2d_layer("c", three, three, three, stride=np.int32(1))
    g = NetworkGraph([conv, pixel_shuffle_layer("p", np.int64(1))],
                     in_channels=three)
    assert all(type(v) is int for v in conv.attrs.values())
    assert conv.attrs["pad"] == 1 and conv.arrays["weight"].shape == (3,) * 4
    assert type(g.in_channels) is int and type(g.layers[1].attrs["r"]) is int


def test_unknown_activation_is_named_by_the_graph():
    layer = activation_layer("act", "gelu")
    with pytest.raises(GraphError, match=r"layer 0 \('act', activation\): "
                                         r"unknown activation 'gelu'"):
        NetworkGraph([layer], in_channels=1)


def _bad_array_cases():
    rng = np.random.default_rng(26)
    bn = lambda: batch_norm_layer("l", 2, _bn(2, rng))
    conv = lambda: conv2d_layer("l", 2, 2, 3)
    negative_var = np.array([1.0, -0.5], dtype=np.float32)
    return {
        "short beta": (bn, "beta", np.zeros(1)),
        "short mean": (bn, "mean", np.zeros(1)),
        "short var": (bn, "var", np.ones(1)),
        "negative var": (bn, "var", negative_var),
        "short conv bias": (conv, "bias", np.zeros(1)),
        # the arrays a layer holds must be exactly its kind's (None: drop)
        "extra conv array": (conv, "scale", np.ones(2)),
        "missing conv bias": (conv, "bias", None),
        "activation weight": (lambda: activation_layer("l", "relu"),
                              "weight", np.ones(1)),
    }


def _put(arrays, key, value):
    if value is None:
        del arrays[key]
    else:
        arrays[key] = value


@pytest.mark.parametrize("case", sorted(_bad_array_cases()))
def test_graph_rejects_bad_parameter_arrays_before_any_layer_runs(
        case, monkeypatch):
    make, key, value = _bad_array_cases()[case]
    bad = make()
    _put(bad.arrays, key, value)
    with pytest.raises(GraphError, match=r"layer 0 \('l', "):
        NetworkGraph([bad], in_channels=2)
    # the same fault put in after construction stops forward before the
    # layer ahead of it runs
    good = make()
    g = NetworkGraph([conv2d_layer("head", 2, 2, 1), good], in_channels=2)
    _put(good.arrays, key, value)
    counts = {}
    _counting(monkeypatch, conv_module, "conv2d", counts)
    with pytest.raises(GraphError, match=r"layer 1 \('l', "):
        g.forward(np.ones((1, 2, 4, 4), dtype=np.float32))
    assert counts == {}


def test_activation_runs_with_the_parameters_bound_at_plan_time():
    g = NetworkGraph([activation_layer("l", "leaky_relu", alpha=0.5,
                                       scale=2.0)], in_channels=1)
    x = np.array([-1.0, 3.0], dtype=np.float32).reshape(1, 1, 1, 2)
    assert g.forward(x).ravel().tolist() == [-1.0, 6.0]


def test_graph_rejects_wrong_input_channels_at_forward():
    g = NetworkGraph([conv2d_layer("c", 3, 4, 3)], in_channels=3)
    with pytest.raises((GraphError, ShapeError)):
        g.forward(np.zeros((1, 2, 8, 8), dtype=np.float32))


def test_forward_identity_conv():
    w = np.zeros((2, 2, 1, 1), dtype=np.float32)
    w[0, 0] = w[1, 1] = 1.0
    g = NetworkGraph([conv2d_layer("id", 2, 2, 1, weights=w)], in_channels=2)
    x = np.random.default_rng(2).random((1, 2, 5, 5), dtype=np.float32)
    assert np.allclose(g.forward(x), x, atol=1e-7)


def test_forward_backends_agree_and_are_deterministic():
    rng = np.random.default_rng(3)
    g = init_random(NetworkGraph([
        conv2d_layer("c1", 3, 6, 3),
        batch_norm_layer("b1", 6, _bn(6, rng)),
        activation_layer("a1", "leaky_relu"),
        maxpool2_layer("p1"),
        conv2d_layer("c2", 6, 4, 3),
        bilinear_up_layer("u1"),
    ], in_channels=3), seed=4)
    x = rng.random((2, 3, 12, 12), dtype=np.float32)
    out_g = g.forward(x, backend="gemm")
    assert out_g.shape == (2, 4, 12, 12)
    assert np.array_equal(out_g, g.forward(x, backend="gemm"))
    for backend in ("naive", "winograd"):
        dev = np.max(np.abs(g.forward(x, backend=backend) - out_g))
        assert dev / max(float(np.max(np.abs(out_g))), 1e-6) < 1e-4


def test_residual_add_source():
    rng = np.random.default_rng(5)
    g = init_random(NetworkGraph([
        conv2d_layer("c1", 2, 2, 3),
        conv2d_layer("c2", 2, 2, 3),
        residual_add_layer("add", source="c1"),
    ], in_channels=2), seed=6)
    x = rng.random((1, 2, 6, 6), dtype=np.float32)
    out = g.forward(x)
    assert out.shape == (1, 2, 6, 6)
    # replay by hand through the public ops
    y1 = g.layers[0]
    from vsrkit import ConvKernel
    k1 = ConvKernel(y1.arrays["weight"], y1.arrays["bias"], pad=1)
    k2 = ConvKernel(g.layers[1].arrays["weight"], g.layers[1].arrays["bias"],
                    pad=1)
    a = conv2d(x, k1)
    b = conv2d(a, k2) + a
    assert np.allclose(out, b, atol=1e-6)


def _kind_cases():
    """One small graph per layer kind, its layer last: (layers, in_channels)."""
    rng = np.random.default_rng(21)
    stem = lambda: [conv2d_layer("a", 3, 3, 3), conv2d_layer("b", 3, 3, 3)]
    return {
        "conv2d": ([conv2d_layer("l", 3, 4, 3, stride=2)], 3),
        "conv_transpose2d": ([conv_transpose2d_layer("l", 3, 2, 4, scale=2,
                                                     pad=1)], 3),
        "batch_norm": ([batch_norm_layer("l", 3, _bn(3, rng))], 3),
        "activation": ([activation_layer("l", "leaky_relu")], 3),
        "maxpool2": ([maxpool2_layer("l")], 3),
        "bilinear_up": ([bilinear_up_layer("l", 1.5)], 3),
        "pixel_shuffle": ([pixel_shuffle_layer("l", 2)], 8),
        "residual_add": (stem() + [residual_add_layer("l", source="a")], 3),
    }


@pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
def test_shape_rule_matches_execution_for_every_kind(kind):
    # forward runs each kind's step after its shape rule; this pins the
    # step's real output shape to the rule on an odd-sized input
    cases = _kind_cases()
    assert set(cases) == set(LAYER_KINDS)
    layers, c = cases[kind]
    assert layers[-1].kind == kind
    g = init_random(NetworkGraph(layers, in_channels=c), seed=22)
    x = np.random.default_rng(23).random((2, c, 7, 9), dtype=np.float32)
    want = g.count_flops(x.shape).per_layer[-1]["out_shape"]
    for backend in BACKENDS:
        assert g.forward(x, backend).shape == want, backend


def _counting(monkeypatch, module, name, counts):
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_forward_checks_every_shape_rule_before_running_a_layer(monkeypatch):
    # 7x9 -> 4x5 -> 8x10: only the add can see the mismatch, and it is
    # found before the conv runs
    g = NetworkGraph([conv2d_layer("down", 3, 3, 3, stride=2),
                      bilinear_up_layer("up", 2.0),
                      residual_add_layer("add", source="down")], in_channels=3)
    counts = {}
    _counting(monkeypatch, conv_module, "conv2d", counts)
    x = np.zeros((1, 3, 7, 9), dtype=np.float32)
    with pytest.raises(GraphError, match=r"layer 2 \('add', residual_add\): "
                                         r"source 'down' is 4x5, stream is "
                                         r"8x10"):
        g.forward(x)
    assert counts == {}


@pytest.mark.parametrize("scale, backend, error, match", [
    (0.05, "gemm", GraphError,
     r"layer 1 \('up', bilinear_up\): resize to 0x0 is empty"),
    (2.0, "bogus", ValueError, "unknown backend 'bogus'"),
])
def test_forward_rejects_a_size_or_backend_before_running_a_layer(
        monkeypatch, scale, backend, error, match):
    g = NetworkGraph([conv2d_layer("c", 3, 3, 3),
                      bilinear_up_layer("up", scale)], in_channels=3)
    counts = {}
    _counting(monkeypatch, conv_module, "conv2d", counts)
    with pytest.raises(error, match=match):
        g.forward(np.zeros((1, 3, 7, 9), dtype=np.float32), backend)
    assert counts == {}


def test_forward_looks_kernels_up_in_their_modules(monkeypatch):
    # perfbench times layers by rebinding these module attributes; a step
    # that held on to the function it first saw would escape its spans
    g = init_random(NetworkGraph([conv2d_layer("c1", 3, 4, 3),
                                  batch_norm_layer("b1", 4),
                                  activation_layer("a1", "relu"),
                                  conv2d_layer("c2", 4, 2, 3),
                                  activation_layer("a2", "leaky_relu")],
                                 in_channels=3), seed=24)
    x = np.random.default_rng(25).random((1, 3, 6, 8), dtype=np.float32)
    want = g.forward(x)
    counts = {}
    for module, name in ((conv_module, "conv2d"),
                         (conv_module, "activation"),
                         (graph_module, "batchnorm_forward")):
        _counting(monkeypatch, module, name, counts)
    assert np.array_equal(g.forward(x), want)
    assert counts == {"conv2d": 2, "activation": 2, "batchnorm_forward": 1}


# ---------------------------------------------------------------------------
# fusion

def _conv_bn_graph(rng, with_skip=False):
    layers = [conv2d_layer("c1", 3, 5, 3,
                           weights=rng.standard_normal((5, 3, 3, 3))
                           .astype(np.float32),
                           bias=rng.standard_normal(5).astype(np.float32)),
              batch_norm_layer("b1", 5, _bn(5, rng)),
              activation_layer("a1", "relu")]
    if with_skip:
        layers.append(residual_add_layer("skip", source="c1"))
    return NetworkGraph(layers, in_channels=3)


def test_fusion_preserves_forward_within_tolerance():
    rng = np.random.default_rng(7)
    g = _conv_bn_graph(rng)
    fused = fuse_conv_bn(g)
    assert len(fused.layers) == 2
    x = rng.random((2, 3, 9, 9), dtype=np.float32)
    ref = g.forward(x)
    dev = np.max(np.abs(fused.forward(x) - ref))
    assert dev / max(float(np.max(np.abs(ref))), 1e-6) <= 1e-5


def test_fusion_is_idempotent_and_pure():
    rng = np.random.default_rng(8)
    g = _conv_bn_graph(rng)
    before = [l.copy() for l in g.layers]
    fused = fuse_conv_bn(g)
    # source graph untouched
    for old, cur in zip(before, g.layers):
        for key in old.arrays:
            assert np.array_equal(old.arrays[key], cur.arrays[key])
    again = fuse_conv_bn(fused)
    assert [l.name for l in again.layers] == [l.name for l in fused.layers]
    for la, lb in zip(again.layers, fused.layers):
        for key in la.arrays:
            assert np.array_equal(la.arrays[key], lb.arrays[key])


def test_fusion_keeps_skip_referenced_conv_output():
    # the add reads the conv's pre-BN output, so folding the BN into the
    # conv would change it; the BN stays a BN
    rng = np.random.default_rng(10)
    g = _conv_bn_graph(rng, with_skip=True)
    fused = fuse_conv_bn(g)
    assert [l.kind for l in fused.layers] == [l.kind for l in g.layers]
    x = rng.random((1, 3, 8, 8), dtype=np.float32)
    assert np.array_equal(fused.forward(x), g.forward(x))


def test_fusion_converts_standalone_bn():
    rng = np.random.default_rng(11)
    g = NetworkGraph([batch_norm_layer("b", 3, _bn(3, rng)),
                      activation_layer("a", "relu")], in_channels=3)
    fused = fuse_conv_bn(g)
    assert [l.kind for l in fused.layers] == ["batch_norm", "activation"]
    x = rng.random((1, 3, 4, 4), dtype=np.float32)
    assert np.array_equal(fused.forward(x), g.forward(x))


def test_fusion_rewires_downstream_skip_names():
    rng = np.random.default_rng(12)
    g = NetworkGraph([
        conv2d_layer("c1", 2, 4, 3,
                     weights=rng.standard_normal((4, 2, 3, 3))
                     .astype(np.float32)),
        batch_norm_layer("b1", 4, _bn(4, rng)),
        conv2d_layer("c2", 4, 4, 3,
                     weights=rng.standard_normal((4, 4, 3, 3))
                     .astype(np.float32)),
        residual_add_layer("add", source="b1"),
    ], in_channels=2)
    fused = fuse_conv_bn(g)
    assert len(fused.layers) == len(g.layers) - 1
    x = rng.random((1, 2, 7, 7), dtype=np.float32)
    ref = g.forward(x)
    dev = np.max(np.abs(fused.forward(x) - ref))
    assert dev / max(float(np.max(np.abs(ref))), 1e-6) <= 1e-5


# ---------------------------------------------------------------------------
# parameter and operation counting

def test_count_params_examples():
    assert NetworkGraph([], in_channels=3).count_params() == 0
    g = NetworkGraph([conv2d_layer("c", 1, 64, 5)], in_channels=1)
    assert g.count_params() == 1 * 64 * 25 + 64  # 1664
    g2 = NetworkGraph([batch_norm_layer("b", 7)], in_channels=7)
    assert g2.count_params() == 4 * 7


def test_count_flops_single_element_conv():
    g = NetworkGraph([conv2d_layer("c", 1, 1, 1, pad=0)], in_channels=1)
    rep = g.count_flops((1, 1, 1, 1))
    assert rep.macs == 1
    assert rep.flops == 2


def test_count_flops_conv_example():
    # 1->64 channels, kernel 5, same padding, 800x800 grid
    g = NetworkGraph([conv2d_layer("c", 1, 64, 5)], in_channels=1)
    rep = g.count_flops((1, 1, 800, 800))
    assert rep.macs == 1 * 25 * 64 * 800 * 800  # 1_024_000_000
    assert rep.macs == 1_024_000_000


@pytest.mark.parametrize("shape", [(1, 2, 16.7, 16), (1, 2, 16, True),
                                   (1.0, 2, 16, 16)])
def test_count_flops_rejects_non_integer_sizes(shape):
    # int() would count (1, 2, 16.7, 16) as 16x16
    g = NetworkGraph([conv2d_layer("c", 2, 3, 3)], in_channels=2)
    with pytest.raises(ShapeError, match="input_shape must be an integer"):
        g.count_flops(shape)


def test_count_flops_scales_with_area():
    g = NetworkGraph([conv2d_layer("c", 2, 3, 3)], in_channels=2)
    small = g.count_flops((1, 2, 32, 32)).macs
    large = g.count_flops((1, 2, 64, 64)).macs
    assert large == 4 * small


def test_count_flops_pointwise_layers():
    rng = np.random.default_rng(13)
    g = NetworkGraph([
        batch_norm_layer("b", 2, _bn(2, rng)),
        activation_layer("a", "relu"),
        maxpool2_layer("p"),
    ], in_channels=2)
    rep = g.count_flops((1, 2, 4, 4))
    # BN is counted as one MAC per element
    assert rep.macs == 2 * 4 * 4
    # activation on 2x4x4 plus pooling on the 2x2x2 output
    assert rep.pointwise_ops == 2 * 4 * 4 + 2 * 2 * 2
    assert rep.mac_total == rep.macs + rep.pointwise_ops


def test_count_flops_reports_per_layer_shapes():
    g = NetworkGraph([conv2d_layer("c", 1, 2, 3), maxpool2_layer("p")],
                     in_channels=1)
    rep = g.count_flops((1, 1, 8, 8))
    assert rep.per_layer[0]["out_shape"] == (1, 2, 8, 8)
    assert rep.per_layer[1]["out_shape"] == (1, 2, 4, 4)
    assert g.count_flops((1, 1, 8, 8)).mac_total == rep.mac_total


def test_fused_graph_has_no_more_params():
    rng = np.random.default_rng(14)
    g = _conv_bn_graph(rng)
    assert fuse_conv_bn(g).count_params() <= g.count_params()


def test_init_random_is_seeded_and_fills_convs():
    g = NetworkGraph([conv2d_layer("c", 2, 3, 3),
                      batch_norm_layer("b", 3)], in_channels=2)
    a = init_random(g, seed=42)
    b = init_random(g, seed=42)
    c = init_random(g, seed=43)
    assert np.array_equal(a.layers[0].arrays["weight"],
                          b.layers[0].arrays["weight"])
    assert not np.array_equal(a.layers[0].arrays["weight"],
                              c.layers[0].arrays["weight"])
    assert float(np.abs(a.layers[0].arrays["weight"]).sum()) > 0
    # source graph keeps its zero weights
    assert float(np.abs(g.layers[0].arrays["weight"]).sum()) == 0.0
