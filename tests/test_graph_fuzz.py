"""Seeded random graphs: batch-norm fusion keeps outputs, is idempotent and
folds every batch-norm it may, and each planned step gives the output shape
its cost row states."""

import numpy as np

from vsrkit import (
    NetworkGraph,
    activation_layer,
    batch_norm_layer,
    conv2d_layer,
    conv_transpose2d_layer,
    fuse_conv_bn,
    init_random,
    load_bundle,
    residual_add_layer,
    save_model,
)

# shapes of graph the generator must reach; see _features
FEATURES = ("bn first", "bn after activation", "bn after conv_transpose2d",
            "conv-bn-bn-bn", "skip reads conv", "skip reads bn mid-run",
            "skip reads bn end of run", "skip after resize")


def _random_graph(rng):
    """A valid graph of conv -> bn runs (length 0-3), standalone batch-norms,
    activations, up to two x2 conv_transpose2d and residual_add skips whose
    sources are conv and batch-norm outputs at several depths; a 1x1 conv
    matches the stream to a source of another width."""
    c = in_c = int(rng.integers(1, 4))
    layers, sources = [], []      # sources: (name, channels) at this size
    ups = 0

    def add(layer, channels, source=False):
        nonlocal c
        layers.append(layer)
        c = channels
        if source:
            sources.append((layer.name, c))

    def bn_run(lo, hi):
        for _ in range(int(rng.integers(lo, hi + 1))):
            add(batch_norm_layer(f"b{len(layers)}", c), c, source=True)

    bn_run(0, 1)
    for _ in range(int(rng.integers(2, 7))):
        op = rng.choice(["conv", "conv", "act", "up", "skip", "skip"])
        out = int(rng.integers(1, 6))
        if op == "conv":
            k = int(rng.choice([1, 3]))
            add(conv2d_layer(f"c{len(layers)}", c, out, k), out, source=True)
            bn_run(0, 3)
        elif op == "act":
            fn = str(rng.choice(["relu", "leaky_relu", "tanh"]))
            add(activation_layer(f"a{len(layers)}", fn), c)
            bn_run(0, 1)
        elif op == "up" and ups < 2:
            add(conv_transpose2d_layer(f"t{len(layers)}", c, out, 4, 2, 1),
                out)
            ups += 1
            sources.clear()
            bn_run(0, 2)
        elif op == "skip" and sources:
            name, sc = sources[int(rng.integers(len(sources)))]
            if sc != c:
                add(conv2d_layer(f"c{len(layers)}", c, sc, 1), sc,
                    source=True)
            add(residual_add_layer(f"r{len(layers)}", name), c)
    g = NetworkGraph(layers, in_channels=in_c)
    return init_random(g, int(rng.integers(2 ** 31)))


def _features(g):
    """Which of FEATURES graph ``g`` shows."""
    kinds = [ly.kind for ly in g.layers]
    names = [ly.name for ly in g.layers]
    seen = set()
    if kinds[:1] == ["batch_norm"]:
        seen.add("bn first")
    for i in range(1, len(kinds)):
        if kinds[i] == "batch_norm" and kinds[i - 1] in ("activation",
                                                         "conv_transpose2d"):
            seen.add(f"bn after {kinds[i - 1]}")
        if kinds[i - 3:i + 1] == ["conv2d"] + ["batch_norm"] * 3:
            seen.add("conv-bn-bn-bn")
    for ly in g.layers:
        src = ly.attrs.get("source")
        if src is None:
            continue
        j = names.index(src)
        head = j
        while head and kinds[head] == "batch_norm":
            head -= 1
        if kinds[j] == "conv2d":
            seen.add("skip reads conv")
        elif head < j and kinds[head] == "conv2d":
            seen.add("skip reads bn mid-run" if kinds[j + 1:j + 2] ==
                     ["batch_norm"] else "skip reads bn end of run")
        if "conv_transpose2d" in kinds[:j]:
            seen.add("skip after resize")
    return seen


def _same_layers(a, b):
    assert [(ly.name, ly.kind, ly.attrs) for ly in a.layers] == \
        [(ly.name, ly.kind, ly.attrs) for ly in b.layers]
    for la, lb in zip(a.layers, b.layers):
        assert la.arrays.keys() == lb.arrays.keys()
        for key in la.arrays:
            assert la.arrays[key].dtype == lb.arrays[key].dtype
            assert np.array_equal(la.arrays[key], lb.arrays[key]), la.name


def test_fusion_of_random_graphs(tmp_path):
    rng = np.random.default_rng(0)
    seen = set()
    for case in range(150):
        g = _random_graph(rng)
        seen |= _features(g)
        fused = fuse_conv_bn(g)
        x = rng.random((int(rng.integers(1, 3)), g.in_channels,
                        int(rng.integers(5, 13)), int(rng.integers(5, 13))),
                       dtype=np.float32)
        ref = g.forward(x)
        out = fused.forward(x)
        dev = float(np.max(np.abs(out - ref)))
        assert dev <= 1e-5 * max(float(np.max(np.abs(ref))), 1e-6), \
            (case, [ly.name for ly in g.layers], dev)
        _same_layers(fuse_conv_bn(fused), fused)
        referenced = fused.referenced_sources()
        for prev, ly in zip(fused.layers, fused.layers[1:]):
            assert not (ly.kind == "batch_norm" and prev.kind == "conv2d"
                        and prev.name not in referenced), (case, ly.name)
        path = tmp_path / "fused.vsm"
        save_model({"net": fused}, path)
        assert np.array_equal(load_bundle(path)["net"].forward(x), out), case
    assert seen == set(FEATURES), sorted(set(FEATURES) - seen)


def test_each_step_of_a_random_graph_gives_the_shape_of_its_cost_row():
    rng = np.random.default_rng(1)
    for case in range(150):
        g = _random_graph(rng)
        x = rng.random((int(rng.integers(1, 3)), g.in_channels,
                        int(rng.integers(5, 13)), int(rng.integers(5, 13))),
                       dtype=np.float32)
        plan, y, held = g.count_flops(x.shape), x, {}
        assert plan.in_shape == x.shape
        for row, step in zip(plan.per_layer, plan.steps, strict=True):
            y = held[row["name"]] = step(y, held)
            assert y.shape == row["out_shape"], (case, row)
        assert y.shape == plan.out_shape
        assert np.array_equal(y, g.forward(x)), case
