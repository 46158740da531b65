"""Layer graphs: representation, forward execution, batch-norm fusion and
parameter/MAC accounting.

A :class:`NetworkGraph` is an ordered list of layers executed sequentially.
Skip connections are expressed by ``residual_add`` layers that reference an
earlier layer's output by name. Channel compatibility, weight
shapes, parameter arrays and layer attributes are validated eagerly at
construction; spatial constraints are checked when an actual input size is
known (forward or cost analysis). Each layer kind is described once: its
row of ``LAYER_KINDS`` and its rule in ``NetworkGraph._infer``.

Graphs are immutable by convention after construction: the fusion pass and
every other transform returns a new graph and never mutates its input.
"""
from __future__ import annotations

import logging
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import conv as convops
from . import tensor as tops
from .conv import ConvKernel
from .tensor import DTYPE, ShapeError, check_int

log = logging.getLogger(__name__)

# kind -> (id written into .vsm headers, integer attributes, parameter
# arrays in file order). The ids are part of the file format: retired kinds
# keep theirs (7 space_to_depth, 8 concat, 10 interpolation_resize), and
# those ids are never reused. Channel counts and kernel sizes are the shapes
# of the arrays; attributes a row does not list are carried through unread.
LAYER_KINDS = {
    "conv2d": (0, ("stride", "pad"), ("weight", "bias")),
    "conv_transpose2d": (1, ("scale", "pad"), ("weight", "bias")),
    "batch_norm": (2, (), ("gamma", "beta", "mean", "var")),
    "activation": (3, (), ()),
    "maxpool2": (4, (), ()),
    "bilinear_up": (5, (), ()),
    "pixel_shuffle": (6, ("r",), ()),
    "residual_add": (9, (), ()),
}


def _physical_bytes() -> float:
    """The machine's physical memory in bytes; infinite where the OS does
    not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


# no layer output may be larger: a plan past it fails before any layer runs
PHYSICAL_BYTES = _physical_bytes()


class GraphError(ValueError):
    """Raised for malformed graphs or execution failures (names the layer)."""


@dataclass
class Layer:
    """One graph node: a kind tag, scalar attributes, and weight arrays."""

    kind: str
    name: str
    attrs: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise GraphError(f"unknown layer kind {self.kind!r}")
        for key, arr in self.arrays.items():
            self.arrays[key] = np.asarray(arr, dtype=DTYPE)

    def copy(self) -> "Layer":
        return Layer(self.kind, self.name, dict(self.attrs),
                     {k: v.copy() for k, v in self.arrays.items()})

    def param_count(self) -> int:
        """Stored parameter elements (weights, biases, per-channel stats)."""
        return int(sum(a.size for a in self.arrays.values()))


@dataclass
class BatchNormParams:
    """Inference-mode batch-norm parameters for one channel axis."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=DTYPE).ravel()
        self.beta = np.asarray(self.beta, dtype=DTYPE).ravel()
        self.mean = np.asarray(self.mean, dtype=DTYPE).ravel()
        self.var = np.asarray(self.var, dtype=DTYPE).ravel()
        sizes = [a.size for a in (self.gamma, self.beta, self.mean, self.var)]
        if len(set(sizes)) > 1:
            raise ShapeError("batch-norm gamma, beta, mean and var must share "
                             f"one length, got {sizes}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if np.any(self.var < 0):
            raise ValueError("variance must be non-negative")

    @property
    def channels(self) -> int:
        return self.gamma.size

    def affine(self) -> tuple:
        """Float64 per-channel (scale, shift) with bn(x) = scale*x + shift:
        scale = gamma/sqrt(var + eps), shift = beta - mean*scale."""
        scale = (self.gamma.astype(np.float64)
                 / np.sqrt(self.var.astype(np.float64) + self.eps))
        shift = self.beta.astype(np.float64) - self.mean.astype(np.float64) * scale
        return scale, shift


def _check(ok: bool, msg: str) -> None:
    if not ok:
        raise GraphError(msg)


# ---------------------------------------------------------------------------
# layer constructors

def _conv_layer(kind, name, c_in, c_out, k, ints, weights, bias) -> Layer:
    shape = tuple(check_int(v, key, 1) for key, v in
                  (("c_out", c_out), ("c_in", c_in), ("k", k), ("k", k)))
    weights = np.zeros(shape, DTYPE) if weights is None else weights
    if np.shape(weights) != shape:
        raise ShapeError(f"weights {np.shape(weights)} != declared {shape}")
    bias = np.zeros(shape[0], DTYPE) if bias is None else bias
    return Layer(kind, name, {key: check_int(v, key) for key, v in ints.items()},
                 {"weight": weights, "bias": bias})


def conv2d_layer(name, c_in, c_out, k, stride=1, pad=None,
                 weights=None, bias=None) -> Layer:
    """3x3-style convolution layer; ``pad`` defaults to k//2 ("same")."""
    if pad is None:
        pad = check_int(k, "k") // 2
    return _conv_layer("conv2d", name, c_in, c_out, k,
                       dict(stride=stride, pad=pad), weights, bias)


def conv_transpose2d_layer(name, c_in, c_out, k, scale, pad,
                           weights=None, bias=None) -> Layer:
    return _conv_layer("conv_transpose2d", name, c_in, c_out, k,
                       dict(scale=scale, pad=pad), weights, bias)


def batch_norm_layer(name, c, params: BatchNormParams | None = None) -> Layer:
    c = check_int(c, "c", 1)
    if params is None:
        params = BatchNormParams(np.ones(c), np.zeros(c), np.zeros(c),
                                 np.ones(c))
    elif params.channels != c:
        raise ShapeError(f"{params.channels} batch-norm parameters, {c} channels")
    return Layer("batch_norm", name, {"eps": float(params.eps)},
                 {"gamma": params.gamma, "beta": params.beta,
                  "mean": params.mean, "var": params.var})


def activation_layer(name, kind, alpha: float = 0.2, scale: float = 1.0) -> Layer:
    return Layer("activation", name,
                 {"fn": kind, "alpha": float(alpha), "scale": float(scale)})


def maxpool2_layer(name) -> Layer:
    return Layer("maxpool2", name)


def bilinear_up_layer(name, scale: float = 2.0) -> Layer:
    return Layer("bilinear_up", name, {"scale": float(scale)})


def pixel_shuffle_layer(name, r: int) -> Layer:
    return Layer("pixel_shuffle", name, {"r": check_int(r, "r", 1)})


def residual_add_layer(name, source: str) -> Layer:
    return Layer("residual_add", name, {"source": source})


# ---------------------------------------------------------------------------
# batch-norm math

def batchnorm_forward(x: np.ndarray, p: BatchNormParams) -> np.ndarray:
    """Per-channel affine map gamma*(x - mean)/sqrt(var + eps) + beta."""
    x = tops.check_tensor(x, "batch-norm input")
    if x.shape[1] != p.channels:
        raise ShapeError(f"input has {x.shape[1]} channels, "
                         f"batch-norm params have {p.channels}")
    scale, shift = p.affine()
    out = x * scale.astype(DTYPE)[None, :, None, None]
    out += shift.astype(DTYPE)[None, :, None, None]
    return out


def _bn_params_of(layer: Layer) -> BatchNormParams:
    return BatchNormParams(layer.arrays["gamma"], layer.arrays["beta"],
                           layer.arrays["mean"], layer.arrays["var"],
                           eps=layer.attrs["eps"])


# ---------------------------------------------------------------------------
# the graph

@dataclass
class NetworkGraph:
    """Ordered layers plus the input channel contract and free-form metadata."""

    layers: list
    in_channels: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.in_channels = check_int(self.in_channels, "in_channels")
        if self.in_channels < 1:
            raise GraphError(f"in_channels must be >= 1, got {self.in_channels}")
        names = [ly.name for ly in self.layers]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise GraphError(f"duplicate layer names: {dup}")
        self._plan((1, self.in_channels, None, None))

    # -- the per-kind rule -------------------------------------------------------

    def _plan(self, in_shape: tuple, backend: str = "gemm") -> Plan:
        """Check each layer against its ``LAYER_KINDS`` row for input
        ``in_shape`` = (n, c, h, w) and return the :class:`Plan` of its
        ``_infer`` results; a failing layer raises naming it."""
        n, c, h, w = in_shape
        if c != self.in_channels:
            raise GraphError(f"graph expects {self.in_channels} input channels, "
                             f"got {c}")
        if backend not in convops.BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        seen: dict[str, tuple] = {}
        cur, plan = (c, h, w), Plan(in_shape, backend)
        for i, ly in enumerate(self.layers):
            _, ints, arrays = LAYER_KINDS[ly.kind]
            try:
                for key in ints:
                    if type(ly.attrs[key]) is not int:
                        raise GraphError(f"{key} must be an integer, got "
                                         f"{ly.attrs[key]!r}")
                if ly.arrays.keys() != set(arrays):
                    raise GraphError(f"holds arrays {sorted(ly.arrays)}, "
                                     f"expected {list(arrays)}")
                cur, macs, ops, run = self._infer(ly, cur, seen, backend)
                nbytes = (n * math.prod(cur) * np.dtype(DTYPE).itemsize
                          if h is not None else 0)
                if nbytes > PHYSICAL_BYTES:
                    raise GraphError(f"output {(n, *cur)} is {nbytes} bytes, "
                                     f"more than the {PHYSICAL_BYTES} bytes "
                                     f"of physical memory")
            except (ValueError, KeyError, TypeError) as e:
                why = f"missing {e}" if isinstance(e, KeyError) else e
                raise GraphError(
                    f"layer {i} ({ly.name!r}, {ly.kind}): {why}") from e
            seen[ly.name] = cur
            if ly.kind == "residual_add":
                plan.last_read[ly.attrs["source"]] = i
            plan.per_layer.append({"name": ly.name, "kind": ly.kind,
                                   "out_shape": (n, *cur),
                                   "params": ly.param_count(),
                                   "macs": n * macs, "pointwise_ops": n * ops})
            plan.steps.append(run)
        return plan

    @staticmethod
    def _infer(ly: Layer, cur: tuple, seen: dict, backend: str) -> tuple:
        """Check one layer for input ``cur`` = (c, h, w); return its output
        (c, h, w), MACs and pointwise ops per image, and step ``run(x, saved)``.

        With h = w = None (graph construction) only channels are inferred and
        the costs read 0. A layer's parameters are checked and bound here,
        once per plan: the step runs with the ``ConvKernel``,
        ``BatchNormParams`` or activation arguments built by this call. Steps
        look kernels up in their modules when called, so a tracer that
        rebinds ``convops.conv2d`` sees every call.
        """
        c, h, w = cur
        a = ly.attrs
        sized = h is not None
        hw = h * w if sized else 0      # rules that resize update it
        if ly.kind in ("conv2d", "conv_transpose2d"):
            key = "stride" if ly.kind == "conv2d" else "scale"
            s = check_int(a[key], key, 1)
            kern = ConvKernel(ly.arrays["weight"], ly.arrays["bias"], stride=s,
                              pad=a["pad"])
            k, p = kern.k, kern.pad
            if kern.c_in != c:
                raise ShapeError(f"expects {kern.c_in} input channels, gets {c}")
            if ly.kind == "conv2d":
                if sized:
                    h, w = convops.out_dims(h, w, k, s, p)
                    hw = h * w
                run = lambda x, saved: convops.conv2d(x, kern, backend)
            else:
                convops.check_transpose_geometry(k, s, p)
                if sized:
                    h, w = h * s, w * s
                run = lambda x, saved: convops.conv_transpose2d(x, kern)
            # c_in*k^2*c_out MACs per conv2d output, conv_transpose2d input
            return (kern.c_out, h, w), kern.weights.size * hw, 0, run
        if ly.kind == "batch_norm":
            bn = _bn_params_of(ly)
            if bn.channels != c:
                raise ShapeError(f"normalizes {bn.channels} channels, gets {c}")
            return cur, c * hw, 0, lambda x, saved: batchnorm_forward(x, bn)
        if ly.kind == "activation":
            fn, alpha, scale = a["fn"], a.get("alpha", 0.2), a.get("scale", 1.0)
            _check(fn in convops.ACTIVATIONS, f"unknown activation {fn!r}")
            for key, v in (("alpha", alpha), ("scale", scale)):
                _check(isinstance(v, numbers.Real) and math.isfinite(v),
                       f"{key} must be a finite number, got {v!r}")
            return cur, 0, c * hw, lambda x, saved: convops.activation(
                x, fn, alpha=alpha, scale=scale)
        if ly.kind == "maxpool2":
            if sized:
                h, w = (h + 1) // 2, (w + 1) // 2
                hw = h * w
            return (c, h, w), 0, c * hw, lambda x, saved: convops.maxpool2(x)
        if ly.kind == "bilinear_up":
            s = a["scale"]
            _check(0 < s < math.inf, f"scale must be finite and > 0, got {s!r}")
            if sized:
                h, w = int(round(h * s)), int(round(w * s))
                if h < 1 or w < 1:
                    raise ShapeError(f"resize to {h}x{w} is empty")
                hw = h * w
            return (c, h, w), 0, c * hw, lambda x, saved: tops.bilinear_resize(
                x, s)
        if ly.kind == "pixel_shuffle":
            r = check_int(a["r"], "r", 1)
            if c % (r * r):
                raise ShapeError(f"{c} channels not divisible by r^2={r * r}")
            if sized:
                h, w = h * r, w * r
            return (c // (r * r), h, w), 0, 0, lambda x, saved: (
                tops.pixel_shuffle(x, r))
        # residual_add
        src = seen.get(a["source"])
        if src is None:
            raise GraphError(f"source {a['source']!r} not defined earlier")
        if src[0] != c:
            raise ShapeError(f"residual source has {src[0]} channels, "
                             f"current stream has {c}")
        if src[1:] != (h, w):
            raise ShapeError(f"source {a['source']!r} is {src[1]}x{src[2]}, "
                             f"stream is {h}x{w}")
        return cur, 0, c * hw, lambda x, saved: x + saved[a["source"]]

    def referenced_sources(self) -> set:
        return {ly.attrs["source"] for ly in self.layers
                if ly.kind == "residual_add"}

    def copy(self) -> "NetworkGraph":
        return NetworkGraph([ly.copy() for ly in self.layers],
                            self.in_channels, dict(self.meta))

    # -- execution -------------------------------------------------------------

    def forward(self, x: np.ndarray, backend: str = "gemm", *,
                plan: Plan | None = None) -> np.ndarray:
        """Deterministic forward pass through the named conv backend; every
        layer's shape rule is checked before any runs, here or in ``plan``:
        a plan of this graph at x's (c, h, w) and backend, for any n."""
        x = tops.check_tensor(x, "graph input")
        plan = plan or self._plan(x.shape, backend)
        if (plan.in_shape[1:], plan.backend) != (x.shape[1:], backend):
            raise GraphError(f"plan for {plan.in_shape[1:]} on {plan.backend} "
                             f"cannot run {x.shape[1:]} on {backend}")
        return plan.run(x)

    # -- accounting --------------------------------------------------------------

    def count_params(self) -> int:
        """Total stored parameter elements across all layers."""
        return sum(ly.param_count() for ly in self.layers)

    def count_flops(self, input_shape):
        """MAC/elementwise-op accounting for one forward pass, as its
        :class:`Plan`.

        Convolutions cost c_in*out_h*out_w*k^2*c_out multiply-accumulates
        (transposed convs use their input grid); batch-norm is one MAC per
        element; activations, pooling, resizing and residual adds count one
        op per output element; pure data movement costs nothing.
        """
        return self._plan(tuple(check_int(v, "input_shape", 1)
                                for v in input_shape))


@dataclass
class Plan:
    """One forward pass of a graph at one input shape and backend: each
    layer's ``count_flops`` row and step, and each skip source's last reader."""

    in_shape: tuple
    backend: str = "gemm"
    per_layer: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    last_read: dict = field(default_factory=dict)

    @property
    def out_shape(self) -> tuple:
        return self.per_layer[-1]["out_shape"] if self.per_layer else self.in_shape

    @property
    def macs(self) -> int:
        return sum(r["macs"] for r in self.per_layer)

    @property
    def pointwise_ops(self) -> int:
        return sum(r["pointwise_ops"] for r in self.per_layer)

    @property
    def mac_total(self) -> int:
        """Headline count: MACs plus elementwise ops, each counted once."""
        return self.macs + self.pointwise_ops

    @property
    def flops(self) -> int:
        """2-FLOPs-per-MAC view of the same work."""
        return 2 * self.macs + self.pointwise_ops

    def run(self, x: np.ndarray) -> np.ndarray:
        """Run the steps on ``x``, holding a skip source's output only up to
        its last reader."""
        held: dict[str, np.ndarray] = {}
        for i, (row, step) in enumerate(zip(self.per_layer, self.steps)):
            x = step(x, held)
            held = {k: v for k, v in held.items() if self.last_read[k] > i}
            if row["name"] in self.last_read:
                held[row["name"]] = x
        return x


# ---------------------------------------------------------------------------
# fusion pass

def fuse_conv_bn(graph: NetworkGraph) -> NetworkGraph:
    """Fold each batch-norm into the conv2d emitted just before it.

    A batch-norm folds when the last layer emitted is a conv2d and no skip
    reads the output of the layer before it in ``graph``, so a conv -> bn
    -> bn run folds into one conv. With the batch-norm's per-channel
    (scale, shift) from :meth:`BatchNormParams.affine`, output channel o of
    the conv gets weights scaled by scale_o and bias b_o*scale_o + shift_o,
    and skips that read the batch-norm read the conv. Every other layer,
    including a batch-norm that cannot fold, is copied as it is. The input
    graph is never mutated; applying the pass twice equals applying it once.
    """
    referenced = graph.referenced_sources()
    out_layers: list[Layer] = []
    renames: dict[str, str] = {}
    for i, ly in enumerate(graph.layers):
        last = out_layers[-1] if out_layers else None
        if (ly.kind == "batch_norm" and last is not None
                and last.kind == "conv2d"
                and graph.layers[i - 1].name not in referenced):
            # scale that conv's copy in place
            w, b = last.arrays["weight"], last.arrays["bias"]
            scale, shift = _bn_params_of(ly).affine()
            w[...] = w.astype(np.float64) * scale[:, None, None, None]
            b[...] = b.astype(np.float64) * scale + shift
            renames[ly.name] = last.name
            continue
        ly = ly.copy()
        if ly.attrs.get("source") in renames:
            ly.attrs["source"] = renames[ly.attrs["source"]]
        out_layers.append(ly)
    if renames:
        log.debug("fused %d batch-norm layers away", len(renames))
    return NetworkGraph(out_layers, graph.in_channels, dict(graph.meta))


# ---------------------------------------------------------------------------
# weight initialization

def init_random(graph: NetworkGraph, seed: int) -> NetworkGraph:
    """Return a copy with seeded He-style random conv weights.

    Conv weights draw from N(0, 2/(c_in*k^2)); biases stay zero. A conv
    that directly feeds a residual merge is drawn 10x smaller, keeping deep
    residual trunks near unit gain so random nets stay numerically tame.
    Batch-norm layers get mildly perturbed statistics so downstream fusion
    paths are exercised with non-trivial parameters.
    """
    rng = np.random.default_rng(seed)
    g = graph.copy()
    for i, ly in enumerate(g.layers):
        if ly.kind in ("conv2d", "conv_transpose2d"):
            fan_in = ly.arrays["weight"][0].size
            std = math.sqrt(2.0 / fan_in)
            nxt = g.layers[i + 1] if i + 1 < len(g.layers) else None
            if nxt is not None and nxt.kind == "residual_add":
                std *= 0.1
            ly.arrays["weight"] = rng.normal(
                0.0, std, ly.arrays["weight"].shape).astype(DTYPE)
            ly.arrays["bias"] = np.zeros_like(ly.arrays["bias"])
        elif ly.kind == "batch_norm":
            c = ly.arrays["gamma"].size
            ly.arrays["gamma"] = rng.uniform(0.8, 1.2, c).astype(DTYPE)
            ly.arrays["beta"] = rng.normal(0.0, 0.05, c).astype(DTYPE)
            ly.arrays["mean"] = rng.normal(0.0, 0.05, c).astype(DTYPE)
            ly.arrays["var"] = rng.uniform(0.5, 1.5, c).astype(DTYPE)
    return g
