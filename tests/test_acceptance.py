"""End-to-end acceptance checks for the toolkit.

Each test prints exactly one [PASS]/[FAIL] line (run with ``pytest -s`` to
see them live). Tolerances are stated inline next to every comparison;
cross-backend pipeline tolerances were pinned empirically and are noted
where used.
"""

import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vsrkit import (
    BatchNormParams,
    ConvKernel,
    FpgaProfile,
    MetricRecord,
    NetworkGraph,
    ScoreWeights,
    activation_layer,
    batch_norm_layer,
    build_fnet,
    build_generator,
    build_srnet,
    conv2d_gemm,
    conv2d_naive,
    conv2d_winograd,
    conv2d_layer,
    default_perceptual_distance,
    dense_flow,
    fpga_max_flops,
    fuse_conv_bn,
    im2col,
    init_random,
    normalize_metric,
    psnr,
    quality_score,
    ssim,
    theoretical_fps,
    tlp,
    tof,
    vsr_run,
)
from vsrkit.cli import main as cli_main


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"[PASS] criterion {num:2d}: {desc}")


def _rel(dev, ref):
    # norm-relative deviation; denominator guarded for near-zero outputs
    return float(np.max(np.abs(dev - ref)) / max(float(np.max(np.abs(ref))), 1e-6))


# ---------------------------------------------------------------------------
# 1. control-network parameter accounting through the CLI

CONTROL_EXPECT = {
    "control-a": (29_409, [1_664, 18_464, 9_248, 33]),
    "control-b": (30_177, [1_664, 18_464, 9_248, 801]),
    "control-c": (29_673, [1_664, 18_464, 9_248, 297]),
}


def test_criterion_01_control_param_counts(tmp_path, capsys):
    with criterion(1, "inspect reports exact parameter counts for the "
                      "three control networks"):
        for arch, (total, conv_params) in CONTROL_EXPECT.items():
            path = tmp_path / f"{arch}.vsm"
            assert cli_main(["build-model", "--arch", arch, "--init", "zeros",
                             "--out", str(path)]) == 0
            capsys.readouterr()
            assert cli_main(["inspect", "--model", str(path)]) == 0
            out = capsys.readouterr().out
            layer_params = [int(m) for m in
                            re.findall(r"^ +\d+ .*params=(\d+)$", out,
                                       re.MULTILINE)]
            reported_total = int(re.search(r"total params=(\d+)", out).group(1))
            assert reported_total == total, (arch, reported_total)
            # parameterized layers in declaration order (activations carry 0)
            assert [p for p in layer_params if p > 0] == conv_params, \
                (arch, layer_params)


# ---------------------------------------------------------------------------
# 2. analytical accelerator throughput table

TFLOPS_EXPECT = [2.839e12, 0.821e12, 0.623e12, 0.264e12, 0.201e12]


def test_criterion_02_fpga_throughput_table(capsys):
    with criterion(2, "estimate-fpga table matches the reference peak "
                      "throughputs within 0.5%"):
        assert cli_main(["estimate-fpga", "--lut-total", "326080",
                         "--freq", "300e6", "--table"]) == 0
        out = capsys.readouterr().out
        got = [float(m) for m in re.findall(r"max_flops=(\S+)", out)]
        assert len(got) == len(TFLOPS_EXPECT)
        for have, want in zip(got, TFLOPS_EXPECT):
            assert abs(have - want) / want <= 5e-3, (have, want)


# ---------------------------------------------------------------------------
# 3. frame-rate projections from the peak throughput

FPS_EXPECT = [(28.55e9, 99.44), (64.06e9, 44.32), (257.01e9, 11.05)]


def test_criterion_03_fps_projections():
    with criterion(3, "theoretical frame rates for the three workloads "
                      "match within 0.1%"):
        profile = FpgaProfile(lut_total=326_080, frequency=300e6)
        peak = max(fpga_max_flops(profile, n) for n, _, _ in profile.rows)
        for fpf, want in FPS_EXPECT:
            have = theoretical_fps(peak, fpf)
            assert abs(have - want) / want <= 1e-3, (fpf, have, want)


# ---------------------------------------------------------------------------
# 4. randomized agreement across convolution backends

def test_criterion_04_backend_agreement():
    with criterion(4, "500 random convolutions: gemm within 1e-6 of naive, "
                      "winograd within 1e-4 (k=3, stride 1)"):
        rng = np.random.default_rng(20_240)
        t0 = time.perf_counter()
        wino_cases = 0
        for case in range(500):
            ci = int(rng.integers(1, 9))
            co = int(rng.integers(1, 9))
            k = int(rng.choice([1, 3, 5]))
            h = int(rng.integers(max(4, k), 18))
            w = int(rng.integers(max(4, k), 18))
            stride = int(rng.integers(1, 4))
            pad = int(rng.integers(0, k // 2 + 1))
            n = int(rng.integers(1, 3))
            kern = ConvKernel(
                rng.standard_normal((co, ci, k, k)).astype(np.float32),
                rng.standard_normal(co).astype(np.float32),
                stride=stride, pad=pad)
            x = rng.random((n, ci, h, w), dtype=np.float32)
            ref = conv2d_naive(x, kern)
            assert _rel(conv2d_gemm(x, kern), ref) <= 1e-6, case
            if k == 3 and stride == 1:
                wino_cases += 1
                assert _rel(conv2d_winograd(x, kern), ref) <= 1e-4, case
        elapsed = time.perf_counter() - t0
        assert wino_cases > 50
        assert elapsed < 60.0, elapsed


# ---------------------------------------------------------------------------
# 5. randomized conv+BN fusion equivalence

def _random_fused_graph(rng):
    layers = []
    c = int(rng.integers(1, 9))
    c_in = c
    for i in range(int(rng.integers(1, 3))):
        co = int(rng.integers(1, 9))
        k = int(rng.choice([1, 3]))
        layers.append(conv2d_layer(
            f"conv{i}", c, co, k,
            weights=rng.standard_normal((co, c, k, k)).astype(np.float32),
            bias=rng.standard_normal(co).astype(np.float32)))
        params = BatchNormParams(
            gamma=rng.uniform(0.5, 1.5, co), beta=rng.normal(0, 0.3, co),
            mean=rng.normal(0, 0.3, co), var=rng.uniform(0.2, 2.0, co))
        layers.append(batch_norm_layer(f"bn{i}", co, params))
        layers.append(activation_layer(f"act{i}", "leaky_relu"))
        c = co
    return NetworkGraph(layers, in_channels=c_in)


def test_criterion_05_fusion_equivalence():
    with criterion(5, "200 random conv+BN graphs: fused forward within "
                      "1e-5, idempotent, fewer layers"):
        rng = np.random.default_rng(55)
        t0 = time.perf_counter()
        for case in range(200):
            g = _random_fused_graph(rng)
            fused = fuse_conv_bn(g)
            assert len(fused.layers) < len(g.layers), case
            x = rng.random((1, g.in_channels, int(rng.integers(5, 13)),
                            int(rng.integers(5, 13))), dtype=np.float32)
            assert _rel(fused.forward(x), g.forward(x)) <= 1e-5, case
            again = fuse_conv_bn(fused)
            assert len(again.layers) == len(fused.layers)
            assert [l.kind for l in again.layers] == \
                   [l.kind for l in fused.layers]
            for la, lb in zip(again.layers, fused.layers):
                for key in la.arrays:
                    assert np.array_equal(la.arrays[key], lb.arrays[key])
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, elapsed


# ---------------------------------------------------------------------------
# 6. im2col layout oracle

def test_criterion_06_im2col_layout():
    with criterion(6, "4x4/3x3 im2col is 4x9 and its GEMM product equals "
                      "the direct convolution exactly"):
        rng = np.random.default_rng(6)
        # integer-valued data keeps both compute paths exact in float32
        x = rng.integers(-4, 5, (1, 2, 4, 4)).astype(np.float32)
        w = rng.integers(-4, 5, (3, 2, 3, 3)).astype(np.float32)
        kern = ConvKernel(w)
        cols = im2col(x, 3)
        assert cols.shape == (4, 2 * 9)
        prod = cols @ w.reshape(3, -1).T
        direct = conv2d_naive(x, kern)
        assert np.array_equal(prod.T.reshape(1, 3, 2, 2), direct)


# ---------------------------------------------------------------------------
# 7. recurrent pipeline reproducibility across backends

def test_criterion_07_pipeline_reproducibility():
    with criterion(7, "10-frame upscale: finite, deterministic, and "
                      "consistent across all three backends"):
        t0 = time.perf_counter()
        generator = {"fnet": init_random(build_fnet(), 101),
                     "srnet": init_random(build_srnet(), 102)}
        frames = np.random.default_rng(7).random((10, 3, 64, 64),
                                                 dtype=np.float32)
        out_a = vsr_run(generator, frames, backend="gemm")
        out_b = vsr_run(generator, frames, backend="gemm")
        assert out_a.shape == (10, 3, 256, 256)
        assert np.all(np.isfinite(out_a))
        assert np.array_equal(out_a, out_b)
        # pipeline-level tolerance pinned empirically: worst observed
        # deviation over seeds was 6.7e-4 (winograd) / 4.9e-4 (naive)
        out_w = vsr_run(generator, frames, backend="winograd")
        assert _rel(out_w, out_a) <= 5e-3
        out_n = vsr_run(generator, frames, backend="naive")
        assert _rel(out_n, out_a) <= 5e-3
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, elapsed


# ---------------------------------------------------------------------------
# 8. metric fixed points and score endpoints

def test_criterion_08_metric_fixed_points():
    with criterion(8, "temporal metrics vanish on identical sequences; "
                      "caps and score endpoints are exact"):
        rng = np.random.default_rng(88)
        seq = rng.random((3, 3, 40, 40), dtype=np.float32)
        assert tof(seq, seq.copy()) == 0.0
        assert tlp(seq, seq.copy()) == 0.0
        frame = seq[0]
        assert psnr(frame, frame.copy()) == 100.0
        assert ssim(frame, frame.copy()) == 1.0

        best = [MetricRecord("psnr", 30.0, 20.0, 30.0),
                MetricRecord("tof", 0.1, 0.1, 0.9)]
        worst = [MetricRecord("psnr", 20.0, 20.0, 30.0),
                 MetricRecord("tof", 0.9, 0.1, 0.9)]
        for rec in best:
            assert normalize_metric(rec) == 0.0
        for rec in worst:
            assert normalize_metric(rec) == 1.0
        weights = ScoreWeights.equal(("psnr", "tof"))
        assert quality_score(best, weights) == 1.0
        assert quality_score(worst, weights) == 0.0


# ---------------------------------------------------------------------------
# 9. backend and fusion performance ordering

def _best_time(fn, reps):
    return _best_times([fn], reps)[0]


def _best_times(fns, reps):
    """Best time of each of ``fns`` over ``reps`` rounds that call them in
    turn, so a change in machine speed falls on all of them alike."""
    out = [[] for _ in fns]
    for _ in range(reps):
        for fn, times in zip(fns, out):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return [min(times) for times in out]


def test_criterion_09_performance_ordering():
    with criterion(9, "gemm is at least 2x faster than naive; fused "
                      "forward is not slower than unfused"):
        rng = np.random.default_rng(9)
        x = rng.random((1, 64, 128, 128), dtype=np.float32)
        kern = ConvKernel(rng.standard_normal((64, 64, 3, 3)).astype(np.float32),
                          pad=1)
        conv2d_gemm(x, kern)  # warm the BLAS path
        t_gemm = _best_time(lambda: conv2d_gemm(x, kern), 3)
        t_naive = _best_time(lambda: conv2d_naive(x, kern), 3)
        assert t_naive >= 2.0 * t_gemm, (t_naive, t_gemm)

        fnet = init_random(build_fnet(), 11)
        fused = fuse_conv_bn(fnet)
        xin = rng.random((1, 6, 64, 64), dtype=np.float32)
        fnet.forward(xin)
        fused.forward(xin)
        t_unfused, t_fused = _best_times([lambda: fnet.forward(xin),
                                          lambda: fused.forward(xin)], 7)
        # machine-dependent; 5% allowance absorbs scheduler noise
        assert t_fused <= 1.05 * t_unfused, (t_fused, t_unfused)


# ---------------------------------------------------------------------------
# 10. declared exclusions and composition oracles

def test_criterion_10_exclusions_and_composition():
    with criterion(10, "trained-model quality tables and absolute device "
                       "frame rates are out of scope; composed temporal "
                       "metrics match their building blocks"):
        # No trained weights ship with the package and no hardware runs are
        # performed, so per-dataset quality scores and measured device frame
        # rates cannot be checked here. The metric machinery itself is
        # validated by composition instead.
        rng = np.random.default_rng(1010)
        gen = rng.random((3, 3, 40, 40), dtype=np.float32)
        ref = rng.random((3, 3, 40, 40), dtype=np.float32)

        gaps = []
        for t in range(1, gen.shape[0]):
            fg = dense_flow(gen[t - 1], gen[t]).flow
            fr = dense_flow(ref[t - 1], ref[t]).flow
            gaps.append(float(np.mean(np.abs(fg - fr))))
        assert abs(tof(gen, ref) - float(np.mean(gaps))) <= 1e-9

        pd = default_perceptual_distance()
        gaps = [abs(pd.distance(gen[t - 1], gen[t])
                    - pd.distance(ref[t - 1], ref[t]))
                for t in range(1, gen.shape[0])]
        assert abs(tlp(gen, ref) - float(np.mean(gaps))) <= 1e-9


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
