"""The benchmark's workloads and the constants both processes share.

Sizes are (width, height) of the frames the program reads. ``frames`` is
the length of one pass: the sequence a single ``vsrkit upscale`` or
``vsrkit eval`` call would process.
"""

WORKLOADS = {
    # The configuration the README recommends: fused batch-norm, gemm
    # backend. conv2d_gemm takes most of each frame, so it exercises the
    # im2col lowering and the BLAS matmul.
    "vsr-gemm": {"name": "vsr-gemm", "kind": "vsr", "backend": "gemm",
                 "fuse": True, "size": (128, 96), "scale": 4, "frames": 2,
                 "check_backend": "winograd"},
    # Same model unfused on winograd at a small size: no gemm call at all
    # (every egvsr conv is 3x3, stride 1), batch-norm runs as its own
    # layer, and per-call overhead (filter transform, dispatch) weighs more.
    "vsr-winograd": {"name": "vsr-winograd", "kind": "vsr",
                     "backend": "winograd", "fuse": False, "size": (64, 48),
                     "scale": 4, "frames": 3, "check_backend": "gemm"},
    # Quality metrics on HR frames: no graph, warp as single-channel
    # Lucas-Kanade steps, conv2d as thin stride-2 perceptual convs.
    "eval-metrics": {"name": "eval-metrics", "kind": "eval",
                     "size": (512, 384), "frames": 8},
}

# frames the untimed cross-backend check re-runs on the other fast backend
CHECK_PREFIX = 2

# the repo's pipeline-level agreement bound between conv backends
# (norm-relative: max |a - b| / max |b|)
PIPELINE_TOL = 5e-3

# fresh processes whose set-up time is measured in one run; the median
# is reported
SETUP_SAMPLES = 7
