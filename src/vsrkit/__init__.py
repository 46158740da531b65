"""vsrkit: a self-contained CNN inference engine and recurrent video
super-resolution toolkit with quality metrics and throughput estimation."""

from .tensor import (
    DTYPE,
    NonFiniteError,
    ShapeError,
    bilinear_resize,
    concat_channels,
    pad_zero,
    pixel_shuffle,
    space_to_depth,
)
from .conv import (
    BACKENDS,
    ConvKernel,
    activation,
    conv2d,
    conv2d_gemm,
    conv2d_naive,
    conv2d_winograd,
    conv_transpose2d,
    im2col,
    maxpool2,
)
from .graph import (
    BatchNormParams,
    GraphError,
    Layer,
    NetworkGraph,
    Plan,
    activation_layer,
    batch_norm_layer,
    batchnorm_forward,
    bilinear_up_layer,
    conv2d_layer,
    conv_transpose2d_layer,
    fuse_conv_bn,
    init_random,
    maxpool2_layer,
    pixel_shuffle_layer,
    residual_add_layer,
)
from .models import (
    build_control_srnet,
    build_fnet,
    build_generator,
    build_srnet,
)
from .pipeline import (estimate_flow, model_geometry, plan_sequence,
                       vsr_run, vsr_step, warp)
from .metrics import (
    FlowResult,
    MetricRecord,
    RandomFeatureDistance,
    ScoreWeights,
    default_perceptual_distance,
    dense_flow,
    evaluate_sequence,
    luma,
    normalize_metric,
    psnr,
    quality_score,
    score_table,
    ssim,
    tlp,
    tof,
)
from .bench import (
    BenchResult,
    FpgaProfile,
    conv_flops,
    conventions,
    emit_report,
    fpga_max_flops,
    fpga_table,
    theoretical_fps,
    time_pipeline,
)
from .model_io import ModelFormatError, load_bundle, save_model
from .frame_io import (
    FrameFormatError,
    read_f32,
    read_ppm,
    read_sequence,
    write_f32,
    write_ppm,
    write_sequence,
)

__version__ = "0.1.0"
