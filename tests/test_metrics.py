"""Quality metrics: fidelity, structure, temporal consistency, scoring."""

import numpy as np
import pytest
from scipy import ndimage

from vsrkit import (
    MetricRecord,
    NonFiniteError,
    RandomFeatureDistance,
    ScoreWeights,
    ShapeError,
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
from vsrkit import metrics
from vsrkit.conv import conv2d


def _smooth_image(rng, h=72, w=72):
    img = ndimage.gaussian_filter(rng.random((h, w)), 3.0)
    img = (img - img.min()) / (img.max() - img.min())
    return img.astype(np.float32)


# ---------------------------------------------------------------------------
# luma and PSNR

def test_luma_weights_and_shape():
    frame = np.zeros((1, 3, 4, 4), dtype=np.float32)
    frame[:, 0] = 1.0
    assert np.allclose(luma(frame), 0.299, atol=1e-6)
    frame[:, 0], frame[:, 1] = 0.0, 1.0
    assert np.allclose(luma(frame), 0.587, atol=1e-6)
    gray = np.full((1, 1, 4, 4), 0.3, dtype=np.float32)
    assert np.allclose(luma(gray), 0.3, atol=1e-7)


def test_psnr_uniform_difference():
    # luma difference 0.1 everywhere: MSE 0.01, 10*log10(1/0.01) = 20 dB
    a = np.zeros((1, 3, 16, 16), dtype=np.float32)
    b = np.full((1, 3, 16, 16), 0.1, dtype=np.float32)
    assert abs(psnr(a, b) - 20.0) < 1e-6


def test_psnr_caps_at_100db():
    a = np.random.default_rng(0).random((1, 3, 8, 8), dtype=np.float32)
    assert psnr(a, a.copy()) == 100.0
    b = a + np.float32(1e-7)
    assert psnr(a, b) == 100.0  # MSE below the 1e-10 floor


def test_psnr_is_symmetric_and_monotone():
    rng = np.random.default_rng(1)
    a = rng.random((1, 3, 16, 16), dtype=np.float32)
    b = rng.random((1, 3, 16, 16), dtype=np.float32)
    assert abs(psnr(a, b) - psnr(b, a)) < 1e-9
    closer = a + 0.25 * (b - a)
    assert psnr(a, closer) > psnr(a, b)


def test_psnr_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        psnr(np.zeros((1, 3, 8, 8), dtype=np.float32),
             np.zeros((1, 3, 8, 9), dtype=np.float32))


# ---------------------------------------------------------------------------
# SSIM

def test_ssim_identical_is_exactly_one():
    a = np.random.default_rng(2).random((1, 3, 24, 24), dtype=np.float32)
    assert ssim(a, a.copy()) == 1.0


def test_ssim_constant_frames_closed_form():
    # constant images have zero variance, so only the luminance term acts:
    # ssim = (2*c1*c2 + C1) / (c1^2 + c2^2 + C1)
    c1v, c2v = 0.3, 0.6
    a = np.full((1, 1, 24, 24), c1v, dtype=np.float32)
    b = np.full((1, 1, 24, 24), c2v, dtype=np.float32)
    c1 = 0.01 ** 2
    expect = (2 * c1v * c2v + c1) / (c1v ** 2 + c2v ** 2 + c1)
    assert abs(ssim(a, b) - expect) < 1e-6


def test_ssim_symmetry_and_bounds():
    rng = np.random.default_rng(3)
    a = rng.random((1, 3, 32, 32), dtype=np.float32)
    b = rng.random((1, 3, 32, 32), dtype=np.float32)
    s = ssim(a, b)
    assert abs(s - ssim(b, a)) < 1e-7
    assert -1.0 <= s <= 1.0
    assert s < ssim(a, (0.9 * a + 0.1 * b).astype(np.float32))


def test_ssim_needs_room_for_the_window():
    small = np.zeros((1, 1, 8, 8), dtype=np.float32)
    with pytest.raises(ShapeError):
        ssim(small, small.copy())


# ---------------------------------------------------------------------------
# dense flow

def test_dense_flow_identical_frames_is_near_zero():
    rng = np.random.default_rng(4)
    img = _smooth_image(rng)
    res = dense_flow(img[None], img[None].copy())
    assert float(np.max(np.abs(res.flow))) < 1e-3
    assert res.degenerate_fraction == 0.0


def test_dense_flow_recovers_two_pixel_shift():
    rng = np.random.default_rng(5)
    a = _smooth_image(rng)
    b = np.roll(a, 2, axis=1)  # content moves right by two pixels
    res = dense_flow(a[None], b[None])
    inner = res.flow[:, 16:-16, 16:-16]
    assert abs(float(np.mean(inner[0])) - 2.0) <= 0.5
    assert abs(float(np.mean(inner[1]))) <= 0.5


def test_dense_flow_recovers_vertical_shift():
    rng = np.random.default_rng(6)
    a = _smooth_image(rng)
    b = np.roll(a, -2, axis=0)  # content moves up by two pixels
    res = dense_flow(a[None], b[None])
    inner = res.flow[:, 16:-16, 16:-16]
    assert abs(float(np.mean(inner[1])) + 2.0) <= 0.5


def test_dense_flow_flags_textureless_input():
    flat = np.full((1, 40, 40), 0.5, dtype=np.float32)
    res = dense_flow(flat, flat.copy())
    assert np.all(res.flow == 0.0)
    assert res.degenerate_fraction == 1.0


def test_dense_flow_accepts_rgb_frames():
    rng = np.random.default_rng(7)
    a = np.stack([_smooth_image(rng)] * 3)
    res = dense_flow(a, a.copy())
    assert res.flow.shape == (2, 72, 72)


@pytest.mark.parametrize("shape", [(1, 1, 9), (1, 9, 1)])
def test_dense_flow_rejects_frames_thinner_than_2_pixels(shape):
    a = np.full(shape, 0.5, dtype=np.float32)
    with pytest.raises(ShapeError, match="at least 2x2 pixels"):
        dense_flow(a, a.copy())


# ---------------------------------------------------------------------------
# temporal metrics

def test_tof_zero_on_identical_sequences():
    seq = np.random.default_rng(8).random((4, 3, 40, 40), dtype=np.float32)
    assert tof(seq, seq.copy()) == 0.0


def test_tof_positive_when_motion_differs():
    rng = np.random.default_rng(9)
    base = _smooth_image(rng)
    still = np.stack([base, base]).astype(np.float32)[:, None]
    moving = np.stack([base, np.roll(base, 3, axis=1)])[:, None]
    assert tof(moving, still) > 0.5


def test_tof_needs_two_frames():
    seq = np.zeros((1, 1, 40, 40), dtype=np.float32)
    with pytest.raises(ShapeError):
        tof(seq, seq.copy())


def test_tlp_zero_on_identical_sequences():
    seq = np.random.default_rng(10).random((3, 3, 32, 32), dtype=np.float32)
    assert tlp(seq, seq.copy()) == 0.0


@pytest.mark.parametrize("t", [2, 3, 5])
def test_tlp_computes_each_frames_features_once(t, monkeypatch):
    # three conv stages per frame: 6*t calls for two t-frame sequences,
    # where a distance per pair computed an interior frame's twice
    # (24 calls at t = 3)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(metrics, "conv2d", counted)
    rng = np.random.default_rng(11)
    gen = rng.random((t, 1, 16, 16), dtype=np.float32)
    ref = rng.random((t, 1, 16, 16), dtype=np.float32)
    assert tlp(gen, ref) >= 0.0
    assert len(calls) == 6 * t


def test_perceptual_distance_axioms():
    pd = default_perceptual_distance()
    rng = np.random.default_rng(12)
    a = rng.random((3, 24, 24), dtype=np.float32)
    b = rng.random((3, 24, 24), dtype=np.float32)
    assert pd.distance(a, a.copy()) == 0.0
    assert pd.distance(a, b) == pd.distance(b, a)
    assert pd.distance(a, b) > 0.0
    # a fresh instance reproduces the same value
    fresh = RandomFeatureDistance()
    assert fresh.distance(a, b) == pd.distance(a, b)
    assert fresh.name == pd.name


# ---------------------------------------------------------------------------
# records, normalization, scoring

def test_metric_record_orientation_lookup():
    # the metric name alone fixes the orientation
    assert normalize_metric(MetricRecord("ssim", 0.9, 0.5, 0.9)) == 0.0
    assert normalize_metric(MetricRecord("tlp", 0.9, 0.5, 0.9)) == 1.0
    with pytest.raises(ValueError, match=r"unknown metric 'sharpness', "
                                         r"expected one of \['psnr', 'ssim', "
                                         r"'tlp', 'tof'\]"):
        MetricRecord("sharpness", 0.5, 0.0, 1.0)


def test_metric_record_validates_range():
    with pytest.raises(ValueError):
        MetricRecord("psnr", 35.0, 20.0, 30.0)
    with pytest.raises(ValueError):
        MetricRecord("psnr", 25.0, 30.0, 20.0)


def test_normalize_metric_endpoints_and_midpoint():
    # normalized 0 is best, 1 is worst for either orientation
    assert normalize_metric(MetricRecord("psnr", 30.0, 20.0, 30.0)) == 0.0
    assert normalize_metric(MetricRecord("psnr", 20.0, 20.0, 30.0)) == 1.0
    assert normalize_metric(MetricRecord("psnr", 25.0, 20.0, 30.0)) == 0.5
    assert normalize_metric(MetricRecord("tof", 0.1, 0.1, 0.9)) == 0.0
    assert normalize_metric(MetricRecord("tof", 0.9, 0.1, 0.9)) == 1.0


def test_normalize_metric_flat_range_is_degenerate():
    rec = MetricRecord("ssim", 0.8, 0.8, 0.8)
    assert normalize_metric(rec) == 0.0
    assert rec == MetricRecord("ssim", 0.8, 0.8, 0.8)


def test_score_weights_validation():
    with pytest.raises(ValueError):
        ScoreWeights({"psnr": 0.7, "ssim": 0.7})
    with pytest.raises(ValueError):
        ScoreWeights({"psnr": 1.5, "ssim": -0.5})
    w = ScoreWeights.equal(("psnr", "ssim", "tof", "tlp"))
    assert abs(sum(w.weights.values()) - 1.0) < 1e-12


def test_quality_score_two_metric_example():
    # normalized values 0.2 and 0.6 with equal weights: 1 - 0.4 = 0.6
    recs = [MetricRecord("psnr", 28.0, 20.0, 30.0),   # -> 0.2
            MetricRecord("tof", 0.58, 0.1, 0.9)]      # -> 0.6
    w = ScoreWeights({"psnr": 0.5, "tof": 0.5})
    assert abs(quality_score(recs, w) - 0.6) < 1e-9


def test_quality_score_requires_matching_metric_sets():
    recs = [MetricRecord("psnr", 25.0, 20.0, 30.0)]
    with pytest.raises(ValueError):
        quality_score(recs, ScoreWeights({"ssim": 1.0}))


@pytest.mark.parametrize("call, exc, match", [
    (lambda: luma(np.zeros((2, 4, 4), dtype=np.float32)), ShapeError,
     "expected 1 or 3 channels, got 2"),
    (lambda: tof(np.zeros((3, 8, 8)), np.zeros((3, 8, 8))), ShapeError,
     r"sequences must be \(t, c, h, w\)"),
    (lambda: RandomFeatureDistance().distance(np.zeros((1, 3, 8, 8)),
                                              np.zeros((1, 3, 8, 8))),
     ShapeError, r"expected one \(c, h, w\) frame, got \(1, 3, 8, 8\)"),
    (lambda: quality_score([]), ValueError, "no metric records given"),
    (lambda: score_table({}), ValueError, "empty metric table"),
    (lambda: score_table({"a": {"psnr": 30.0, "tof": 0.1},
                          "b": {"psnr": 25.0}}), ValueError,
     r"method 'b' reports metrics \['psnr'\], expected \['psnr', 'tof'\]"),
], ids=["luma-channels", "sequence-rank", "feature-rank", "no-records",
        "empty-table", "metric-sets-differ"])
def test_metric_entry_points_reject_malformed_input(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_quality_score_monotone_in_each_metric():
    w = ScoreWeights.equal(("psnr", "tof"))
    better = [MetricRecord("psnr", 29.0, 20.0, 30.0),
              MetricRecord("tof", 0.2, 0.1, 0.9)]
    worse = [MetricRecord("psnr", 21.0, 20.0, 30.0),
             MetricRecord("tof", 0.8, 0.1, 0.9)]
    assert quality_score(better, w) > quality_score(worse, w)


def test_score_table_ranks_methods():
    table = {"sharp": {"psnr": 30.0, "tof": 0.1},
             "blurry": {"psnr": 22.0, "tof": 0.4},
             "jittery": {"psnr": 28.0, "tof": 0.9}}
    scores = score_table(table, ScoreWeights.equal(("psnr", "tof")))
    assert set(scores) == set(table)
    assert scores["sharp"] == 1.0  # best on every metric
    assert scores["sharp"] > scores["jittery"]
    assert scores["blurry"] < 1.0


def test_score_table_ranking_survives_affine_rescaling():
    # normalization uses per-metric ranges, so shifting or scaling a metric
    # column leaves every score unchanged
    table = {"m1": {"psnr": 30.0, "tof": 0.3},
             "m2": {"psnr": 26.0, "tof": 0.2},
             "m3": {"psnr": 22.0, "tof": 0.8}}
    rescaled = {m: {"psnr": 5.0 * v["psnr"] + 3.0, "tof": 0.5 * v["tof"]}
                for m, v in table.items()}
    w = ScoreWeights.equal(("psnr", "tof"))
    a = score_table(table, w)
    b = score_table(rescaled, w)
    for m in table:
        assert abs(a[m] - b[m]) < 1e-9


def test_evaluate_sequence_bundles_all_metrics():
    rng = np.random.default_rng(14)
    gen = rng.random((3, 3, 40, 40), dtype=np.float32)
    out = evaluate_sequence(gen, gen.copy())
    assert out["psnr"] == 100.0
    assert out["ssim"] == 1.0
    assert out["tof"] == 0.0
    assert out["tlp"] == 0.0
    assert len(out["per_frame_psnr"]) == 3
    assert len(out["per_frame_ssim"]) == 3


def test_evaluate_sequence_returns_only_the_named_metrics():
    rng = np.random.default_rng(15)
    one = rng.random((1, 3, 40, 40), dtype=np.float32)
    out = evaluate_sequence(one, one.copy(), metrics=("ssim", "psnr"))
    assert out == {"psnr": 100.0, "ssim": 1.0,
                   "per_frame_psnr": [100.0], "per_frame_ssim": [1.0]}
    for temporal in ("tof", "tlp"):
        with pytest.raises(ShapeError, match="at least 2 frames"):
            evaluate_sequence(one, one.copy(), metrics=("psnr", temporal))
    with pytest.raises(ValueError, match="unknown metrics"):
        evaluate_sequence(one, one.copy(), metrics=("psnr", "vmaf"))
    with pytest.raises(ValueError, match="no metrics requested"):
        evaluate_sequence(one, one.copy(), metrics=())


def test_evaluate_sequence_rejects_a_repeated_metric_before_any_work():
    # a report with two rows of one metric is one that score rejects; the
    # frame pair is malformed too, so only a check made first can win
    one = np.zeros((1, 3, 40, 40), dtype=np.float32)
    with pytest.raises(ValueError, match="metric 'psnr' is requested more "
                                         "than once"):
        evaluate_sequence(one, one[:, :1], metrics=("psnr", "ssim", "psnr"))


# ---------------------------------------------------------------------------
# non-finite frames

@pytest.mark.parametrize("metric", [psnr, ssim], ids=["psnr", "ssim"])
def test_frame_metrics_name_the_non_finite_frame(metric):
    ref = np.random.default_rng(16).random((3, 40, 40), dtype=np.float32)
    test = ref.copy()
    test[1, 5, 7] = np.nan
    with pytest.raises(NonFiniteError, match=r"^test frame holds 1 "
                       r"non-finite values, first at index \(1, 5, 7\)"):
        metric(ref, test)
    with pytest.raises(NonFiniteError, match=r"^reference frame holds 1 "):
        metric(test, ref)


@pytest.mark.parametrize("metric", [tof, tlp], ids=["tof", "tlp"])
def test_sequence_metrics_name_the_non_finite_frame(metric):
    ref = np.random.default_rng(17).random((3, 3, 40, 40), dtype=np.float32)
    gen = ref.copy()
    gen[1, 0, 3, 4] = np.inf
    with pytest.raises(NonFiniteError, match=r"^generated frame 1 holds 1 "
                       r"non-finite values, first at index \(0, 3, 4\)"):
        metric(gen, ref)


def test_evaluate_sequence_checks_frames_before_its_worker_starts(monkeypatch):
    def no_worker(*args, **kwargs):
        raise AssertionError("worker thread created before the check")

    monkeypatch.setattr(metrics, "ThreadPoolExecutor", no_worker)
    gen = np.random.default_rng(18).random((3, 3, 40, 40), dtype=np.float32)
    ref = gen.copy()
    ref[2, 1, 0, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"^reference frame 2 holds 1 "):
        evaluate_sequence(gen, ref)


# evaluate_sequence in a fresh process, after importing scipy.ndimage when
# argv[1] is "warm"; cold, the first flows the two workers start at once
# are the first use of scipy. The JSON line holds every value and whether
# scipy was loaded before the first call
_EVAL_FRESH = """
import json, sys
import numpy as np
if sys.argv[1] == "warm":
    import scipy.ndimage
from vsrkit import evaluate_sequence

rng = np.random.default_rng(19)
ref = rng.random((4, 3, 32, 48), dtype=np.float32)
gen = np.roll(ref, 1, axis=3) + rng.normal(0, 0.02, ref.shape).astype(
    np.float32)
loaded = "scipy" in sys.modules
first = evaluate_sequence(gen, ref, metrics=("tof", "ssim"))
print(json.dumps({"loaded": loaded, "values": [
    first, evaluate_sequence(gen, ref)]}))
"""


def test_evaluate_sequence_values_do_not_depend_on_when_scipy_loads(
        fresh_python):
    cold = fresh_python(_EVAL_FRESH, "cold")
    warm = fresh_python(_EVAL_FRESH, "warm")
    assert (cold["loaded"], warm["loaded"]) == (False, True)
    assert cold["values"] == warm["values"]
    assert len(cold["values"][1]["per_frame_ssim"]) == 4
