"""Seeded malformed option values through the CLI.

``--size`` goes through ``inspect``, ``--metrics`` through ``eval``,
``--weights`` through ``score``, ``--flops-per-frame``, ``--lut-total``
and ``--freq`` through ``estimate-fpga``, ``--size``, ``--frames``,
``--warmup`` and ``--seed`` through ``bench``, and ``--seed`` through
``build-model``; ``upscale`` gets frame directories of random shape and
a random ``--scale``. Every run must exit
0, or exit 1 with an ``error:`` line on stderr: an exception that escapes
``main`` (argparse's usage error included) fails the test. Values are
passed as ``--option=value`` so that argparse takes a leading ``-`` as
part of the value. Text that is not a number, given to a numeric option,
must be an ``error:`` that names the option and the text.
"""

import json
import math
import re

import numpy as np
import pytest

from vsrkit import write_sequence
from vsrkit.cli import main

NUMBERS = ("0", "-0", "1", "-1", "0.5", "2", "1e9", "1e-320", "1e400", "nan",
           "-inf", "inf", "1_0", "0x10", "abc", "", " ", "1,", "١", "²", "1e",
           "+3", "3.")
WORDS = ("psnr", "ssim", "tof", "tlp", "PSNR", "vmaf", "", " ", "psnr ",
         "ps nr", "ssim\t", "tlp,tlp", "\x00")


def _join(rng, pieces, most):
    """Up to ``most`` random pieces, joined by commas or by nothing."""
    k = int(rng.integers(1, most + 1))
    chosen = [str(rng.choice(pieces)) for _ in range(k)]
    return ("," if rng.random() < 0.8 else "").join(chosen)


def _size(rng, dims=("1", "2", "7", "12", "33", "100000", "0", "-3", "2.5",
                     "1e3", "00012")):
    if rng.random() < 0.3:
        return str(rng.choice(("x", "", "8", "8x", "x8", "8x8x8", " 8x8",
                               "8X8", "+8x8", "8.5x8", "８x８", "²x2",
                               "8x-8", "0x0", "0x8", "8x0", "1x1")))
    return "x".join(str(rng.choice(dims)) for _ in range(2))


def _digits(rng):
    """A digit string of 1 to 400 digits, short ones as often as long."""
    most = 400 if rng.random() < 0.5 else 12
    return "".join(map(str, rng.integers(0, 10, int(rng.integers(1, most + 1)))))


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1), (argv, code)
    if code:
        assert err.startswith("error: ") and "Traceback" not in err, (argv,
                                                                      err)
    else:
        assert err == "", (argv, err)
    return code, out


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "control.vsm"
    assert main(["build-model", "--arch", "control-a", "--out",
                 str(path)]) == 0
    return path


def test_inspect_takes_any_size_text(capsys, model):
    rng = np.random.default_rng(41)
    codes = set()
    for _ in range(120):
        text = _size(rng)
        code, out = _run(capsys, ["inspect", "--model", str(model),
                                  f"--size={text}"])
        codes.add(code)
        if code == 0:
            w, h = (int(v) for v in text.lower().split("x"))
            assert f"ops at {w}x{h}: " in out, (text, out)
    assert codes == {0, 1}


def test_eval_takes_any_metrics_text(tmp_path, capsys):
    frames = np.random.default_rng(42).random((2, 3, 16, 16),
                                              dtype=np.float32)
    write_sequence(frames, tmp_path / "gen")
    write_sequence(frames[::-1].copy(), tmp_path / "ref")
    rng = np.random.default_rng(43)
    codes = set()
    for i in range(40):
        text = _join(rng, WORDS, 4)
        report = tmp_path / f"r{i}.json"
        code, out = _run(capsys, ["eval", "--gen", str(tmp_path / "gen"),
                                  "--ref", str(tmp_path / "ref"),
                                  f"--metrics={text}",
                                  f"--report={report}"])
        codes.add(code)
        assert report.exists() == (code == 0), text
        if code == 0:
            # a report eval writes is one score reads
            assert main(["score", "--reports", str(report)]) == 0, text
            capsys.readouterr()
    assert codes == {0, 1}


def test_score_takes_any_weights_text(tmp_path, capsys):
    for name, psnr in (("a", 30.0), ("b", 25.0)):
        rows = [{"method": name, "metric": "psnr", "value": psnr},
                {"method": name, "metric": "tof", "value": psnr / 10}]
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"sections": {"metrics": rows}}))
    reports = f"{tmp_path / 'a.json'},{tmp_path / 'b.json'}"
    rng = np.random.default_rng(44)
    codes = set()
    for _ in range(150):
        text = _join(rng, NUMBERS, 3)
        code, out = _run(capsys, ["score", "--reports", reports,
                                  f"--weights={text}"])
        codes.add(code)
        if code == 0:
            scores = [float(v) for v in re.findall(r"\t(\S+)", out)]
            assert len(scores) == 2 and all(math.isfinite(v) for v in scores)
    assert codes == {0, 1}


def test_estimate_fpga_takes_any_flops_per_frame_text(capsys):
    rng = np.random.default_rng(45)
    codes = set()
    for _ in range(150):
        text = _join(rng, NUMBERS, 3)
        code, out = _run(capsys, ["estimate-fpga",
                                  f"--flops-per-frame={text}"])
        codes.add(code)
        if code == 0:
            fps = [float(v) for v in re.findall(r"-> (\S+) fps", out)]
            assert fps and all(0 <= v < math.inf for v in fps), (text, out)
    assert codes == {0, 1}


def test_estimate_fpga_takes_any_lut_total_and_freq_text(capsys):
    rng = np.random.default_rng(47)
    codes = set()
    for _ in range(150):
        argv = ["estimate-fpga", "--table", "--flops-per-frame=1e9"]
        if rng.random() < 0.8:
            lut = (_digits(rng) if rng.random() < 0.6
                   else str(rng.choice(("0", "-5", "00", "1", "-0"))))
            argv.append(f"--lut-total={lut}")
        if rng.random() < 0.6:
            argv.append(f"--freq={rng.choice(NUMBERS)}")
        code, out = _run(capsys, argv)
        codes.add(code)
        if code == 0:
            peaks = [float(v) for v in re.findall(r"max_flops=(\S+)", out)]
            fps = [float(v) for v in re.findall(r"-> (\S+) fps", out)]
            assert len(peaks) == 5 and len(fps) == 1, (argv, out)
            assert all(0 <= v < math.inf for v in peaks + fps), (argv, out)
    assert codes == {0, 1}


@pytest.mark.parametrize("option, text, shown", [
    ("--lut-total", "abc", "'abc'"),
    ("--lut-total", "1.5", "'1.5'"),
    ("--lut-total", "", "''"),
    ("--lut-total", "9" * 4301, f"'{'9' * 20}'... (4301 characters)"),
    ("--freq", "1e", "'1e'"),
    ("--freq", "0x10", "'0x10'"),
    ("--flops-per-frame", "1e9,x", "'x'"),
    ("--flops-per-frame", "1e9,,2", "''"),
    ("--weights", "abc", "'abc'"),
    ("--weights", "0.5,", "''"),
    ("--frames", "abc", "'abc'"),
    ("--frames", "1.5", "'1.5'"),
    ("--warmup", "", "''"),
    ("--warmup", "1e3", "'1e3'"),
    ("--seed", "x1", "'x1'"),
    ("--seed", "9" * 4301, f"'{'9' * 20}'... (4301 characters)"),
    ("--scale", "abc", "'abc'"),
    ("--scale", "3.0", "'3.0'"),
])
def test_number_options_name_the_option_and_the_text(tmp_path, capsys, model,
                                                     option, text, shown):
    rows = [{"method": "a", "metric": m, "value": 1.0} for m in ("psnr", "tof")]
    (tmp_path / "a.json").write_text(json.dumps({"sections": {"metrics": rows}}))
    command = {
        "--weights": ["score", "--reports", str(tmp_path / "a.json")],
        "--frames": ["bench", "--model", str(model), "--size", "8x8"],
        "--scale": ["upscale", "--model", str(model), "--in",
                    str(tmp_path / "lr"), "--out", str(tmp_path / "hr")],
    }
    command["--warmup"] = command["--seed"] = command["--frames"]
    assert main(command.get(option, ["estimate-fpga"])
                + [f"{option}={text}"]) == 1
    expected = ("a number" if option in ("--freq", "--flops-per-frame",
                                         "--weights") else "an integer")
    assert capsys.readouterr().err == (
        f"error: bad {option} {shown}, expected {expected}\n")
    assert not (tmp_path / "hr").exists()


@pytest.mark.parametrize("text, message", [
    ("abc", "bad --seed 'abc', expected an integer"),
    ("-1", "--seed must be >= 0, got -1"),
])
def test_build_model_seed_is_named(tmp_path, capsys, text, message):
    out = tmp_path / "m.vsm"
    assert main(["build-model", "--arch", "control-a", f"--seed={text}",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bench_takes_any_size_frames_and_warmup(tmp_path, capsys, model):
    rng = np.random.default_rng(48)
    codes = set()
    counts = ("0", "-1", "1", "2", "-0", "+1", " 1", "01", "1_0", "١", "abc",
              "", "1.5", "1e1", "0x2", "²")
    for i in range(60):
        # small sizes only: a large frame is a cost, not a malformed value
        size = _size(rng, dims=("1", "2", "7", "12", "0", "-3", "2.5", "1e3",
                                "00012"))
        frames, warmup = (str(rng.choice(counts)) for _ in range(2))
        seed = str(rng.choice(("0", "7", "-1", "abc", "")))
        report = tmp_path / f"b{i}.json"
        code, out = _run(capsys, ["bench", "--model", str(model),
                                  f"--size={size}", f"--frames={frames}",
                                  f"--warmup={warmup}", f"--seed={seed}",
                                  f"--report={report}"])
        codes.add(code)
        assert report.exists() == (code == 0), (size, frames, warmup, seed)
        if code == 0:
            row = json.loads(report.read_text())["sections"]["bench"][0]
            assert row["frames"] == int(frames) >= 1, (frames, row)
            assert row["warmup"] == int(warmup) >= 0, (warmup, row)
            assert 0 < row["fps"] <= math.inf
    assert codes == {0, 1}


def test_upscale_takes_any_frame_shape_and_scale(tmp_path, capsys, model,
                                                 write_raw_f32):
    rng = np.random.default_rng(46)
    codes = set()
    for i in range(25):
        t, c = int(rng.integers(1, 3)), int(rng.choice((1, 2, 3, 4)))
        h, w = (int(v) for v in rng.integers(1, 9, size=2))
        frames = rng.random((t, c, h, w), dtype=np.float32)
        if rng.random() < 0.2:
            frames[-1, 0, 0, 0] = np.nan
        (tmp_path / f"lr{i}").mkdir()
        for j, frame in enumerate(frames):
            write_raw_f32(tmp_path / f"lr{i}" / f"{j:04d}.f32", frame)
        scale = str(rng.choice(("3", "2", "0", "-3", "1", "abc", "", "3.0",
                                " 3", "+3", "0x3")))
        out_dir = tmp_path / f"hr{i}"
        code, _ = _run(capsys, ["upscale", "--model", str(model),
                                "--in", str(tmp_path / f"lr{i}"),
                                "--out", str(out_dir), f"--scale={scale}"])
        codes.add(code)
        assert out_dir.exists() == (code == 0), (t, c, h, w, scale)
    assert codes == {0, 1}
