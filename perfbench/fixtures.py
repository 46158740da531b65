"""Seeded inputs for the benchmark workloads.

Every frame shows a random texture, coarse structure plus fine detail,
panned by a global sub-pixel velocity, with a smaller patch of a second
texture moving on its own track. The pan gives the flow net and the
Lucas-Kanade estimator a real motion field to find; the patch gives them
a local one. Everything the program sees is written through
``vsrkit.frame_io`` (and the model through ``vsrkit.model_io``), so the
workload reads only files.
"""
from __future__ import annotations

import os
import zlib

import numpy as np
from scipy import ndimage


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """The same (workload, seed) always yields the same generator."""
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _texture(rng, h: int, w: int) -> np.ndarray:
    """(3, h, w) noise with coarse structure and fine detail, stretched
    into [0.1, 0.9]."""
    def band(sigma):
        return np.stack([ndimage.gaussian_filter(rng.random((h, w)), sigma,
                                                 mode="wrap")
                         for _ in range(3)])
    coarse = band(max(h, w) / 32.0)
    fine = band(1.5)
    tex = coarse / coarse.std() + 0.5 * fine / fine.std()
    lo, hi = tex.min(), tex.max()
    return 0.1 + 0.8 * (tex - lo) / (hi - lo)


def _sample(tex: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear samples of every channel at (ys, xs), wrapping at the edge."""
    return np.stack([ndimage.map_coordinates(ch, [ys, xs], order=1,
                                             mode="grid-wrap") for ch in tex])


def moving_texture(rng, frames: int, h: int, w: int) -> np.ndarray:
    """(frames, 3, h, w) float32 sequence in [0, 1]."""
    canvas = _texture(rng, 2 * h, 2 * w)
    pv = rng.uniform(0.3, 1.5, 2) * rng.choice([-1.0, 1.0], 2)  # (vy, vx)
    ph, pw = h // 4, w // 4
    patch = _texture(rng, ph, pw)
    qy, qx = rng.uniform(0.25, 0.5) * h, rng.uniform(0.25, 0.5) * w
    qv = rng.uniform(1.0, 2.5, 2) * rng.choice([-1.0, 1.0], 2)
    gy, gx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    py, px = np.meshgrid(np.arange(ph, dtype=np.float64),
                         np.arange(pw, dtype=np.float64), indexing="ij")
    out = np.empty((frames, 3, h, w), dtype=np.float32)
    for t in range(frames):
        out[t] = _sample(canvas, gy + pv[0] * t, gx + pv[1] * t)
        y, x = qy + qv[0] * t, qx + qv[1] * t
        iy, ix = int(np.floor(y)), int(np.floor(x))
        # the patch moves by whole pixels; its content carries the fraction
        cell = _sample(patch, py - (y - iy), px - (x - ix))
        iy, ix = iy % (h - ph), ix % (w - pw)
        out[t, :, iy:iy + ph, ix:ix + pw] = cell
    return out


def degrade(rng, seq: np.ndarray, factor: int = 4,
            noise: float = 0.01) -> np.ndarray:
    """What a weak upscaler would return: box-downsample, bilinear upsample,
    then add a little noise."""
    t, c, h, w = seq.shape
    lr = seq.reshape(t, c, h // factor, factor, w // factor, factor)
    lr = lr.mean(axis=(3, 5))
    up = ndimage.zoom(lr, (1, 1, factor, factor), order=1, grid_mode=True,
                      mode="nearest")
    up = up + rng.normal(0.0, noise, up.shape)
    return np.clip(up, 0.0, 1.0).astype(np.float32)


def write_inputs(spec: dict, seed: int, work: str) -> None:
    """Write the workload's model and frame directories under ``work``."""
    from vsrkit import frame_io, graph, model_io, models

    rng = rng_for(spec["name"], seed)
    w, h = spec["size"]
    seq = moving_texture(rng, spec["frames"], h, w)
    if spec["kind"] == "vsr":
        gen = {"fnet": graph.init_random(models.build_fnet(),
                                         int(rng.integers(1 << 31))),
               "srnet": graph.init_random(models.build_srnet(),
                                          int(rng.integers(1 << 31)))}
        model_io.save_model(gen, os.path.join(work, "model.vsm"))
        frame_io.write_sequence(seq, os.path.join(work, "lr"), fmt="ppm")
    else:
        frame_io.write_sequence(seq, os.path.join(work, "ref"), fmt="ppm")
        frame_io.write_sequence(degrade(rng, seq), os.path.join(work, "gen"),
                                fmt="ppm")
