"""Seeded input generation for the benchmark workloads.

Uses numpy and scipy only, never the program under test, so that every
commit of the program is measured on byte-identical inputs.  Each workload
draws its scenes from ``numpy.random.SeedSequence([seed, scene_index])``.

Displacement convention (as in the program): an image deformed by ``u``
is ``I(x - u(x))``.  A template made as ``T(x) = R(x - u_d(x))`` is
registered by the inverse field ``u*(x) = -u_d(z)`` with
``z = x + u_d(z)``, which is computed to machine precision so that the
endpoint error measures the solver and not the harness.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np
from scipy import ndimage

# LiDAR / hyperspectral scene placement (metres; a 1 m lattice)
ORIGIN_E = 355200.0
ORIGIN_N = 5687400.0
HS_MARGIN = 4  # hyperspectral grid overhangs the LiDAR mosaic by this many cells

# Per-workload geometry at full and tiny scale.  Tiny scale exists for the
# harness self-test only.
SCALES = {
    "full": {
        "ngf-lbfgs-128": {"size": 128, "scenes": 8, "levels": 4},
        "mi-affine-192": {"size": 192, "scenes": 8, "levels": 4},
        "solver-mix-64": {"size": 64, "scenes": 6, "levels": 3},
        "lidar-fusion-cli": {"width": 192, "height": 160, "points": 500_000},
    },
    "tiny": {
        "ngf-lbfgs-128": {"size": 64, "scenes": 3, "levels": 2},
        "mi-affine-192": {"size": 64, "scenes": 3, "levels": 2},
        "solver-mix-64": {"size": 48, "scenes": 2, "levels": 2},
        "lidar-fusion-cli": {"width": 72, "height": 64, "points": 60_000},
    },
}

BUMP = {"amplitude": 4.0, "sigma": 10.0, "direction": (0.6, 0.8)}
CLI_BUMP = {"amplitude": 3.0, "sigma": 10.0, "direction": (0.6, 0.8)}
AFFINE = {"rotation_deg": 3.0, "scale": 1.02, "shift": (1.8, 2.4)}  # |shift| = 3 px


def rng_for(seed: int, scene: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, scene]))


def texture(rng: np.random.Generator, shape, smoothness: float) -> np.ndarray:
    """Band-limited random texture rescaled onto [0, 1]."""
    noise = ndimage.gaussian_filter(rng.uniform(size=shape), sigma=smoothness, mode="reflect")
    lo, hi = float(noise.min()), float(noise.max())
    return (noise - lo) / (hi - lo)


def pixel_grid(shape):
    ys, xs = np.mgrid[0.0 : shape[0], 0.0 : shape[1]]
    return xs, ys


def bump_field(xs, ys, shape, amplitude, sigma, direction):
    """Gaussian push of ``amplitude`` px along ``direction``, centred on the grid."""
    cy = (shape[0] - 1) / 2.0
    cx = (shape[1] - 1) / 2.0
    env = amplitude * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma**2))
    return env * direction[0], env * direction[1]


def bump_inverse(shape, bump) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = pixel_grid(shape)
    zx, zy = xs.copy(), ys.copy()
    for _ in range(60):
        ux, uy = bump_field(zx, zy, shape, **bump)
        zx, zy = xs + ux, ys + uy
    ux, uy = bump_field(zx, zy, shape, **bump)
    return -ux, -uy


def sample(values: np.ndarray, px, py) -> np.ndarray:
    """Bilinear sampling with edge clamping."""
    return ndimage.map_coordinates(values, [py, px], order=1, mode="nearest")


def deform(values: np.ndarray, px, py):
    """Template sampled at (px, py) and its nodata mask.

    As in the program's own synthetic scenes, a sample point outside the
    grid, even by a rounding error, gives a nodata pixel; the solvers fill
    those before registering.
    """
    h, w = values.shape
    outside = (px < 0) | (px > w - 1) | (py < 0) | (py > h - 1)
    return np.where(outside, 0.0, sample(values, px, py)), outside


def affine_matrix(shape):
    """Rotation and scale about the grid centre plus a shift: x' = A x + t."""
    a = math.radians(AFFINE["rotation_deg"])
    s = AFFINE["scale"]
    mat = s * np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    c = np.array([(shape[1] - 1) / 2.0, (shape[0] - 1) / 2.0])
    t = c - mat @ c + np.array(AFFINE["shift"])
    return mat, t


def save_arrays(out, tag, **arrays):
    # one .npy per array: unlike .npz, the bytes carry no timestamps, so
    # equal inputs give equal digests
    for name, arr in arrays.items():
        np.save(os.path.join(out, "%s.%s.npy" % (tag, name)), arr)


def load_arrays(out, tag, *names):
    return [np.load(os.path.join(out, "%s.%s.npy" % (tag, name))) for name in names]


# ---------------------------------------------------------------------------
# per-workload generators; each writes into ``out`` and returns nothing


def _bump_pair(rng, size, out, tag):
    shape = (size, size)
    ref = texture(rng, shape, 2.0)
    xs, ys = pixel_grid(shape)
    ux, uy = bump_field(xs, ys, shape, **BUMP)
    tpl, outside = deform(ref, xs - ux, ys - uy)
    tx, ty = bump_inverse(shape, BUMP)
    save_arrays(out, tag, reference=ref, template=tpl, template_nodata=outside,
                truth_x=tx, truth_y=ty)


def gen_bumps(seed, cfg, out):
    for k in range(cfg["scenes"]):
        _bump_pair(rng_for(seed, k), cfg["size"], out, "scene%d" % k)


def gen_affine(seed, cfg, out):
    size = cfg["size"]
    shape = (size, size)
    mat, t = affine_matrix(shape)
    xs, ys = pixel_grid(shape)
    inv = np.linalg.inv(mat)
    for k in range(cfg["scenes"]):
        ref = texture(rng_for(seed, k), shape, 2.0)
        px = mat[0, 0] * xs + mat[0, 1] * ys + t[0]
        py = mat[1, 0] * xs + mat[1, 1] * ys + t[1]
        tpl, outside = deform(ref, px, py)
        zx = inv[0, 0] * (xs - t[0]) + inv[0, 1] * (ys - t[1])
        zy = inv[1, 0] * (xs - t[0]) + inv[1, 1] * (ys - t[1])
        save_arrays(
            out,
            "scene%d" % k,
            reference=ref,
            template=tpl,
            template_nodata=outside,
            truth_x=xs - zx,
            truth_y=ys - zy,
        )


def write_raster(path, bands, width, height, origin_e, origin_n):
    """Raster in the program's flat format: float32 payload + text sidecar."""
    lines = [
        "width = %d" % width,
        "height = %d" % height,
        "bands = %d" % len(bands),
        "spacing_x = 1.0",
        "spacing_y = 1.0",
        "origin_easting = %r" % origin_e,
        "origin_northing = %r" % origin_n,
    ]
    with open(path + ".hdr", "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path, "wb") as fh:
        fh.write(np.stack(bands).astype("<f4").tobytes())


def gen_lidar(seed, cfg, out):
    """Two overlapping LiDAR strips and one hyperspectral band.

    The true scene is a texture on the hyperspectral grid, which overhangs
    the mosaic by ``HS_MARGIN`` cells on every side.  LiDAR returns sample
    it bilinearly (plus noise) at uniform positions; a few seeded discs
    return nothing, which leaves nodata cells in the mosaic.  The band is
    the scene deformed by a known bump, with inverted contrast.
    """
    rng = rng_for(seed, 0)
    w, h = cfg["width"], cfg["height"]
    hs_shape = (h + 2 * HS_MARGIN, w + 2 * HS_MARGIN)
    scene = texture(rng, hs_shape, 3.0)

    overlap = w // 6
    half = (w + overlap) // 2
    strips = {"strip_a": (0.0, half - 0.55), "strip_b": (float(w - half), w - 0.55)}
    holes = [
        (rng.uniform(0.2 * w, 0.8 * w), rng.uniform(0.2 * h, 0.8 * h), rng.uniform(2.5, 5.0))
        for _ in range(3)
    ]
    per_strip = cfg["points"] // 2
    for name, (lo, hi) in strips.items():
        px = rng.uniform(lo, hi, per_strip)
        py = rng.uniform(0.0, h - 0.55, per_strip)
        keep = np.ones(per_strip, dtype=bool)
        for hx, hy, r in holes:
            keep &= (px - hx) ** 2 + (py - hy) ** 2 > r * r
        px, py = px[keep], py[keep]
        value = sample(scene, px + HS_MARGIN, py + HS_MARGIN)
        intensity = np.clip(20.0 + 200.0 * value + rng.normal(0.0, 3.0, px.size), 0.0, None)
        elevation = 120.0 + 8.0 * value + rng.uniform(0.0, 0.5, px.size)
        ret = rng.integers(1, 4, px.size)
        rows = zip(
            (px + ORIGIN_E).tolist(),
            (py + ORIGIN_N).tolist(),
            elevation.tolist(),
            intensity.tolist(),
            ret.tolist(),
        )
        with open(os.path.join(out, name + ".csv"), "w", encoding="ascii") as fh:
            fh.write("easting,northing,elevation,intensity,return\n")
            fh.write("\n".join(map("%.2f,%.2f,%.2f,%.2f,%d".__mod__, rows)))
            fh.write("\n")

    # band on the overhanging grid: hs(q) = c - k * scene(q - u_d(q - margin))
    xs, ys = pixel_grid(hs_shape)
    ux, uy = bump_field(xs - HS_MARGIN, ys - HS_MARGIN, (h, w), **CLI_BUMP)
    band = 0.6 - 0.5 * sample(scene, xs - ux, ys - uy)
    write_raster(
        os.path.join(out, "hs_band.raster"),
        [band],
        hs_shape[1],
        hs_shape[0],
        ORIGIN_E - HS_MARGIN,
        ORIGIN_N - HS_MARGIN,
    )
    tx, ty = bump_inverse((h, w), CLI_BUMP)
    save_arrays(out, "truth", truth_x=tx, truth_y=ty)


GENERATORS = {
    "ngf-lbfgs-128": gen_bumps,
    "mi-affine-192": gen_affine,
    "solver-mix-64": gen_bumps,
    "lidar-fusion-cli": gen_lidar,
}


def generate(workload: str, seed: int, scale: str, out: str) -> dict:
    """Write the workload's inputs into ``out``; returns {file: sha256}."""
    os.makedirs(out, exist_ok=True)
    GENERATORS[workload](seed, SCALES[scale][workload], out)
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests
