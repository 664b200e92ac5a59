"""Regular-grid images, displacement fields and the resampling/differential kernels.

Conventions used throughout the toolbox:

* arrays are float64 and indexed ``[row, col]``; ``x`` is the column axis,
  ``y`` the row axis,
* pixel (x, y) sits at world position
  ``(origin_easting + x * spacing_x, origin_northing + y * spacing_y)``,
  i.e. grids are node-centred and the row axis points north,
* displacement fields are stored in pixel units on the grid of the image
  they deform; the deformed image is ``I(x - u(x))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DegenerateImageError, GeometryError, IntensityRangeError, ParameterError

COARSEST_MIN_DIM = 32


@dataclass(frozen=True)
class GridGeometry:
    """Size, spacing and world placement of a regular raster grid."""

    width: int
    height: int
    spacing_x: float = 1.0
    spacing_y: float = 1.0
    origin_easting: float = 0.0
    origin_northing: float = 0.0

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise GeometryError(
                "grid must be at least 2x2, got %dx%d" % (self.width, self.height)
            )
        if not (0.0 < self.spacing_x < math.inf and 0.0 < self.spacing_y < math.inf):
            raise GeometryError("grid spacing must be positive and finite")
        if not (math.isfinite(self.origin_easting) and math.isfinite(self.origin_northing)):
            raise GeometryError("grid origin must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def pixel_to_world(self, x, y):
        """Map pixel coordinates to (easting, northing)."""
        return (
            self.origin_easting + np.asarray(x, dtype=float) * self.spacing_x,
            self.origin_northing + np.asarray(y, dtype=float) * self.spacing_y,
        )

    def world_to_pixel(self, easting, northing):
        """Inverse of :meth:`pixel_to_world`."""
        return (
            (np.asarray(easting, dtype=float) - self.origin_easting) / self.spacing_x,
            (np.asarray(northing, dtype=float) - self.origin_northing) / self.spacing_y,
        )

    def bounds(self) -> tuple[float, float, float, float]:
        """Cell-edge extent as (min_e, min_n, max_e, max_n)."""
        half_x = 0.5 * self.spacing_x
        half_y = 0.5 * self.spacing_y
        return (
            self.origin_easting - half_x,
            self.origin_northing - half_y,
            self.origin_easting + (self.width - 1) * self.spacing_x + half_x,
            self.origin_northing + (self.height - 1) * self.spacing_y + half_y,
        )

    def coarsened(self) -> "GridGeometry":
        """Geometry of the next pyramid level (spacing doubled, origin kept)."""
        return GridGeometry(
            width=math.ceil(self.width / 2),
            height=math.ceil(self.height / 2),
            spacing_x=self.spacing_x * 2.0,
            spacing_y=self.spacing_y * 2.0,
            origin_easting=self.origin_easting,
            origin_northing=self.origin_northing,
        )


def _as_float_array(values, shape, name):
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise GeometryError(
            "%s has shape %s, expected %s" % (name, arr.shape, shape)
        )
    return arr


@dataclass
class ScalarImage:
    """Single-band image on a :class:`GridGeometry`.

    ``nodata`` marks pixels without valid data (True = invalid).  Masked
    entries are stored as 0 so that downstream arithmetic never touches
    sentinel garbage.
    """

    geometry: GridGeometry
    values: np.ndarray
    nodata: np.ndarray | None = None

    def __post_init__(self):
        self.values = _as_float_array(self.values, self.geometry.shape, "values")
        if self.nodata is not None:
            self.nodata = np.asarray(self.nodata, dtype=bool)
            if self.nodata.shape != self.geometry.shape:
                raise GeometryError("nodata mask shape does not match grid")
            if not self.nodata.any():
                self.nodata = None
        if self.nodata is not None:
            self.values = np.where(self.nodata, 0.0, self.values)
            valid = self.values[~self.nodata]
        else:
            valid = self.values
        if valid.size and not np.isfinite(valid).all():
            raise ParameterError("image contains non-finite values outside the mask")

    @property
    def valid_mask(self) -> np.ndarray:
        """Boolean array, True where the pixel carries data."""
        if self.nodata is None:
            return np.ones(self.geometry.shape, dtype=bool)
        return ~self.nodata

    def with_values(self, values, nodata="keep") -> "ScalarImage":
        if isinstance(nodata, str) and nodata == "keep":
            nodata = None if self.nodata is None else self.nodata.copy()
        return ScalarImage(self.geometry, values, nodata)


@dataclass
class DisplacementField:
    """Pixel-unit displacement (u_x, u_y) on a grid."""

    geometry: GridGeometry
    u_x: np.ndarray
    u_y: np.ndarray

    def __post_init__(self):
        self.u_x = _as_float_array(self.u_x, self.geometry.shape, "u_x")
        self.u_y = _as_float_array(self.u_y, self.geometry.shape, "u_y")
        if not (np.isfinite(self.u_x).all() and np.isfinite(self.u_y).all()):
            raise ParameterError("displacement field contains non-finite values")

    @classmethod
    def zero(cls, geometry: GridGeometry) -> "DisplacementField":
        z = np.zeros(geometry.shape)
        return cls(geometry, z, z.copy())

    def as_vector(self) -> np.ndarray:
        """Flatten to a single 1-D array (u_x block then u_y block)."""
        return np.concatenate([self.u_x.ravel(), self.u_y.ravel()])

    @classmethod
    def from_vector(cls, geometry: GridGeometry, vec: np.ndarray) -> "DisplacementField":
        n = geometry.width * geometry.height
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (2 * n,):
            raise GeometryError("vector length does not match grid")
        return cls(
            geometry,
            vec[:n].reshape(geometry.shape),
            vec[n:].reshape(geometry.shape),
        )

    def max_norm(self) -> float:
        return float(np.sqrt(np.max(self.u_x * self.u_x + self.u_y * self.u_y)))


def _require_same_shape(a: GridGeometry, b: GridGeometry, what: str):
    if a.shape != b.shape:
        raise GeometryError(
            "%s requires matching grids, got %s vs %s" % (what, a.shape, b.shape)
        )


# ---------------------------------------------------------------------------
# sampling and warping


def _bilinear_arrays(values, mask, xs, ys, edge_clamp=False):
    """Vectorized bilinear sampling.

    Returns (sampled values, invalid flags, cell), where cell holds the
    in-cell fractions and the four corner values ``(fx, fy, v00, v10, v01,
    v11)``.  Out-of-domain points are flagged unless ``edge_clamp`` is set,
    in which case coordinates are clamped to the grid hull.  A point is
    also invalid when any neighbour with nonzero interpolation weight is
    masked.  ``values`` may stack several images on leading axes; they are
    all sampled from the one cell computation.
    """
    h, w = values.shape[-2:]
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xc), w - 2).astype(np.int64)
    y0 = np.minimum(np.floor(yc), h - 2).astype(np.int64)
    fx = xc - x0
    fy = yc - y0
    w00 = (1.0 - fx) * (1.0 - fy)
    w10 = fx * (1.0 - fy)
    w01 = (1.0 - fx) * fy
    w11 = fx * fy
    v00 = values[..., y0, x0]
    v10 = values[..., y0, x0 + 1]
    v01 = values[..., y0 + 1, x0]
    v11 = values[..., y0 + 1, x0 + 1]
    v = w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11
    if edge_clamp:
        bad = np.zeros(np.shape(xs), dtype=bool)
    else:
        bad = (xs < 0.0) | (xs > w - 1.0) | (ys < 0.0) | (ys > h - 1.0)
    if mask is not None:
        m = mask.astype(np.float64)
        touched = (
            w00 * m[y0, x0]
            + w10 * m[y0, x0 + 1]
            + w01 * m[y0 + 1, x0]
            + w11 * m[y0 + 1, x0 + 1]
        )
        bad = bad | (touched > 0.0)
    return v, bad, (fx, fy, v00, v10, v01, v11)


def _nearest_arrays(values, mask, xs, ys):
    h, w = values.shape
    xi = np.rint(xs)
    yi = np.rint(ys)
    bad = (xi < 0) | (xi > w - 1) | (yi < 0) | (yi > h - 1)
    xi = np.clip(xi, 0, w - 1).astype(np.int64)
    yi = np.clip(yi, 0, h - 1).astype(np.int64)
    v = values[yi, xi]
    if mask is not None:
        bad = bad | mask[yi, xi]
    return v, bad


def _sample_arrays(image: ScalarImage, xs, ys, mode: str):
    """Sample ``image`` at pixel coordinates; returns (values, invalid flags)."""
    if mode == "bilinear":
        v, bad, _ = _bilinear_arrays(image.values, image.nodata, xs, ys)
        return v, bad
    if mode == "nearest":
        return _nearest_arrays(image.values, image.nodata, xs, ys)
    raise ParameterError("unknown sampling mode %r" % mode)


def _sample_field(u: DisplacementField, xs, ys):
    """Both components of ``u`` sampled bilinearly at pixel coordinates,
    edge clamped."""
    (ux, uy), _, _ = _bilinear_arrays(np.stack([u.u_x, u.u_y]), None, xs, ys, edge_clamp=True)
    return ux, uy


def sample(image: ScalarImage, x: float, y: float, mode: str = "bilinear"):
    """Sample one point in pixel coordinates.

    Returns ``(value, valid)``; out-of-domain or mask-contaminated points
    give ``(0.0, False)``.
    """
    if not (np.isfinite(x) and np.isfinite(y)):
        raise ParameterError("sample point must be finite")
    xs = np.asarray([float(x)])
    ys = np.asarray([float(y)])
    v, bad = _sample_arrays(image, xs, ys, mode)
    if bad[0]:
        return 0.0, False
    return float(v[0]), True


def _pixel_grid(geometry: GridGeometry):
    ys, xs = np.mgrid[0.0 : geometry.height, 0.0 : geometry.width]
    return xs, ys


def warp(image: ScalarImage, u: DisplacementField, mode: str = "bilinear") -> ScalarImage:
    """Deform ``image`` by the displacement field: output(x) = image(x - u(x)).

    Pixels mapped outside the domain (or onto masked data) come back as
    nodata.  A zero field reproduces the input bit for bit.
    """
    _require_same_shape(image.geometry, u.geometry, "warp")
    xs, ys = _pixel_grid(u.geometry)
    px = xs - u.u_x
    py = ys - u.u_y
    v, bad = _sample_arrays(image, px, py, mode)
    return ScalarImage(u.geometry, v, bad if bad.any() else None)


def warp_with_jacobian(image: ScalarImage, u: DisplacementField):
    """Edge-clamped warp plus the interpolant's spatial derivative.

    Returns ``(warped, dvdx, dvdy)`` with derivatives in pixel units.
    Bilinear only; used by the registration objective, whose force term
    needs exactly this derivative.  Sample points are clamped to the grid
    hull instead of invalidated, which keeps the result (and hence any
    objective built on it) continuous in u; a clamped coordinate no longer
    responds to u, so its derivative is zero.  The image must carry no
    nodata.
    """
    _require_same_shape(image.geometry, u.geometry, "warp")
    if image.nodata is not None:
        raise ParameterError("edge-clamped warp needs a gap-free image")
    xs, ys = _pixel_grid(u.geometry)
    px = xs - u.u_x
    py = ys - u.u_y
    v, _, (fx, fy, v00, v10, v01, v11) = _bilinear_arrays(
        image.values, None, px, py, edge_clamp=True
    )
    h, w = image.geometry.shape
    dvdx = (1.0 - fy) * (v10 - v00) + fy * (v11 - v01)
    dvdy = (1.0 - fx) * (v01 - v00) + fx * (v11 - v10)
    dvdx = np.where((px < 0.0) | (px > w - 1.0), 0.0, dvdx)
    dvdy = np.where((py < 0.0) | (py > h - 1.0), 0.0, dvdy)
    return ScalarImage(u.geometry, v, None), dvdx, dvdy


# ---------------------------------------------------------------------------
# finite differences


def gradient_axis(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Central differences inside, one-sided at the two boundary planes."""
    v = np.moveaxis(values, axis, 0)
    g = np.empty_like(v)
    g[1:-1] = (v[2:] - v[:-2]) / (2.0 * spacing)
    g[0] = (v[1] - v[0]) / spacing
    g[-1] = (v[-1] - v[-2]) / spacing
    return np.moveaxis(g, 0, axis)


def gradient_axis_adjoint(weights: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Exact transpose of :func:`gradient_axis` (needed by NGF derivatives)."""
    w_ = np.moveaxis(weights, axis, 0)
    v = np.zeros_like(w_)
    inner = w_[1:-1] / (2.0 * spacing)
    v[2:] += inner
    v[:-2] -= inner
    v[1] += w_[0] / spacing
    v[0] -= w_[0] / spacing
    v[-1] += w_[-1] / spacing
    v[-2] -= w_[-1] / spacing
    return np.moveaxis(v, 0, axis)


def gradient(image: ScalarImage) -> tuple[ScalarImage, ScalarImage]:
    """Spacing-scaled first derivatives (d/dx, d/dy) of the image."""
    gx = gradient_axis(image.values, 1, image.geometry.spacing_x)
    gy = gradient_axis(image.values, 0, image.geometry.spacing_y)
    return image.with_values(gx), image.with_values(gy)


def laplacian_values(values: np.ndarray, spacing_x: float, spacing_y: float) -> np.ndarray:
    """5-point Laplacian with boundary rows dropped.

    Boundary second differences use linear extrapolation ghosts, so each
    direction contributes zero on its two boundary planes and any affine
    field maps to zero everywhere.
    """
    out = np.zeros_like(values)
    out[:, 1:-1] += (values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]) / spacing_x**2
    out[1:-1, :] += (values[2:, :] - 2.0 * values[1:-1, :] + values[:-2, :]) / spacing_y**2
    return out


def laplacian_adjoint_values(weights: np.ndarray, spacing_x: float, spacing_y: float) -> np.ndarray:
    """Exact transpose of :func:`laplacian_values`."""
    out = np.zeros_like(weights)
    tx = weights / spacing_x**2
    tx = tx.copy()
    tx[:, 0] = 0.0
    tx[:, -1] = 0.0
    out[:, :-1] += tx[:, 1:]
    out -= 2.0 * tx
    out[:, 1:] += tx[:, :-1]
    ty = weights / spacing_y**2
    ty = ty.copy()
    ty[0, :] = 0.0
    ty[-1, :] = 0.0
    out[:-1, :] += ty[1:, :]
    out -= 2.0 * ty
    out[1:, :] += ty[:-1, :]
    return out


def laplacian(image: ScalarImage) -> ScalarImage:
    """Spacing-scaled Laplacian of the image (zero on the boundary frame)."""
    return image.with_values(
        laplacian_values(image.values, image.geometry.spacing_x, image.geometry.spacing_y)
    )


# ---------------------------------------------------------------------------
# pyramid


def _box_downsample(values: np.ndarray, valid: np.ndarray | None):
    """2x2 box mean with ragged edge blocks averaged over present cells."""
    h, w = values.shape
    ri = np.arange(0, h, 2)
    ci = np.arange(0, w, 2)
    if valid is None:
        vs = np.add.reduceat(np.add.reduceat(values, ri, axis=0), ci, axis=1)
        rows = np.minimum(ri + 2, h) - ri
        cols = np.minimum(ci + 2, w) - ci
        cnt = np.outer(rows, cols).astype(np.float64)
        return vs / cnt, None
    vf = valid.astype(np.float64)
    vs = np.add.reduceat(np.add.reduceat(values * vf, ri, axis=0), ci, axis=1)
    cnt = np.add.reduceat(np.add.reduceat(vf, ri, axis=0), ci, axis=1)
    empty = cnt == 0.0
    out = vs / np.where(empty, 1.0, cnt)
    return np.where(empty, 0.0, out), (empty if empty.any() else None)


def downsample(image: ScalarImage) -> ScalarImage:
    """One pyramid step: 2x2 averaging onto the coarsened geometry."""
    g = image.geometry.coarsened()
    valid = None if image.nodata is None else ~image.nodata
    vals, empty = _box_downsample(image.values, valid)
    return ScalarImage(g, vals, empty)


def build_pyramid(image: ScalarImage, max_levels: int = 8) -> list[ScalarImage]:
    """Coarsen by 2x2 box averages until the next level would drop below a
    32-pixel minimum dimension or ``max_levels`` is reached.

    Returns the levels finest first.
    """
    if max_levels < 1:
        raise ParameterError("max_levels must be >= 1")
    levels = [image]
    while len(levels) < max_levels:
        g = levels[-1].geometry
        if math.ceil(g.width / 2) < COARSEST_MIN_DIM or math.ceil(g.height / 2) < COARSEST_MIN_DIM:
            break
        levels.append(downsample(levels[-1]))
    return levels


def prolong(u: DisplacementField, fine_geometry: GridGeometry) -> DisplacementField:
    """Transfer a displacement field one pyramid level finer.

    Components are sampled bilinearly at half the fine pixel coordinates and
    doubled (spacing halves, so the same physical shift spans twice as many
    pixels).  At fine nodes that coincide with coarse nodes the coarse value
    is reproduced exactly.
    """
    cg = u.geometry
    if fine_geometry.coarsened().shape != cg.shape:
        raise GeometryError(
            "fine geometry %s is not the parent of coarse %s"
            % (fine_geometry.shape, cg.shape)
        )
    xs, ys = _pixel_grid(fine_geometry)
    ux, uy = _sample_field(u, xs / 2.0, ys / 2.0)
    return DisplacementField(fine_geometry, 2.0 * ux, 2.0 * uy)


# ---------------------------------------------------------------------------
# intensity and geometry resampling


def fill_nodata(image: ScalarImage) -> ScalarImage:
    """Replace masked pixels by their nearest valid value (gap-free copy).

    Registration objectives need a continuous notion of the template
    everywhere; nearest-valid filling extends real measurements without
    inventing new intensity levels.
    """
    if image.nodata is None:
        return image
    if not image.valid_mask.any():
        raise DegenerateImageError("image has no valid pixels to fill from")
    rows, cols = ndimage.distance_transform_edt(
        image.nodata, return_distances=False, return_indices=True
    )
    return ScalarImage(image.geometry, image.values[rows, cols], None)


def normalize_intensity(image: ScalarImage) -> ScalarImage:
    """Affine rescale of the valid pixels onto [0, 1]."""
    valid = image.valid_mask
    vals = image.values[valid]
    if vals.size == 0:
        raise DegenerateImageError("image has no valid pixels")
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    if hi - lo < 1e-12:
        raise DegenerateImageError(
            "intensity range %.3g is too small to normalize" % (hi - lo)
        )
    out = (image.values - lo) / (hi - lo)
    if image.nodata is not None:
        out = np.where(image.nodata, 0.0, out)
    return image.with_values(out)


def _check_normalized(image: ScalarImage, what: str):
    """Reject valid intensities outside [0, 1] (see :func:`normalize_intensity`)."""
    vals = image.values[image.valid_mask]
    if vals.size and (vals.min() < -1e-9 or vals.max() > 1.0 + 1e-9):
        raise IntensityRangeError(
            "%s intensities must be normalized to [0, 1] (range [%g, %g])"
            % (what, vals.min(), vals.max())
        )


def resample_to_geometry(
    image: ScalarImage, geometry: GridGeometry, mode: str = "bilinear"
) -> ScalarImage:
    """Resample onto another grid through world coordinates.

    Target pixels that fall outside the source grid (or touch masked data)
    become nodata.
    """
    xs, ys = _pixel_grid(geometry)
    e, n = geometry.pixel_to_world(xs, ys)
    px, py = image.geometry.world_to_pixel(e, n)
    v, bad = _sample_arrays(image, px, py, mode)
    return ScalarImage(geometry, np.where(bad, 0.0, v), bad if bad.any() else None)


def displacement_to_geometry(
    u: DisplacementField, geometry: GridGeometry
) -> DisplacementField:
    """Carry a displacement field onto another grid.

    Samples the components at the target pixels' world positions (edge
    clamped) and rescales from source to target pixel units.
    """
    xs, ys = _pixel_grid(geometry)
    e, n = geometry.pixel_to_world(xs, ys)
    ux, uy = _sample_field(u, *u.geometry.world_to_pixel(e, n))
    sx = u.geometry.spacing_x / geometry.spacing_x
    sy = u.geometry.spacing_y / geometry.spacing_y
    return DisplacementField(geometry, ux * sx, uy * sy)
