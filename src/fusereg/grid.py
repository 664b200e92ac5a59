"""Regular-grid images, displacement fields and the resampling/differential kernels.

Conventions used throughout the toolbox:

* arrays are float64 and indexed ``[row, col]``; ``x`` is the column axis,
  ``y`` the row axis,
* pixel (x, y) sits at world position
  ``(origin_easting + x * spacing_x, origin_northing + y * spacing_y)``,
  i.e. grids are node-centred and the row axis points north,
* displacement fields are stored in pixel units on the grid of the image
  they deform; the deformed image is ``I(x - u(x))``,
* the finite-difference stencils work in pixel units too: the spacing
  only places a grid in the world.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DegenerateImageError, GeometryError, IntensityRangeError, ParameterError

COARSEST_MIN_DIM = 32
MIN_INTENSITY_RANGE = 1e-12  # narrower valid intensities count as constant


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
        for size in (self.width, self.height):
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise GeometryError("grid width and height must be integers, got %r" % (size,))
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

    # a coordinate past the float range maps to +-inf, off every grid
    @np.errstate(over="ignore")
    def pixel_to_world(self, x, y):
        """Map pixel coordinates to (easting, northing)."""
        return (
            self.origin_easting + np.asarray(x, dtype=float) * self.spacing_x,
            self.origin_northing + np.asarray(y, dtype=float) * self.spacing_y,
        )

    @np.errstate(over="ignore")
    def world_to_pixel(self, easting, northing):
        """Inverse of :meth:`pixel_to_world`."""
        return (
            (np.asarray(easting, dtype=float) - self.origin_easting) / self.spacing_x,
            (np.asarray(northing, dtype=float) - self.origin_northing) / self.spacing_y,
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

    ``nodata`` marks pixels without valid data (True = invalid).  Two rules
    hold for every image, so producers pass their raw values and mask:
    masked samples are stored as +0.0, so downstream arithmetic never
    touches sentinel garbage, and a mask that marks nothing is stored as
    None, so ``nodata is None`` means the image has no gaps.  The image
    stores a read-only copy of the mask, so no two images share one.
    """

    geometry: GridGeometry
    values: np.ndarray
    nodata: np.ndarray | None = None

    def __post_init__(self):
        self.values = _as_float_array(self.values, self.geometry.shape, "values")
        if self.nodata is not None:
            self.nodata = np.array(self.nodata, dtype=bool)
            if self.nodata.shape != self.geometry.shape:
                raise GeometryError("nodata mask shape does not match grid")
            if not self.nodata.any():
                self.nodata = None
            else:
                self.nodata.flags.writeable = False
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

    def with_values(self, values) -> "ScalarImage":
        """New values on the same grid and under the same nodata mask."""
        return ScalarImage(self.geometry, values, self.nodata)


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

    def max_norm(self) -> float:
        return float(np.sqrt(np.max(self.u_x * self.u_x + self.u_y * self.u_y)))


def _check_count(value, name: str):
    """Reject anything but an integer >= 1 (bools included)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ParameterError("%s must be an integer >= 1" % name)


def _require_same_shape(a: GridGeometry, b: GridGeometry, what: str):
    if a.shape != b.shape:
        raise GeometryError(
            "%s requires matching grids, got %s vs %s" % (what, a.shape, b.shape)
        )


# ---------------------------------------------------------------------------
# sampling and warping


def _bilinear_arrays(values, mask, xs, ys, edge_clamp=False, cell=False):
    """Vectorized bilinear sampling: the one kernel behind every bilinear
    warp, resample and transfer.

    Returns (sampled values, invalid flags, cell).  Out-of-domain points
    are flagged unless ``edge_clamp`` is set, in which case coordinates are
    clamped to the grid hull.  A point is also invalid when any neighbour
    with nonzero interpolation weight is masked.  With ``edge_clamp`` and
    no mask nothing can be invalid, and the flags are None.  ``values`` may
    stack several images on leading axes; they are all sampled from the
    one cell computation.  With ``cell`` set, cell holds the in-cell
    fractions, their complements and the four corner values
    ``(fx, fy, 1 - fx, 1 - fy, v00, v10, v01, v11)`` for the caller to
    reuse as scratch; otherwise it is None.

    The kernel works in place, in a fixed number of coordinate-sized
    buffers: the clipped coordinates become the fractions, their floors
    the flat corner index and then the complements, and one flat index
    advances through the corners k, k + 1, k + w, k + w + 1, gathering
    values and mask alike.  Each corner's weight is the product of a
    fraction and a complement, and the result is the sum
    ``((w00 v00 + w10 v10) + w01 v01) + w11 v11`` in that order, so every
    sample keeps the bits of the textbook formula.
    """
    h, w = values.shape[-2:]
    fx = np.clip(xs, 0.0, w - 1.0)
    fy = np.clip(ys, 0.0, h - 1.0)
    gx = np.floor(fx)
    gy = np.floor(fy)
    np.minimum(gx, w - 2, out=gx)
    np.minimum(gy, h - 2, out=gy)
    fx -= gx
    fy -= gy
    # integral floats well below 2**53, so the index is exact
    gy *= w
    gy += gx
    k = gy.astype(np.int64)
    np.subtract(1.0, fx, out=gx)
    np.subtract(1.0, fy, out=gy)
    flat = values.reshape(values.shape[:-2] + (h * w,))
    bad = None if edge_clamp else (xs < 0.0) | (xs > w - 1.0) | (ys < 0.0) | (ys > h - 1.0)
    if mask is not None:
        flat_mask = mask.ravel()
        bad = np.zeros(k.shape, dtype=bool) if bad is None else bad
    corners = []
    v = None
    weight = np.empty_like(fx)
    for (a, b), step in zip(((gx, gy), (fx, gy), (gx, fy), (fx, fy)), (0, 1, w - 1, 1)):
        k += step
        np.multiply(a, b, out=weight)
        if mask is not None:
            # a sum of non-negative weights times 0/1 flags is positive
            # exactly when one flagged corner has a positive weight
            touched = np.take(flat_mask, k)
            touched &= weight > 0.0
            bad |= touched
        # ``take`` on the raveled grid gathers what 2-D fancy indexing
        # would, several times faster
        corner = np.take(flat, k, axis=-1)
        if cell:
            corners.append(corner)
            # the first term becomes v; later ones reuse the weight buffer
            term = np.multiply(weight, corner, out=weight if v is not None else None)
        else:
            term = np.multiply(corner, weight, out=corner)
        if v is None:
            v = term
        else:
            v += term
    return v, bad, ((fx, fy, gx, gy, *corners) if cell else None)


def _round_half_up(p):
    """Nearest integer to ``p`` (floats), a half rounding up: the cell rule
    of nearest-node sampling and of LiDAR gridding.

    Written as ``floor(p) + (p - floor(p) >= 0.5)``, whose subtraction is
    exact, it holds for every float; ``floor(p + 0.5)`` rounds the sum,
    so p = 0.49999999999999994 would land in cell 1.
    """
    cell = np.floor(p)
    with np.errstate(invalid="ignore"):  # inf - inf: +-inf stays put
        return cell + (p - cell >= 0.5)


def _nearest_arrays(values, mask, xs, ys):
    """Nearest-node sampling; a point halfway between two nodes takes the
    upper one, as a LiDAR return on a cell edge does."""
    h, w = values.shape
    xi = _round_half_up(xs)
    yi = _round_half_up(ys)
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


# one slot is one level's constant
@functools.lru_cache(maxsize=1)
def _pixel_grid(geometry: GridGeometry):
    """Read-only column and row coordinates ``(xs, ys)`` of every pixel."""
    ys, xs = np.mgrid[0.0:geometry.height, 0.0:geometry.width]
    xs.flags.writeable = ys.flags.writeable = False
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
    return ScalarImage(u.geometry, v, bad)


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
    v, _, (fx, fy, gx, gy, v00, v10, v01, v11) = _bilinear_arrays(
        image.values, None, px, py, edge_clamp=True, cell=True
    )
    h, w = image.geometry.shape
    x_clamped = (px < 0.0) | (px > w - 1.0)
    y_clamped = (py < 0.0) | (py > h - 1.0)
    # dvdx = gy (v10 - v00) + fy (v11 - v01) and dvdy = gx (v01 - v00) +
    # fx (v11 - v10), each written into a buffer the warp is done with
    dvdx = np.subtract(v10, v00, out=px)
    dvdx *= gy
    dvdy = np.subtract(v01, v00, out=py)
    dvdy *= gx
    dvdx += np.multiply(np.subtract(v11, v01, out=v01), fy, out=v01)
    dvdy += np.multiply(np.subtract(v11, v10, out=v10), fx, out=v10)
    np.copyto(dvdx, 0.0, where=x_clamped)
    np.copyto(dvdy, 0.0, where=y_clamped)
    return ScalarImage(u.geometry, v, None), dvdx, dvdy


# ---------------------------------------------------------------------------
# finite differences


def gradient_axis(values: np.ndarray, axis: int) -> np.ndarray:
    """Central differences inside, one-sided at the two boundary planes,
    in pixel units."""
    v = np.moveaxis(values, axis, 0)
    g = np.empty_like(v)
    g[1:-1] = (v[2:] - v[:-2]) / 2.0
    g[0] = v[1] - v[0]
    g[-1] = v[-1] - v[-2]
    return np.moveaxis(g, 0, axis)


def gradient_axis_adjoint(weights: np.ndarray, axis: int) -> np.ndarray:
    """Exact transpose of :func:`gradient_axis` (needed by NGF derivatives)."""
    w_ = np.moveaxis(weights, axis, 0)
    v = np.zeros_like(w_)
    inner = w_[1:-1] / 2.0
    v[2:] += inner
    v[:-2] -= inner
    v[1] += w_[0]
    v[0] -= w_[0]
    v[-1] += w_[-1]
    v[-2] -= w_[-1]
    return np.moveaxis(v, 0, axis)


def laplacian_values(values: np.ndarray) -> np.ndarray:
    """5-point Laplacian in pixel units with boundary rows dropped.

    Boundary second differences use linear extrapolation ghosts, so each
    direction contributes zero on its two boundary planes and any affine
    field maps to zero everywhere.
    """
    out = np.empty_like(values)
    # (v[k+1] - 2 v[k]) + v[k-1] as (-2 v[k] + v[k+1]) + v[k-1]: same roundings
    inner = np.multiply(values[:, 1:-1], -2.0, out=out[:, 1:-1])
    inner += values[:, 2:]
    inner += values[:, :-2]
    out[:, [0, -1]] = 0.0
    dy = values[1:-1, :] * -2.0
    dy += values[2:, :]
    dy += values[:-2, :]
    out[1:-1, :] += dy
    return out


def laplacian_adjoint_values(weights: np.ndarray) -> np.ndarray:
    """Exact transpose of :func:`laplacian_values`: per pixel t[k+1] -
    2 t[k] + t[k-1] along x, then along y, t the weights, zero on that
    direction's two boundary planes."""
    out = np.empty_like(weights)
    tx = weights[:, 1:-1]
    out[:, :-2] = tx
    out[:, -2:] = 0.0
    out[:, 1:-1] -= 2.0 * tx
    out[:, 2:] += tx
    ty = weights[1:-1, :]
    out[:-2, :] += ty
    out[1:-1, :] -= 2.0 * ty
    out[2:, :] += ty
    return out


# ---------------------------------------------------------------------------
# pyramid


def downsample(image: ScalarImage) -> ScalarImage:
    """One pyramid step onto the coarsened geometry: the mean of the valid
    cells of each 2x2 block (fewer at a ragged edge); a block without one
    is nodata.  Masked samples are 0, so the block sums of the values are
    those of the valid cells, and the valid counts are small exact integers."""
    h, w = image.geometry.shape
    ri = np.arange(0, h, 2)
    ci = np.arange(0, w, 2)
    sums, counts = (
        np.add.reduceat(np.add.reduceat(a, ri, axis=0), ci, axis=1)
        for a in (image.values, image.valid_mask.astype(np.float64))
    )
    empty = counts == 0.0
    return ScalarImage(image.geometry.coarsened(), sums / np.where(empty, 1.0, counts), empty)


def build_pyramid(image: ScalarImage, max_levels: int = 8) -> list[ScalarImage]:
    """Coarsen by 2x2 box averages until the next level would drop below a
    32-pixel minimum dimension or ``max_levels`` is reached.

    Returns the levels finest first.
    """
    _check_count(max_levels, "max_levels")
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
    if hi - lo < MIN_INTENSITY_RANGE:
        raise DegenerateImageError(
            "intensity range %.3g is too small to normalize" % (hi - lo)
        )
    return image.with_values((image.values - lo) / (hi - lo))


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
    return ScalarImage(geometry, v, bad)
