"""Geospatial plumbing: LiDAR rasterization, hyperspectral cubes, photo
footprints, overlap cropping and mosaicking.

World coordinates are metric easting/northing.  All products end up as
:class:`ScalarImage` grids so the registration machinery never needs to
know where an image came from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GeometryError, ParameterError, PlacementError
from .grid import GridGeometry, ScalarImage, resample_to_geometry, warp
from . import raster_io

GROUND_PITCH = 0.3  # metres of ground per photo pixel at nominal altitude
FOOTPRINT_MARGIN = 300.0  # metres added around a photo footprint

RGB_WAVELENGTHS = (640.0, 549.0, 460.0)


# ---------------------------------------------------------------------------
# LiDAR point clouds


@dataclass
class LidarPointCloud:
    """Discrete-return point records with per-point intensity."""

    easting: np.ndarray
    northing: np.ndarray
    elevation: np.ndarray
    intensity: np.ndarray
    return_number: np.ndarray
    agc: np.ndarray | None = None

    def __post_init__(self):
        arrays = {
            "easting": self.easting,
            "northing": self.northing,
            "elevation": self.elevation,
            "intensity": self.intensity,
        }
        n = None
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            setattr(self, name, arr)
            if arr.ndim != 1:
                raise FormatError("%s must be 1-D" % name)
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise FormatError("point record arrays differ in length")
            if not np.isfinite(arr).all():
                raise FormatError("%s contains non-finite entries" % name)
        self.return_number = np.asarray(self.return_number)
        if self.return_number.size != n:
            raise FormatError("point record arrays differ in length")
        if self.return_number.size and (
            not np.issubdtype(self.return_number.dtype, np.number)
            or not np.isfinite(self.return_number).all()
            or (np.asarray(self.return_number, dtype=np.float64) < 1).any()
        ):
            raise FormatError("return numbers must be finite and >= 1")
        self.return_number = np.asarray(self.return_number, dtype=np.int64)
        if (self.intensity < 0).any():
            raise FormatError("intensities must be non-negative")
        if self.agc is not None:
            self.agc = np.asarray(self.agc, dtype=np.float64)
            if self.agc.size != n:
                raise FormatError("point record arrays differ in length")
            if not np.isfinite(self.agc).all():
                raise FormatError("agc contains non-finite entries")
        if n == 0:
            raise FormatError("point cloud is empty")

    def __len__(self):
        return self.easting.size

    @classmethod
    def from_csv(cls, path) -> "LidarPointCloud":
        """Read comma-separated x,y,z,intensity,return[,agc] records.

        A single non-numeric header row is tolerated.
        """
        path = str(path)
        if not os.path.exists(path):
            raise FormatError("missing point file %s" % path)
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
        start = next((i for i, line in enumerate(lines) if line), None)
        if start is None:
            raise FormatError("%s: empty point file" % path)
        try:
            [float(tok) for tok in lines[start].split(",")]
        except ValueError:
            start += 1
        rows = []
        ncols = None
        for lineno, line in enumerate(lines[start:], start + 1):
            if not line:
                continue
            toks = line.split(",")
            if ncols is None:
                ncols = len(toks)
                if ncols not in (5, 6):
                    raise FormatError(
                        "%s: expected 5 or 6 columns, found %d" % (path, ncols)
                    )
            elif len(toks) != ncols:
                raise FormatError("%s:%d: ragged row" % (path, lineno))
            try:
                rows.append([float(tok) for tok in toks])
            except ValueError as exc:
                raise FormatError("%s:%d: bad number" % (path, lineno)) from exc
        data = np.asarray(rows, dtype=np.float64)
        if data.size == 0:
            raise FormatError("%s: no data rows" % path)
        agc = data[:, 5] if ncols == 6 else None
        return cls(
            easting=data[:, 0],
            northing=data[:, 1],
            elevation=data[:, 2],
            intensity=data[:, 3],
            return_number=data[:, 4],
            agc=agc,
        )


def rasterize_lidar(
    cloud: LidarPointCloud,
    cell_size: float = 1.0,
    geometry: GridGeometry | None = None,
) -> ScalarImage:
    """Grid the cloud into mean-intensity cells (all returns pooled).

    Without an explicit geometry the grid is derived from the point extent
    with nodes on multiples of the cell size.  Cells receiving no points
    come back as nodata.
    """
    if not (np.isfinite(cell_size) and cell_size > 0):
        raise ParameterError("cell_size must be finite and positive")
    if geometry is None:
        min_e = np.floor(float(np.min(cloud.easting)) / cell_size) * cell_size
        min_n = np.floor(float(np.min(cloud.northing)) / cell_size) * cell_size
        width = int(np.floor((cloud.easting.max() - min_e) / cell_size + 0.5)) + 1
        height = int(np.floor((cloud.northing.max() - min_n) / cell_size + 0.5)) + 1
        geometry = GridGeometry(
            width=max(width, 2),
            height=max(height, 2),
            spacing_x=cell_size,
            spacing_y=cell_size,
            origin_easting=float(min_e),
            origin_northing=float(min_n),
        )
    px, py = geometry.world_to_pixel(cloud.easting, cloud.northing)
    col = np.rint(px).astype(np.int64)
    row = np.rint(py).astype(np.int64)
    inside = (col >= 0) & (col < geometry.width) & (row >= 0) & (row < geometry.height)
    idx = row[inside] * geometry.width + col[inside]
    n_cells = geometry.width * geometry.height
    sums = np.bincount(idx, weights=cloud.intensity[inside], minlength=n_cells)
    counts = np.bincount(idx, minlength=n_cells)
    empty = counts == 0
    values = (sums / np.where(empty, 1, counts)).reshape(geometry.shape)
    mask = empty.reshape(geometry.shape)
    return ScalarImage(geometry, np.where(mask, 0.0, values), mask if mask.any() else None)


# ---------------------------------------------------------------------------
# hyperspectral cubes


@dataclass
class HyperspectralCube:
    """Stack of co-registered single-wavelength bands."""

    geometry: GridGeometry
    wavelengths: np.ndarray
    bands: list

    def __post_init__(self):
        self.wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
        if self.wavelengths.ndim != 1 or self.wavelengths.size != len(self.bands):
            raise FormatError("wavelength count does not match band count")
        if self.wavelengths.size == 0:
            raise FormatError("cube needs at least one band")
        if (np.diff(self.wavelengths) <= 0).any():
            raise FormatError("wavelengths must be strictly ascending")
        for b in self.bands:
            if b.geometry.shape != self.geometry.shape:
                raise GeometryError("cube band grids differ")

    @classmethod
    def from_raster(cls, path) -> "HyperspectralCube":
        geometry, bands, wavelengths, mask = raster_io.read_raster(path)
        if wavelengths is None:
            raise FormatError("%s: cube raster lacks a wavelengths header" % path)
        images = [ScalarImage(geometry, b, mask) for b in bands]
        return cls(geometry, np.asarray(wavelengths), images)

    def to_raster(self, path):
        mask = None
        for b in self.bands:
            if b.nodata is not None:
                mask = b.nodata if mask is None else (mask | b.nodata)
        raster_io.write_raster(
            path,
            self.geometry,
            [b.values for b in self.bands],
            wavelengths=list(self.wavelengths),
            nodata_mask=mask,
        )


def select_band(cube: HyperspectralCube, wavelength: float) -> ScalarImage:
    """Band whose wavelength is closest to the request (ties: shorter)."""
    i = int(np.argmin(np.abs(cube.wavelengths - wavelength)))
    return cube.bands[i]


def rgb_composite(cube: HyperspectralCube):
    """Nearest bands to 640/549/460 nm as an (R, G, B) triple."""
    return tuple(select_band(cube, wl) for wl in RGB_WAVELENGTHS)


def grey_composite(cube: HyperspectralCube) -> ScalarImage:
    """Unweighted mean of the RGB composite channels."""
    r, g, b = rgb_composite(cube)
    mask = None
    for im in (r, g, b):
        if im.nodata is not None:
            mask = im.nodata if mask is None else (mask | im.nodata)
    vals = (r.values + g.values + b.values) / 3.0
    if mask is not None:
        vals = np.where(mask, 0.0, vals)
    return ScalarImage(cube.geometry, vals, mask)


def resample_cube(cube: HyperspectralCube, geometry: GridGeometry) -> HyperspectralCube:
    """Nearest-neighbour spectral resampling onto another grid.

    Nearest sampling keeps radiometry untouched: every output sample is an
    original measured value, never a blend.
    """
    bands = [resample_to_geometry(b, geometry, mode="nearest") for b in cube.bands]
    return HyperspectralCube(geometry, cube.wavelengths.copy(), bands)


def warp_cube(cube: HyperspectralCube, u) -> HyperspectralCube:
    """Apply one displacement field to every band."""
    bands = [warp(b, u) for b in cube.bands]
    return HyperspectralCube(cube.geometry, cube.wavelengths.copy(), bands)


# ---------------------------------------------------------------------------
# photo footprints


@dataclass(frozen=True)
class Footprint:
    """Axis-aligned metric extent."""

    min_easting: float
    min_northing: float
    max_easting: float
    max_northing: float

    def __post_init__(self):
        if not (self.max_easting > self.min_easting and self.max_northing > self.min_northing):
            raise GeometryError("footprint extent must be positive")

    @property
    def width(self) -> float:
        return self.max_easting - self.min_easting

    @property
    def height(self) -> float:
        return self.max_northing - self.min_northing

    def intersect(self, other: "Footprint"):
        lo_e = max(self.min_easting, other.min_easting)
        hi_e = min(self.max_easting, other.max_easting)
        lo_n = max(self.min_northing, other.min_northing)
        hi_n = min(self.max_northing, other.max_northing)
        if lo_e >= hi_e or lo_n >= hi_n:
            return None
        return Footprint(lo_e, lo_n, hi_e, hi_n)


@dataclass(frozen=True)
class PhotoMetadata:
    """What we reliably know about a frame photo: where it was taken and
    how many pixels it has."""

    centre_easting: float
    centre_northing: float
    width_px: int
    height_px: int

    def __post_init__(self):
        if self.width_px < 2 or self.height_px < 2:
            raise ParameterError("photo must be at least 2x2 pixels")


def photo_footprint(meta: PhotoMetadata) -> Footprint:
    """Ground extent covered by a photo.

    Linear model: pixels * nominal ground pitch plus a fixed margin for
    attitude and terrain uncertainty.  A 7000 x 5000 frame maps to
    2400 m x 1800 m.
    """
    width_m = meta.width_px * GROUND_PITCH + FOOTPRINT_MARGIN
    height_m = meta.height_px * GROUND_PITCH + FOOTPRINT_MARGIN
    return Footprint(
        meta.centre_easting - width_m / 2.0,
        meta.centre_northing - height_m / 2.0,
        meta.centre_easting + width_m / 2.0,
        meta.centre_northing + height_m / 2.0,
    )


def footprint_of(geometry: GridGeometry) -> Footprint:
    """Cell-edge footprint of a georeferenced grid."""
    min_e, min_n, max_e, max_n = geometry.bounds()
    return Footprint(min_e, min_n, max_e, max_n)


def geometry_from_footprint(fp: Footprint, width: int, height: int) -> GridGeometry:
    """Grid filling a footprint with the given pixel counts."""
    sx = fp.width / width
    sy = fp.height / height
    return GridGeometry(
        width=width,
        height=height,
        spacing_x=sx,
        spacing_y=sy,
        origin_easting=fp.min_easting + sx / 2.0,
        origin_northing=fp.min_northing + sy / 2.0,
    )


# ---------------------------------------------------------------------------
# overlap cropping


def _crop_range(origin: float, spacing: float, n: int, lo: float, hi: float):
    start = int(np.ceil((lo - origin) / spacing - 1e-9))
    stop = int(np.floor((hi - origin) / spacing + 1e-9))
    start = max(start, 0)
    stop = min(stop, n - 1)
    return start, stop


def crop_to_footprint(image: ScalarImage, fp: Footprint) -> ScalarImage:
    """Sub-grid of pixels whose nodes fall inside the footprint."""
    g = image.geometry
    c0, c1 = _crop_range(g.origin_easting, g.spacing_x, g.width, fp.min_easting, fp.max_easting)
    r0, r1 = _crop_range(g.origin_northing, g.spacing_y, g.height, fp.min_northing, fp.max_northing)
    if c1 - c0 < 1 or r1 - r0 < 1:
        raise GeometryError("footprint overlap is smaller than 2x2 pixels")
    sub = GridGeometry(
        width=c1 - c0 + 1,
        height=r1 - r0 + 1,
        spacing_x=g.spacing_x,
        spacing_y=g.spacing_y,
        origin_easting=g.origin_easting + c0 * g.spacing_x,
        origin_northing=g.origin_northing + r0 * g.spacing_y,
    )
    vals = image.values[r0 : r1 + 1, c0 : c1 + 1]
    nod = None if image.nodata is None else image.nodata[r0 : r1 + 1, c0 : c1 + 1]
    return ScalarImage(sub, vals.copy(), None if nod is None else nod.copy())


def crop_to_overlap(a: ScalarImage, b: ScalarImage):
    """Crop both images to their common world extent."""
    overlap = footprint_of(a.geometry).intersect(footprint_of(b.geometry))
    if overlap is None:
        raise GeometryError("images do not overlap")
    return crop_to_footprint(a, overlap), crop_to_footprint(b, overlap)


# ---------------------------------------------------------------------------
# mosaicking


@dataclass
class SeamRecord:
    """Intensity discontinuity statistics along one tile-tile interface."""

    tile_a: str
    tile_b: str
    easting: float
    northing: float
    mean_jump: float
    pixel_pairs: int

    def to_text(self) -> str:
        return "seam tiles=%s|%s easting=%.3f northing=%.3f mean_jump=%.6e pairs=%d" % (
            self.tile_a,
            self.tile_b,
            self.easting,
            self.northing,
            self.mean_jump,
            self.pixel_pairs,
        )


def _lattice_offset(value: float, base: float, spacing: float) -> int:
    off = (value - base) / spacing
    rounded = int(np.rint(off))
    if abs(off - rounded) > 1e-6:
        raise PlacementError(
            "tile origin offset %.9g is not an integer number of cells" % off
        )
    return rounded


def mosaic(tiles):
    """Compose georeferenced tiles onto one grid, last writer wins.

    ``tiles`` is a sequence of (tile_id, ScalarImage).  All tiles must share
    the cell size and sit on a common lattice.  Returns the composite image
    and seam statistics: for every pair of adjacent tiles, the mean absolute
    value jump over the 4-neighbour pixel pairs straddling the ownership
    boundary.
    """
    tiles = list(tiles)
    if not tiles:
        raise PlacementError("mosaic needs at least one tile")
    sx = tiles[0][1].geometry.spacing_x
    sy = tiles[0][1].geometry.spacing_y
    for _, img in tiles[1:]:
        g = img.geometry
        if abs(g.spacing_x - sx) > 1e-9 * sx or abs(g.spacing_y - sy) > 1e-9 * sy:
            raise PlacementError("tiles have different cell sizes")
    base_e = min(img.geometry.origin_easting for _, img in tiles)
    base_n = min(img.geometry.origin_northing for _, img in tiles)
    offsets = []
    for _, img in tiles:
        g = img.geometry
        offsets.append(
            (
                _lattice_offset(g.origin_easting, base_e, sx),
                _lattice_offset(g.origin_northing, base_n, sy),
            )
        )
    width = max(ox + img.geometry.width for (ox, _), (_, img) in zip(offsets, tiles))
    height = max(oy + img.geometry.height for (_, oy), (_, img) in zip(offsets, tiles))
    geometry = GridGeometry(
        width=width,
        height=height,
        spacing_x=sx,
        spacing_y=sy,
        origin_easting=base_e,
        origin_northing=base_n,
    )
    values = np.zeros(geometry.shape)
    owner = np.full(geometry.shape, -1, dtype=np.int64)
    for i, ((ox, oy), (_, img)) in enumerate(zip(offsets, tiles)):
        h, w = img.geometry.shape
        sl = (slice(oy, oy + h), slice(ox, ox + w))
        valid = img.valid_mask
        values[sl] = np.where(valid, img.values, values[sl])
        owner_block = owner[sl]
        owner[sl] = np.where(valid, i, owner_block)
    composite = ScalarImage(geometry, values, owner < 0 if (owner < 0).any() else None)

    # seam statistics over 4-neighbour pairs with different owners
    pair_stats = {}

    def accumulate(o1, o2, v1, v2, e_mid, n_mid):
        both = (o1 >= 0) & (o2 >= 0) & (o1 != o2)
        if not both.any():
            return
        lo = np.minimum(o1[both], o2[both])
        hi = np.maximum(o1[both], o2[both])
        jump = np.abs(v1[both] - v2[both])
        em = e_mid[both]
        nm = n_mid[both]
        for a, b in {(int(x), int(y)) for x, y in zip(lo, hi)}:
            sel = (lo == a) & (hi == b)
            key = (a, b)
            tot, cnt, se, sn = pair_stats.get(key, (0.0, 0, 0.0, 0.0))
            pair_stats[key] = (
                tot + float(np.sum(jump[sel])),
                cnt + int(np.sum(sel)),
                se + float(np.sum(em[sel])),
                sn + float(np.sum(nm[sel])),
            )

    xs = np.arange(width) * sx + base_e
    ys = np.arange(height) * sy + base_n
    ee = np.broadcast_to(xs, geometry.shape)
    nn = np.broadcast_to(ys[:, None], geometry.shape)
    accumulate(
        owner[:, :-1], owner[:, 1:], values[:, :-1], values[:, 1:],
        (ee[:, :-1] + ee[:, 1:]) / 2.0, nn[:, :-1],
    )
    accumulate(
        owner[:-1, :], owner[1:, :], values[:-1, :], values[1:, :],
        ee[:-1, :], (nn[:-1, :] + nn[1:, :]) / 2.0,
    )
    records = []
    for (a, b), (tot, cnt, se, sn) in sorted(pair_stats.items()):
        records.append(
            SeamRecord(
                tile_a=tiles[a][0],
                tile_b=tiles[b][0],
                easting=se / cnt,
                northing=sn / cnt,
                mean_jump=tot / cnt,
                pixel_pairs=cnt,
            )
        )
    return composite, records
