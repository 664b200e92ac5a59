"""Geospatial plumbing: LiDAR rasterization, hyperspectral cubes, photo
footprints and mosaicking.

World coordinates are metric easting/northing.  All products end up as
:class:`ScalarImage` grids so the registration machinery never needs to
know where an image came from.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GeometryError, ParameterError, PlacementError
from .grid import GridGeometry, ScalarImage, _round_half_up, resample_to_geometry, warp
from . import raster_io

GROUND_PITCH = 0.3  # metres of ground per photo pixel at nominal altitude
FOOTPRINT_MARGIN = 300.0  # metres added around a photo footprint

RGB_WAVELENGTHS = (640.0, 549.0, 460.0)

RASTER_BLOCK = 1 << 15  # returns gridded per pass: bounds rasterize's working memory
# cells in a grid derived from input (a point extent, mosaic tile origins):
# 2^25 cells (5793^2, 0.5 GiB of float64 and int64 per-cell buffers) sits
# far above every benchmark grid, far below what a stray return asks for
MAX_GRID_CELLS = 1 << 25
RETURN_RANGE = "return numbers must be integers from 1 to 2**63 - 1"


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
        """Whole-array faults first (shape, length, return dtype, empty),
        then the first bad row, with the message of its first failing
        check and its index as the error's ``row``."""
        names = ("easting", "northing", "elevation", "intensity")
        for name in names:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if arr.ndim != 1:
                raise FormatError("%s must be 1-D" % name)
            if arr.size != self.easting.size:
                raise FormatError("point record arrays differ in length")
        returns = np.asarray(self.return_number)
        if returns.size != self.easting.size:
            raise FormatError("point record arrays differ in length")
        if returns.size and returns.dtype.kind not in "iuf":
            raise FormatError(RETURN_RANGE)
        if self.agc is not None:
            self.agc = np.asarray(self.agc, dtype=np.float64)
            if self.agc.size != self.easting.size:
                raise FormatError("point record arrays differ in length")
        if self.easting.size == 0:
            raise FormatError("point cloud is empty")

        def whole(r):  # integers in [1, 2**63)
            with np.errstate(invalid="ignore"):  # inf % 1
                return np.isfinite(r) & (r >= 1) & (r < 2**63) & (r % 1 == 0)

        checks = [(name + " contains non-finite entries", getattr(self, name), np.isfinite)
                  for name in names]
        checks += [(RETURN_RANGE, returns, whole),
                   ("intensities must be non-negative", self.intensity, lambda a: a >= 0)]
        if self.agc is not None:
            checks.append(("agc contains non-finite entries", self.agc, np.isfinite))
        ok = np.ones(self.easting.size, dtype=bool)
        for _, column, test in checks:
            ok &= test(column)
        if not ok.all():
            row = int(np.argmin(ok))
            raise FormatError(
                next(msg for msg, column, test in checks if not test(column[row:row + 1])[0]),
                row=row,
            )
        self.return_number = np.asarray(returns, dtype=np.int64)

    def __len__(self):
        return self.easting.size

    @classmethod
    def from_csv(cls, path) -> "LidarPointCloud":
        """Read comma-separated x,y,z,intensity,return[,agc] records.

        The file must be ASCII; blank lines and one non-numeric header row
        are tolerated.  A file numpy's parser refuses is scanned row by row,
        which accepts whatever ``float`` does or names the line at fault.
        A value the point cloud refuses is reported with the line of the
        first row that holds one.
        """
        path = str(path)
        if not os.path.exists(path):
            raise FormatError("missing point file %s" % path)
        try:
            data = _load_points(path)
        except ValueError:  # UnicodeDecodeError included
            data = _scan_points(path)

        agc = data[:, 5] if data.shape[1] == 6 else None
        try:
            return cls(data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4], agc)
        except FormatError as exc:
            # a parsed table has no whole-array fault, so ``row`` is set,
            # and its rows are the file's data lines in order
            raise FormatError(
                "%s:%d: %s" % (path, _data_lines(path)[exc.row][0], exc)
            ) from None


def _lines_before_data(lines, path) -> int:
    """Count the leading blank lines plus the header, if any: the first
    non-blank line is a header unless all of its fields parse as floats."""
    for i, line in enumerate(lines):
        line = line.strip()
        if line:
            try:
                [float(tok) for tok in line.split(",")]
            except ValueError:
                return i + 1
            return i
    raise FormatError("%s: empty point file" % path)


def _load_points(path: str) -> np.ndarray:
    """numpy's C parser; raises ValueError for any file that is not a
    non-empty 5- or 6-column table or holds the ASCII separators
    0x1c-0x1f, which numpy reads as blanks around a number and ``float``
    does not.
    """
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if any(sep in chunk for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                raise ValueError("ASCII separator byte")
    with open(path, "r", encoding="ascii") as fh:
        skip = _lines_before_data(fh, path)
    with warnings.catch_warnings():  # a header-only file is refused below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, comments=None,
                          encoding="ascii", dtype=np.float64)
    if data.size == 0 or data.shape[1] not in (5, 6):
        raise ValueError("not a point table")
    return data


def _data_lines(path: str):
    """(line number, stripped text) of every data row, as the scan sees
    them; names the first non-ASCII line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = [ln.strip() for ln in fh]
    for lineno, line in enumerate(lines, 1):
        if not line.isascii():
            raise FormatError("%s:%d: non-ASCII byte" % (path, lineno))
    start = _lines_before_data(lines, path)
    return [(n, line) for n, line in enumerate(lines[start:], start + 1) if line]


def _scan_points(path: str) -> np.ndarray:
    """Row-by-row parse that names the line at fault when it rejects a file."""
    rows = []
    ncols = None
    for lineno, line in _data_lines(path):
        toks = line.split(",")
        if ncols is None:
            ncols = len(toks)
            if ncols not in (5, 6):
                raise FormatError("%s: expected 5 or 6 columns, found %d" % (path, ncols))
        elif len(toks) != ncols:
            raise FormatError("%s:%d: ragged row" % (path, lineno))
        try:
            rows.append([float(tok) for tok in toks])
        except ValueError as exc:
            raise FormatError("%s:%d: bad number" % (path, lineno)) from exc
    if not rows:
        raise FormatError("%s: no data rows" % path)
    return np.asarray(rows, dtype=np.float64)


def rasterize_lidar(
    cloud: LidarPointCloud,
    cell_size: float = 1.0,
    geometry: GridGeometry | None = None,
) -> ScalarImage:
    """Grid the cloud into mean-intensity cells (all returns pooled).

    Without an explicit geometry the grid is derived from the point extent
    with nodes on multiples of the cell size.  Cells are half-open: the
    cell of node k spans pixel coordinates [k - 0.5, k + 0.5), so a return
    on the edge between two cells lands in the upper one.  Cells receiving
    no points come back as nodata.  The returns are binned
    ``RASTER_BLOCK`` at a time, so the working memory beyond the grid is
    that of one block, however many returns the cloud holds.  A derived
    grid of more than ``MAX_GRID_CELLS`` cells is refused with
    :class:`ParameterError`, before anything is allocated.
    """
    if not (np.isfinite(cell_size) and cell_size > 0):
        raise ParameterError("cell_size must be finite and positive")
    if geometry is None:
        lo_e, hi_e = float(np.min(cloud.easting)), float(np.max(cloud.easting))
        lo_n, hi_n = float(np.min(cloud.northing)), float(np.max(cloud.northing))
        # an extent too wide for floats comes out inf or NaN, which the
        # cap test refuses too
        with np.errstate(over="ignore", invalid="ignore"):
            min_e = np.floor(lo_e / cell_size) * cell_size
            min_n = np.floor(lo_n / cell_size) * cell_size
            width = _round_half_up((hi_e - min_e) / cell_size) + 1
            height = _round_half_up((hi_n - min_n) / cell_size) + 1
            cells = max(width, 2) * max(height, 2)
        if not cells <= MAX_GRID_CELLS:
            raise ParameterError(
                "returns span %.6g m x %.6g m, more than %d cells at cell size %g"
                % (hi_e - lo_e, hi_n - lo_n, MAX_GRID_CELLS, cell_size)
            )
        geometry = GridGeometry(
            width=max(int(width), 2),
            height=max(int(height), 2),
            spacing_x=cell_size,
            spacing_y=cell_size,
            origin_easting=float(min_e),
            origin_northing=float(min_n),
        )
    n_cells = geometry.width * geometry.height
    sums = np.zeros(n_cells)
    counts = np.zeros(n_cells, dtype=np.int64)
    # ``add.at`` adds in point order, as one whole-cloud ``bincount`` would,
    # so every cell sum keeps its bits whatever the block size
    for start in range(0, len(cloud), RASTER_BLOCK):
        block = slice(start, start + RASTER_BLOCK)
        px, py = geometry.world_to_pixel(cloud.easting[block], cloud.northing[block])
        col = _round_half_up(px).astype(np.int64)
        row = _round_half_up(py).astype(np.int64)
        inside = (col >= 0) & (col < geometry.width) & (row >= 0) & (row < geometry.height)
        idx = row[inside] * geometry.width + col[inside]
        np.add.at(sums, idx, cloud.intensity[block][inside])
        np.add.at(counts, idx, 1)
    empty = counts == 0
    values = sums / np.where(empty, 1, counts)
    return ScalarImage(geometry, values.reshape(geometry.shape), empty.reshape(geometry.shape))


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
        raster_io.write_raster(
            path,
            self.geometry,
            [b.values for b in self.bands],
            wavelengths=list(self.wavelengths),
            nodata_mask=~np.logical_and.reduce([b.valid_mask for b in self.bands]),
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
    valid = r.valid_mask & g.valid_mask & b.valid_mask
    return ScalarImage(cube.geometry, (r.values + g.values + b.values) / 3.0, ~valid)


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
    if not abs(off) <= MAX_GRID_CELLS:
        raise PlacementError(
            "tile origin offset of %.6g cells exceeds the %d-cell mosaic limit"
            % (off, MAX_GRID_CELLS)
        )
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
    offsets = [(_lattice_offset(img.geometry.origin_easting, base_e, sx),
                _lattice_offset(img.geometry.origin_northing, base_n, sy)) for _, img in tiles]
    width = max(ox + img.geometry.width for (ox, _), (_, img) in zip(offsets, tiles))
    height = max(oy + img.geometry.height for (_, oy), (_, img) in zip(offsets, tiles))
    if width * height > MAX_GRID_CELLS:
        raise PlacementError(
            "tiles span %d x %d cells, more than the %d-cell mosaic limit"
            % (width, height, MAX_GRID_CELLS)
        )
    geometry = GridGeometry(width, height, sx, sy, base_e, base_n)
    values = np.zeros(geometry.shape)
    owner = np.full(geometry.shape, -1, dtype=np.int64)
    for i, ((ox, oy), (_, img)) in enumerate(zip(offsets, tiles)):
        h, w = img.geometry.shape
        sl = (slice(oy, oy + h), slice(ox, ox + w))
        np.copyto(values[sl], img.values, where=img.valid_mask)
        np.copyto(owner[sl], i, where=img.valid_mask)
    composite = ScalarImage(geometry, values, owner < 0)

    # seam statistics over 4-neighbour pairs with different owners: the
    # east-west pairs at their easting midpoints, then the north-south
    # pairs; per owner pair (lo, hi), keyed lo * len(tiles) + hi, the sums
    # of the jumps, the pairs, their eastings and their northings
    sums = {}
    xs = np.arange(width) * sx + base_e
    ys = np.arange(height)[:, None] * sy + base_n
    for a, b, e_mid, n_mid in (
        (np.s_[:, :-1], np.s_[:, 1:], (xs[:-1] + xs[1:]) / 2.0, ys),
        (np.s_[:-1], np.s_[1:], xs, (ys[:-1] + ys[1:]) / 2.0),
    ):
        both = (owner[a] >= 0) & (owner[b] >= 0) & (owner[a] != owner[b])
        o1, o2 = owner[a][both], owner[b][both]
        key = np.minimum(o1, o2) * len(tiles) + np.maximum(o1, o2)
        jump = np.abs(values[a][both] - values[b][both])
        em = np.broadcast_to(e_mid, both.shape)[both]
        nm = np.broadcast_to(n_mid, both.shape)[both]
        for k in np.unique(key).tolist():
            sel = key == k
            pair = [np.sum(jump[sel]), np.sum(sel), np.sum(em[sel]), np.sum(nm[sel])]
            sums[k] = sums.get(k, 0.0) + np.array(pair, dtype=np.float64)
    records = []
    for k in sorted(sums):
        tot, cnt, se, sn = sums[k].tolist()
        records.append(SeamRecord(tiles[k // len(tiles)][0], tiles[k % len(tiles)][0],
                                  se / cnt, sn / cnt, tot / cnt, int(cnt)))
    return composite, records
