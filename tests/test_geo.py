"""Point clouds, cubes, footprints and mosaics."""

import numpy as np
import pytest

from fusereg.errors import FormatError, GeometryError, ParameterError, PlacementError
from fusereg.geo import (
    RASTER_BLOCK,
    Footprint,
    HyperspectralCube,
    LidarPointCloud,
    PhotoMetadata,
    SeamRecord,
    geometry_from_footprint,
    grey_composite,
    mosaic,
    photo_footprint,
    rasterize_lidar,
    resample_cube,
    rgb_composite,
    select_band,
    warp_cube,
)
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage

from conftest import traced_peak


def tiny_cloud(**overrides):
    data = dict(
        easting=np.array([10.0, 11.0, 11.0, 12.5]),
        northing=np.array([20.0, 20.0, 21.0, 21.0]),
        elevation=np.array([5.0, 5.5, 6.0, 6.5]),
        intensity=np.array([100.0, 200.0, 50.0, 75.0]),
        return_number=np.array([1, 1, 2, 1]),
    )
    data.update(overrides)
    return LidarPointCloud(**data)


def small_cube(n=12, wavelengths=(460.0, 549.0, 640.0), seed=2):
    g = GridGeometry(n, n)
    rng = np.random.default_rng(seed)
    bands = [ScalarImage(g, rng.uniform(0, 1, g.shape)) for _ in wavelengths]
    return HyperspectralCube(g, np.asarray(wavelengths, float), bands)


# ---------------------------------------------------------------------------
# point clouds


def test_cloud_basic_properties():
    c = tiny_cloud()
    assert len(c) == 4
    assert c.return_number.dtype == np.int64
    assert c.agc is None


def test_cloud_validation():
    with pytest.raises(FormatError):
        tiny_cloud(easting=np.array([1.0, 2.0]))
    with pytest.raises(FormatError):
        tiny_cloud(intensity=np.array([10.0, -1.0, 5.0, 2.0]))
    with pytest.raises(FormatError):
        tiny_cloud(return_number=np.array([1, 0, 1, 1]))
    for bad in (np.nan, np.inf):
        with pytest.raises(FormatError):
            tiny_cloud(return_number=np.array([1.0, bad, 1.0, 1.0]))
        with pytest.raises(FormatError):
            tiny_cloud(agc=np.array([1.0, bad, 1.0, 1.0]))
    with pytest.raises(FormatError):
        tiny_cloud(elevation=np.array([1.0, np.nan, 2.0, 3.0]))
    with pytest.raises(FormatError):
        LidarPointCloud(
            easting=np.array([]),
            northing=np.array([]),
            elevation=np.array([]),
            intensity=np.array([]),
            return_number=np.array([]),
        )


def test_from_csv_five_columns(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("1.0,2.0,3.0,40.0,1\n1.5,2.5,3.5,50.0,2\n")
    c = LidarPointCloud.from_csv(p)
    assert len(c) == 2
    assert c.agc is None
    np.testing.assert_array_equal(c.intensity, [40.0, 50.0])
    np.testing.assert_array_equal(c.return_number, [1, 2])


def test_from_csv_six_columns_and_header(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text(
        "easting,northing,elev,intensity,return,agc\n"
        "1.0,2.0,3.0,40.0,1,7.5\n"
        "1.5,2.5,3.5,50.0,1,8.0\n"
    )
    c = LidarPointCloud.from_csv(p)
    np.testing.assert_array_equal(c.agc, [7.5, 8.0])


# the refusal of a whole table by the earlier whole-array checks: each
# check in order over every row, the return-number terms short-circuited
def prefix_refusal(cols):
    e, n, z, i, r = cols[:5]
    for name, a in zip(("easting", "northing", "elevation", "intensity"), (e, n, z, i)):
        if not np.isfinite(a).all():
            return "%s contains non-finite entries" % name
    if not (
        np.isfinite(r).all() and (r >= 1).all() and (r < 2**63).all() and (r % 1 == 0).all()
    ):
        return "return numbers must be integers from 1 to 2**63 - 1"
    if (i < 0).any():
        return "intensities must be non-negative"
    if len(cols) == 6 and not np.isfinite(cols[5]).all():
        return "agc contains non-finite entries"
    return None


def prefix_bisection(cols):
    """(first bad row, message) as ``from_csv`` found them by bisection:
    the shortest refused prefix, and that prefix's refusal."""
    err = prefix_refusal(cols)
    if err is None:
        return None
    lo, hi = 0, len(cols[0])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        refusal = prefix_refusal([c[:mid] for c in cols])
        if refusal is None:
            lo = mid
        else:
            hi, err = mid, refusal
    return hi - 1, err


# (column, value) of every per-row fault a point cloud refuses
ROW_FAULTS = [(c, v) for c in range(6) for v in (np.nan, np.inf, -np.inf)]
ROW_FAULTS += [(3, -4.0), (4, 0.0), (4, -1.0), (4, 1.5), (4, 1e30), (4, 2.0**63)]


def test_first_bad_row_matches_the_prefix_bisection():
    rng = np.random.default_rng(20140627)
    refused = 0
    for _ in range(300):
        n = int(rng.integers(1, 400))
        ncols = int(rng.choice([5, 6]))
        cols = [rng.uniform(0.0, 100.0, n) for _ in range(4)]
        cols.append(rng.integers(1, 5, n).astype(float))
        cols += [rng.uniform(0.0, 5.0, n)] * (ncols == 6)
        rows = rng.integers(n, size=2)  # two faults often share a row
        for _ in range(int(rng.integers(0, 4))):
            col, value = ROW_FAULTS[int(rng.integers(len(ROW_FAULTS)))]
            if col < ncols:
                cols[col][int(rng.choice(rows))] = value
        with np.errstate(invalid="ignore"):  # the oracle's inf % 1
            expected = prefix_bisection(cols)
        if expected is None:
            assert len(LidarPointCloud(*cols)) == n
            continue
        refused += 1
        with pytest.raises(FormatError) as info:
            LidarPointCloud(*cols)
        assert (info.value.row, str(info.value)) == expected
    assert refused > 200


def test_from_csv_builds_the_cloud_once_on_a_refused_file(tmp_path, monkeypatch):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3,4,1\n" * 999 + "1,2,3,-4,1\n")
    calls = []
    check = LidarPointCloud.__post_init__
    monkeypatch.setattr(
        LidarPointCloud, "__post_init__", lambda self: calls.append(len(self.easting)) or check(self)
    )
    with pytest.raises(FormatError, match=r"bad\.csv:1000: intensities must be non-negative"):
        LidarPointCloud.from_csv(p)
    assert calls == [1000]


def test_whole_array_faults_come_before_bad_rows():
    with pytest.raises(FormatError, match="differ in length") as info:
        tiny_cloud(easting=np.array([np.nan, 1.0, 2.0, 3.0]), agc=np.ones(3))
    assert info.value.row is None
    with pytest.raises(FormatError, match="return numbers") as info:
        tiny_cloud(easting=np.array([np.nan, 1.0, 2.0, 3.0]), return_number=np.ones(4, complex))
    assert info.value.row is None
    # between two whole-array faults, the order is the checks' own
    with pytest.raises(FormatError, match="northing must be 1-D"):
        tiny_cloud(northing=np.ones((2, 2)), elevation=np.ones(3))
    with pytest.raises(FormatError, match="return numbers"):
        tiny_cloud(return_number=np.ones(4, complex), agc=np.ones(3))
    with pytest.raises(FormatError, match="point cloud is empty"):
        LidarPointCloud(*[np.ones(0)] * 4, np.ones(0, complex))


def test_from_csv_errors(tmp_path):
    with pytest.raises(FormatError):
        LidarPointCloud.from_csv(tmp_path / "missing.csv")
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(FormatError):
        LidarPointCloud.from_csv(p)
    p.write_text("x,y,z,i,r\n")  # header only, no data
    with pytest.raises(FormatError):
        LidarPointCloud.from_csv(p)
    p.write_text("1,2,3,4\n")  # wrong column count
    with pytest.raises(FormatError):
        LidarPointCloud.from_csv(p)
    p.write_text("1,2,3,4,1\n1,2,3,4\n")  # ragged
    with pytest.raises(FormatError):
        LidarPointCloud.from_csv(p)
    p.write_text("x,y,z,i,r\n\n\n1,2,3,4,1\n\n1,2,3,4\n")  # blank lines still count
    with pytest.raises(FormatError, match=":6: ragged row"):
        LidarPointCloud.from_csv(p)
    p.write_text("1,2,3,4,1\n1,2,three,4,1\n")  # bad number mid-file
    with pytest.raises(FormatError):
        LidarPointCloud.from_csv(p)
    p.write_text("1,2,3,4,1\n1,2,3,4,nan\n")  # non-finite return number
    with pytest.raises(FormatError):
        LidarPointCloud.from_csv(p)
    p.write_text("1,2,3,4,1,0.5\n1,2,3,4,1,inf\n")  # non-finite agc
    with pytest.raises(FormatError):
        LidarPointCloud.from_csv(p)


# ---------------------------------------------------------------------------
# rasterization


def test_rasterize_means_points_per_cell():
    c = tiny_cloud()
    img = rasterize_lidar(c, cell_size=1.0)
    g = img.geometry
    assert g.origin_easting == 10.0
    assert g.origin_northing == 20.0
    assert g.shape == (2, 4)
    assert img.values[0, 0] == 100.0
    assert img.values[0, 1] == 200.0
    assert img.values[1, 1] == 50.0
    # 12.5 sits on the edge between pixels 2 and 3 (12.5 - 10 = 2.5):
    # cells are half-open, so it lands in the upper 3
    assert img.values[1, 3] == 75.0
    assert img.nodata is not None
    assert img.nodata[0, 2] and img.nodata[1, 0]


def test_rasterize_averages_and_masks_empty():
    c = LidarPointCloud(
        easting=np.array([0.0, 0.2, 3.0]),
        northing=np.array([0.0, 0.1, 2.0]),
        elevation=np.zeros(3),
        intensity=np.array([10.0, 30.0, 5.0]),
        return_number=np.ones(3, int),
    )
    img = rasterize_lidar(c, cell_size=1.0)
    assert img.values[0, 0] == pytest.approx(20.0)  # two points pooled
    assert img.values[2, 3] == 5.0
    assert img.nodata is not None
    assert img.nodata[1, 1]  # nothing landed there


def _rasterize_reference(cloud, geometry):
    """Whole-cloud gridding in one ``bincount``: (values, empty cells)."""
    px, py = geometry.world_to_pixel(cloud.easting, cloud.northing)
    # floor(p) + (p - floor(p) >= 0.5): half up, exact for every float
    col, row = np.floor(px), np.floor(py)
    col = (col + (px - col >= 0.5)).astype(np.int64)
    row = (row + (py - row >= 0.5)).astype(np.int64)
    inside = (col >= 0) & (col < geometry.width) & (row >= 0) & (row < geometry.height)
    idx = row[inside] * geometry.width + col[inside]
    n_cells = geometry.width * geometry.height
    sums = np.bincount(idx, weights=cloud.intensity[inside], minlength=n_cells)
    counts = np.bincount(idx, minlength=n_cells)
    empty = counts == 0
    values = np.where(empty, 0.0, sums / np.where(empty, 1, counts))
    return values.reshape(geometry.shape), empty.reshape(geometry.shape)


def _cloud(easting, northing, intensity):
    n = len(easting)
    return LidarPointCloud(easting, northing, np.zeros(n), intensity, np.ones(n, int))


def _assert_matches_reference(img, cloud):
    values, empty = _rasterize_reference(cloud, img.geometry)
    assert img.values.tobytes() == values.tobytes()
    assert (~img.valid_mask).tobytes() == empty.tobytes()


@pytest.mark.parametrize("cell", [1.0, 0.37])
def test_blocked_rasterize_is_bit_identical_to_one_bincount(cell, rng):
    # several blocks plus a partial one; centimetre coordinates put
    # returns exactly on cell edges
    n = 2 * RASTER_BLOCK + 1234
    cloud = _cloud(
        np.round(rng.uniform(500.0, 560.0, n), 2),
        np.round(rng.uniform(-20.0, 25.0, n), 2),
        rng.uniform(0.0, 255.0, n),
    )
    _assert_matches_reference(rasterize_lidar(cloud, cell_size=cell), cloud)


def test_blocked_rasterize_keeps_point_order_across_a_block_boundary():
    # one cell takes 2**53 as the last return of the first block and 1.0
    # twice from the next: added in point order each 1.0 is lost to
    # rounding, while per-block partial sums would keep their 2.0
    n = RASTER_BLOCK + 2
    easting = np.zeros(n)
    easting[RASTER_BLOCK - 1:] = 5.0
    intensity = np.ones(n)
    intensity[RASTER_BLOCK - 1] = 2.0**53
    cloud = _cloud(easting, np.zeros(n), intensity)
    img = rasterize_lidar(cloud, cell_size=1.0)
    assert img.values[0, 5] == 2.0**53 / 3.0
    _assert_matches_reference(img, cloud)


def test_blocked_rasterize_with_a_geometry_that_drops_returns(rng):
    n = RASTER_BLOCK + 777
    cloud = _cloud(rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 80.0, n), rng.uniform(0.0, 9.0, n))
    g = GridGeometry(30, 25, 1.5, 1.25, 20.0, 10.0)
    img = rasterize_lidar(cloud, geometry=g)
    assert img.geometry == g
    _assert_matches_reference(img, cloud)


def test_rasterize_working_memory_does_not_grow_with_the_cloud(rng):
    g = GridGeometry(64, 64, 1.0, 1.0, 0.0, 0.0)
    n = 4 * RASTER_BLOCK

    def peak(count):
        # a third of the returns fall outside the grid
        cloud = _cloud(rng.uniform(-10.0, 90.0, count), rng.uniform(0.0, 64.0, count),
                       rng.uniform(0.0, 9.0, count))
        return traced_peak(lambda: rasterize_lidar(cloud, geometry=g))

    # the grid arrays (sums, counts, values, mask and their temporaries,
    # eight bytes a cell each) plus one block of 64 bytes a return; the
    # whole-cloud temporaries grew by about 60 bytes per added return
    grid_arrays = 8 * 8 * g.width * g.height
    assert peak(4 * n) - peak(n) <= grid_arrays + 64 * RASTER_BLOCK


@pytest.mark.parametrize("axis", ["x", "y"])
def test_rasterize_puts_edge_returns_in_the_upper_cell(axis):
    # one return on each edge between cells k and k + 1, for k = 0..4
    edges = np.arange(5) + 0.5
    along, across = (edges, np.zeros(5)) if axis == "x" else (np.zeros(5), edges)
    cloud = _cloud(along, across, 10.0 * (np.arange(5) + 1))
    g = GridGeometry(6, 6, 1.0, 1.0, 0.0, 0.0)
    img = rasterize_lidar(cloud, geometry=g)
    line = img.values[0, :] if axis == "x" else img.values[:, 0]
    np.testing.assert_array_equal(line, [0.0, 10.0, 20.0, 30.0, 40.0, 50.0])


def test_rasterize_puts_a_return_one_ulp_below_an_edge_in_the_lower_cell():
    # floor(p + 0.5) rounds 0.49999999999999994 + 0.5 up to 1: cell 1
    cloud = _cloud(np.array([np.nextafter(0.5, 0.0), 1.5]), np.zeros(2), np.array([10.0, 20.0]))
    img = rasterize_lidar(cloud, geometry=GridGeometry(4, 2))
    np.testing.assert_array_equal(img.values[0], [10.0, 0.0, 20.0, 0.0])
    np.testing.assert_array_equal(img.valid_mask[0], [True, False, True, False])


def test_rasterize_with_explicit_geometry():
    c = tiny_cloud()
    g = GridGeometry(4, 4, 1.0, 1.0, 9.0, 19.0)
    img = rasterize_lidar(c, cell_size=1.0, geometry=g)
    assert img.geometry == g
    assert img.values[1, 1] == 100.0  # world (10, 20) lands on pixel (1, 1)


def test_rasterize_drops_points_outside_geometry():
    c = tiny_cloud()
    g = GridGeometry(2, 2, 1.0, 1.0, 10.0, 20.0)
    img = rasterize_lidar(c, geometry=g)
    # the 12.5-easting point falls off this grid; remaining three map inside
    assert img.valid_mask.sum() == 3


def test_rasterize_grid_snaps_to_cell_multiples():
    c = tiny_cloud(
        easting=np.array([10.3, 11.1, 11.1, 12.0]),
        northing=np.array([20.7, 20.7, 21.2, 21.2]),
    )
    img = rasterize_lidar(c, cell_size=0.5)
    assert img.geometry.origin_easting == pytest.approx(10.0)
    assert img.geometry.origin_northing == pytest.approx(20.5)
    assert img.geometry.spacing_x == 0.5


def test_rasterize_rejects_bad_cell_size():
    for cell_size in (0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            rasterize_lidar(tiny_cloud(), cell_size=cell_size)


# ---------------------------------------------------------------------------
# cubes


def test_cube_validation():
    g = GridGeometry(4, 4)
    band = ScalarImage(g, np.zeros(g.shape))
    with pytest.raises(FormatError):
        HyperspectralCube(g, [500.0], [band, band])
    with pytest.raises(FormatError):
        HyperspectralCube(g, [600.0, 500.0], [band, band])
    with pytest.raises(FormatError):
        HyperspectralCube(g, [], [])
    other = ScalarImage(GridGeometry(5, 5), np.zeros((5, 5)))
    with pytest.raises(GeometryError):
        HyperspectralCube(g, [500.0, 600.0], [band, other])


def test_cube_raster_roundtrip(tmp_path):
    cube = small_cube()
    p = tmp_path / "cube.raster"
    cube.to_raster(p)
    back = HyperspectralCube.from_raster(p)
    np.testing.assert_array_equal(back.wavelengths, cube.wavelengths)
    for a, b in zip(back.bands, cube.bands):
        np.testing.assert_allclose(a.values, b.values.astype(np.float32), atol=0)


def test_cube_raster_masks_the_union_of_the_band_masks(tmp_path):
    cube = small_cube(n=6)
    g = cube.geometry
    masks = [np.zeros(g.shape, bool) for _ in cube.bands]
    masks[0][0, 0] = True
    masks[2][3, 4] = True
    cube = HyperspectralCube(
        g, cube.wavelengths, [ScalarImage(g, b.values, m) for b, m in zip(cube.bands, masks)]
    )
    p = tmp_path / "cube.raster"
    cube.to_raster(p)
    back = HyperspectralCube.from_raster(p)
    for band in back.bands:
        assert np.array_equal(band.nodata, masks[0] | masks[2])
    small_cube(n=6).to_raster(p)
    assert all(band.nodata is None for band in HyperspectralCube.from_raster(p).bands)


def test_cube_from_raster_needs_wavelengths(tmp_path):
    from fusereg.raster_io import write_raster

    g = GridGeometry(4, 4)
    p = tmp_path / "plain.raster"
    write_raster(p, g, [np.zeros(g.shape)])
    with pytest.raises(FormatError):
        HyperspectralCube.from_raster(p)


def test_select_band_picks_nearest():
    cube = small_cube(wavelengths=(450.0, 550.0, 650.0))
    assert select_band(cube, 540.0) is cube.bands[1]
    assert select_band(cube, 500.0) is cube.bands[0]  # tie goes shorter
    assert select_band(cube, 9000.0) is cube.bands[2]


def test_composites():
    cube = small_cube(wavelengths=(460.0, 549.0, 640.0))
    r, g, b = rgb_composite(cube)
    assert r is cube.bands[2] and g is cube.bands[1] and b is cube.bands[0]
    grey = grey_composite(cube)
    want = (r.values + g.values + b.values) / 3.0
    np.testing.assert_allclose(grey.values, want, atol=1e-12)


def test_resample_cube_keeps_measured_values():
    cube = small_cube(n=16)
    target = GridGeometry(7, 7, 2.0, 2.0, 0.5, 0.5)
    out = resample_cube(cube, target)
    assert out.geometry == target
    for src, dst in zip(cube.bands, out.bands):
        ok = dst.valid_mask
        assert np.isin(dst.values[ok], src.values).all()


def test_resample_cube_keeps_every_column_at_a_half_pixel_offset():
    g = GridGeometry(8, 2)
    band = ScalarImage(g, np.broadcast_to(np.arange(8.0), g.shape))
    cube = HyperspectralCube(g, np.array([550.0]), [band])
    target = GridGeometry(7, 2, 1.0, 1.0, 0.5, 0.0)
    out = resample_cube(cube, target).bands[0]
    assert out.nodata is None
    np.testing.assert_array_equal(out.values[0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])


def test_warp_cube_zero_field_identity():
    cube = small_cube()
    u = DisplacementField.zero(cube.geometry)
    out = warp_cube(cube, u)
    for a, b in zip(out.bands, cube.bands):
        np.testing.assert_array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# footprints


def test_footprint_dimensions_and_validation():
    fp = Footprint(0.0, 10.0, 30.0, 25.0)
    assert fp.width == 30.0
    assert fp.height == 15.0
    with pytest.raises(GeometryError):
        Footprint(5.0, 0.0, 5.0, 10.0)


def test_photo_footprint_nominal_frame():
    meta = PhotoMetadata(
        centre_easting=356000.0, centre_northing=5688000.0,
        width_px=7000, height_px=5000,
    )
    fp = photo_footprint(meta)
    assert fp.width == pytest.approx(2400.0, abs=1e-9)
    assert fp.height == pytest.approx(1800.0, abs=1e-9)
    assert (fp.min_easting + fp.max_easting) / 2.0 == pytest.approx(356000.0)
    assert (fp.min_northing + fp.max_northing) / 2.0 == pytest.approx(5688000.0)


def test_photo_metadata_validation():
    with pytest.raises(ParameterError):
        PhotoMetadata(0.0, 0.0, 1, 100)


def test_geometry_footprint_roundtrip():
    g = GridGeometry(40, 25, 0.5, 0.5, 1000.0, 2000.0)
    fp = Footprint(999.75, 1999.75, 1019.75, 2012.25)  # g's cell edges
    back = geometry_from_footprint(fp, g.width, g.height)
    assert back.spacing_x == pytest.approx(g.spacing_x)
    assert back.origin_easting == pytest.approx(g.origin_easting)
    assert back.origin_northing == pytest.approx(g.origin_northing)


def test_geometry_from_footprint_rejects_non_integer_size():
    fp = Footprint(-0.5, -0.5, 7.5, 7.5)
    with pytest.raises(GeometryError, match="integers"):
        geometry_from_footprint(fp, 8.0, 8)


# ---------------------------------------------------------------------------
# mosaic


def tile(origin_e, origin_n, values, spacing=1.0, mask=None):
    arr = np.asarray(values, dtype=float)
    g = GridGeometry(arr.shape[1], arr.shape[0], spacing, spacing, origin_e, origin_n)
    return ScalarImage(g, arr, mask)


def test_mosaic_single_tile_identity(rng):
    img = tile(5.0, 7.0, rng.uniform(0, 1, (3, 4)))
    out, seams = mosaic([("only", img)])
    np.testing.assert_array_equal(out.values, img.values)
    assert out.geometry == img.geometry
    assert seams == []


def test_mosaic_adjacent_tiles_seam_statistics():
    a = tile(0.0, 0.0, np.ones((2, 3)))
    b = tile(3.0, 0.0, 2.0 * np.ones((2, 3)))
    out, seams = mosaic([("a", a), ("b", b)])
    assert out.geometry.shape == (2, 6)
    np.testing.assert_array_equal(out.values[:, :3], 1.0)
    np.testing.assert_array_equal(out.values[:, 3:], 2.0)
    assert len(seams) == 1
    s = seams[0]
    assert (s.tile_a, s.tile_b) == ("a", "b")
    assert s.mean_jump == pytest.approx(1.0)
    assert s.pixel_pairs == 2
    assert s.easting == pytest.approx(2.5)
    assert s.northing == pytest.approx(0.5)


def test_mosaic_last_writer_wins():
    a = tile(0.0, 0.0, np.ones((2, 3)))
    b = tile(2.0, 0.0, 2.0 * np.ones((2, 3)))
    out, _ = mosaic([("a", a), ("b", b)])
    assert out.geometry.shape == (2, 5)
    np.testing.assert_array_equal(out.values[:, 2:], 2.0)
    np.testing.assert_array_equal(out.values[:, :2], 1.0)


def test_mosaic_masked_pixels_do_not_overwrite():
    a = tile(0.0, 0.0, np.ones((2, 2)))
    mask = np.zeros((2, 2), bool)
    mask[0, 0] = True
    b = tile(0.0, 0.0, 2.0 * np.ones((2, 2)), mask=mask)
    out, _ = mosaic([("a", a), ("b", b)])
    assert out.values[0, 0] == 1.0  # b is invalid there, a survives
    assert out.values[1, 1] == 2.0


def test_mosaic_marks_uncovered_pixels():
    a = tile(0.0, 0.0, np.ones((2, 2)))
    b = tile(3.0, 3.0, np.ones((2, 2)))
    out, seams = mosaic([("a", a), ("b", b)])
    assert out.nodata is not None
    assert out.nodata[2, 2]
    assert seams == []  # diagonal tiles share no pixel edge


def test_mosaic_rejects_misaligned_tiles():
    a = tile(0.0, 0.0, np.ones((2, 2)))
    b = tile(1.5, 0.0, np.ones((2, 2)))
    with pytest.raises(PlacementError):
        mosaic([("a", a), ("b", b)])
    c = tile(0.0, 0.0, np.ones((2, 2)), spacing=0.5)
    with pytest.raises(PlacementError):
        mosaic([("a", a), ("c", c)])
    with pytest.raises(PlacementError):
        mosaic([])


def set_loop_mosaic(tiles):
    """The earlier composite and seam loop, kept as the oracle: ``np.where``
    pastes, full-grid midpoints and a set of owner pairs per direction."""
    g0 = tiles[0][1].geometry
    sx, sy = g0.spacing_x, g0.spacing_y
    base_e = min(img.geometry.origin_easting for _, img in tiles)
    base_n = min(img.geometry.origin_northing for _, img in tiles)
    offsets = [(int(np.rint((img.geometry.origin_easting - base_e) / sx)),
                int(np.rint((img.geometry.origin_northing - base_n) / sy))) for _, img in tiles]
    width = max(ox + img.geometry.width for (ox, _), (_, img) in zip(offsets, tiles))
    height = max(oy + img.geometry.height for (_, oy), (_, img) in zip(offsets, tiles))
    values = np.zeros((height, width))
    owner = np.full((height, width), -1, dtype=np.int64)
    for i, ((ox, oy), (_, img)) in enumerate(zip(offsets, tiles)):
        h, w = img.geometry.shape
        sl = (slice(oy, oy + h), slice(ox, ox + w))
        values[sl] = np.where(img.valid_mask, img.values, values[sl])
        owner[sl] = np.where(img.valid_mask, i, owner[sl])
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
            tot, cnt, se, sn = pair_stats.get((a, b), (0.0, 0, 0.0, 0.0))
            pair_stats[(a, b)] = (
                tot + float(np.sum(jump[sel])),
                cnt + int(np.sum(sel)),
                se + float(np.sum(em[sel])),
                sn + float(np.sum(nm[sel])),
            )

    ee = np.broadcast_to(np.arange(width) * sx + base_e, (height, width))
    nn = np.broadcast_to((np.arange(height) * sy + base_n)[:, None], (height, width))
    accumulate(owner[:, :-1], owner[:, 1:], values[:, :-1], values[:, 1:],
               (ee[:, :-1] + ee[:, 1:]) / 2.0, nn[:, :-1])
    accumulate(owner[:-1, :], owner[1:, :], values[:-1, :], values[1:, :],
               ee[:-1, :], (nn[:-1, :] + nn[1:, :]) / 2.0)
    records = [(tiles[a][0], tiles[b][0], se / cnt, sn / cnt, tot / cnt, cnt)
               for (a, b), (tot, cnt, se, sn) in sorted(pair_stats.items())]
    return values, owner < 0, records


def random_tiles(rng):
    sx, sy = (float(rng.choice([1.0, 0.5, 0.37, 2.5])) for _ in range(2))
    base_e, base_n = (float(rng.choice([0.0, rng.uniform(-1e5, 1e5)])) for _ in range(2))
    tiles = []
    for t in range(int(rng.integers(1, 6))):
        w, h = (int(v) for v in rng.integers(2, 25, 2))
        ox, oy = (int(v) for v in rng.integers(0, 20, 2))
        mask = rng.random((h, w)) < rng.choice([0.0, 0.1, 0.5])
        g = GridGeometry(w, h, sx, sy, base_e + ox * sx, base_n + oy * sy)
        tiles.append(("t%d" % t, ScalarImage(g, rng.uniform(0, 1, (h, w)), mask)))
    return tiles


def test_mosaic_is_bit_identical_to_the_set_based_seam_loop():
    rng = np.random.default_rng(7919)
    cases = [random_tiles(rng) for _ in range(150)]
    cases.append([("a", tile(0.0, 0.0, np.ones((3, 3)))), ("b", tile(3.0, 3.0, np.ones((2, 2))))])
    cases.append([("only", tile(1e5, -3e4, rng.uniform(0, 1, (4, 5)), spacing=0.37))])
    pairs = 0
    for tiles in cases:
        values, nodata, records = set_loop_mosaic(tiles)
        composite, seams = mosaic(tiles)
        assert composite.values.tobytes() == values.tobytes()
        np.testing.assert_array_equal(composite.valid_mask, ~nodata)
        got = [(r.tile_a, r.tile_b, r.easting, r.northing, r.mean_jump, r.pixel_pairs)
               for r in seams]
        assert [tuple(map(repr, r)) for r in got] == [tuple(map(repr, r)) for r in records]
        assert [s.to_text() for s in seams] == [SeamRecord(*r).to_text() for r in records]
        pairs += len(records)
    assert pairs > 200
    assert mosaic(cases[-2])[1] == [] and mosaic(cases[-1])[1] == []


def test_seam_record_text():
    s = SeamRecord("t1", "t2", 100.5, 200.25, 0.125, 42)
    line = s.to_text()
    assert "t1|t2" in line
    assert "pairs=42" in line
    assert "mean_jump=1.250000e-01" in line
