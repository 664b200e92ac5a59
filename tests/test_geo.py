"""Point clouds, cubes, footprints, cropping and mosaics."""

import numpy as np
import pytest

from fusereg.errors import FormatError, GeometryError, ParameterError, PlacementError
from fusereg.geo import (
    Footprint,
    HyperspectralCube,
    LidarPointCloud,
    PhotoMetadata,
    crop_to_footprint,
    crop_to_overlap,
    footprint_of,
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
    # 12.5 rounds to pixel 2 (12.5 - 10 = 2.5 -> rint gives the even 2)
    assert img.values[1, 2] == 75.0
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


def test_footprint_intersection():
    a = Footprint(0.0, 0.0, 10.0, 10.0)
    b = Footprint(5.0, 5.0, 15.0, 15.0)
    c = a.intersect(b)
    assert c == Footprint(5.0, 5.0, 10.0, 10.0)
    assert a.intersect(Footprint(20.0, 20.0, 30.0, 30.0)) is None
    # touching edges do not count as overlap
    assert a.intersect(Footprint(10.0, 0.0, 20.0, 10.0)) is None


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
    fp = footprint_of(g)
    back = geometry_from_footprint(fp, g.width, g.height)
    assert back.spacing_x == pytest.approx(g.spacing_x)
    assert back.origin_easting == pytest.approx(g.origin_easting)
    assert back.origin_northing == pytest.approx(g.origin_northing)


# ---------------------------------------------------------------------------
# cropping


def test_crop_to_footprint_node_selection(rng):
    g = GridGeometry(10, 10, 1.0, 1.0, 0.0, 0.0)
    img = ScalarImage(g, rng.uniform(0, 1, g.shape))
    out = crop_to_footprint(img, Footprint(2.5, 3.5, 7.5, 6.5))
    assert out.geometry.origin_easting == 3.0
    assert out.geometry.origin_northing == 4.0
    assert out.geometry.shape == (3, 5)
    np.testing.assert_array_equal(out.values, img.values[4:7, 3:8])


def test_crop_to_footprint_too_small(rng):
    g = GridGeometry(10, 10)
    img = ScalarImage(g, rng.uniform(0, 1, g.shape))
    with pytest.raises(GeometryError):
        crop_to_footprint(img, Footprint(2.4, 2.4, 2.6, 2.6))


def test_crop_to_overlap(rng):
    a = ScalarImage(GridGeometry(10, 10, 1.0, 1.0, 0.0, 0.0), rng.uniform(0, 1, (10, 10)))
    b = ScalarImage(GridGeometry(10, 10, 1.0, 1.0, 4.0, 3.0), rng.uniform(0, 1, (10, 10)))
    ca, cb = crop_to_overlap(a, b)
    assert footprint_of(ca.geometry).intersect(footprint_of(cb.geometry)) is not None
    assert ca.geometry.shape == cb.geometry.shape
    np.testing.assert_array_equal(ca.values, a.values[3:, 4:])
    np.testing.assert_array_equal(cb.values, b.values[:7, :6])


def test_crop_to_overlap_disjoint(rng):
    a = ScalarImage(GridGeometry(4, 4, 1.0, 1.0, 0.0, 0.0), rng.uniform(0, 1, (4, 4)))
    b = ScalarImage(GridGeometry(4, 4, 1.0, 1.0, 100.0, 0.0), rng.uniform(0, 1, (4, 4)))
    with pytest.raises(GeometryError):
        crop_to_overlap(a, b)


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


def test_seam_record_text():
    from fusereg.geo import SeamRecord

    s = SeamRecord("t1", "t2", 100.5, 200.25, 0.125, 42)
    line = s.to_text()
    assert "t1|t2" in line
    assert "pairs=42" in line
    assert "mean_jump=1.250000e-01" in line
