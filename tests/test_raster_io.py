"""Raster container and PGM round trips."""

import numpy as np
import pytest

from fusereg.errors import FormatError
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage
from fusereg.raster_io import (
    read_field,
    read_image,
    read_pgm,
    read_raster,
    write_field,
    write_image,
    write_pgm,
    write_raster,
)

from conftest import random_image


def test_image_roundtrip(tmp_path, rng):
    g = GridGeometry(13, 9, 0.5, 0.5, 355200.0, 5687400.0)
    img = random_image(g, rng)
    p = tmp_path / "a.raster"
    write_image(p, img)
    back = read_image(p)
    assert back.geometry == g
    np.testing.assert_allclose(back.values, img.values.astype(np.float32), atol=0)
    assert back.nodata is None


def test_image_roundtrip_with_mask(tmp_path, rng):
    g = GridGeometry(8, 8)
    vals = rng.uniform(0.0, 1.0, g.shape)
    mask = np.zeros(g.shape, bool)
    mask[2, 3] = True
    mask[7, 0] = True
    p = tmp_path / "m.raster"
    write_image(p, ScalarImage(g, vals, mask))
    back = read_image(p)
    assert back.nodata is not None
    np.testing.assert_array_equal(back.nodata, mask)
    np.testing.assert_array_equal(back.values[mask], 0.0)


def test_multiband_roundtrip_with_wavelengths(tmp_path, rng):
    g = GridGeometry(6, 5)
    bands = [rng.normal(size=g.shape) for _ in range(3)]
    p = tmp_path / "cube.raster"
    write_raster(p, g, bands, wavelengths=[460.0, 549.0, 640.0])
    geom, got, wl, mask = read_raster(p)
    assert geom == g
    assert wl == [460.0, 549.0, 640.0]
    assert mask is None
    for a, b in zip(got, bands):
        np.testing.assert_allclose(a, b.astype(np.float32), atol=0)


def test_field_roundtrip(tmp_path, rng):
    g = GridGeometry(7, 11)
    u = DisplacementField(g, rng.normal(size=g.shape), rng.normal(size=g.shape))
    p = tmp_path / "u.field"
    write_field(p, u)
    back = read_field(p)
    np.testing.assert_allclose(back.u_x, u.u_x.astype(np.float32), atol=0)
    np.testing.assert_allclose(back.u_y, u.u_y.astype(np.float32), atol=0)


def test_read_image_rejects_multiband(tmp_path, rng):
    g = GridGeometry(4, 4)
    p = tmp_path / "two.raster"
    write_raster(p, g, [np.zeros(g.shape), np.ones(g.shape)])
    with pytest.raises(FormatError):
        read_image(p)


def test_read_field_rejects_wrong_bands(tmp_path):
    g = GridGeometry(4, 4)
    p = tmp_path / "one.raster"
    write_raster(p, g, [np.zeros(g.shape)])
    with pytest.raises(FormatError):
        read_field(p)


def test_write_raster_validates_input(tmp_path):
    g = GridGeometry(4, 4)
    with pytest.raises(FormatError):
        write_raster(tmp_path / "x", g, [])
    with pytest.raises(FormatError):
        write_raster(tmp_path / "x", g, [np.zeros((3, 3))])
    with pytest.raises(FormatError):
        write_raster(tmp_path / "x", g, [np.zeros(g.shape)], wavelengths=[1.0, 2.0])


def test_read_raster_missing_files(tmp_path):
    with pytest.raises(FormatError):
        read_raster(tmp_path / "absent.raster")
    # payload present, sidecar missing
    p = tmp_path / "orphan.raster"
    p.write_bytes(b"\x00" * 16)
    with pytest.raises(FormatError):
        read_raster(p)


def test_read_raster_header_errors(tmp_path):
    p = tmp_path / "bad.raster"
    p.write_bytes(np.zeros(4, dtype="<f4").tobytes())

    def put_header(text):
        (tmp_path / "bad.raster.hdr").write_text(text)

    put_header("width = 2\nheight = 2\n")  # bands missing
    with pytest.raises(FormatError):
        read_raster(p)
    put_header("width = two\nheight = 2\nbands = 1\n")
    with pytest.raises(FormatError):
        read_raster(p)
    put_header("width 2\nheight = 2\nbands = 1\n")  # no equals sign
    with pytest.raises(FormatError):
        read_raster(p)
    put_header("width = 2\nheight = 2\nbands = 1\nspacing_x = wide\n")
    with pytest.raises(FormatError):
        read_raster(p)
    put_header("width = 2\nheight = 2\nbands = 1\nwavelengths = 1.0, 2.0\n")
    with pytest.raises(FormatError):
        read_raster(p)
    # a geometry the grid rejects is a format problem of the sidecar
    for line in (
        "width = 1",
        "spacing_x = -1",
        "spacing_x = inf",
        "spacing_y = nan",
        "origin_easting = nan",
        "origin_northing = -inf",
    ):
        put_header("width = 2\nheight = 2\nbands = 1\n%s\n" % line)
        with pytest.raises(FormatError, match=r"bad\.raster\.hdr: "):
            read_raster(p)


def test_read_raster_payload_size_mismatch(tmp_path):
    p = tmp_path / "short.raster"
    (tmp_path / "short.raster.hdr").write_text("width = 4\nheight = 4\nbands = 1\n")
    p.write_bytes(np.zeros(7, dtype="<f4").tobytes())
    with pytest.raises(FormatError):
        read_raster(p)


def test_header_comments_and_blank_lines(tmp_path):
    p = tmp_path / "c.raster"
    (tmp_path / "c.raster.hdr").write_text(
        "# comment line\nwidth = 3\n\nheight = 2  # trailing\nbands = 1\n"
    )
    p.write_bytes(np.arange(6, dtype="<f4").tobytes())
    geom, bands, _, _ = read_raster(p)
    assert geom.shape == (2, 3)
    np.testing.assert_array_equal(bands[0].ravel(), np.arange(6.0))


def test_pgm_roundtrip_8bit(tmp_path, rng):
    vals = rng.uniform(0.0, 1.0, (9, 14))
    p = tmp_path / "v.pgm"
    write_pgm(p, vals)
    back = read_pgm(p)
    assert back.shape == vals.shape
    np.testing.assert_allclose(back, vals, atol=0.5 / 255 + 1e-12)


def test_pgm_roundtrip_16bit(tmp_path, rng):
    vals = rng.uniform(0.0, 1.0, (6, 6))
    p = tmp_path / "v16.pgm"
    write_pgm(p, vals, bits=16)
    back = read_pgm(p)
    np.testing.assert_allclose(back, vals, atol=0.5 / 65535 + 1e-12)


def test_pgm_clips_out_of_range(tmp_path):
    p = tmp_path / "clip.pgm"
    write_pgm(p, np.array([[-1.0, 2.0]]))
    back = read_pgm(p)
    np.testing.assert_array_equal(back, [[0.0, 1.0]])


def test_pgm_rejects_bad_input(tmp_path):
    with pytest.raises(FormatError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), bits=12)
    with pytest.raises(FormatError):
        write_pgm(tmp_path / "x.pgm", np.zeros(4))
    p = tmp_path / "junk.pgm"
    p.write_bytes(b"P6\n2 2\n255\nxxxx")
    with pytest.raises(FormatError):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\nxx")  # truncated
    with pytest.raises(FormatError):
        read_pgm(p)
