"""Raster container round trips and PGM export."""

import numpy as np
import pytest

from fusereg.errors import FormatError
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage
from fusereg.raster_io import (
    read_field,
    read_image,
    read_raster,
    write_field,
    write_image,
    write_pgm,
    write_raster,
)

from conftest import random_image, read_pgm


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_write_raster_refuses_samples_float32_cannot_hold(tmp_path, bad):
    g = GridGeometry(4, 3)
    values = np.zeros(g.shape)
    values[1, 2] = bad
    p = tmp_path / "x.raster"
    with pytest.raises(FormatError, match=r"x\.raster: "):
        write_raster(p, g, [np.ones(g.shape), values])
    # refused before either file is written
    assert not p.exists() and not (tmp_path / "x.raster.hdr").exists()
    # under the nodata mask the sample is never stored
    mask = np.zeros(g.shape, bool)
    mask[1, 2] = True
    write_raster(p, g, [values], nodata_mask=mask)
    _, bands, _, got = read_raster(p)
    np.testing.assert_array_equal(got, mask)
    assert np.isfinite(bands[0]).all()


@pytest.mark.parametrize("clash", [-9999.0, -9999.0002])
def test_write_raster_refuses_a_valid_sample_equal_to_nodata(tmp_path, clash):
    # with a nodata header the sample would read back masked; -9999.0002
    # is stored as the same float32
    g = GridGeometry(4, 4)
    values = np.zeros(g.shape)
    values[2, 2] = clash
    mask = np.zeros(g.shape, bool)
    mask[0, 0] = True
    p = tmp_path / "x.raster"
    with pytest.raises(FormatError, match=r"x\.raster: .*nodata value"):
        write_raster(p, g, [np.ones(g.shape), values], nodata_mask=mask)
    assert not p.exists() and not (tmp_path / "x.raster.hdr").exists()
    # under the mask, or without a nodata header, the value is stored as is
    mask[2, 2] = True
    write_raster(p, g, [values], nodata_mask=mask)
    np.testing.assert_array_equal(read_raster(p)[3], mask)
    write_raster(p, g, [values], nodata_mask=np.zeros(g.shape, bool))
    _, bands, _, got = read_raster(p)
    assert got is None
    assert bands[0][2, 2] == np.float32(clash)


def test_read_raster_refuses_non_finite_payload(tmp_path):
    p = tmp_path / "nan.raster"
    (tmp_path / "nan.raster.hdr").write_text("width = 2\nheight = 2\nbands = 1\n")
    for bad in (np.nan, np.inf):
        p.write_bytes(np.array([0.0, bad, 1.0, 0.5], dtype="<f4").tobytes())
        with pytest.raises(FormatError, match=r"nan\.raster: .*non-finite"):
            read_raster(p)
    # a non-finite sample in a nodata pixel is masked, not refused
    (tmp_path / "nan.raster.hdr").write_text("width = 2\nheight = 2\nbands = 2\nnodata = -9999.0\n")
    bands = np.array([[-9999.0, 0.5, 0.5, 0.5], [np.nan, 0.25, 0.25, 0.25]], dtype="<f4")
    p.write_bytes(bands.tobytes())
    _, _, _, mask = read_raster(p)
    np.testing.assert_array_equal(mask, [[True, False], [False, False]])


def test_read_raster_missing_files(tmp_path):
    with pytest.raises(FormatError):
        read_raster(tmp_path / "absent.raster")
    # payload present, sidecar missing
    p = tmp_path / "orphan.raster"
    p.write_bytes(b"\x00" * 16)
    with pytest.raises(FormatError):
        read_raster(p)


def test_header_text_keeps_its_format(tmp_path):
    g = GridGeometry(3, 2, 0.5, 0.25, 355200.0, -5687400.125)
    mask = np.zeros(g.shape, bool)
    mask[1, 2] = True
    write_image(tmp_path / "h.raster", ScalarImage(g, np.ones(g.shape), mask))
    assert (tmp_path / "h.raster.hdr").read_text() == (
        "width = 3\nheight = 2\nbands = 1\nspacing_x = 0.5\nspacing_y = 0.25\n"
        "origin_easting = 355200.0\norigin_northing = -5687400.125\nnodata = -9999.0\n"
    )


def test_geometry_of_numpy_scalars_round_trips(tmp_path):
    g = GridGeometry(
        np.int64(4), np.int64(3), np.float64(0.5), 1.0, np.float64(355200.0), np.float64(0.0)
    )
    img = ScalarImage(g, np.arange(12.0).reshape(3, 4))
    write_image(tmp_path / "np.raster", img)
    header = (tmp_path / "np.raster.hdr").read_text()
    assert "spacing_x = 0.5\n" in header and "origin_easting = 355200.0\n" in header
    back = read_image(tmp_path / "np.raster")
    assert back.geometry == g
    assert back.values.tobytes() == img.values.tobytes()


def test_absent_geometry_keys_keep_the_grid_defaults(tmp_path):
    p = tmp_path / "d.raster"
    (tmp_path / "d.raster.hdr").write_text("width = 3\nheight = 2\nbands = 1\nspacing_y = 2.0\n")
    p.write_bytes(np.zeros(6, dtype="<f4").tobytes())
    geom, _, _, _ = read_raster(p)
    assert geom == GridGeometry(3, 2, 1.0, 2.0, 0.0, 0.0)


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
        key = line.partition(" = ")[0]
        kept = [ln for ln in ("width = 2", "height = 2", "bands = 1") if not ln.startswith(key)]
        put_header("\n".join(kept + [line]) + "\n")
        with pytest.raises(FormatError, match=r"bad\.raster\.hdr: "):
            read_raster(p)


def test_read_raster_refuses_unknown_and_repeated_keys(tmp_path):
    p = tmp_path / "k.raster"
    p.write_bytes(np.zeros(4, dtype="<f4").tobytes())
    for extra, message in (("spacng_x = 0.5", "unknown key 'spacng_x'"),
                           ("width = 2", "repeated key 'width'")):
        (tmp_path / "k.raster.hdr").write_text("width = 2\nheight = 2\nbands = 1\n%s\n" % extra)
        with pytest.raises(FormatError, match=r"k\.raster\.hdr:4: " + message):
            read_raster(p)


def test_read_raster_rejects_non_ascii_header(tmp_path):
    p = tmp_path / "latin.raster"
    p.write_bytes(np.zeros(4, dtype="<f4").tobytes())
    (tmp_path / "latin.raster.hdr").write_bytes(b"width = 2\nheight = 2\nbands = 1\n# caf\xe9\n")
    with pytest.raises(FormatError, match=r"latin\.raster\.hdr:4: non-ASCII byte"):
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


def test_pgm_refuses_nan(tmp_path):
    p = tmp_path / "nan.pgm"
    with pytest.raises(FormatError, match="NaN"):
        write_pgm(p, np.array([[0.5, float("nan")]]))
    assert not p.exists()


def test_pgm_clips_out_of_range(tmp_path):
    p = tmp_path / "clip.pgm"
    write_pgm(p, np.array([[-1.0, 2.0]]))
    back = read_pgm(p)
    np.testing.assert_array_equal(back, [[0.0, 1.0]])


def test_pgm_rejects_bad_input(tmp_path):
    with pytest.raises(FormatError):
        write_pgm(tmp_path / "x.pgm", np.zeros(4))
    p = tmp_path / "junk.pgm"
    p.write_bytes(b"P6\n2 2\n255\nxxxx")
    with pytest.raises(FormatError):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\nxx")  # truncated
    with pytest.raises(FormatError):
        read_pgm(p)
    # payloads of the size each header asks for
    for content in (b"P5\n2 2\n0\nxxxx", b"P5\n2 2\n70000\nxxxxxxxx", b"P5\n-2 -2\n255\nxxxx"):
        p.write_bytes(content)
        with pytest.raises(FormatError, match="bad PGM header"):
            read_pgm(p)
