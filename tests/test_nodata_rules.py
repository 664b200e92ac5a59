"""ScalarImage's nodata rules hold for every image producer: masked samples
read exactly +0.0, an output without gaps has ``nodata is None``, and an
image owns a read-only copy of its mask."""

import numpy as np
import pytest

from fusereg.cli import _window
from fusereg.evaluation import checkerboard, difference_map
from fusereg.geo import (
    HyperspectralCube,
    LidarPointCloud,
    grey_composite,
    mosaic,
    rasterize_lidar,
)
from fusereg.grid import (
    DisplacementField,
    GridGeometry,
    ScalarImage,
    downsample,
    normalize_intensity,
    resample_to_geometry,
    warp,
)
from fusereg.raster_io import read_image, write_raster

G = GridGeometry(12, 10)


def _image(rng, nodata=None, geometry=G):
    # negative intensities: a sample that only had its mask set, not its
    # value zeroed, reads nonzero
    return ScalarImage(geometry, rng.uniform(-2.0, -1.0, geometry.shape), nodata)


def _scattered(rng, geometry=G):
    return rng.uniform(size=geometry.shape) < 0.2


def _warp(rng, gaps, tmp_path):
    shift = np.full(G.shape, 2.5 if gaps else 0.0)
    return warp(_image(rng), DisplacementField(G, shift, -shift))


def _resample(rng, gaps, tmp_path):
    target = GridGeometry(12, 10, origin_easting=3.5 if gaps else 0.0)
    return resample_to_geometry(_image(rng), target)


def _normalize(rng, gaps, tmp_path):
    return normalize_intensity(_image(rng, _scattered(rng) if gaps else None))


def _downsample(rng, gaps, tmp_path):
    # without gaps the input still has masked cells, but no 2x2 block
    # loses all four
    mask = np.zeros(G.shape, bool)
    mask[0::2, 0::2] = True
    if gaps:
        mask[4:6, 4:6] = True
    return downsample(_image(rng, mask))


def _read_image(rng, gaps, tmp_path):
    path = tmp_path / "band.raster"
    mask = _scattered(rng) if gaps else None
    write_raster(path, G, [rng.uniform(-2.0, -1.0, G.shape)], nodata_mask=mask)
    return read_image(path)


def _rasterize(rng, gaps, tmp_path):
    xs, ys = np.meshgrid(np.arange(12.0), np.arange(10.0))
    keep = ~_scattered(rng) if gaps else np.ones(G.shape, bool)
    n = int(keep.sum())
    cloud = LidarPointCloud(
        xs[keep], ys[keep], np.zeros(n), rng.uniform(1.0, 2.0, n), np.ones(n, np.int64)
    )
    return rasterize_lidar(cloud, geometry=G)


def _grey(rng, gaps, tmp_path):
    bands = [_image(rng, _scattered(rng) if gaps else None) for _ in range(3)]
    return grey_composite(HyperspectralCube(G, [460.0, 549.0, 640.0], bands))


def _mosaic(rng, gaps, tmp_path):
    # two 6-wide tiles side by side, or with a two-column gap between them
    left = _image(rng, geometry=GridGeometry(6, 10))
    right = _image(rng, geometry=GridGeometry(6, 10, origin_easting=8.0 if gaps else 6.0))
    return mosaic([("left", left), ("right", right)])[0]


def _crop(rng, gaps, tmp_path):
    # the left half of the grid, whose masked cells are all in the right
    # half without gaps
    mask = _scattered(rng)
    if not gaps:
        mask[:, :6] = False
    return _window(_image(rng, mask), (slice(0, 10), slice(0, 6)))


def _cube_band(rng, gaps, tmp_path):
    path = tmp_path / "cube.raster"
    mask = _scattered(rng) if gaps else None
    bands = [rng.uniform(-2.0, -1.0, G.shape) for _ in range(2)]
    write_raster(path, G, bands, wavelengths=[460.0, 549.0], nodata_mask=mask)
    return HyperspectralCube.from_raster(path).bands[1]


def _with_values(rng, gaps, tmp_path):
    return _image(rng, _scattered(rng) if gaps else None).with_values(np.ones(G.shape))


def _difference(rng, gaps, tmp_path):
    return difference_map(_image(rng, _scattered(rng) if gaps else None), _image(rng))


def _checkerboard(rng, gaps, tmp_path):
    return checkerboard(_image(rng), _image(rng, _scattered(rng) if gaps else None), tiles=2)


PRODUCERS = {
    "warp": _warp,
    "resample_to_geometry": _resample,
    "normalize_intensity": _normalize,
    "downsample": _downsample,
    "read_image": _read_image,
    "HyperspectralCube.from_raster": _cube_band,
    "ScalarImage.with_values": _with_values,
    "rasterize_lidar": _rasterize,
    "grey_composite": _grey,
    "mosaic": _mosaic,
    "cli._window": _crop,
    "difference_map": _difference,
    "checkerboard": _checkerboard,
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_producers_keep_the_scalar_image_nodata_rules(name, rng, tmp_path):
    produce = PRODUCERS[name]
    assert produce(rng, False, tmp_path).nodata is None
    out = produce(rng, True, tmp_path)
    assert out.nodata is not None and out.nodata.any()
    masked = out.values[out.nodata]
    assert (masked == 0.0).all() and not np.signbit(masked).any()
    assert not out.nodata.flags.writeable


def test_an_image_keeps_a_read_only_copy_of_its_mask(rng):
    mask = _scattered(rng)
    want = mask.copy()
    image = _image(rng, mask)
    values = image.values.copy()
    mask[:] = ~mask  # the caller edits its array after construction
    np.testing.assert_array_equal(image.nodata, want)
    np.testing.assert_array_equal(image.values, values)
    with pytest.raises(ValueError):
        image.nodata[0, 0] = True


def test_cube_bands_do_not_share_a_mask(tmp_path):
    mask = np.zeros(G.shape, bool)
    mask[1, 1] = True
    bands = [ScalarImage(G, np.ones(G.shape), mask) for _ in range(2)]
    path = tmp_path / "cube.raster"
    HyperspectralCube(G, [460.0, 549.0], bands).to_raster(path)
    back = HyperspectralCube.from_raster(path).bands
    assert back[0].nodata is not back[1].nodata
    for band in back:
        np.testing.assert_array_equal(band.nodata, mask)
        assert not band.nodata.flags.writeable
