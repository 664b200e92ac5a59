"""Grid primitives: geometry, sampling, warping, differentials, pyramid."""

import numpy as np
import pytest

from fusereg.errors import DegenerateImageError, GeometryError, ParameterError
from fusereg.grid import (
    COARSEST_MIN_DIM,
    DisplacementField,
    GridGeometry,
    ScalarImage,
    _pixel_grid,
    _round_half_up,
    _sample_arrays,
    build_pyramid,
    downsample,
    fill_nodata,
    gradient_axis,
    gradient_axis_adjoint,
    laplacian_adjoint_values,
    laplacian_values,
    normalize_intensity,
    prolong,
    resample_to_geometry,
    warp,
    warp_with_jacobian,
)

from conftest import random_image, traced_peak


# ---------------------------------------------------------------------------
# geometry


def test_geometry_world_pixel_roundtrip():
    g = GridGeometry(40, 30, 0.5, 2.0, 312000.0, 5615000.0)
    xs = np.array([0.0, 3.25, 39.0])
    ys = np.array([0.0, 17.5, 29.0])
    e, n = g.pixel_to_world(xs, ys)
    bx, by = g.world_to_pixel(e, n)
    np.testing.assert_allclose(bx, xs, atol=1e-12)
    np.testing.assert_allclose(by, ys, atol=1e-12)


def test_geometry_coarsened_halves_size_doubles_spacing():
    g = GridGeometry(65, 48, 1.0, 1.5, 7.0, -3.0)
    c = g.coarsened()
    assert c.shape == (24, 33)
    assert c.spacing_x == 2.0
    assert c.spacing_y == 3.0
    assert c.origin_easting == 7.0
    assert c.origin_northing == -3.0


@pytest.mark.parametrize("w,h", [(1, 5), (5, 1), (0, 0)])
def test_geometry_rejects_degenerate_size(w, h):
    with pytest.raises(GeometryError):
        GridGeometry(w, h)


@pytest.mark.parametrize("w,h", [(4.0, 4), (4, 4.0), (np.float64(8), 8), (True, 4), (4, "4")])
def test_geometry_rejects_non_integer_size(w, h):
    # accepted, a float size would fail later as a TypeError from numpy
    with pytest.raises(GeometryError, match="integers"):
        GridGeometry(w, h)


def test_geometry_accepts_numpy_integer_size():
    g = GridGeometry(np.int64(6), np.int32(4))
    assert DisplacementField.zero(g).u_x.shape == (4, 6)


def test_geometry_rejects_nonpositive_spacing():
    with pytest.raises(GeometryError):
        GridGeometry(8, 8, spacing_x=0.0)
    with pytest.raises(GeometryError):
        GridGeometry(8, 8, spacing_y=-1.0)


@pytest.mark.parametrize(
    "field", ["spacing_x", "spacing_y", "origin_easting", "origin_northing"]
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_geometry_rejects_non_finite_spacing_and_origin(field, value):
    with pytest.raises(GeometryError):
        GridGeometry(8, 8, **{field: value})


# ---------------------------------------------------------------------------
# images and fields


def test_image_masks_zero_out_values(geom_small):
    vals = np.full(geom_small.shape, 9.0)
    mask = np.zeros(geom_small.shape, dtype=bool)
    mask[3, 4] = True
    img = ScalarImage(geom_small, vals, mask)
    assert img.values[3, 4] == 0.0
    assert not img.valid_mask[3, 4]
    assert img.valid_mask.sum() == vals.size - 1


def test_image_drops_empty_mask(geom_small):
    img = ScalarImage(geom_small, np.ones(geom_small.shape), np.zeros(geom_small.shape, bool))
    assert img.nodata is None


def test_image_rejects_nonfinite_values(geom_small):
    vals = np.ones(geom_small.shape)
    vals[0, 0] = np.nan
    with pytest.raises(ParameterError):
        ScalarImage(geom_small, vals)
    # but nan under the mask is tolerated (masked values are zeroed anyway)
    mask = np.zeros(geom_small.shape, bool)
    mask[0, 0] = True
    img = ScalarImage(geom_small, vals, mask)
    assert img.values[0, 0] == 0.0


def test_image_rejects_wrong_shape(geom_small):
    with pytest.raises(GeometryError):
        ScalarImage(geom_small, np.ones((3, 3)))


def test_field_max_norm(geom16):
    u = DisplacementField.zero(geom16)
    assert u.max_norm() == 0.0
    u.values[:, 5, 5] = 3.0, 4.0
    assert u.max_norm() == 5.0


def test_field_components_are_read_only_views_of_one_array(geom16):
    u = DisplacementField(geom16, (np.ones(geom16.shape), np.zeros(geom16.shape)))
    assert u.values.shape == (2,) + geom16.shape and u.values.dtype == np.float64
    assert np.shares_memory(u.u_x, u.values) and np.shares_memory(u.u_y, u.values)
    with pytest.raises(ValueError):
        u.u_x[0, 0] = 2.0
    with pytest.raises(GeometryError):
        DisplacementField(geom16, np.zeros(geom16.shape))  # one component


def test_field_rejects_nonfinite(geom16):
    bad = np.zeros(geom16.shape)
    bad[0, 0] = np.inf
    with pytest.raises(ParameterError):
        DisplacementField(geom16, (bad, np.zeros(geom16.shape)))


# ---------------------------------------------------------------------------
# sampling


def sample(image, x, y, mode="bilinear"):
    """One point through the kernel every warp and resample runs:
    ``(value, valid)``, ``(0.0, False)`` off the domain or on masked data."""
    v, bad = _sample_arrays(image, np.array([float(x)]), np.array([float(y)]), mode)
    return (0.0, False) if bad[0] else (float(v[0]), True)


def test_sample_constant_image(geom16):
    img = ScalarImage(geom16, np.full(geom16.shape, 7.0))
    v, ok = sample(img, 4.3, 9.7)
    assert ok
    assert v == pytest.approx(7.0, abs=1e-12)


def test_sample_ramp_is_exact():
    g = GridGeometry(8, 8)
    xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
    img = ScalarImage(g, xs)
    v, ok = sample(img, 1.5, 2.0)
    assert ok
    assert v == pytest.approx(1.5, abs=1e-12)
    v, ok = sample(ScalarImage(g, ys), 3.0, 4.25)
    assert v == pytest.approx(4.25, abs=1e-12)


def test_sample_outside_domain_is_invalid(geom16):
    img = ScalarImage(geom16, np.ones(geom16.shape))
    v, ok = sample(img, -0.01, 5.0)
    assert not ok and v == 0.0
    v, ok = sample(img, 5.0, 15.01)
    assert not ok


def test_sample_near_masked_pixel_is_invalid(geom16):
    vals = np.ones(geom16.shape)
    mask = np.zeros(geom16.shape, bool)
    mask[5, 5] = True
    img = ScalarImage(geom16, vals, mask)
    _, ok = sample(img, 4.6, 5.0)
    assert not ok
    # zero interpolation weight on the masked corner: still fine
    _, ok = sample(img, 3.0, 5.0)
    assert ok


def test_sample_nearest_mode(geom16, rng):
    img = random_image(geom16, rng)
    v, ok = sample(img, 3.4, 7.6, mode="nearest")
    assert ok
    assert v == img.values[8, 3]


def test_round_half_up_is_exact_one_ulp_below_a_half():
    below = np.nextafter(0.5, 0.0)  # 0.49999999999999994
    assert np.floor(below + 0.5) == 1.0  # the sum rounds up to 1
    p = np.array([below, 0.5, -0.5, 1.5, -1.5, -below, np.nextafter(1.5, 0.0)])
    np.testing.assert_array_equal(_round_half_up(p), [0.0, 1.0, 0.0, 2.0, -1.0, 0.0, 1.0])
    np.testing.assert_array_equal(_round_half_up(np.array([np.inf, -np.inf])), [np.inf, -np.inf])
    # away from ties it is rint
    q = np.random.default_rng(3).uniform(-50.0, 50.0, 1000)
    np.testing.assert_array_equal(_round_half_up(q), np.rint(q))


def test_nearest_resample_marks_pixels_drawn_from_masked_sources(geom16, rng):
    mask = np.zeros(geom16.shape, bool)
    mask[5, 5] = True
    img = ScalarImage(geom16, rng.uniform(size=geom16.shape), mask)
    # target pixel j sits at source x = j + 0.6, whose nearest node is j + 1
    out = resample_to_geometry(img, GridGeometry(16, 16, 1.0, 1.0, 0.6, 0.0), mode="nearest")
    want = np.zeros(geom16.shape, bool)
    want[5, 4] = True
    want[:, 15] = True  # x = 15.6 is off the grid
    np.testing.assert_array_equal(~out.valid_mask, want)
    np.testing.assert_array_equal(out.values[~want], img.values[:, 1:][~want[:, :15]])


@pytest.mark.parametrize("mode", ["bilinear", "nearest"])
def test_world_points_past_the_float_range_of_pixels_are_off_the_grid(mode):
    # every node but the origin lies 1e308 m or some 1e320 pixels out:
    # coordinates of inf, not warnings
    want = np.ones((4, 4), bool)
    want[0, 0] = False
    fine = ScalarImage(GridGeometry(4, 4, 1e-320, 1e-320), np.ones((4, 4)))
    out = resample_to_geometry(fine, GridGeometry(4, 4), mode=mode)
    np.testing.assert_array_equal(~out.valid_mask, want)
    coarse = GridGeometry(4, 4, 1e308, 1e308)
    out = resample_to_geometry(ScalarImage(GridGeometry(4, 4), np.ones((4, 4))), coarse, mode=mode)
    np.testing.assert_array_equal(~out.valid_mask, want)


def test_sample_rejects_bad_input(geom16):
    img = ScalarImage(geom16, np.ones(geom16.shape))
    with pytest.raises(ParameterError):
        sample(img, 1.0, 1.0, mode="cubic")


# ---------------------------------------------------------------------------
# warping


def test_warp_zero_field_is_identity(geom_small, rng):
    img = random_image(geom_small, rng)
    for mode in ("bilinear", "nearest"):
        out = warp(img, DisplacementField.zero(geom_small), mode=mode)
        np.testing.assert_array_equal(out.values, img.values)
        assert out.nodata is None


def test_warp_integer_translation_shifts_values(geom_small, rng):
    img = random_image(geom_small, rng)
    u = DisplacementField(
        geom_small, (np.full(geom_small.shape, 2.0), np.full(geom_small.shape, 1.0))
    )
    out = warp(img, u)
    # output(x) = image(x - u), so column 2 reads source column 0
    np.testing.assert_allclose(out.values[1:, 2:], img.values[:-1, :-2], atol=1e-12)
    # evicted strip falls outside the source domain
    assert out.nodata is not None
    assert out.nodata[:, :2].all()
    assert out.nodata[0, :].all()


def test_warp_mismatched_grids_raise(geom16, geom_small):
    img = ScalarImage(geom16, np.ones(geom16.shape))
    with pytest.raises(GeometryError):
        warp(img, DisplacementField.zero(geom_small))


def test_warp_nearest_values_come_from_source(geom_small, rng):
    img = random_image(geom_small, rng)
    u = DisplacementField(
        geom_small,
        (rng.uniform(-2, 2, geom_small.shape),
         rng.uniform(-2, 2, geom_small.shape)),
    )
    out = warp(img, u, mode="nearest")
    ok = out.valid_mask
    assert np.isin(out.values[ok], img.values).all()


def test_warp_jacobian_matches_directional_difference(geom16, rng):
    img = random_image(geom16, rng)
    u = DisplacementField(
        geom16,
        (rng.uniform(0.2, 0.8, geom16.shape),
         rng.uniform(0.2, 0.8, geom16.shape)),
    )
    warped, jac = warp_with_jacobian(img, u)
    dvdx, dvdy = jac
    h = 1e-7
    ux = DisplacementField(geom16, (u.u_x - h, u.u_y))  # sample point moves +h in x
    wx = warp(img, ux)
    fd = (wx.values - warped.values) / h
    # compare where the unclamped reference warp is valid
    inside = warp(img, u).valid_mask & wx.valid_mask
    np.testing.assert_allclose(dvdx[inside], fd[inside], atol=1e-5)
    uy = DisplacementField(geom16, (u.u_x, u.u_y - h))
    fd = (warp(img, uy).values - warped.values) / h
    np.testing.assert_allclose(dvdy[inside], fd[inside], atol=1e-5)


def test_warp_jacobian_edge_clamp_extends_continuously(geom16, rng):
    img = random_image(geom16, rng)
    big = DisplacementField(
        geom16, (np.full(geom16.shape, 30.0), np.zeros(geom16.shape))
    )
    warped, jac = warp_with_jacobian(img, big)
    assert warp(img, big).nodata.all()  # the unclamped warp leaves the domain
    assert warped.nodata is None
    # every sample clamps to column 0 and stops responding to u
    want = np.broadcast_to(img.values[:, :1], warped.values.shape)
    np.testing.assert_allclose(warped.values, want, atol=1e-12)
    assert (jac[0] == 0.0).all()


def test_warp_jacobian_edge_clamp_rejects_masked_image(geom16):
    mask = np.zeros(geom16.shape, bool)
    mask[2, 2] = True
    img = ScalarImage(geom16, np.ones(geom16.shape), mask)
    with pytest.raises(ParameterError):
        warp_with_jacobian(img, DisplacementField.zero(geom16))


# ---------------------------------------------------------------------------
# finite differences


def test_gradient_axis_matches_numpy(rng):
    vals = rng.normal(size=(12, 17))
    for axis in (0, 1):
        got = gradient_axis(vals, axis)
        want = np.gradient(vals, axis=axis)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_gradient_of_affine_image_is_constant():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(9.0))
    vals = 3.0 * xs - 2.0 * ys + 1.0
    np.testing.assert_allclose(gradient_axis(vals, 1), 3.0, atol=1e-12)
    np.testing.assert_allclose(gradient_axis(vals, 0), -2.0, atol=1e-12)


def test_gradient_axis_adjoint_identity(rng):
    vals = rng.normal(size=(9, 13))
    w = rng.normal(size=(9, 13))
    for axis in (0, 1):
        lhs = np.sum(gradient_axis(vals, axis) * w)
        rhs = np.sum(vals * gradient_axis_adjoint(w, axis))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_laplacian_annihilates_affine():
    xs, ys = np.meshgrid(np.arange(11.0), np.arange(8.0))
    vals = 4.0 * xs - 7.0 * ys + 2.5
    np.testing.assert_allclose(laplacian_values(vals), 0.0, atol=1e-12)


def test_laplacian_of_quadratic():
    xs, _ = np.meshgrid(np.arange(12.0), np.arange(10.0))
    out = laplacian_values(xs * xs)
    # d2/dx2 (x^2) = 2 on interior columns, zero on the dropped boundary rows
    np.testing.assert_allclose(out[:, 1:-1], 2.0, atol=1e-10)
    np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(out[:, -1], 0.0, atol=1e-12)


def test_laplacian_matches_stencil_oracle(rng):
    vals = rng.normal(size=(7, 9))
    want = np.zeros_like(vals)
    for i in range(7):
        for j in range(9):
            if 1 <= j <= 7:
                want[i, j] += vals[i, j + 1] - 2 * vals[i, j] + vals[i, j - 1]
            if 1 <= i <= 5:
                want[i, j] += vals[i + 1, j] - 2 * vals[i, j] + vals[i - 1, j]
    np.testing.assert_allclose(laplacian_values(vals), want, atol=1e-12)


def test_laplacian_adjoint_identity(rng):
    vals = rng.normal(size=(8, 8))
    w = rng.normal(size=(8, 8))
    lhs = np.sum(laplacian_values(vals) * w)
    rhs = np.sum(vals * laplacian_adjoint_values(w))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# pyramid


def test_pyramid_stops_at_minimum_dimension():
    g = GridGeometry(COARSEST_MIN_DIM, COARSEST_MIN_DIM)
    pyr = build_pyramid(ScalarImage(g, np.zeros(g.shape)))
    assert len(pyr) == 1


def test_pyramid_level_count_and_geometry():
    g = GridGeometry(256, 128)
    pyr = build_pyramid(ScalarImage(g, np.zeros(g.shape)))
    # 128 -> 64 -> 32, then ceil(32/2) = 16 < 32 stops it
    assert len(pyr) == 3
    assert pyr[0].geometry.shape == (128, 256)
    assert pyr[1].geometry.shape == (64, 128)
    assert pyr[2].geometry.shape == (32, 64)
    assert pyr[2].geometry.spacing_x == 4.0
    pyr = build_pyramid(ScalarImage(g, np.zeros(g.shape)), max_levels=2)
    assert len(pyr) == 2


def test_pyramid_preserves_constant():
    g = GridGeometry(96, 96)
    pyr = build_pyramid(ScalarImage(g, np.full(g.shape, 3.25)))
    for level in pyr:
        np.testing.assert_allclose(level.values, 3.25, atol=1e-12)


def test_downsample_is_block_mean(rng):
    g = GridGeometry(64, 48)
    img = random_image(g, rng)
    out = downsample(img)
    want = img.values.reshape(24, 2, 32, 2).mean(axis=(1, 3))
    np.testing.assert_allclose(out.values, want, atol=1e-12)
    assert out.values.mean() == pytest.approx(img.values.mean(), rel=1e-12)


def test_downsample_ragged_edge_averages_present_cells():
    g = GridGeometry(5, 5)
    img = ScalarImage(g, np.arange(25.0).reshape(5, 5))
    out = downsample(img)
    assert out.geometry.shape == (3, 3)
    assert out.values[0, 0] == pytest.approx((0 + 1 + 5 + 6) / 4)
    assert out.values[0, 2] == pytest.approx((4 + 9) / 2)
    assert out.values[2, 2] == pytest.approx(24.0)


def test_downsample_propagates_empty_blocks():
    g = GridGeometry(6, 6)
    mask = np.zeros(g.shape, bool)
    mask[0:2, 0:2] = True  # whole block gone
    mask[2, 2] = True  # quarter of a block gone
    img = ScalarImage(g, np.ones(g.shape), mask)
    out = downsample(img)
    assert out.nodata is not None
    assert out.nodata[0, 0]
    assert not out.nodata[1, 1]
    assert out.values[1, 1] == pytest.approx(1.0)  # mean over the 3 survivors


def _two_path_box_mean(values, valid):
    # downsample as first written: a block-count product for gap-free
    # images, masked sums over valid counts otherwise
    h, w = values.shape
    ri = np.arange(0, h, 2)
    ci = np.arange(0, w, 2)
    if valid is None:
        vs = np.add.reduceat(np.add.reduceat(values, ri, axis=0), ci, axis=1)
        rows = np.minimum(ri + 2, h) - ri
        cols = np.minimum(ci + 2, w) - ci
        return vs / np.outer(rows, cols).astype(np.float64), None
    vf = valid.astype(np.float64)
    vs = np.add.reduceat(np.add.reduceat(values * vf, ri, axis=0), ci, axis=1)
    cnt = np.add.reduceat(np.add.reduceat(vf, ri, axis=0), ci, axis=1)
    empty = cnt == 0.0
    out = np.where(empty, 0.0, vs / np.where(empty, 1.0, cnt))
    return out, (empty if empty.any() else None)


def _full_block_and_ragged_corner(shape, rng):
    mask = np.zeros(shape, bool)
    mask[2:4, 0:2] = True
    mask[-1, -1] = True  # the 1x1 corner block of an odd grid
    return mask


@pytest.mark.parametrize(
    "shape,make_mask",
    [
        ((8, 6), None),
        ((7, 9), None),
        ((9, 7), lambda shape, rng: rng.uniform(size=shape) < 0.3),
        ((6, 8), lambda shape, rng: rng.uniform(size=shape) < 0.3),
        ((7, 5), _full_block_and_ragged_corner),
    ],
    ids=["gap-free", "gap-free-odd", "scattered-odd", "scattered", "full-block"],
)
def test_downsample_matches_the_two_path_box_mean_bit_for_bit(shape, make_mask, rng):
    g = GridGeometry(shape[1], shape[0])
    mask = None if make_mask is None else make_mask(shape, rng)
    img = ScalarImage(g, rng.normal(size=shape), mask)
    want, want_empty = _two_path_box_mean(img.values, None if mask is None else img.valid_mask)
    out = downsample(img)
    assert out.values.tobytes() == want.tobytes()
    if want_empty is None:
        assert out.nodata is None
    else:
        assert np.array_equal(out.nodata, want_empty)
    if make_mask is _full_block_and_ragged_corner:
        assert out.nodata[1, 0] and out.nodata[-1, -1]


def test_build_pyramid_rejects_bad_levels(geom16):
    with pytest.raises(ParameterError):
        build_pyramid(ScalarImage(geom16, np.zeros(geom16.shape)), max_levels=0)


@pytest.mark.parametrize("levels", (2.5, 2.0, float("nan"), True, "2"))
def test_build_pyramid_rejects_non_integer_levels(geom16, levels):
    with pytest.raises(ParameterError):
        build_pyramid(ScalarImage(geom16, np.zeros(geom16.shape)), max_levels=levels)


def test_build_pyramid_takes_numpy_integer_levels():
    g = GridGeometry(256, 256)
    pyr = build_pyramid(ScalarImage(g, np.zeros(g.shape)), max_levels=np.int64(2))
    assert len(pyr) == 2


def test_prolong_constant_field_doubles():
    fine = GridGeometry(64, 64)
    coarse = fine.coarsened()
    u = DisplacementField(
        coarse, (np.full(coarse.shape, 1.0), np.full(coarse.shape, 0.5))
    )
    up = prolong(u, fine)
    np.testing.assert_allclose(up.u_x, 2.0, atol=1e-12)
    np.testing.assert_allclose(up.u_y, 1.0, atol=1e-12)


def test_prolong_reproduces_coincident_nodes(rng):
    fine = GridGeometry(40, 30)
    coarse = fine.coarsened()
    u = DisplacementField(
        coarse, (rng.normal(size=coarse.shape), rng.normal(size=coarse.shape))
    )
    up = prolong(u, fine)
    np.testing.assert_allclose(up.u_x[::2, ::2], 2.0 * u.u_x, atol=1e-12)
    np.testing.assert_allclose(up.u_y[::2, ::2], 2.0 * u.u_y, atol=1e-12)


def test_prolong_samples_each_component_on_its_own_terms(rng):
    # both components share one bilinear cell computation; each must equal
    # sampling that component alone
    fine = GridGeometry(21, 15)
    coarse = fine.coarsened()
    u = DisplacementField(
        coarse, (rng.normal(size=coarse.shape), rng.normal(size=coarse.shape))
    )
    up = prolong(u, fine)
    for component, got in ((u.u_x, up.u_x), (u.u_y, up.u_y)):
        image = ScalarImage(coarse, component)
        want = [
            [2.0 * sample(image, x / 2.0, y / 2.0)[0] for x in range(fine.width)]
            for y in range(fine.height)
        ]
        np.testing.assert_array_equal(got, want)


def test_prolong_rejects_non_parent(geom16):
    u = DisplacementField.zero(geom16)
    with pytest.raises(GeometryError):
        prolong(u, GridGeometry(64, 64))


# ---------------------------------------------------------------------------
# intensity and resampling


def test_normalize_intensity_hits_unit_range(geom_small, rng):
    img = random_image(geom_small, rng, lo=-5.0, hi=11.0)
    out = normalize_intensity(img)
    assert out.values.min() == pytest.approx(0.0, abs=1e-12)
    assert out.values.max() == pytest.approx(1.0, abs=1e-12)


def test_normalize_intensity_rejects_flat_image(geom_small):
    with pytest.raises(DegenerateImageError):
        normalize_intensity(ScalarImage(geom_small, np.full(geom_small.shape, 2.0)))


def test_normalize_intensity_ignores_masked_extremes(geom_small):
    vals = np.linspace(0.0, 1.0, geom_small.width)[None, :] * np.ones(
        (geom_small.height, 1)
    )
    vals = vals.copy()
    vals[4, 4] = 1000.0
    mask = np.zeros(geom_small.shape, bool)
    mask[4, 4] = True
    out = normalize_intensity(ScalarImage(geom_small, vals, mask))
    assert out.values[out.valid_mask].max() == pytest.approx(1.0, abs=1e-12)


def test_fill_nodata_uses_nearest_valid():
    g = GridGeometry(5, 4)
    vals = np.arange(20.0).reshape(4, 5)
    mask = np.zeros(g.shape, bool)
    mask[0, 0] = True
    mask[3, 4] = True
    out = fill_nodata(ScalarImage(g, vals, mask))
    assert out.nodata is None
    assert out.values[0, 0] in (vals[0, 1], vals[1, 0])
    assert out.values[3, 4] in (vals[2, 4], vals[3, 3])
    # untouched pixels keep their values
    keep = ~mask
    np.testing.assert_array_equal(out.values[keep], vals[keep])


def test_fill_nodata_passthrough_and_degenerate(geom16):
    img = ScalarImage(geom16, np.ones(geom16.shape))
    assert fill_nodata(img) is img
    with pytest.raises(DegenerateImageError):
        fill_nodata(ScalarImage(geom16, np.zeros(geom16.shape), np.ones(geom16.shape, bool)))


def test_resample_identity_geometry(geom_small, rng):
    img = random_image(geom_small, rng)
    out = resample_to_geometry(img, geom_small)
    np.testing.assert_array_equal(out.values, img.values)


def test_resample_through_world_coordinates():
    src = GridGeometry(20, 20, 1.0, 1.0, 100.0, 200.0)
    xs, _ = np.meshgrid(np.arange(20.0), np.arange(20.0))
    img = ScalarImage(src, xs)  # value equals easting - 100
    dst = GridGeometry(8, 8, 2.0, 2.0, 102.0, 203.0)
    out = resample_to_geometry(img, dst)
    assert out.nodata is None
    ex, _ = np.meshgrid(np.arange(8.0), np.arange(8.0))
    np.testing.assert_allclose(out.values, 2.0 + 2.0 * ex, atol=1e-12)


def test_resample_marks_uncovered_pixels():
    src = GridGeometry(10, 10, 1.0, 1.0, 0.0, 0.0)
    img = ScalarImage(src, np.ones(src.shape))
    dst = GridGeometry(10, 10, 1.0, 1.0, 5.0, 0.0)  # right half has no source
    out = resample_to_geometry(img, dst)
    assert out.nodata is not None
    assert out.nodata[:, 6:].all()
    assert out.valid_mask[:, :5].all()


def _laplacian_reference(values):
    # the stencils as first written: a zero fill, one temporary per term
    out = np.zeros_like(values)
    out[:, 1:-1] += values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]
    out[1:-1, :] += values[2:, :] - 2.0 * values[1:-1, :] + values[:-2, :]
    return out


def _laplacian_adjoint_reference(weights):
    out = np.zeros_like(weights)
    tx = weights.copy()
    tx[:, 0] = 0.0
    tx[:, -1] = 0.0
    out[:, :-1] += tx[:, 1:]
    out -= 2.0 * tx
    out[:, 1:] += tx[:, :-1]
    ty = weights.copy()
    ty[0, :] = 0.0
    ty[-1, :] = 0.0
    out[:-1, :] += ty[1:, :]
    out -= 2.0 * ty
    out[1:, :] += ty[:-1, :]
    return out


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (24, 40)])
def test_laplacian_stencils_are_bit_identical_exact_transposes(shape, rng):
    values = rng.normal(size=shape)
    kept = values.copy()
    got = laplacian_values(values)
    assert got.tobytes() == _laplacian_reference(values).tobytes()
    got = laplacian_adjoint_values(values)
    assert got.tobytes() == _laplacian_adjoint_reference(values).tobytes()
    assert values.tobytes() == kept.tobytes()
    # dense matrices from the unit planes: the adjoint's is the exact transpose
    n = shape[0] * shape[1]
    units = np.eye(n).reshape((n,) + shape)
    forward = np.stack([laplacian_values(e).ravel() for e in units], axis=1)
    adjoint = np.stack([laplacian_adjoint_values(e).ravel() for e in units], axis=1)
    assert np.array_equal(adjoint, forward.T)


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (17, 23), (24, 40)])
def test_laplacian_stencils_take_a_stacked_field_plane_by_plane(shape, rng):
    values = rng.normal(size=(2,) + shape)
    values[1] *= 1e3
    for stencil in (laplacian_values, laplacian_adjoint_values):
        got = stencil(values)
        assert got.shape == values.shape
        for k in range(2):
            assert got[k].tobytes() == stencil(values[k]).tobytes()


def test_pixel_grid_is_a_read_only_memo():
    g = GridGeometry(5, 3, 2.0, 0.5)
    xs, ys = _pixel_grid(g)
    assert not xs.flags.writeable and not ys.flags.writeable
    with pytest.raises(ValueError):
        xs[0, 0] = 1.0
    want_ys, want_xs = np.mgrid[0.0:3, 0.0:5]
    assert xs.tobytes() == want_xs.tobytes() and ys.tobytes() == want_ys.tobytes()
    # another shape replaces the slot; the same shape comes back as it was
    other, _ = _pixel_grid(GridGeometry(4, 4))
    assert other.shape == (4, 4)
    again, _ = _pixel_grid(GridGeometry(5, 3))
    assert again.tobytes() == want_xs.tobytes()


def test_warp_with_jacobian_zeroes_clamped_derivatives(rng):
    g = GridGeometry(12, 10)
    image = random_image(g, rng)
    u = DisplacementField(g, (rng.normal(0.0, 4.0, g.shape), rng.normal(0.0, 4.0, g.shape)))
    _, jac = warp_with_jacobian(image, u)
    dvdx, dvdy = jac
    xs, ys = np.meshgrid(np.arange(12.0), np.arange(10.0))
    px, py = xs - u.u_x, ys - u.u_y
    outside_x = (px < 0.0) | (px > 11.0)
    outside_y = (py < 0.0) | (py > 9.0)
    assert outside_x.any() and outside_y.any()
    assert not dvdx[outside_x].any() and not dvdy[outside_y].any()
    assert dvdx.flags.writeable and dvdy.flags.writeable


# ---------------------------------------------------------------------------
# the in-place bilinear kernel against the textbook formulas


def _bilinear_reference(values, mask, xs, ys, edge_clamp):
    """The whole-array bilinear formulas: (values, invalid flags, cell)."""
    h, w = values.shape[-2:]
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xc), w - 2).astype(np.int64)
    y0 = np.minimum(np.floor(yc), h - 2).astype(np.int64)
    fx = xc - x0
    fy = yc - y0
    gx = 1.0 - fx
    gy = 1.0 - fy
    v00, v10 = values[..., y0, x0], values[..., y0, x0 + 1]
    v01, v11 = values[..., y0 + 1, x0], values[..., y0 + 1, x0 + 1]
    v = gx * gy * v00 + fx * gy * v10 + gx * fy * v01 + fx * fy * v11
    bad = None if edge_clamp else (xs < 0.0) | (xs > w - 1.0) | (ys < 0.0) | (ys > h - 1.0)
    if mask is not None:
        m = mask.astype(np.float64)
        m00, m10 = m[y0, x0], m[y0, x0 + 1]
        m01, m11 = m[y0 + 1, x0], m[y0 + 1, x0 + 1]
        touched = gx * gy * m00 + fx * gy * m10 + gx * fy * m01 + fx * fy * m11 > 0.0
        bad = touched if bad is None else bad | touched
    return v, bad, (fx, fy, gx, gy, v00, v10, v01, v11)


def _edge_and_node_field(g, rng):
    """A field whose sample points reach past every edge and sit exactly on
    nodes, on the far edges included."""
    h, w = g.shape
    xs, ys = np.meshgrid(np.arange(float(w)), np.arange(float(h)))
    ux = rng.normal(0.0, 0.4 * w, g.shape)
    uy = rng.normal(0.0, 0.4 * h, g.shape)
    ux[::2, ::3] = np.round(ux[::2, ::3])
    uy[::3, ::2] = np.round(uy[::3, ::2])
    ux[-1, :] = xs[-1, :] - (w - 1.0)  # px = w - 1
    uy[:, -1] = ys[:, -1] - (h - 1.0)  # py = h - 1
    ux[0, :] = xs[0, :]  # px = 0
    return DisplacementField(g, (ux, uy))


@pytest.mark.parametrize("shape", [(2, 2), (7, 2), (17, 23)])
def test_warp_with_jacobian_is_bit_identical_to_the_formulas(shape, rng):
    g = GridGeometry(shape[1], shape[0])
    image = ScalarImage(g, rng.normal(size=shape))
    u = _edge_and_node_field(g, rng)
    xs, ys = np.meshgrid(np.arange(float(shape[1])), np.arange(float(shape[0])))
    px, py = xs - u.u_x, ys - u.u_y
    v, _, (fx, fy, gx, gy, v00, v10, v01, v11) = _bilinear_reference(
        image.values, None, px, py, True
    )
    dvdx = gy * (v10 - v00) + fy * (v11 - v01)
    dvdy = gx * (v01 - v00) + fx * (v11 - v10)
    dvdx[(px < 0.0) | (px > shape[1] - 1.0)] = 0.0
    dvdy[(py < 0.0) | (py > shape[0] - 1.0)] = 0.0
    warped, jac = warp_with_jacobian(image, u)
    assert jac.shape == (2,) + shape
    assert warped.values.tobytes() == v.tobytes()
    assert jac[0].tobytes() == dvdx.tobytes()
    assert jac[1].tobytes() == dvdy.tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (7, 2), (17, 23)])
def test_masked_warp_is_bit_identical_to_the_formulas(shape, rng):
    g = GridGeometry(shape[1], shape[0])
    mask = rng.random(shape) < 0.2
    mask[0, 0] = True
    image = ScalarImage(g, rng.normal(size=shape), mask)
    u = _edge_and_node_field(g, rng)
    xs, ys = np.meshgrid(np.arange(float(shape[1])), np.arange(float(shape[0])))
    v, bad, _ = _bilinear_reference(image.values, image.nodata, xs - u.u_x, ys - u.u_y, False)
    want = ScalarImage(g, v, bad)
    got = warp(image, u)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.valid_mask.tobytes() == want.valid_mask.tobytes()


def test_prolong_is_bit_identical_to_the_formulas(rng):
    fine = GridGeometry(23, 18)
    coarse = fine.coarsened()
    u = _edge_and_node_field(coarse, rng)
    xs, ys = np.meshgrid(np.arange(23.0), np.arange(18.0))
    (ux, uy), _, _ = _bilinear_reference(u.values, None, xs / 2.0, ys / 2.0, True)
    got = prolong(u, fine)
    assert got.u_x.tobytes() == (2.0 * ux).tobytes()
    assert got.u_y.tobytes() == (2.0 * uy).tobytes()


def test_warp_with_jacobian_works_in_bounded_memory(rng):
    g = GridGeometry(160, 192)
    image = random_image(g, rng)
    u = DisplacementField(g, (rng.normal(size=g.shape), rng.normal(size=g.shape)))
    warp_with_jacobian(image, u)  # fills the pixel-grid memo
    grids = traced_peak(lambda: warp_with_jacobian(image, u)) / (8.0 * 160 * 192)
    # the three outputs, the two sample coordinates and eight kernel
    # buffers (fractions, complements, corner index, weight and the four
    # corners) make 13 grid-sized arrays; whole-array temporaries made 25
    assert grids < 16.0
