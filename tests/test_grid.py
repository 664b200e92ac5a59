"""Grid primitives: geometry, sampling, warping, differentials, pyramid."""

import numpy as np
import pytest

from fusereg.errors import DegenerateImageError, GeometryError, ParameterError
from fusereg.grid import (
    COARSEST_MIN_DIM,
    DisplacementField,
    GridGeometry,
    ScalarImage,
    build_pyramid,
    displacement_to_geometry,
    downsample,
    fill_nodata,
    gradient,
    gradient_axis,
    gradient_axis_adjoint,
    laplacian,
    laplacian_adjoint_values,
    laplacian_values,
    normalize_intensity,
    prolong,
    resample_to_geometry,
    sample,
    warp,
    warp_with_jacobian,
)

from conftest import random_image


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


def test_geometry_bounds_are_cell_edges():
    g = GridGeometry(4, 3, 2.0, 1.0, 100.0, 50.0)
    min_e, min_n, max_e, max_n = g.bounds()
    assert min_e == 99.0
    assert min_n == 49.5
    assert max_e == 100.0 + 3 * 2.0 + 1.0
    assert max_n == 50.0 + 2 * 1.0 + 0.5


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


def test_field_vector_roundtrip(geom_small, rng):
    u = DisplacementField(
        geom_small, rng.normal(size=geom_small.shape), rng.normal(size=geom_small.shape)
    )
    v = u.as_vector()
    assert v.shape == (2 * geom_small.width * geom_small.height,)
    back = DisplacementField.from_vector(geom_small, v)
    np.testing.assert_array_equal(back.u_x, u.u_x)
    np.testing.assert_array_equal(back.u_y, u.u_y)


def test_field_from_vector_rejects_bad_length(geom_small):
    with pytest.raises(GeometryError):
        DisplacementField.from_vector(geom_small, np.zeros(7))


def test_field_max_norm(geom16):
    u = DisplacementField.zero(geom16)
    assert u.max_norm() == 0.0
    u.u_x[5, 5] = 3.0
    u.u_y[5, 5] = 4.0
    assert u.max_norm() == 5.0


def test_field_rejects_nonfinite(geom16):
    bad = np.zeros(geom16.shape)
    bad[0, 0] = np.inf
    with pytest.raises(ParameterError):
        DisplacementField(geom16, bad, np.zeros(geom16.shape))


# ---------------------------------------------------------------------------
# sampling


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


def test_sample_rejects_bad_input(geom16):
    img = ScalarImage(geom16, np.ones(geom16.shape))
    with pytest.raises(ParameterError):
        sample(img, np.nan, 1.0)
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
        geom_small, np.full(geom_small.shape, 2.0), np.full(geom_small.shape, 1.0)
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
        rng.uniform(-2, 2, geom_small.shape),
        rng.uniform(-2, 2, geom_small.shape),
    )
    out = warp(img, u, mode="nearest")
    ok = out.valid_mask
    assert np.isin(out.values[ok], img.values).all()


def test_warp_jacobian_matches_directional_difference(geom16, rng):
    img = random_image(geom16, rng)
    u = DisplacementField(
        geom16,
        rng.uniform(0.2, 0.8, geom16.shape),
        rng.uniform(0.2, 0.8, geom16.shape),
    )
    warped, dvdx, dvdy = warp_with_jacobian(img, u)
    h = 1e-7
    ux = DisplacementField(geom16, u.u_x - h, u.u_y)  # sample point moves +h in x
    wx = warp(img, ux)
    fd = (wx.values - warped.values) / h
    # compare where the unclamped reference warp is valid
    inside = warp(img, u).valid_mask & wx.valid_mask
    np.testing.assert_allclose(dvdx[inside], fd[inside], atol=1e-5)
    uy = DisplacementField(geom16, u.u_x, u.u_y - h)
    fd = (warp(img, uy).values - warped.values) / h
    np.testing.assert_allclose(dvdy[inside], fd[inside], atol=1e-5)


def test_warp_jacobian_edge_clamp_extends_continuously(geom16, rng):
    img = random_image(geom16, rng)
    big = DisplacementField(
        geom16, np.full(geom16.shape, 30.0), np.zeros(geom16.shape)
    )
    warped, dvdx, dvdy = warp_with_jacobian(img, big)
    assert warp(img, big).nodata.all()  # the unclamped warp leaves the domain
    assert warped.nodata is None
    # every sample clamps to column 0 and stops responding to u
    want = np.broadcast_to(img.values[:, :1], warped.values.shape)
    np.testing.assert_allclose(warped.values, want, atol=1e-12)
    assert (dvdx == 0.0).all()


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
    for axis, h in ((0, 0.5), (1, 2.0)):
        got = gradient_axis(vals, axis, h)
        want = np.gradient(vals, h, axis=axis)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_gradient_of_affine_image_is_constant():
    g = GridGeometry(10, 9, 0.5, 2.0)
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(9.0))
    img = ScalarImage(g, 3.0 * xs - 2.0 * ys + 1.0)
    gx, gy = gradient(img)
    np.testing.assert_allclose(gx.values, 3.0 / 0.5, atol=1e-12)
    np.testing.assert_allclose(gy.values, -2.0 / 2.0, atol=1e-12)


def test_gradient_axis_adjoint_identity(rng):
    vals = rng.normal(size=(9, 13))
    w = rng.normal(size=(9, 13))
    for axis, h in ((0, 1.0), (1, 0.75)):
        lhs = np.sum(gradient_axis(vals, axis, h) * w)
        rhs = np.sum(vals * gradient_axis_adjoint(w, axis, h))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_laplacian_annihilates_affine():
    g = GridGeometry(11, 8)
    xs, ys = np.meshgrid(np.arange(11.0), np.arange(8.0))
    img = ScalarImage(g, 4.0 * xs - 7.0 * ys + 2.5)
    np.testing.assert_allclose(laplacian(img).values, 0.0, atol=1e-12)


def test_laplacian_of_quadratic():
    g = GridGeometry(12, 10, 0.5, 1.0)
    xs, _ = np.meshgrid(np.arange(12.0) * 0.5, np.arange(10.0))
    out = laplacian(ScalarImage(g, xs * xs)).values
    # d2/dx2 (x^2) = 2 on interior columns, zero on the dropped boundary rows
    np.testing.assert_allclose(out[:, 1:-1], 2.0, atol=1e-10)
    np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(out[:, -1], 0.0, atol=1e-12)


def test_laplacian_matches_stencil_oracle(rng):
    vals = rng.normal(size=(7, 9))
    hx, hy = 0.5, 2.0
    want = np.zeros_like(vals)
    for i in range(7):
        for j in range(9):
            if 1 <= j <= 7:
                want[i, j] += (vals[i, j + 1] - 2 * vals[i, j] + vals[i, j - 1]) / hx**2
            if 1 <= i <= 5:
                want[i, j] += (vals[i + 1, j] - 2 * vals[i, j] + vals[i - 1, j]) / hy**2
    np.testing.assert_allclose(laplacian_values(vals, hx, hy), want, atol=1e-12)


def test_laplacian_adjoint_identity(rng):
    vals = rng.normal(size=(8, 8))
    w = rng.normal(size=(8, 8))
    lhs = np.sum(laplacian_values(vals, 0.5, 1.5) * w)
    rhs = np.sum(vals * laplacian_adjoint_values(w, 0.5, 1.5))
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


def test_build_pyramid_rejects_bad_levels(geom16):
    with pytest.raises(ParameterError):
        build_pyramid(ScalarImage(geom16, np.zeros(geom16.shape)), max_levels=0)


def test_prolong_constant_field_doubles():
    fine = GridGeometry(64, 64)
    coarse = fine.coarsened()
    u = DisplacementField(
        coarse, np.full(coarse.shape, 1.0), np.full(coarse.shape, 0.5)
    )
    up = prolong(u, fine)
    np.testing.assert_allclose(up.u_x, 2.0, atol=1e-12)
    np.testing.assert_allclose(up.u_y, 1.0, atol=1e-12)


def test_prolong_reproduces_coincident_nodes(rng):
    fine = GridGeometry(40, 30)
    coarse = fine.coarsened()
    u = DisplacementField(
        coarse, rng.normal(size=coarse.shape), rng.normal(size=coarse.shape)
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
        coarse, rng.normal(size=coarse.shape), rng.normal(size=coarse.shape)
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


def test_displacement_to_geometry_rescales_pixel_units():
    src = GridGeometry(16, 16, 1.0, 1.0, 0.0, 0.0)
    u = DisplacementField(src, np.full(src.shape, 4.0), np.full(src.shape, 2.0))
    dst = GridGeometry(8, 8, 2.0, 2.0, 0.0, 0.0)
    out = displacement_to_geometry(u, dst)
    # same physical motion, half as many (twice as large) pixels
    np.testing.assert_allclose(out.u_x, 2.0, atol=1e-12)
    np.testing.assert_allclose(out.u_y, 1.0, atol=1e-12)
