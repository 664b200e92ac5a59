"""Synthetic deformations, quality metrics and the experiment harness."""

import json
import math

import numpy as np
import pytest

from fusereg.affine import AffineParams
from fusereg.errors import GeometryError, ParameterError
from fusereg.evaluation import (
    ExperimentScenario,
    MetricReport,
    SyntheticDeformation,
    checkerboard,
    difference_map,
    endpoint_error,
    mean_abs_difference,
    run_experiment,
    synthetic_texture,
)
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage, warp
from fusereg.nonparametric import RegistrationConfig, objective


# ---------------------------------------------------------------------------
# textures


def test_texture_reproducible_and_normalized():
    g = GridGeometry(48, 48)
    a = synthetic_texture(g, seed=7)
    b = synthetic_texture(g, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    c = synthetic_texture(g, seed=8)
    assert not np.array_equal(a.values, c.values)
    assert a.values.min() == 0.0 and a.values.max() == 1.0


def test_texture_smoothness_reduces_roughness():
    g = GridGeometry(64, 64)
    rough = synthetic_texture(g, seed=3, smoothness=0.0)
    smooth = synthetic_texture(g, seed=3, smoothness=4.0)

    def roughness(img):
        return float(np.mean(np.abs(np.diff(img.values, axis=1))))

    assert roughness(smooth) < roughness(rough)


# ---------------------------------------------------------------------------
# deformations


def test_deformation_validation():
    with pytest.raises(ParameterError):
        SyntheticDeformation(kind="twist", amplitude=1.0)
    with pytest.raises(ParameterError):
        SyntheticDeformation(kind="gaussian-bump", amplitude=0.0)
    with pytest.raises(ParameterError):
        SyntheticDeformation(kind="gaussian-bump", amplitude=1.0, sigma=-1.0)
    with pytest.raises(ParameterError):
        SyntheticDeformation(kind="sinusoid", amplitude=1.0, wavelength=0.0)
    with pytest.raises(ParameterError):
        SyntheticDeformation(kind="gaussian-bump", amplitude=1.0, direction=(0.0, 0.0))
    with pytest.raises(ParameterError):
        SyntheticDeformation(kind="affine")


def test_bump_centre_norm_equals_amplitude():
    g = GridGeometry(65, 65)
    d = SyntheticDeformation(kind="gaussian-bump", amplitude=3.0, sigma=8.0)
    u = d.realized(g)
    centre = math.hypot(u.u_x[32, 32], u.u_y[32, 32])
    assert centre == pytest.approx(3.0, rel=1e-12)
    # decays with radius
    assert math.hypot(u.u_x[0, 0], u.u_y[0, 0]) < 0.01


def test_sinusoid_centre_norm_equals_amplitude():
    g = GridGeometry(65, 65)
    d = SyntheticDeformation(kind="sinusoid", amplitude=2.0, wavelength=32.0)
    u = d.realized(g)
    assert math.hypot(u.u_x[32, 32], u.u_y[32, 32]) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("direction", (
    (1.0, 2.0, 3.0),
    (1.0,),
    (float("nan"), 1.0),
    (0.0, float("inf")),
    ("1", 0.0),
    (None, 1.0),
    1.0,
    np.eye(2),
))
def test_direction_must_be_two_finite_numbers(direction):
    with pytest.raises(ParameterError, match="two finite numbers"):
        SyntheticDeformation(kind="gaussian-bump", amplitude=1.0, direction=direction)


def test_direction_is_normalized():
    d = SyntheticDeformation(kind="gaussian-bump", amplitude=1.0, direction=(3.0, 4.0))
    assert d.direction == (0.6, 0.8)


def test_affine_deformation_matches_params():
    g = GridGeometry(32, 32)
    p = AffineParams(1.02, 0.01, -0.01, 0.98, 1.5, -0.5)
    d = SyntheticDeformation(kind="affine", params=p)
    u = d.realized(g)
    xs, ys = np.meshgrid(np.arange(32.0), np.arange(32.0))
    np.testing.assert_allclose(xs - u.u_x, 1.02 * xs + 0.01 * ys + 1.5, atol=1e-12)


def test_inverse_is_exact_compensation():
    """warp(warp(R, u_d), u_inv) must reproduce R away from the boundary."""
    g = GridGeometry(96, 96)
    ref = synthetic_texture(g, seed=5, smoothness=2.0)
    for d in (
        SyntheticDeformation(kind="gaussian-bump", amplitude=3.0, sigma=12.0),
        SyntheticDeformation(kind="sinusoid", amplitude=1.5, wavelength=40.0),
    ):
        u_d = d.realized(g)
        u_inv = d.inverse(g)
        tem = warp(ref, u_d)
        back = warp(tem, u_inv)
        inner = (slice(8, -8), slice(8, -8))
        assert back.valid_mask[inner].all()
        # residual error is pure interpolation blur (two bilinear passes),
        # not inverse error
        diff = np.abs(back.values[inner] - ref.values[inner])
        assert diff.mean() < 0.01
        assert diff.max() < 0.1


def test_inverse_affine_closed_form():
    g = GridGeometry(48, 48)
    p = AffineParams(1.01, 0.02, -0.02, 0.99, 2.0, 1.0)
    d = SyntheticDeformation(kind="affine", params=p)
    u_inv = d.inverse(g)
    # x - u_inv(x) must be the exact matrix inverse applied to x
    xs, ys = np.meshgrid(np.arange(48.0), np.arange(48.0))
    a_inv = np.linalg.inv(p.matrix)
    zx = a_inv[0, 0] * (xs - p.t_x) + a_inv[0, 1] * (ys - p.t_y)
    np.testing.assert_allclose(xs - u_inv.u_x, zx, atol=1e-10)


def test_inverse_fixed_point_residual():
    """u*(x) + u_d(x - u*(x)) == 0 at convergence (z = x - u* solves the
    defining fixed point z = x + u_d(z) with u* = -u_d(z))."""
    g = GridGeometry(64, 64)
    d = SyntheticDeformation(kind="gaussian-bump", amplitude=4.0, sigma=10.0)
    u_inv = d.inverse(g)
    ys, xs = np.mgrid[0.0:64, 0.0:64]
    dx, dy = d.evaluate(xs - u_inv.u_x, ys - u_inv.u_y, g)
    np.testing.assert_allclose(u_inv.u_x + dx, 0.0, atol=1e-10)
    np.testing.assert_allclose(u_inv.u_y + dy, 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# metrics


def test_endpoint_error_stats_and_margin():
    g = GridGeometry(20, 20)
    zero = DisplacementField.zero(g)
    est = DisplacementField(g, np.ones(g.shape), np.zeros(g.shape))
    stats, err = endpoint_error(est, zero, margin=2)
    assert err.shape == g.shape
    assert stats.mean == stats.median == stats.max == 1.0
    # corrupt only the boundary band: interior statistics must not move
    est.u_x[0, :] = 50.0
    stats2, _ = endpoint_error(est, zero, margin=2)
    assert stats2.mean == 1.0


def test_endpoint_error_default_margin_scales_with_truth():
    g = GridGeometry(20, 20)
    truth = DisplacementField(g, np.full(g.shape, 2.5), np.zeros(g.shape))
    est = DisplacementField(g, np.full(g.shape, 2.5), np.zeros(g.shape))
    est.u_x[:4, :] = -10.0  # inside the default margin band (ceil(2.5)+1 = 4)
    stats, _ = endpoint_error(est, truth)
    assert stats.max == 0.0


def test_endpoint_error_rejects_degenerate_margin():
    g = GridGeometry(8, 8)
    z = DisplacementField.zero(g)
    with pytest.raises(ParameterError):
        endpoint_error(z, z, margin=4)
    with pytest.raises(ParameterError):
        endpoint_error(z, DisplacementField.zero(GridGeometry(9, 9)))
    for margin in (-1, 2.5):
        with pytest.raises(ParameterError, match="margin"):
            endpoint_error(z, z, margin=margin)


def test_mean_abs_difference(rng):
    g = GridGeometry(10, 10)
    a = ScalarImage(g, rng.uniform(0, 1, g.shape))
    b = ScalarImage(g, rng.uniform(0, 1, g.shape))
    assert mean_abs_difference(a, b) == pytest.approx(
        float(np.mean(np.abs(a.values - b.values)))
    )
    sel = np.zeros(g.shape, bool)
    sel[0, 0] = True
    assert mean_abs_difference(a, b, sel) == pytest.approx(
        abs(a.values[0, 0] - b.values[0, 0])
    )
    with pytest.raises(ParameterError):
        mean_abs_difference(a, b, np.zeros(g.shape, bool))


def test_difference_map_masks_union(rng):
    g = GridGeometry(8, 8)
    mask_a = np.zeros(g.shape, bool)
    mask_a[0, 0] = True
    a = ScalarImage(g, rng.uniform(0, 1, g.shape), mask_a)
    b = ScalarImage(g, rng.uniform(0, 1, g.shape))
    d = difference_map(a, b)
    assert d.nodata is not None and d.nodata[0, 0]
    ok = d.valid_mask
    np.testing.assert_allclose(d.values[ok], np.abs(a.values - b.values)[ok])


def test_checkerboard_alternates_sources():
    g = GridGeometry(16, 16)
    a = ScalarImage(g, np.zeros(g.shape))
    b = ScalarImage(g, np.ones(g.shape))
    cb = checkerboard(a, b, tiles=4)
    assert cb.values[0, 0] == 0.0  # first tile shows a
    assert cb.values[0, 4] == 1.0
    assert cb.values[4, 0] == 1.0
    assert cb.values[4, 4] == 0.0
    with pytest.raises(ParameterError):
        checkerboard(a, b, tiles=0)


@pytest.mark.parametrize("helper", [mean_abs_difference, difference_map, checkerboard])
def test_image_comparisons_reject_other_grids(helper, rng):
    a = ScalarImage(GridGeometry(4, 4), rng.uniform(0, 1, (4, 4)))
    b = ScalarImage(GridGeometry(2, 4), rng.uniform(0, 1, (4, 2)))
    with pytest.raises(GeometryError, match="matching grids"):
        helper(a, b)


# ---------------------------------------------------------------------------
# harness


def bump_scenario(**overrides):
    defaults = dict(
        name="unit-bump",
        width=96,
        height=96,
        seed=12,
        deformation=SyntheticDeformation(kind="gaussian-bump", amplitude=2.0, sigma=10.0),
        method="nonparametric",
        config=RegistrationConfig(
            measure="SSD", alpha=1.0, max_levels=2, max_iters_per_level=60
        ),
        texture_smoothness=2.0,
    )
    defaults.update(overrides)
    return ExperimentScenario(**defaults)


def test_scenario_validation():
    with pytest.raises(ParameterError):
        bump_scenario(method="projective")


def test_run_experiment_rejects_a_non_integer_size():
    with pytest.raises(GeometryError, match="integers"):
        run_experiment(bump_scenario(width=48.0))


def test_scenario_runs_the_measure_its_config_names():
    # the config is the one place that names the measure: the report says
    # SSD, the final objective is SSD's, and the affine fit uses SSD too
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, max_levels=1, max_iters_per_level=10)
    report, artifacts = run_experiment(bump_scenario(width=48, height=48, config=cfg))
    assert not report.failed and report.measure == "SSD"
    j, _ = objective(artifacts["field"], artifacts["template"], artifacts["reference"], cfg)
    assert report.final_objective == pytest.approx(j, rel=1e-12)
    p = AffineParams(1.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    report, artifacts = run_experiment(bump_scenario(
        width=48, height=48, deformation=SyntheticDeformation(kind="affine", params=p),
        method="affine", config=cfg,
    ))
    assert report.measure == "SSD"
    assert {lt.solver for lt in artifacts["trace"].levels} == {"affine-ssd"}


def test_run_experiment_nonparametric():
    report, artifacts = run_experiment(bump_scenario())
    assert not report.failed
    assert report.epe_mean < 0.5
    assert report.mad_registered <= report.mad_unregistered
    assert report.iterations > 0
    for key in (
        "reference", "template", "registered", "difference",
        "checkerboard", "field", "truth", "error_map", "trace",
    ):
        assert key in artifacts
    assert artifacts["field"].geometry.shape == (96, 96)


def test_run_experiment_affine_method():
    p = AffineParams(1.0, 0.0, 0.0, 1.0, 2.0, -1.0)
    scenario = bump_scenario(
        name="unit-affine",
        deformation=SyntheticDeformation(kind="affine", params=p),
        method="affine",
    )
    report, artifacts = run_experiment(scenario)
    assert not report.failed
    assert report.epe_mean < 0.1
    assert report.method == "affine"


def test_run_experiment_failure_is_reported_not_raised(monkeypatch):
    # the harness generates well-posed pairs itself, so a registration
    # failure has to be injected to exercise the containment contract
    from fusereg.errors import DivergenceError

    def blow_up(template, reference, config):
        raise DivergenceError("injected failure")

    monkeypatch.setattr("fusereg.evaluation.register_multilevel", blow_up)
    report, artifacts = run_experiment(bump_scenario(name="unit-fail"))
    assert report.failed
    assert "DivergenceError" in report.error
    assert math.isnan(report.epe_mean)
    assert sorted(artifacts) == ["reference", "template", "truth"]


def test_report_json_excludes_wall_time():
    rep = MetricReport(name="x", method="nonparametric", measure="SSD", wall_time=123.0)
    data = json.loads(rep.to_json())
    assert "wall_time" not in data
    assert data["name"] == "x"
    assert data["failed"] is False
