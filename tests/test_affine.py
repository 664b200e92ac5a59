"""Affine baseline: parameter algebra and multilevel recovery."""

import logging

import numpy as np
import pytest

from fusereg.affine import (
    AffineParams,
    affine_apply,
    affine_to_displacement,
    register_affine,
)
from fusereg.errors import DegenerateImageError, ParameterError
from fusereg.evaluation import SyntheticDeformation, synthetic_texture
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage, warp
from fusereg.nonparametric import RegistrationConfig


def invert(p: AffineParams) -> AffineParams:
    ai = np.linalg.inv(p.matrix)
    ti = -ai @ p.translation
    return AffineParams(ai[0, 0], ai[0, 1], ai[1, 0], ai[1, 1], ti[0], ti[1])


def shifted_pair(n=96, t=(3.0, 2.0), seed=17):
    """Template = reference seen through (A, t); recovery must find the inverse."""
    g = GridGeometry(n, n)
    ref = synthetic_texture(g, seed=seed, smoothness=2.0)
    params = AffineParams(1.0, 0.0, 0.0, 1.0, float(t[0]), float(t[1]))
    tem = warp(ref, affine_to_displacement(params, g))
    return tem, ref, invert(params)


# ---------------------------------------------------------------------------
# parameter record


def test_identity_params():
    p = AffineParams.identity()
    np.testing.assert_array_equal(p.matrix, np.eye(2))
    np.testing.assert_array_equal(p.translation, 0.0)
    assert p.det == 1.0


def test_params_text_roundtrip():
    p = AffineParams(0.99, 0.052, -0.048, 1.01, 3.25, -2.5)
    q = AffineParams.from_text(p.to_text())
    assert p == q


def test_params_text_roundtrip_numpy_scalars():
    # fitted parameters arrive as numpy scalars; the record must stay
    # plain numbers
    vals = np.array([1.01, 0.02, -0.02, 0.99, 2.5, -1.25])
    p = AffineParams(*vals)
    text = p.to_text()
    assert "np." not in text
    q = AffineParams.from_text(text)
    assert float(q.t_x) == 2.5


def test_params_reject_singular_and_nonfinite():
    with pytest.raises(ParameterError):
        AffineParams(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        AffineParams(np.nan, 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        AffineParams.from_text("1 0 0 1 0")
    with pytest.raises(ParameterError):
        AffineParams.from_text("1 0 0 one 0 0")


def test_affine_apply_matches_matrix_form(rng):
    p = AffineParams(1.1, 0.2, -0.1, 0.9, 4.0, -1.0)
    xy = rng.normal(size=(2, 50))
    gx, gy = affine_apply(p, xy[0], xy[1])
    want = p.matrix @ xy + p.translation[:, None]
    np.testing.assert_allclose(gx, want[0], atol=1e-12)
    np.testing.assert_allclose(gy, want[1], atol=1e-12)


def test_affine_displacement_realizes_transform(geom_small):
    p = AffineParams(1.0, 0.1, 0.0, 1.0, -2.0, 1.0)
    u = affine_to_displacement(p, geom_small)
    # sampling position x - u(x) must equal A x + t
    xs, ys = np.meshgrid(
        np.arange(float(geom_small.width)), np.arange(float(geom_small.height))
    )
    px, py = affine_apply(p, xs, ys)
    np.testing.assert_allclose(xs - u.u_x, px, atol=1e-12)
    np.testing.assert_allclose(ys - u.u_y, py, atol=1e-12)


def test_identity_displacement_is_zero(geom_small):
    u = affine_to_displacement(AffineParams.identity(), geom_small)
    np.testing.assert_array_equal(u.u_x, 0.0)
    np.testing.assert_array_equal(u.u_y, 0.0)


# ---------------------------------------------------------------------------
# registration


def test_identical_images_return_identity(texture64):
    cfg = RegistrationConfig(measure="SSD", max_levels=2, max_iters_per_level=60)
    params, trace = register_affine(texture64, texture64, "SSD", cfg)
    np.testing.assert_allclose(params.matrix, np.eye(2), atol=1e-3)
    np.testing.assert_allclose(params.translation, 0.0, atol=1e-3)
    assert trace.levels[-1].solver == "affine-ssd"


@pytest.mark.parametrize("measure", ("SSD", "NCC", "NGF"))
def test_translation_recovery_each_measure(measure):
    tem, ref, truth = shifted_pair()
    cfg = RegistrationConfig(
        measure="NGF", eta=0.02, max_levels=2, max_iters_per_level=150,
        rel_tolerance=1e-10,
    )
    params, _ = register_affine(tem, ref, measure, cfg)
    np.testing.assert_allclose(params.translation, truth.translation, atol=0.1)
    np.testing.assert_allclose(params.matrix, np.eye(2), atol=5e-3)


def test_translation_recovery_mi():
    tem, ref, truth = shifted_pair(n=96)
    cfg = RegistrationConfig(
        measure="MI", max_levels=2, max_iters_per_level=150, rel_tolerance=1e-10
    )
    params, _ = register_affine(tem, ref, "MI", cfg)
    np.testing.assert_allclose(params.translation, truth.translation, atol=0.2)


def test_scale_recovery():
    g = GridGeometry(96, 96)
    ref = synthetic_texture(g, seed=23, smoothness=2.0)
    s = 1.05
    # generator: uniform zoom about the image centre
    gen = AffineParams(s, 0.0, 0.0, s, 47.5 * (1 - s), 47.5 * (1 - s))
    tem = warp(ref, affine_to_displacement(gen, g))
    cfg = RegistrationConfig(
        measure="SSD", max_levels=2, max_iters_per_level=200, rel_tolerance=1e-10
    )
    params, _ = register_affine(tem, ref, "SSD", cfg)
    want = invert(gen)
    assert want.a11 == pytest.approx(1.0 / s, rel=1e-12)
    np.testing.assert_allclose(params.matrix, want.matrix, atol=1e-2)
    np.testing.assert_allclose(params.translation, want.translation, atol=0.5)


def test_trace_is_monotone_and_unregularized():
    tem, ref, _ = shifted_pair(n=64, t=(1.5, -1.0), seed=29)
    cfg = RegistrationConfig(measure="SSD", max_levels=2, max_iters_per_level=80)
    _, trace = register_affine(tem, ref, "SSD", cfg)
    for lt in trace.levels:
        objs = [r.objective for r in lt.records]
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))
        assert all(r.regularizer == 0.0 for r in lt.records)
        assert lt.evaluations >= lt.iterations + 1


def test_register_affine_validates_input(texture64):
    cfg = RegistrationConfig()
    with pytest.raises(ParameterError):
        register_affine(texture64, texture64, "SAD", cfg)
    flat = ScalarImage(texture64.geometry, np.full(texture64.geometry.shape, 0.5))
    with pytest.raises(DegenerateImageError):
        register_affine(flat, texture64, "NCC", cfg)


def test_level_stopped_at_iteration_zero_warns(caplog):
    g = GridGeometry(72, 64)
    ref = synthetic_texture(g, seed=5, smoothness=2.0)
    bump = SyntheticDeformation(kind="gaussian-bump", amplitude=2.5, sigma=12.0)
    tem = warp(ref, bump.realized(g))
    cfg = RegistrationConfig(measure="NGF", max_levels=2)
    with caplog.at_level(logging.WARNING, logger="fusereg.affine"):
        _, trace = register_affine(tem, ref, "NGF", cfg)
    assert [lt.iterations for lt in trace.levels] == [0, 0]
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 2
    assert "affine level 1 (36x32, NGF) stopped at iteration 0" in warnings[0]
    caplog.clear()
    tem, ref, _ = shifted_pair(n=48, t=(1.0, 0.5))
    cfg = RegistrationConfig(measure="SSD", max_levels=1, max_iters_per_level=5)
    with caplog.at_level(logging.WARNING, logger="fusereg.affine"):
        _, trace = register_affine(tem, ref, "SSD", cfg)
    assert trace.levels[0].iterations > 0
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
