"""Affine baseline: parameter algebra and multilevel recovery."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from fusereg import affine
from fusereg.affine import (
    AffineParams,
    _hat_to_pixel,
    _objective,
    _pixel_to_hat,
    affine_apply,
    affine_to_displacement,
    register_affine,
)
from fusereg.errors import DegenerateImageError, DivergenceError, ParameterError
from fusereg.evaluation import SyntheticDeformation, synthetic_texture
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage, fill_nodata, warp
from fusereg.nonparametric import RegistrationConfig, _level_reference

NON_SQUARE = GridGeometry(37, 22)


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
# border-pixel parameter frame


def random_transform(rng):
    a = np.eye(2) + rng.normal(scale=0.05, size=(2, 2))
    return a, rng.normal(scale=3.0, size=2)


def test_frame_roundtrips_pixel_parameters(rng):
    for _ in range(5):
        a, t = random_transform(rng)
        a_back, t_back = _hat_to_pixel(_pixel_to_hat(a, t, NON_SQUARE), NON_SQUARE)
        np.testing.assert_allclose(a_back, a, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(t_back, t, rtol=0.0, atol=1e-12)


def test_unit_parameter_change_moves_the_border_one_pixel(rng):
    xs, ys = np.meshgrid(
        np.arange(float(NON_SQUARE.width)), np.arange(float(NON_SQUARE.height))
    )
    a, t = random_transform(rng)
    phat = _pixel_to_hat(a, t, NON_SQUARE)
    before = np.stack([a[i, 0] * xs + a[i, 1] * ys + t[i] for i in range(2)])
    for k in range(6):
        a_k, t_k = _hat_to_pixel(phat + np.eye(6)[k], NON_SQUARE)
        after = np.stack([a_k[i, 0] * xs + a_k[i, 1] * ys + t_k[i] for i in range(2)])
        # parameters (z11, z12, z21, z22, zt_x, zt_y) move x, x, y, y, x, y
        axis = 0 if k in (0, 1, 4) else 1
        assert np.max(np.abs(after[axis] - before[axis])) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(after[1 - axis], before[1 - axis], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("measure", ("SSD", "NCC", "MI", "NGF"))
def test_affine_gradient_matches_central_differences(measure, rng):
    ref = synthetic_texture(NON_SQUARE, seed=31, smoothness=2.0)
    gen = AffineParams(1.01, 0.02, -0.015, 0.99, 0.6, -0.4)
    tem = fill_nodata(warp(ref, affine_to_displacement(gen, NON_SQUARE)))
    cfg = RegistrationConfig(measure=measure, eta=0.1)
    fun_grad = _objective(tem, _level_reference(ref, cfg), cfg)
    phat = _pixel_to_hat(*random_transform(rng), NON_SQUARE)
    _, grad = fun_grad(phat)
    h = 1e-6
    for k in range(6):
        e = h * np.eye(6)[k]
        fd = (fun_grad(phat + e)[0] - fun_grad(phat - e)[0]) / (2 * h)
        assert grad[k] == pytest.approx(fd, rel=1e-4)


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
    with caplog.at_level(logging.WARNING, logger="fusereg.nonparametric"):
        _, trace = register_affine(tem, ref, "NGF", cfg)
    assert [lt.iterations for lt in trace.levels] == [0, 0]
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 2
    assert "affine level 1 (36x32, NGF) stopped at iteration 0" in warnings[0]
    caplog.clear()
    tem, ref, _ = shifted_pair(n=48, t=(1.0, 0.5))
    cfg = RegistrationConfig(measure="SSD", max_levels=1, max_iters_per_level=5)
    with caplog.at_level(logging.WARNING, logger="fusereg.nonparametric"):
        _, trace = register_affine(tem, ref, "SSD", cfg)
    assert trace.levels[0].iterations > 0
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_divergence_carries_level_and_partial_trace(monkeypatch):
    # a non-finite distance on the fine level only: the coarse level
    # completes, the fine one raises at its start
    distance = affine._distance

    def broken_on_level0(warped, reference, cfg):
        res = distance(warped, reference, cfg)
        return dataclasses.replace(res, value=float("nan")) if warped.geometry.width == 64 else res

    monkeypatch.setattr(affine, "_distance", broken_on_level0)
    tem, ref, _ = shifted_pair(n=64, t=(1.0, 0.5))
    cfg = RegistrationConfig(measure="SSD", max_levels=2)
    with pytest.raises(DivergenceError, match="not finite at the starting point") as info:
        register_affine(tem, ref, "SSD", cfg)
    err = info.value
    assert err.level == 0
    assert [lt.level for lt in err.trace.levels] == [1, 0]
    assert err.trace.levels[0].iterations >= 1
    level_trace = err.trace.levels[1]
    assert level_trace.records == []
    assert not level_trace.converged
    assert level_trace.wall_time > 0.0


def test_every_level_records_its_wall_time():
    tem, ref, _ = shifted_pair(n=64, t=(1.5, -1.0), seed=29)
    cfg = RegistrationConfig(measure="SSD", max_levels=2)
    _, trace = register_affine(tem, ref, "SSD", cfg)
    assert [lt.level for lt in trace.levels] == [1, 0]
    assert all(lt.wall_time > 0.0 for lt in trace.levels)


def benchmark_pair(seed, n=96):
    """Template = reference seen through a 3 degree rotation and a 2% scale
    about the centre plus a (1.8, 2.4) px shift."""
    g = GridGeometry(n, n)
    ref = synthetic_texture(g, seed=seed, smoothness=2.0)
    rot = math.radians(3.0)
    a = 1.02 * np.array([[math.cos(rot), -math.sin(rot)], [math.sin(rot), math.cos(rot)]])
    c = np.full(2, (n - 1) / 2.0)
    t = c - a @ c + np.array([1.8, 2.4])
    gen = AffineParams(a[0, 0], a[0, 1], a[1, 0], a[1, 1], t[0], t[1])
    return warp(ref, affine_to_displacement(gen, g)), ref


@pytest.mark.parametrize("seed", (3, 4, 5))
def test_fine_level_rejects_few_trials(seed):
    # the fine level starts close to the answer with an empty l-BFGS memory:
    # a first trial of one pixel at the border needs few halvings
    tem, ref = benchmark_pair(seed)
    cfg = RegistrationConfig(measure="MI", max_levels=2, max_iters_per_level=300)
    _, trace = register_affine(tem, ref, "MI", cfg)
    fine = trace.levels[-1]
    assert fine.iterations > 0
    assert fine.evaluations - fine.iterations - 1 <= 3


def test_fine_ngf_level_iterates_on_a_lattice_shift():
    tem, ref, truth = shifted_pair()
    cfg = RegistrationConfig(
        measure="NGF", eta=0.02, max_levels=2, max_iters_per_level=150,
        rel_tolerance=1e-10,
    )
    params, trace = register_affine(tem, ref, "NGF", cfg)
    assert trace.levels[-1].iterations >= 1
    np.testing.assert_allclose(params.translation, truth.translation, atol=1e-3)
    np.testing.assert_allclose(params.matrix, np.eye(2), atol=1e-4)
