"""Variational registration: objective, solvers, multilevel scheme."""

import logging
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from fusereg import curvature, nonparametric
from fusereg.curvature import curvature_energy, neumann_solve
from fusereg.errors import DivergenceError, GeometryError, IntensityRangeError, ParameterError
from fusereg.cli import PRESETS
from fusereg.evaluation import SyntheticDeformation, endpoint_error, synthetic_texture
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage, warp
from fusereg.nonparametric import (
    SOLVERS,
    RegistrationConfig,
    objective,
    register_level,
    register_multilevel,
)
from fusereg.optimize import MAX_BACKTRACKS
from fusereg.similarity import evaluate

from conftest import field_from_vector, field_vector


def translation_pair(n=64, shift=(2.0, 0.0), seed=11, smoothness=2.0):
    """Reference texture and a copy shifted by `shift`; truth u = -shift."""
    g = GridGeometry(n, n)
    ref = synthetic_texture(g, seed=seed, smoothness=smoothness)
    u_d = DisplacementField(
        g, np.full(g.shape, float(shift[0])), np.full(g.shape, float(shift[1]))
    )
    tem = warp(ref, u_d)
    return tem, ref


def bump_pair():
    """64x64 reference texture and a copy deformed by a 3 px Gaussian bump."""
    g = GridGeometry(64, 64)
    ref = synthetic_texture(g, seed=11, smoothness=2.0)
    bump = SyntheticDeformation(kind="gaussian-bump", amplitude=3.0, sigma=10.0)
    return warp(ref, bump.realized(g)), ref


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_unknown_names():
    with pytest.raises(ParameterError):
        RegistrationConfig(measure="SAD")
    with pytest.raises(ParameterError):
        RegistrationConfig(solver="newton")


@pytest.mark.parametrize("field,value", [
    ("alpha", 0.0),
    ("eta", -1.0),
    ("dt", 0.0),
    ("alpha", float("nan")),
    ("alpha", float("inf")),
    ("eta", float("nan")),
    ("eta", float("inf")),
    ("dt", float("nan")),
    ("dt", float("inf")),
    ("rel_tolerance", 0.0),
    ("rel_tolerance", 1.5),
    ("max_levels", 0),
    ("max_iters_per_level", 0),
    ("max_levels", 1.5),
    ("max_levels", 2.0),
    ("max_levels", float("nan")),
    ("max_levels", True),
    ("max_iters_per_level", 2.5),
    ("max_iters_per_level", float("inf")),
    ("max_iters_per_level", True),
    ("mi_bins", 2),
    ("mi_bins", 8.5),
    ("mi_parzen_sigma", -1.0),
    ("mi_parzen_sigma", float("nan")),
    ("mi_parzen_sigma", float("inf")),
    ("mi_parzen_sigma", 1e-3),
    ("mi_parzen_sigma", 0.0125),
    ("mi_parzen_sigma", 0.0),
    ("alpha", "1"),
    ("alpha", True),
    ("eta", None),
    ("dt", "1"),
    ("rel_tolerance", "x"),
    ("mi_parzen_sigma", "1"),
    ("mi_parzen_sigma", True),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ParameterError):
        RegistrationConfig(**{field: value})


# ---------------------------------------------------------------------------
# objective


def test_objective_at_zero_is_plain_distance(texture64):
    r = texture64.with_values(np.roll(texture64.values, 1, axis=0))
    u = DisplacementField.zero(texture64.geometry)
    for measure in ("SSD", "NCC", "MI", "NGF"):
        cfg = RegistrationConfig(measure=measure, alpha=1.0, eta=0.02)
        j, _ = objective(u, texture64, r, cfg)
        want = evaluate(measure, texture64, r, eta=0.02).value
        assert j == pytest.approx(want, rel=1e-12)


def test_objective_alpha_linearity(texture64, rng):
    r = texture64.with_values(np.roll(texture64.values, 1, axis=1))
    u = DisplacementField(
        texture64.geometry,
        rng.uniform(-0.5, 0.5, texture64.geometry.shape),
        rng.uniform(-0.5, 0.5, texture64.geometry.shape),
    )
    j1, _ = objective(u, texture64, r, RegistrationConfig(measure="SSD", alpha=1.0))
    j2, _ = objective(u, texture64, r, RegistrationConfig(measure="SSD", alpha=3.0))
    assert j2 - j1 == pytest.approx(2.0 * curvature_energy(u), rel=1e-9)


@pytest.mark.parametrize("measure", ("SSD", "NCC", "MI", "NGF"))
def test_objective_gradient_matches_fd(measure, rng):
    g = GridGeometry(12, 12)
    t = ScalarImage(g, rng.uniform(0.05, 0.95, g.shape))
    r = ScalarImage(g, rng.uniform(0.05, 0.95, g.shape))
    u = DisplacementField(
        g, rng.uniform(-0.4, 0.4, g.shape), rng.uniform(-0.4, 0.4, g.shape)
    )
    cfg = RegistrationConfig(measure=measure, alpha=0.5, eta=0.1)
    j, grad = objective(u, t, r, cfg)
    d = rng.normal(size=2 * g.width * g.height)
    h = 1e-6
    up = field_from_vector(g, field_vector(u) + h * d)
    dn = field_from_vector(g, field_vector(u) - h * d)
    fd = (objective(up, t, r, cfg)[0] - objective(dn, t, r, cfg)[0]) / (2 * h)
    got = float(np.dot(field_vector(grad), d))
    assert got == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("measure", ("SSD", "NCC", "MI", "NGF"))
def test_register_level_refuses_unnormalized_pair(measure, texture64, monkeypatch):
    # the one input contract of every entry point, checked before the
    # level evaluates anything
    evaluations = []
    distance = nonparametric._distance

    def counted(*args):
        evaluations.append(args)
        return distance(*args)

    monkeypatch.setattr(nonparametric, "_distance", counted)
    hot = texture64.with_values(texture64.values * 3.0)
    u0 = DisplacementField.zero(texture64.geometry)
    cfg = RegistrationConfig(measure=measure, max_iters_per_level=5)
    for template, reference in ((hot, texture64), (texture64, hot)):
        with pytest.raises(IntensityRangeError):
            register_level(template, reference, u0, cfg)
    assert evaluations == []


def test_objective_validates_inputs(texture64):
    u = DisplacementField.zero(texture64.geometry)
    cfg = RegistrationConfig()
    hot = texture64.with_values(texture64.values * 3.0)
    with pytest.raises(IntensityRangeError):
        objective(u, hot, texture64, cfg)
    small = GridGeometry(16, 16)
    with pytest.raises(GeometryError):
        objective(DisplacementField.zero(small), texture64, texture64, cfg)


# ---------------------------------------------------------------------------
# single-level solvers


@pytest.mark.parametrize("solver", SOLVERS)
def test_identical_images_stay_put_ssd(solver, texture64):
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, solver=solver, max_iters_per_level=50)
    u0 = DisplacementField.zero(texture64.geometry)
    u, trace = register_level(texture64, texture64, u0, cfg)
    assert trace.converged
    assert trace.iterations <= 2
    assert u.max_norm() < 1e-8


@pytest.mark.parametrize("solver", SOLVERS)
def test_trace_objective_never_increases(solver):
    tem, ref = translation_pair(n=48, shift=(1.0, 0.5), seed=3)
    cfg = RegistrationConfig(
        measure="SSD", alpha=1.0, solver=solver, max_iters_per_level=40
    )
    u0 = DisplacementField.zero(ref.geometry)
    _, trace = register_level(tem, ref, u0, cfg)
    objs = [r.objective for r in trace.records]
    assert len(objs) >= 2
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))
    assert trace.records[0].iteration == 0
    assert trace.records[0].step_norm == 0.0


@pytest.mark.parametrize("solver", SOLVERS)
def test_level_trace_counts_evaluations(solver):
    # the start plus at least one evaluation per accepted iterate
    tem, ref = translation_pair(n=40, shift=(1.0, 0.5), seed=3)
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, solver=solver, max_iters_per_level=6)
    _, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    assert trace.iterations >= 1
    assert trace.evaluations >= trace.iterations + 1


def test_translation_recovery_both_schemes():
    tem, ref = translation_pair(n=64, shift=(2.0, 0.0))
    truth = DisplacementField(
        ref.geometry,
        np.full(ref.geometry.shape, -2.0),
        np.zeros(ref.geometry.shape),
    )
    # the diffusion-like scheme wants a much larger pseudo-time step than
    # the quasi-Newton default to finish in a reasonable budget
    for solver, dt in (("l-bfgs", 1.0), ("semi-implicit", 50.0)):
        cfg = RegistrationConfig(
            measure="SSD", alpha=1.0, solver=solver, dt=dt,
            max_iters_per_level=300, rel_tolerance=1e-8,
        )
        u, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
        assert trace.converged, solver
        stats, _ = endpoint_error(u, truth)
        assert stats.median < 0.05, solver
        assert stats.mean < 0.1, solver


def test_gauss_newton_warps_once_per_evaluation(monkeypatch):
    # the Hessian blocks reuse the Jacobian of the accepted evaluation
    counts = {"warps": 0, "evals": 0}
    warp_with_jacobian = nonparametric.warp_with_jacobian
    objective_full = nonparametric._objective_full

    def counted_warp(*args, **kwargs):
        counts["warps"] += 1
        return warp_with_jacobian(*args, **kwargs)

    def counted_objective(*args, **kwargs):
        counts["evals"] += 1
        return objective_full(*args, **kwargs)

    monkeypatch.setattr(nonparametric, "warp_with_jacobian", counted_warp)
    monkeypatch.setattr(nonparametric, "_objective_full", counted_objective)
    tem, ref = translation_pair(n=40, shift=(1.0, 0.5), seed=3)
    cfg = RegistrationConfig(
        measure="SSD", alpha=1.0, solver="gauss-newton", max_iters_per_level=10
    )
    _, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    assert trace.iterations >= 2
    assert counts["warps"] == counts["evals"]


def test_semi_implicit_warps_once_per_evaluation(monkeypatch):
    # the implicit direction reuses the gradient of the accepted evaluation,
    # also across line-search backtracks
    counts = {"warps": 0, "evals": 0}
    warp_with_jacobian = nonparametric.warp_with_jacobian
    objective_full = nonparametric._objective_full

    def counted_warp(*args, **kwargs):
        counts["warps"] += 1
        return warp_with_jacobian(*args, **kwargs)

    def counted_objective(*args, **kwargs):
        counts["evals"] += 1
        return objective_full(*args, **kwargs)

    monkeypatch.setattr(nonparametric, "warp_with_jacobian", counted_warp)
    monkeypatch.setattr(nonparametric, "_objective_full", counted_objective)
    tem, ref = translation_pair(n=40, shift=(1.0, 0.5), seed=3)
    cfg = RegistrationConfig(
        measure="SSD", alpha=1.0, solver="semi-implicit", dt=1000.0, max_iters_per_level=10
    )
    _, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    assert trace.iterations >= 2
    assert counts["warps"] == counts["evals"] == trace.evaluations


def test_gauss_newton_cg_stops_before_its_cap(monkeypatch):
    # preconditioned by the DCT solve, every inner CG reaches its tolerance
    matvecs = []
    conjugate_gradient = nonparametric._conjugate_gradient

    def counted(apply_h, rhs, *args, **kwargs):
        calls = [0]

        def counted_h(vec):
            calls[0] += 1
            return apply_h(vec)

        out = conjugate_gradient(counted_h, rhs, *args, **kwargs)
        matvecs.append(calls[0])
        return out

    monkeypatch.setattr(nonparametric, "_conjugate_gradient", counted)
    tem, ref = bump_pair()
    cfg = RegistrationConfig(
        measure="SSD", alpha=5.0, solver="gauss-newton", max_iters_per_level=20
    )
    _, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    assert trace.iterations >= 2
    assert len(matvecs) >= trace.iterations
    assert max(matvecs) < 100


def test_gauss_newton_cg_is_truncated_at_a_tenth(monkeypatch):
    # inexact Gauss-Newton: each inner PCG stops at a 10% residual, and
    # every truncated solve is still a descent direction, so the line
    # search never falls back to -g
    solves = []
    conjugate_gradient = nonparametric._conjugate_gradient

    def recorded(apply_h, rhs, *args, **kwargs):
        calls = [0]

        def counted_h(vec):
            calls[0] += 1
            return apply_h(vec)

        out = conjugate_gradient(counted_h, rhs, *args, **kwargs)
        residual = np.linalg.norm(apply_h(out) - rhs) / np.linalg.norm(rhs)
        # rhs = -g, so the slope g . d is -rhs . out
        solves.append((calls[0], residual, -float(np.sum(rhs * out))))
        return out

    monkeypatch.setattr(nonparametric, "_conjugate_gradient", recorded)
    tem, ref = bump_pair()
    cfg = RegistrationConfig(
        measure="SSD", alpha=5.0, solver="gauss-newton", max_iters_per_level=20
    )
    _, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    assert trace.iterations >= 2
    assert len(solves) >= trace.iterations
    for matvecs, residual, slope in solves:
        assert residual <= 0.1
        assert matvecs <= 20
        assert slope < 0.0


def test_no_solver_factorizes(monkeypatch):
    # every solver inverts the curvature term by the DCT solve; the exact
    # operator and its sparse LU are never built
    made = []
    init = curvature.SemiImplicitOperator.__init__

    def recorded(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(curvature.SemiImplicitOperator, "__init__", recorded)
    tem, ref = translation_pair(n=64, shift=(1.0, 0.5), seed=3)
    for solver in SOLVERS:
        cfg = RegistrationConfig(
            measure="SSD", alpha=1.0, solver=solver, dt=1000.0,
            max_levels=2, max_iters_per_level=10,
        )
        _, trace = register_multilevel(tem, ref, cfg)
        assert [lt.level for lt in trace.levels] == [1, 0]
        assert all(lt.iterations >= 1 for lt in trace.levels), solver
    assert made == []


def test_semi_implicit_direction_is_the_dct_solve(monkeypatch):
    # d = -dt (I + dt alpha B_N)^(-1) g, bit for bit
    seen = []
    line_search_rule = nonparametric._line_search_rule

    def recorded_rule(direction):
        def recorded(rest):
            d = direction(rest)
            seen.append((rest[0].copy(), d.copy()))
            return d

        return line_search_rule(recorded)

    monkeypatch.setattr(nonparametric, "_line_search_rule", recorded_rule)
    tem, ref = translation_pair(n=40, shift=(1.0, 0.5), seed=3)
    dt, alpha = 7.0, 3.0
    cfg = RegistrationConfig(
        measure="SSD", alpha=alpha, solver="semi-implicit", dt=dt, max_iters_per_level=5
    )
    _, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    assert trace.iterations >= 1
    assert len(seen) >= trace.iterations
    for g, d in seen:
        expected = -dt * neumann_solve(g.reshape(2, 40, 40), dt * alpha)
        assert d.tobytes() == expected.ravel().tobytes()


@pytest.mark.parametrize(
    "solver,measure,alpha", [("semi-implicit", "NGF", 50.0), ("gauss-newton", "SSD", 5.0)]
)
def test_remembered_step_accepts_the_steps_of_a_search_from_one(
    solver, measure, alpha, monkeypatch
):
    # each search along the solver's direction starts at min(1, 2 t_prev);
    # a search from t = 1 accepts the same steps, only with more trials
    tem, ref = bump_pair()
    cfg = RegistrationConfig(
        measure=measure, alpha=alpha, eta=0.02, solver=solver,
        max_levels=2, max_iters_per_level=40,
    )
    armijo_backtrack = nonparametric.armijo_backtrack
    starts = []

    def recorded(fun, x, f, d, slope, t=1.0):
        starts.append(t)
        return armijo_backtrack(fun, x, f, d, slope, t)

    monkeypatch.setattr(nonparametric, "armijo_backtrack", recorded)
    _, remembered = register_multilevel(tem, ref, cfg)

    def from_one(fun, x, f, d, slope, t=1.0):
        return armijo_backtrack(fun, x, f, d, slope)

    monkeypatch.setattr(nonparametric, "armijo_backtrack", from_one)
    _, restarted = register_multilevel(tem, ref, cfg)

    assert remembered.to_text() == restarted.to_text()
    assert remembered.total_iterations() >= 10
    fewer = [a.evaluations for a in remembered.levels]
    more = [b.evaluations for b in restarted.levels]
    assert all(a <= b for a, b in zip(fewer, more))
    assert sum(fewer) < sum(more)
    # these runs never fall back to -g; the next test covers that search
    assert min(starts) < 1.0


def test_minus_g_search_starts_at_one_and_keeps_the_remembered_step(monkeypatch):
    # f = x.x / 2, g = x; along -8 g the first decrease is at t = 1/8
    def fun(x):
        return 0.5 * float(np.sum(x * x)), (x.copy(),)

    armijo_backtrack = nonparametric.armijo_backtrack
    starts = []

    def recorded(fun, x, f, d, slope, t=1.0):
        starts.append(t)
        return armijo_backtrack(fun, x, f, d, slope, t)

    monkeypatch.setattr(nonparametric, "armijo_backtrack", recorded)
    directions = iter([lambda g: -8.0 * g, lambda g: g, lambda g: -8.0 * g])
    step = nonparametric._line_search_rule(lambda rest: next(directions)(rest[0]))
    x = np.array([1.0, -2.0, 0.5])
    f, rest = fun(x)
    # along -8 g from 1, then (ascent direction) along -g from 1, then along
    # -8 g from 2 / 8; every search lands on 0
    for want_start in (1.0, 1.0, 0.25):
        starts.clear()
        x_new, _, _, _ = step(fun, x, f, rest)
        assert starts == [want_start]
        assert not x_new.any()


@pytest.mark.parametrize("solver", SOLVERS)
def test_nonfinite_start_raises_for_every_solver(solver, monkeypatch):
    monkeypatch.setattr(nonparametric, "curvature_energy", lambda u: float("nan"))
    tem, ref = translation_pair(n=40, shift=(1.0, 0.5), seed=3)
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, solver=solver, max_iters_per_level=5)
    with pytest.raises(DivergenceError, match="not finite at the starting point") as info:
        register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    assert info.value.level == 0
    assert info.value.trace.records == []


@pytest.mark.parametrize("solver", SOLVERS)
def test_iteration_cap_is_not_convergence(solver):
    tem, ref = translation_pair(n=40, shift=(2.0, 0.0))
    cfg = RegistrationConfig(
        measure="SSD", alpha=1.0, solver=solver, dt=5.0,
        max_iters_per_level=3, rel_tolerance=1e-12,
    )
    _, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    assert trace.iterations == 3
    assert not trace.converged


def test_semi_implicit_divergence_carries_level_and_partial_trace(monkeypatch):
    # a non-finite objective on the fine level only: the coarse level
    # completes, the fine one raises at its start
    energy = nonparametric.curvature_energy

    def broken_on_level0(u):
        return float("nan") if u.geometry.width == 64 else energy(u)

    monkeypatch.setattr(nonparametric, "curvature_energy", broken_on_level0)
    tem, ref = translation_pair(n=64, shift=(1.0, 0.5), seed=3)
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, solver="semi-implicit", max_levels=2)
    with pytest.raises(DivergenceError, match="not finite at the starting point") as info:
        register_multilevel(tem, ref, cfg)
    err = info.value
    assert err.level == 0
    assert [lt.level for lt in err.trace.levels] == [1, 0]
    assert err.trace.levels[0].iterations >= 1
    level_trace = err.trace.levels[1]
    assert level_trace.records == []
    assert not level_trace.converged
    assert level_trace.wall_time > 0.0


def test_semi_implicit_survives_a_noisy_solve(monkeypatch):
    # a solve that adds noise spoils the implicit direction; the line search
    # falls back to -g instead of raising, and J never rises
    rng = np.random.default_rng(5)

    def noisy(values, c):
        out = neumann_solve(values, c)
        return out + rng.normal(0.0, 0.1, out.shape)

    monkeypatch.setattr(nonparametric, "neumann_solve", noisy)
    tem, ref = translation_pair(n=64, shift=(1.0, 0.5), seed=3)
    cfg = RegistrationConfig(
        measure="SSD", alpha=1.0, solver="semi-implicit", max_levels=2, max_iters_per_level=20
    )
    _, trace = register_multilevel(tem, ref, cfg)
    assert [lt.level for lt in trace.levels] == [1, 0]
    for lt in trace.levels:
        objs = [r.objective for r in lt.records]
        assert lt.iterations >= 1
        assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_level_stopped_at_iteration_zero_warns(texture64, caplog):
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, solver="l-bfgs")
    with caplog.at_level(logging.WARNING, logger="fusereg.nonparametric"):
        _, trace = register_level(
            texture64, texture64, DisplacementField.zero(texture64.geometry), cfg, level=2
        )
    assert trace.iterations == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert "level 2 (64x64, l-bfgs) stopped at iteration 0" in warnings[0]
    caplog.clear()
    tem, ref = translation_pair(n=40, shift=(1.0, 0.5), seed=3)
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, solver="l-bfgs", max_iters_per_level=3)
    with caplog.at_level(logging.WARNING, logger="fusereg.nonparametric"):
        _, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    assert trace.iterations > 0
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_product_preset_stall_ends_each_level_within_three_evaluations(texture64, caplog):
    # an inverted-contrast copy on the same lattice: NGF sees no
    # misalignment, yet u = 0 is a kink where the gradient predicts a
    # descent along which J rises; each level stops after two trials
    tem = ScalarImage(texture64.geometry, 1.0 - texture64.values)
    cfg = RegistrationConfig(**PRESETS["hs-to-lidar"])
    with caplog.at_level(logging.INFO, logger="fusereg.nonparametric"):
        u, trace = register_multilevel(tem, texture64, cfg)
    assert len(trace.levels) >= 2
    assert not u.u_x.any() and not u.u_y.any()
    for lt in trace.levels:
        assert lt.iterations == 0
        assert lt.evaluations <= 3
    # the level summary reports what each stall cost
    summaries = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert [s.split(": ")[1].split(", J=")[0] for s in summaries] == [
        "0 iterations, %d evaluations" % lt.evaluations for lt in trace.levels
    ]


def _smooth_field(rng, shape):
    from scipy.ndimage import gaussian_filter

    return np.stack([gaussian_filter(rng.normal(size=shape), 4.0) for _ in range(2)])


def test_seed_ratio_recovers_the_data_curvature(rng):
    alpha, mu = 5.0, 0.003
    g = GridGeometry(64, 48)
    s = _smooth_field(rng, g.shape)
    bs = curvature.bilaplacian(DisplacementField(g, s[0], s[1]))
    y = mu * s + alpha * np.stack([bs.u_x, bs.u_y])
    c, fitted = nonparametric._seed_ratio(s, y, alpha)
    assert fitted
    assert c == pytest.approx(alpha / mu, rel=1e-9)
    # negative curvature
    assert nonparametric._seed_ratio(s, -s, alpha) == (alpha, False)
    # an affine s, whose B s is rounding noise
    yy, xx = np.mgrid[0 : g.height, 0 : g.width].astype(float)
    affine = np.stack([0.37 + 0.0113 * xx - 0.0071 * yy, -0.21 + 0.0093 * xx + 0.0137 * yy])
    assert nonparametric._seed_ratio(affine, mu * affine, alpha) == (alpha, False)
    noisy = mu * affine + 1e-3 * rng.normal(size=affine.shape)
    assert nonparametric._seed_ratio(affine, noisy, alpha) == (alpha, False)


def test_trust_region_seeds_with_the_weight_fitted_to_the_first_pair(monkeypatch, caplog):
    weights = []

    def spy(values, c):
        weights.append(c)
        return neumann_solve(values, c)

    monkeypatch.setattr(nonparametric, "neumann_solve", spy)
    tem, ref = bump_pair()
    alpha = 5.0
    cfg = RegistrationConfig(
        measure="SSD", alpha=alpha, solver="trust-region", max_iters_per_level=20
    )
    with caplog.at_level(logging.INFO, logger="fusereg.nonparametric"):
        _, trace = register_level(tem, ref, DisplacementField.zero(tem.geometry), cfg)
    assert trace.iterations >= 3
    # the first step's seed, then the fitted one for the rest of the level
    assert weights[0] == alpha
    assert len(set(weights[1:])) == 1 and weights[1] > alpha
    (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert line.endswith(", seed c/alpha=%.4g (fitted)" % (weights[1] / alpha))


def test_only_quasi_newton_levels_log_their_seed(caplog):
    tem, ref = translation_pair(n=32, shift=(1.0, 0.5), seed=3)
    for solver in SOLVERS:
        cfg = RegistrationConfig(measure="SSD", alpha=1.0, solver=solver, max_iters_per_level=3)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fusereg.nonparametric"):
            register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert ("seed c/alpha=" in line) == (solver in ("l-bfgs", "trust-region"))


THREADS_SCRIPT = r"""
import hashlib
import numpy as np
from fusereg.evaluation import synthetic_texture
from fusereg.grid import DisplacementField, GridGeometry, warp
from fusereg.nonparametric import RegistrationConfig, register_multilevel

g = GridGeometry(48, 40)
ref = synthetic_texture(g, seed=3, smoothness=2.0)
tem = warp(ref, DisplacementField(g, np.full(g.shape, 0.7), np.full(g.shape, -0.4)))
for solver in ("l-bfgs", "gauss-newton", "trust-region"):
    cfg = RegistrationConfig(measure="SSD", alpha=5.0, solver=solver, max_levels=2,
                             max_iters_per_level=15)
    u, trace = register_multilevel(tem, ref, cfg)
    digest = hashlib.sha256(u.u_x.tobytes() + u.u_y.tobytes() + trace.to_text().encode())
    print(solver, trace.total_iterations(), digest.hexdigest())
"""


def test_registration_bytes_do_not_depend_on_thread_count():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


HEAP_SCRIPT = r"""
import resource
import numpy as np
from fusereg.evaluation import synthetic_texture
from fusereg.grid import DisplacementField, GridGeometry
from fusereg.nonparametric import RegistrationConfig, register_level

g = GridGeometry(32, 32)
ref = synthetic_texture(g, seed=1, smoothness=2.0)
cfg = RegistrationConfig(measure="SSD", alpha=1.0, max_iters_per_level=2)
register_level(ref, ref, DisplacementField.zero(g), cfg)


def churn():
    # 64 live 256 KiB arrays, then all freed at once, as an iteration does
    blocks = [np.ones(1 << 15) for _ in range(64)]
    del blocks


churn()
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_registration_leaves_freed_arrays_on_the_heap():
    # glibc's default returns the 16 MiB to the kernel after each churn
    # and faults its 4096 pages in again on the next
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", HEAP_SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 4096


def test_register_level_fills_template_gaps():
    tem, ref = translation_pair(n=48, shift=(1.0, 0.0), seed=9)
    mask = np.zeros(tem.geometry.shape, bool)
    mask[20:23, 20:23] = True
    holey = ScalarImage(tem.geometry, tem.values, mask)
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, max_iters_per_level=60)
    u, trace = register_level(holey, ref, DisplacementField.zero(ref.geometry), cfg)
    assert trace.records[-1].objective <= trace.records[0].objective


def test_trace_text_roundtrip():
    tem, ref = translation_pair(n=48, shift=(1.0, 0.0), seed=4)
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, max_iters_per_level=10)
    _, trace = register_level(tem, ref, DisplacementField.zero(ref.geometry), cfg)
    lines = trace.to_lines()
    assert lines[0].startswith("level=0 size=48x48 solver=l-bfgs iter=0 ")
    assert lines[-1].startswith("level=0 converged=")
    # wall time must never leak into the serialized trace
    assert all("wall" not in ln for ln in lines)


# ---------------------------------------------------------------------------
# multilevel


def test_multilevel_runs_coarse_to_fine():
    tem, ref = translation_pair(n=128, shift=(3.0, 1.0), seed=21)
    cfg = RegistrationConfig(
        measure="SSD", alpha=1.0, solver="l-bfgs", max_levels=3,
        max_iters_per_level=80,
    )
    u, trace = register_multilevel(tem, ref, cfg)
    assert u.geometry == ref.geometry
    levels = [lt.level for lt in trace.levels]
    assert levels == sorted(levels, reverse=True)
    assert trace.levels[-1].level == 0
    assert trace.total_iterations() == sum(lt.iterations for lt in trace.levels)
    truth = DisplacementField(
        ref.geometry,
        np.full(ref.geometry.shape, -3.0),
        np.full(ref.geometry.shape, -1.0),
    )
    stats, _ = endpoint_error(u, truth)
    assert stats.median < 0.05
    assert stats.mean < 0.15


def test_multilevel_initializer_not_worse_per_level():
    tem, ref = translation_pair(n=128, shift=(2.0, 2.0), seed=8)
    cfg = RegistrationConfig(
        measure="SSD", alpha=1.0, max_levels=3, max_iters_per_level=60
    )
    _, trace = register_multilevel(tem, ref, cfg)
    for lt in trace.levels:
        assert lt.records[-1].objective <= lt.records[0].objective + 1e-12


def test_multilevel_validates_normalization(texture64):
    cfg = RegistrationConfig()
    hot = texture64.with_values(texture64.values + 5.0)
    with pytest.raises(IntensityRangeError):
        register_multilevel(hot, texture64, cfg)
    with pytest.raises(GeometryError):
        register_multilevel(
            texture64,
            synthetic_texture(GridGeometry(32, 32), seed=1),
            cfg,
        )


def test_line_search_rule_stops_when_neither_direction_decreases():
    # J has its minimum at x = 0, where rest[0] claims a nonzero gradient:
    # J rises along the direction and along -g alike
    trials = []

    def fun(x):
        trials.append(x)
        return float(np.sum(x * x)), None

    g = np.ones((2, 3, 3))
    step = nonparametric._line_search_rule(lambda rest: -0.5 * rest[0])
    assert step(fun, np.zeros_like(g), 0.0, (g, None)) is None
    # both searches ran to their end, every trial uphill
    assert len(trials) == 2 * MAX_BACKTRACKS and all(np.sum(x * x) > 0.0 for x in trials)


def test_conjugate_gradient_stops_at_the_first_direction_of_negative_curvature():
    applied = []

    def apply_h(v):
        applied.append(v)
        return -v

    x = nonparametric._conjugate_gradient(apply_h, np.ones((2, 3, 3)), lambda v: v)
    assert len(applied) == 1
    np.testing.assert_array_equal(x, 0.0)


@pytest.mark.parametrize("solver", SOLVERS)
def test_weights_past_the_float_range_make_trials_infinite_not_warnings(solver):
    # alpha S(u) and dt alpha overflow: the line search rejects those
    # trials, and the DCT inverses keep only the mean
    g = GridGeometry(12, 12)
    rng = np.random.default_rng(0)
    tem, ref = (ScalarImage(g, rng.uniform(0.05, 0.95, g.shape)) for _ in range(2))
    cfg = RegistrationConfig(measure="SSD", alpha=1e308, dt=1e308, solver=solver,
                             max_iters_per_level=3)
    _, trace = register_level(tem, ref, DisplacementField.zero(g), cfg)
    assert all(np.isfinite(r.objective) for r in trace.records)
