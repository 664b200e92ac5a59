"""Variational registration: objective, solvers, multilevel scheme."""

import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from fusereg import nonparametric
from fusereg.curvature import SemiImplicitOperator, curvature_energy
from fusereg.errors import DivergenceError, GeometryError, IntensityRangeError, ParameterError
from fusereg.evaluation import SyntheticDeformation, endpoint_error, synthetic_texture
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage, warp
from fusereg.nonparametric import (
    SOLVERS,
    RegistrationConfig,
    objective,
    register_level,
    register_multilevel,
    semi_implicit_step,
)
from fusereg.similarity import evaluate


def translation_pair(n=64, shift=(2.0, 0.0), seed=11, smoothness=2.0):
    """Reference texture and a copy shifted by `shift`; truth u = -shift."""
    g = GridGeometry(n, n)
    ref = synthetic_texture(g, seed=seed, smoothness=smoothness)
    u_d = DisplacementField(
        g, np.full(g.shape, float(shift[0])), np.full(g.shape, float(shift[1]))
    )
    tem = warp(ref, u_d)
    return tem, ref


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
    ("trust_radius", -2.0),
    ("alpha", float("nan")),
    ("alpha", float("inf")),
    ("eta", float("nan")),
    ("eta", float("inf")),
    ("dt", float("nan")),
    ("dt", float("inf")),
    ("trust_radius", float("nan")),
    ("trust_radius", float("inf")),
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
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ParameterError):
        RegistrationConfig(**{field: value})


# ---------------------------------------------------------------------------
# objective


def test_objective_at_zero_is_plain_distance(texture64):
    r = texture64.with_values(np.roll(texture64.values, 1, axis=0))
    u = DisplacementField.zero(texture64.geometry)
    for measure in ("SSD", "NGF"):
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
    up = DisplacementField.from_vector(g, u.as_vector() + h * d)
    dn = DisplacementField.from_vector(g, u.as_vector() - h * d)
    fd = (objective(up, t, r, cfg)[0] - objective(dn, t, r, cfg)[0]) / (2 * h)
    got = float(np.dot(grad.as_vector(), d))
    assert got == pytest.approx(fd, rel=1e-4)


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
# semi-implicit step


def test_semi_implicit_step_fixed_point_at_alignment(texture64):
    cfg = RegistrationConfig(measure="SSD", alpha=10.0, dt=1.0)
    u0 = DisplacementField.zero(texture64.geometry)
    u1, force = semi_implicit_step(u0, texture64, texture64, cfg)
    assert force == 0.0
    np.testing.assert_array_equal(u1.u_x, 0.0)
    np.testing.assert_array_equal(u1.u_y, 0.0)


def test_semi_implicit_step_accepts_prebuilt_operator(texture64):
    from fusereg.curvature import SemiImplicitOperator

    r = texture64.with_values(np.roll(texture64.values, 1, axis=1))
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, dt=0.5)
    u0 = DisplacementField.zero(texture64.geometry)
    op = SemiImplicitOperator(texture64.geometry, cfg.alpha, cfg.dt)
    a, fa = semi_implicit_step(u0, texture64, r, cfg)
    b, fb = semi_implicit_step(u0, texture64, r, cfg, operator=op)
    assert fa == fb
    np.testing.assert_array_equal(a.u_x, b.u_x)
    np.testing.assert_array_equal(a.u_y, b.u_y)


def test_semi_implicit_step_rejects_mismatched_operator(texture64):
    r = texture64.with_values(np.roll(texture64.values, 1, axis=1))
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, dt=1.0)
    u0 = DisplacementField.zero(texture64.geometry)
    for alpha, dt in ((50.0, 0.25), (1.0, 0.5), (2.0, 1.0)):
        op = SemiImplicitOperator(texture64.geometry, alpha, dt)
        with pytest.raises(ParameterError, match="alpha=%g, dt=%g; the step" % (alpha, dt)):
            semi_implicit_step(u0, texture64, r, cfg, operator=op)
    op = SemiImplicitOperator(GridGeometry(32, 32), cfg.alpha, cfg.dt)
    with pytest.raises(ParameterError, match=r"grid \(32, 32\)"):
        semi_implicit_step(u0, texture64, r, cfg, operator=op)


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
    g = GridGeometry(64, 64)
    ref = synthetic_texture(g, seed=11, smoothness=2.0)
    bump = SyntheticDeformation(kind="gaussian-bump", amplitude=3.0, sigma=10.0)
    tem = warp(ref, bump.realized(g))
    cfg = RegistrationConfig(
        measure="SSD", alpha=5.0, solver="gauss-newton", max_iters_per_level=20
    )
    _, trace = register_level(tem, ref, DisplacementField.zero(g), cfg)
    assert trace.iterations >= 2
    assert len(matvecs) >= trace.iterations
    assert max(matvecs) < 100


def test_semi_implicit_factorizes_once_per_level(monkeypatch):
    # the line search shortens the step along one direction; dt, and with
    # it the operator, stays fixed for the whole level
    made = []

    class Recorded(SemiImplicitOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append((self.geometry.shape, self.dt))

    monkeypatch.setattr(nonparametric, "SemiImplicitOperator", Recorded)
    tem, ref = translation_pair(n=64, shift=(1.0, 0.5), seed=3)
    cfg = RegistrationConfig(
        measure="SSD", alpha=1.0, solver="semi-implicit", dt=1000.0,
        max_levels=2, max_iters_per_level=10,
    )
    _, trace = register_multilevel(tem, ref, cfg)
    assert [lt.iterations >= 2 for lt in trace.levels] == [True, True]
    assert made == [((32, 32), 1000.0), ((64, 64), 1000.0)]


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

    class Noisy(SemiImplicitOperator):
        def solve(self, rhs):
            out = super().solve(rhs)
            shape = out.geometry.shape
            return DisplacementField(
                out.geometry,
                out.u_x + rng.normal(0.0, 0.1, shape),
                out.u_y + rng.normal(0.0, 0.1, shape),
            )

    monkeypatch.setattr(nonparametric, "SemiImplicitOperator", Noisy)
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


THREADS_SCRIPT = r"""
import hashlib
import numpy as np
from fusereg.evaluation import synthetic_texture
from fusereg.grid import DisplacementField, GridGeometry, warp
from fusereg.nonparametric import RegistrationConfig, register_multilevel

g = GridGeometry(48, 40)
ref = synthetic_texture(g, seed=3, smoothness=2.0)
tem = warp(ref, DisplacementField(g, np.full(g.shape, 0.7), np.full(g.shape, -0.4)))
for solver in ("l-bfgs", "gauss-newton"):
    cfg = RegistrationConfig(measure="SSD", alpha=5.0, solver=solver, max_levels=2,
                             max_iters_per_level=15)
    u, trace = register_multilevel(tem, ref, cfg)
    digest = hashlib.sha256(u.as_vector().tobytes() + trace.to_text().encode())
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
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]


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
