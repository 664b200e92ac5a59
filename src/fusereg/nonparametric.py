"""Non-parametric variational registration.

Seeks a per-pixel displacement u minimizing

    J(u) = D(T(x - u), R) + alpha * S(u)

with D one of the intensity distances and S the curvature regularizer.
Registration runs coarse to fine over an image pyramid; each level is
solved by one of four schemes: a semi-implicit fixed-point iteration on the
Euler-Lagrange equations, limited-memory BFGS, a step-capped trust-region
variant, or Gauss-Newton with per-pixel Hessian blocks.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import similarity
from .curvature import SemiImplicitOperator, bilaplacian, curvature_energy
from .errors import DivergenceError, ParameterError
from .grid import (
    DisplacementField,
    _check_normalized,
    _require_same_shape,
    build_pyramid,
    fill_nodata,
    laplacian_adjoint_values,
    laplacian_values,
    prolong,
    warp_with_jacobian,
)
from .optimize import armijo_backtrack, minimize_lbfgs

log = logging.getLogger(__name__)

SOLVERS = ("semi-implicit", "l-bfgs", "gauss-newton", "trust-region")


@dataclass
class RegistrationConfig:
    """Parameters shared by all solvers.

    alpha weighs the curvature term, eta is the NGF noise floor, dt the
    semi-implicit pseudo-time step.  Defaults follow the airborne
    hyperspectral-to-LiDAR setting; photo-to-hyperspectral runs want a much
    stiffer alpha (1.5e5) and a smaller eta (0.03).
    """

    measure: str = "NGF"
    alpha: float = 5000.0
    eta: float = 0.1
    solver: str = "l-bfgs"
    dt: float = 1.0
    max_levels: int = 4
    max_iters_per_level: int = 200
    rel_tolerance: float = 1e-6
    mi_bins: int = 64
    mi_parzen_sigma: float = 1.0
    trust_radius: float = 2.0

    def __post_init__(self):
        if self.measure not in similarity.MEASURES:
            raise ParameterError("unknown measure %r" % self.measure)
        if self.solver not in SOLVERS:
            raise ParameterError("unknown solver %r" % self.solver)
        for name in ("alpha", "eta", "dt", "trust_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError("%s must be finite and positive" % name)
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ParameterError("rel_tolerance must lie in (0, 1)")
        if self.max_levels < 1 or self.max_iters_per_level < 1:
            raise ParameterError("level and iteration counts must be >= 1")


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    distance: float
    regularizer: float
    step_norm: float


@dataclass
class LevelTrace:
    """Per-level iteration history; records[0] is the initial state."""

    level: int
    width: int
    height: int
    solver: str
    records: list = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0

    @property
    def iterations(self) -> int:
        return max(len(self.records) - 1, 0)

    def to_lines(self) -> list[str]:
        # wall_time deliberately left out: trace files must be identical
        # across reruns
        out = []
        for r in self.records:
            out.append(
                "level=%d size=%dx%d solver=%s iter=%d J=%.12e D=%.12e S=%.12e step=%.6e"
                % (
                    self.level,
                    self.width,
                    self.height,
                    self.solver,
                    r.iteration,
                    r.objective,
                    r.distance,
                    r.regularizer,
                    r.step_norm,
                )
            )
        out.append(
            "level=%d converged=%s iterations=%d"
            % (self.level, str(self.converged).lower(), self.iterations)
        )
        return out


@dataclass
class RegistrationTrace:
    levels: list = field(default_factory=list)

    def total_iterations(self) -> int:
        return sum(lt.iterations for lt in self.levels)

    def to_lines(self) -> list[str]:
        out = []
        for lt in self.levels:
            out.extend(lt.to_lines())
        return out

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


def _distance(warped, reference, config):
    return similarity.evaluate(
        config.measure,
        warped,
        reference,
        eta=config.eta,
        mi_bins=config.mi_bins,
        mi_parzen_sigma=config.mi_parzen_sigma,
    )


def _warped_distance(u, template, reference, config):
    """Distance of the warped template to the reference, plus the warp's
    Jacobian: ``(result, dtdx, dtdy)``.

    The template must be gap free (see :func:`fill_nodata`); it is sampled
    with edge clamping so the objective stays continuous in u.  The
    distance is evaluated over the reference's static valid mask.
    """
    warped, dtdx, dtdy, _ = warp_with_jacobian(template, u, edge_clamp=True)
    return _distance(warped, reference, config), dtdx, dtdy


def _objective_full(u, template, reference, config):
    """Objective value, its two terms, the gradient field, and the warp's
    Jacobian ``(dtdx, dtdy)``."""
    res, dtdx, dtdy = _warped_distance(u, template, reference, config)
    s_val = curvature_energy(u)
    j = res.value + config.alpha * s_val
    breg = bilaplacian(u)
    gx = -res.d_warped * dtdx + config.alpha * breg.u_x
    gy = -res.d_warped * dtdy + config.alpha * breg.u_y
    return j, res.value, s_val, DisplacementField(u.geometry, gx, gy), (dtdx, dtdy)


def _objective_parts(u, template, reference, config):
    """Objective value and terms without the gradient (cheaper)."""
    res, _, _ = _warped_distance(u, template, reference, config)
    s_val = curvature_energy(u)
    return res.value + config.alpha * s_val, res.value, s_val


def objective(u, template, reference, config):
    """J(u) and dJ/du for normalized images on a common grid."""
    _require_same_shape(template.geometry, u.geometry, "objective")
    _require_same_shape(reference.geometry, u.geometry, "objective")
    _check_normalized(template, "template")
    _check_normalized(reference, "reference")
    j, _, _, grad, _ = _objective_full(u, fill_nodata(template), reference, config)
    return j, grad


def _distance_force(u, template, reference, config):
    """Force field f = dD/du (no regularizer part)."""
    res, dtdx, dtdy = _warped_distance(u, template, reference, config)
    fx = -res.d_warped * dtdx
    fy = -res.d_warped * dtdy
    return DisplacementField(u.geometry, fx, fy)


def semi_implicit_step(u, template, reference, config, operator=None):
    """One implicit-regularizer step u' = (I + dt a B)^(-1) (u - dt f(u)).

    Returns the new field and the max-norm of the driving force.  Passing a
    prebuilt operator avoids refactorizing; it must match config.alpha and
    config.dt.
    """
    if operator is None:
        operator = SemiImplicitOperator(u.geometry, config.alpha, config.dt)
    f = _distance_force(u, fill_nodata(template), reference, config)
    rhs = DisplacementField(
        u.geometry, u.u_x - config.dt * f.u_x, u.u_y - config.dt * f.u_y
    )
    u_next = operator.solve(rhs)
    return u_next, f.max_norm()


def _step_norm(u_new, u_old) -> float:
    return float(
        np.max(
            np.sqrt((u_new.u_x - u_old.u_x) ** 2 + (u_new.u_y - u_old.u_y) ** 2)
        )
    )


def _rel_change_small(f_prev, f_new, tol) -> bool:
    return abs(f_prev - f_new) <= tol * max(abs(f_new), 1e-12)


def _register_semi_implicit(template, reference, u0, config, trace):
    # dt only ever halves, so only the operator for the current dt is kept
    operator = None
    u = u0
    j, d_val, s_val = _objective_parts(u, template, reference, config)
    trace.records.append(IterationRecord(0, j, d_val, s_val, 0.0))
    dt_cur = config.dt
    for k in range(1, config.max_iters_per_level + 1):
        while True:
            cfg_dt = replace(config, dt=dt_cur)
            if operator is None or operator.dt != dt_cur:
                operator = None  # free the old factors before factorizing
                operator = SemiImplicitOperator(u0.geometry, config.alpha, dt_cur)
            u_try, force_norm = semi_implicit_step(
                u, template, reference, cfg_dt, operator=operator
            )
            j_try, d_try, s_try = _objective_parts(u_try, template, reference, config)
            if j_try <= j + 1e-12 * max(1.0, abs(j)):
                break
            dt_cur *= 0.5
            if dt_cur < config.dt * 2.0**-24:
                raise DivergenceError(
                    "semi-implicit step cannot decrease the objective "
                    "(force norm %.3e)" % force_norm
                )
        step = _step_norm(u_try, u)
        u, j_prev = u_try, j
        j, d_val, s_val = j_try, d_try, s_try
        trace.records.append(IterationRecord(k, j, d_val, s_val, step))
        if _rel_change_small(j_prev, j, config.rel_tolerance):
            trace.converged = True
            break
    return u


def _register_quasi_newton(template, reference, u0, config, trace):
    geometry = u0.geometry
    stash = {}

    def fun_grad(x):
        u = DisplacementField.from_vector(geometry, x)
        j, d_val, s_val, grad, _ = _objective_full(u, template, reference, config)
        stash["parts"] = (d_val, s_val)
        return j, grad.as_vector()

    def callback(k, x, f, g, step):
        d_val, s_val = stash["parts"]
        trace.records.append(IterationRecord(k, f, d_val, s_val, step))

    # seed the quasi-Newton model with (I + alpha B)^(-1): the stiff
    # curvature block dominates the Hessian spectrum and an identity seed
    # forces thousands of tiny steps
    operator = SemiImplicitOperator(geometry, config.alpha, 1.0)

    def h0_solve(vec):
        v = DisplacementField.from_vector(geometry, vec)
        return operator.solve(v).as_vector()

    cap = config.trust_radius if config.solver == "trust-region" else None
    result = minimize_lbfgs(
        fun_grad,
        u0.as_vector(),
        max_iters=config.max_iters_per_level,
        rel_tolerance=config.rel_tolerance,
        step_cap=cap,
        h0_solve=h0_solve,
        callback=callback,
    )
    trace.converged = result.converged
    return DisplacementField.from_vector(geometry, result.x)


def _conjugate_gradient(apply_h, rhs, max_iters=100, rel_tol=1e-8):
    """Plain CG on a symmetric positive definite operator."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rr = float(np.sum(r * r))
    r0 = np.sqrt(rr)
    if r0 == 0.0:
        return x
    for _ in range(max_iters):
        hp = apply_h(p)
        php = float(np.sum(p * hp))
        if php <= 0.0:
            break
        a = rr / php
        x += a * p
        r -= a * hp
        rr_new = float(np.sum(r * r))
        if np.sqrt(rr_new) <= rel_tol * r0:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x


def _register_gauss_newton(template, reference, u0, config, trace):
    geometry = u0.geometry
    n = geometry.width * geometry.height
    shape = geometry.shape

    def trial(x):
        u_t = DisplacementField.from_vector(geometry, x)
        j_t, d_t, s_t, grad_t, jac_t = _objective_full(u_t, template, reference, config)
        return j_t, (u_t, d_t, s_t, grad_t, jac_t)

    u = u0
    # the Hessian blocks reuse the warp Jacobian of the last objective
    # evaluation at u
    j, d_val, s_val, grad, (dtdx, dtdy) = _objective_full(u, template, reference, config)
    trace.records.append(IterationRecord(0, j, d_val, s_val, 0.0))
    for k in range(1, config.max_iters_per_level + 1):
        h11 = dtdx * dtdx
        h12 = dtdx * dtdy
        h22 = dtdy * dtdy
        mu = 1e-6 * max(1.0, float(np.mean(h11 + h22)))

        def apply_h(vec):
            vx = vec[:n].reshape(shape)
            vy = vec[n:].reshape(shape)
            bx = laplacian_adjoint_values(laplacian_values(vx, 1.0, 1.0), 1.0, 1.0)
            by = laplacian_adjoint_values(laplacian_values(vy, 1.0, 1.0), 1.0, 1.0)
            ox = h11 * vx + h12 * vy + config.alpha * bx + mu * vx
            oy = h12 * vx + h22 * vy + config.alpha * by + mu * vy
            return np.concatenate([ox.ravel(), oy.ravel()])

        g_vec = grad.as_vector()
        delta = _conjugate_gradient(apply_h, -g_vec)
        slope = float(np.sum(g_vec * delta))
        if not np.isfinite(slope) or slope >= 0.0:
            delta = -g_vec
            slope = float(np.sum(g_vec * delta))

        x = u.as_vector()
        hit, _ = armijo_backtrack(trial, x, j, delta, slope)
        if hit is None and not np.array_equal(delta, -g_vec):
            # the quadratic model can be useless where the interpolant kinks
            # (integer-aligned u); steepest descent still gets off the spot
            hit, _ = armijo_backtrack(trial, x, j, -g_vec, -float(np.sum(g_vec * g_vec)))
        if hit is None:
            # neither direction found a decrease: working-precision
            # stationary point (or a kink minimum), same stop rule as the
            # quasi-Newton line search
            trace.converged = True
            break
        _, _, j_try, (u_try, d_try, s_try, grad_try, (dtdx, dtdy)) = hit
        step = _step_norm(u_try, u)
        u, j_prev = u_try, j
        j, d_val, s_val, grad = j_try, d_try, s_try, grad_try
        trace.records.append(IterationRecord(k, j, d_val, s_val, step))
        if _rel_change_small(j_prev, j, config.rel_tolerance):
            trace.converged = True
            break
    return u


def register_level(template, reference, u0, config, level=0):
    """Run the configured solver on one pyramid level.

    The iteration history never shows an objective increase; a solver that
    cannot decrease J raises :class:`DivergenceError` with the partial
    trace attached.
    """
    _require_same_shape(template.geometry, reference.geometry, "register_level")
    _require_same_shape(template.geometry, u0.geometry, "register_level")
    template = fill_nodata(template)
    trace = LevelTrace(
        level=level,
        width=u0.geometry.width,
        height=u0.geometry.height,
        solver=config.solver,
    )
    t0 = time.perf_counter()
    try:
        if config.solver == "semi-implicit":
            u = _register_semi_implicit(template, reference, u0, config, trace)
        elif config.solver == "gauss-newton":
            u = _register_gauss_newton(template, reference, u0, config, trace)
        else:
            u = _register_quasi_newton(template, reference, u0, config, trace)
    except DivergenceError as err:
        trace.wall_time = time.perf_counter() - t0
        err.trace = trace
        err.level = level
        raise
    trace.wall_time = time.perf_counter() - t0
    log.info(
        "level %d (%dx%d, %s): %d iterations, J=%.6e, converged=%s",
        level,
        u0.geometry.width,
        u0.geometry.height,
        config.solver,
        trace.iterations,
        trace.records[-1].objective,
        trace.converged,
    )
    return u, trace


def register_multilevel(template, reference, config):
    """Coarse-to-fine registration of template onto reference.

    Both images must share a grid and be normalized to [0, 1].  Returns the
    displacement field on the finest grid and the full trace.
    """
    _require_same_shape(template.geometry, reference.geometry, "register_multilevel")
    _check_normalized(template, "template")
    _check_normalized(reference, "reference")
    pyr_t = build_pyramid(template, config.max_levels)
    pyr_r = build_pyramid(reference, config.max_levels)
    n_levels = min(len(pyr_t), len(pyr_r))
    trace = RegistrationTrace()
    u = None
    for level in range(n_levels - 1, -1, -1):
        t_l = pyr_t[level]
        r_l = pyr_r[level]
        if u is None:
            u = DisplacementField.zero(t_l.geometry)
        else:
            u = prolong(u, t_l.geometry)
        # in pixel units the curvature energy of a fixed physical field is
        # level-invariant while the distance shrinks with the pixel count,
        # so a constant alpha would over-regularize each coarser level by
        # 4x; scaling alpha keeps every level a discretization of the same
        # continuum objective
        cfg_l = replace(config, alpha=config.alpha * 0.25**level)
        try:
            u, level_trace = register_level(t_l, r_l, u, cfg_l, level=level)
        except DivergenceError as err:
            if err.trace is not None:
                trace.levels.append(err.trace)
            err.trace = trace
            raise
        trace.levels.append(level_trace)
    return u, trace
