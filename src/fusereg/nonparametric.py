"""Non-parametric variational registration.

Seeks a per-pixel displacement u minimizing

    J(u) = D(T(x - u), R) + alpha * S(u)

with D one of the intensity distances and S the curvature regularizer.
Registration runs coarse to fine over an image pyramid; each level is
solved by one of four step rules of the one descent loop
:func:`fusereg.optimize.descend`: limited-memory BFGS, a step-capped
trust-region variant, or one Armijo line search along either the
semi-implicit step of the Euler-Lagrange equations or a Gauss-Newton step
with per-pixel Hessian blocks.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import similarity
from .curvature import SemiImplicitOperator, bilaplacian, curvature_energy, neumann_solve
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
from .optimize import armijo_backtrack, descend, minimize_lbfgs

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
        similarity.check_mi_parameters(self.mi_bins, self.mi_parzen_sigma)
        if self.solver not in SOLVERS:
            raise ParameterError("unknown solver %r" % self.solver)
        for name in ("alpha", "eta", "dt", "trust_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError("%s must be finite and positive" % name)
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ParameterError("rel_tolerance must lie in (0, 1)")
        for name in ("max_levels", "max_iters_per_level"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ParameterError("%s must be an integer >= 1" % name)


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    distance: float
    regularizer: float
    step_norm: float


@dataclass
class LevelTrace:
    """Per-level iteration history; records[0] is the initial state.
    ``evaluations`` counts the objective evaluations the solver made."""

    level: int
    width: int
    height: int
    solver: str
    records: list = field(default_factory=list)
    converged: bool = False
    evaluations: int = 0
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


def _level_reference(reference, config):
    """The reference with what the configured measure needs of it, built
    once per level for :func:`_distance`."""
    return similarity.level_reference(
        reference,
        config.measure,
        eta=config.eta,
        mi_bins=config.mi_bins,
        mi_parzen_sigma=config.mi_parzen_sigma,
    )


def _distance(warped, reference, config):
    return similarity.evaluate(
        config.measure,
        warped,
        reference,
        eta=config.eta,
        mi_bins=config.mi_bins,
        mi_parzen_sigma=config.mi_parzen_sigma,
    )


def _objective_full(u, template, reference, config):
    """Objective value, its two terms, the gradient field, and the warp's
    Jacobian ``(dtdx, dtdy)``.

    The template must be gap free (see :func:`fill_nodata`); it is sampled
    with edge clamping so the objective stays continuous in u.  The
    distance is evaluated over the reference's static valid mask.
    """
    warped, dtdx, dtdy = warp_with_jacobian(template, u)
    res = _distance(warped, reference, config)
    s_val = curvature_energy(u)
    j = res.value + config.alpha * s_val
    breg = bilaplacian(u)
    gx = -res.d_warped * dtdx + config.alpha * breg.u_x
    gy = -res.d_warped * dtdy + config.alpha * breg.u_y
    return j, res.value, s_val, DisplacementField(u.geometry, gx, gy), (dtdx, dtdy)


def objective(u, template, reference, config):
    """J(u) and dJ/du for normalized images on a common grid."""
    _require_same_shape(template.geometry, u.geometry, "objective")
    _require_same_shape(reference.geometry, u.geometry, "objective")
    _check_normalized(template, "template")
    _check_normalized(reference, "reference")
    j, _, _, grad, _ = _objective_full(u, fill_nodata(template), reference, config)
    return j, grad


def _implicit_direction(operator):
    """Semi-implicit direction for :func:`_line_search_rule`: with ``rest``
    holding the gradient g = f + a B u at u, d = -dt (I + dt a B)^(-1) g,
    so u + d is the implicit step (I + dt a B)^(-1) (u - dt f)."""

    def direction(rest):
        g = DisplacementField.from_vector(operator.geometry, rest[0])
        return -operator.dt * operator.solve(g).as_vector()

    return direction


def _step_norm(x_new, x_old) -> float:
    """Largest per-pixel Euclidean change between two field vectors."""
    d = x_new - x_old
    n = d.size // 2
    return float(np.max(np.sqrt(d[:n] ** 2 + d[n:] ** 2)))


def _conjugate_gradient(apply_h, rhs, precondition, max_iters=100, rel_tol=1e-8):
    """Preconditioned CG on a symmetric positive definite operator; stops
    once the residual norm falls below ``rel_tol`` times that of ``rhs``."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    r0 = np.sqrt(float(np.sum(r * r)))
    if r0 == 0.0:
        return x
    z = precondition(r)
    p = z
    rz = float(np.sum(r * z))
    for _ in range(max_iters):
        hp = apply_h(p)
        php = float(np.sum(p * hp))
        if php <= 0.0:
            break
        a = rz / php
        x += a * p
        r -= a * hp
        if np.sqrt(float(np.sum(r * r))) <= rel_tol * r0:
            break
        z = precondition(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def _gauss_newton_direction(geometry, alpha):
    """Gauss-Newton direction for :func:`_line_search_rule`: a CG solution
    of the Gauss-Newton system.  ``rest`` is the gradient and the warp
    Jacobian ``(dtdx, dtdy)`` there, which the Hessian blocks reuse."""
    n = geometry.width * geometry.height
    shape = geometry.shape

    def direction(rest):
        g_vec, (dtdx, dtdy) = rest
        h11 = dtdx * dtdx
        h12 = dtdx * dtdy
        h22 = dtdy * dtdy
        mu = 1e-6 * max(1.0, float(np.mean(h11 + h22)))
        # the DCT inverse of mu_bar I + alpha B_N, mu_bar the mean diagonal
        # of the data blocks: exact on the curvature part away from the
        # border, a scalar fit of the data part
        mu_bar = 0.5 * float(np.mean(h11 + h22)) + mu

        def apply_h(vec):
            vx = vec[:n].reshape(shape)
            vy = vec[n:].reshape(shape)
            bx = laplacian_adjoint_values(laplacian_values(vx, 1.0, 1.0), 1.0, 1.0)
            by = laplacian_adjoint_values(laplacian_values(vy, 1.0, 1.0), 1.0, 1.0)
            ox = h11 * vx + h12 * vy + alpha * bx + mu * vx
            oy = h12 * vx + h22 * vy + alpha * by + mu * vy
            return np.concatenate([ox.ravel(), oy.ravel()])

        def precondition(vec):
            return neumann_solve(vec.reshape(2, *shape), alpha / mu_bar).ravel() / mu_bar

        return _conjugate_gradient(apply_h, -g_vec, precondition)

    return direction


def _line_search_rule(direction):
    """Step rule for :func:`descend`: Armijo search from t = 1 along
    ``direction(rest)``, or along -g where that is no descent direction
    or finds no decrease.  ``rest[0]`` is the gradient at ``x``."""

    def step(fun, x, j, rest):
        g_vec = rest[0]
        delta = direction(rest)
        slope = float(np.sum(g_vec * delta))
        if not np.isfinite(slope) or slope >= 0.0:
            delta = -g_vec
            slope = float(np.sum(g_vec * delta))
        hit = armijo_backtrack(fun, x, j, delta, slope)
        if hit is None and not np.array_equal(delta, -g_vec):
            # the model can be useless where the interpolant kinks
            # (integer-aligned u); steepest descent still gets off the spot
            hit = armijo_backtrack(fun, x, j, -g_vec, -float(np.sum(g_vec * g_vec)))
        if hit is None:
            return None
        _, x_try, j_try, rest_try = hit
        return x_try, j_try, rest_try, _step_norm(x_try, x)

    return step


def register_level(template, reference, u0, config, level=0):
    """Run the configured solver on one pyramid level.

    Every solver is a step rule of :func:`fusereg.optimize.descend`
    (l-BFGS and trust-region through :func:`minimize_lbfgs`, semi-implicit
    and Gauss-Newton through :func:`_line_search_rule`).  The iteration
    history never shows an objective increase; a solver that finds no
    decrease stops there.  Only a non-finite J at ``u0`` raises
    :class:`DivergenceError`, with the partial trace attached.
    """
    _require_same_shape(template.geometry, reference.geometry, "register_level")
    _require_same_shape(template.geometry, u0.geometry, "register_level")
    template = fill_nodata(template)
    reference = _level_reference(reference, config)
    geometry = u0.geometry
    trace = LevelTrace(level, geometry.width, geometry.height, config.solver)
    terms = {}  # D and S of the latest evaluation, the accepted one at callbacks

    def full(x):
        u = DisplacementField.from_vector(geometry, x)
        j, terms["D"], terms["S"], grad, jac = _objective_full(u, template, reference, config)
        return j, (grad.as_vector(), jac)

    def fun_grad(x):
        j, (grad, _) = full(x)
        return j, grad

    def record(k, x, j, rest, step):
        trace.records.append(IterationRecord(k, j, terms["D"], terms["S"], step))

    limits = dict(
        max_iters=config.max_iters_per_level,
        rel_tolerance=config.rel_tolerance,
        callback=record,
    )
    x0 = u0.as_vector()
    t0 = time.perf_counter()
    try:
        if config.solver == "semi-implicit":
            # factorized once per level: the line search scales the step,
            # dt stays fixed
            operator = SemiImplicitOperator(geometry, config.alpha, config.dt)
            result = descend(full, x0, _line_search_rule(_implicit_direction(operator)), **limits)
        elif config.solver == "gauss-newton":
            direction = _gauss_newton_direction(geometry, config.alpha)
            result = descend(full, x0, _line_search_rule(direction), **limits)
        else:
            # seed the quasi-Newton model with (I + alpha B_N)^(-1): the stiff
            # curvature block dominates the Hessian spectrum and an identity
            # seed forces thousands of tiny steps
            def h0_solve(vec):
                return neumann_solve(vec.reshape(2, *geometry.shape), config.alpha).ravel()

            cap = config.trust_radius if config.solver == "trust-region" else None
            result = minimize_lbfgs(fun_grad, x0, step_cap=cap, h0_solve=h0_solve, **limits)
    except DivergenceError as err:
        err.trace = trace
        err.level = level
        raise
    finally:
        trace.wall_time = time.perf_counter() - t0
    trace.converged = result.converged
    trace.evaluations = result.n_evals
    if trace.iterations == 0:
        log.warning(
            "level %d (%dx%d, %s) stopped at iteration 0: the field did not move",
            level, geometry.width, geometry.height, config.solver,
        )
    log.info(
        "level %d (%dx%d, %s): %d iterations, J=%.6e, converged=%s",
        level,
        geometry.width,
        geometry.height,
        config.solver,
        trace.iterations,
        trace.records[-1].objective,
        trace.converged,
    )
    return DisplacementField.from_vector(geometry, result.x), trace


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
