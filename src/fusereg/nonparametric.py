"""Non-parametric variational registration.

Seeks a per-pixel displacement u minimizing

    J(u) = D(T(x - u), R) + alpha * S(u)

with D one of the intensity distances and S the curvature regularizer.
Registration runs coarse to fine over an image pyramid; each level is
solved by one of four step rules of the one descent loop
:func:`fusereg.optimize.descend`: limited-memory BFGS, a step-capped
trust-region variant, or one Armijo line search along either the
semi-implicit step of the Euler-Lagrange equations or a Gauss-Newton step
with per-pixel Hessian blocks.  The coarse-to-fine driver and the level
runner also serve the affine baseline in :mod:`fusereg.affine`.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import similarity
from .curvature import bilaplacian, curvature_energy, neumann_solve
from .errors import DivergenceError, ParameterError
from .grid import (
    DisplacementField,
    GridGeometry,
    _check_count,
    _check_normalized,
    _require_same_shape,
    build_pyramid,
    fill_nodata,
    laplacian_adjoint_values,
    laplacian_values,
    prolong,
    warp_with_jacobian,
)
from .optimize import _dot, armijo_backtrack, descend, minimize_lbfgs

log = logging.getLogger(__name__)

SOLVERS = ("semi-implicit", "l-bfgs", "gauss-newton", "trust-region")
TRUST_RADIUS = 2.0  # trust-region step cap, pixels per component
CG_MAX_ITERS = 100
CG_REL_TOL = 0.1
# _seed_ratio fits where s and B s are this far from parallel (sin^2 of the
# angle) and |B s| / |s| tops the rounding noise on an affine s (~1e-15)
SEED_FIT_MIN_SIN2 = 1e-6
SEED_FIT_MIN_BS = 1e-12
# glibc's mallopt parameters (malloc.h), and the ceiling its own adaptive
# mmap threshold may reach on 64-bit systems
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


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

    def __post_init__(self):
        if self.measure not in similarity.MEASURES:
            raise ParameterError("unknown measure %r" % self.measure)
        for name in ("alpha", "eta", "dt", "rel_tolerance", "mi_parzen_sigma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise ParameterError("%s must be a real number" % name)
        similarity.check_mi_parameters(self.mi_bins, self.mi_parzen_sigma)
        if self.solver not in SOLVERS:
            raise ParameterError("unknown solver %r" % self.solver)
        for name in ("alpha", "eta", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError("%s must be finite and positive" % name)
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ParameterError("rel_tolerance must lie in (0, 1)")
        for name in ("max_levels", "max_iters_per_level"):
            _check_count(getattr(self, name), name)


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
                % (self.level, self.width, self.height, self.solver, r.iteration,
                   r.objective, r.distance, r.regularizer, r.step_norm)
            )
        out.append("level=%d converged=%s iterations=%d"
                   % (self.level, str(self.converged).lower(), self.iterations))
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


def _check_pair(template, reference, what):
    """The input contract of every registration entry point: one grid and
    valid intensities in [0, 1] (see :func:`fusereg.grid.normalize_intensity`)."""
    _require_same_shape(template.geometry, reference.geometry, what)
    _check_normalized(template, "template")
    _check_normalized(reference, "reference")


def _measure_parameters(config):
    """The configured measure's parameters, as :mod:`similarity` takes them."""
    return dict(eta=config.eta, mi_bins=config.mi_bins, mi_parzen_sigma=config.mi_parzen_sigma)


def _level_reference(reference, config):
    """The reference with what the configured measure needs of it, built
    once per level for :func:`_distance`."""
    return similarity.level_reference(reference, config.measure, **_measure_parameters(config))


def _distance(warped, reference, config):
    return similarity.evaluate(config.measure, warped, reference, **_measure_parameters(config))


# a term past the float range is inf: a trial the line search rejects, or
# a start that descend refuses
@np.errstate(over="ignore")
def _objective_full(u, template, reference, config):
    """Objective value, its two terms, the gradient as one ``(2, h, w)``
    array, and the warp's Jacobian ``(dtdx, dtdy)``.

    The template must be gap free (see :func:`fill_nodata`); it is sampled
    with edge clamping so the objective stays continuous in u.  The
    distance is evaluated over the reference's static valid mask.
    """
    warped, dtdx, dtdy = warp_with_jacobian(template, u)
    res = _distance(warped, reference, config)
    s_val = curvature_energy(u)
    j = res.value + config.alpha * s_val
    breg = bilaplacian(u)
    grad = np.empty((2,) + u.geometry.shape)
    np.add(-res.d_warped * dtdx, config.alpha * breg.u_x, out=grad[0])
    np.add(-res.d_warped * dtdy, config.alpha * breg.u_y, out=grad[1])
    return j, res.value, s_val, grad, (dtdx, dtdy)


def objective(u, template, reference, config):
    """J(u) and dJ/du for normalized images on a common grid, as the solvers see it."""
    _check_pair(template, reference, "objective")
    _require_same_shape(template.geometry, u.geometry, "objective")
    reference = _level_reference(reference, config)
    j, _, _, grad, _ = _objective_full(u, fill_nodata(template), reference, config)
    return j, DisplacementField(u.geometry, grad[0], grad[1])


def _step_norm(x_new, x_old) -> float:
    """Largest per-pixel Euclidean change between two ``(2, h, w)`` fields."""
    d = x_new - x_old
    return float(np.max(np.sqrt(d[0] ** 2 + d[1] ** 2)))


def _conjugate_gradient(apply_h, rhs, precondition):
    """Preconditioned CG from x = 0 on a symmetric positive definite
    operator; stops at a residual norm ``CG_REL_TOL`` times that of ``rhs``
    (the 10% truncates the solve, inexact Newton: Eisenstat & Walker, SIAM
    J. Sci. Comput. 17(1), 1996) or after ``CG_MAX_ITERS`` steps; every
    iterate has x . rhs = x . H x > 0, a descent direction for -rhs.
    The iterates update in place through one scratch buffer."""
    buf = np.empty_like(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    r0 = np.sqrt(_dot(r, r, buf))
    if r0 == 0.0:
        return x
    z = precondition(r)
    p = z
    rz = _dot(r, z, buf)
    for _ in range(CG_MAX_ITERS):
        hp = apply_h(p)
        php = _dot(p, hp, buf)
        if php <= 0.0:
            break
        a = rz / php
        x += np.multiply(a, p, out=buf)
        r -= np.multiply(a, hp, out=buf)
        if np.sqrt(_dot(r, r, buf)) <= CG_REL_TOL * r0:
            break
        z = precondition(r)
        rz_new = _dot(r, z, buf)
        if rz_new <= 0.0:  # a preconditioner singular on r: no progress left
            break
        # p = z + beta p; p no longer aliases z, which is fresh
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x


def _gauss_newton_direction(alpha):
    """Gauss-Newton direction for :func:`_line_search_rule`: a truncated
    preconditioned CG solve of the Gauss-Newton system, stopped at a 10%
    residual (inexact Newton, see :func:`_conjugate_gradient`).  ``rest``
    is the gradient and the warp Jacobian ``(dtdx, dtdy)`` there, which
    the Hessian blocks reuse."""

    def direction(rest):
        g, (dtdx, dtdy) = rest
        h11 = dtdx * dtdx
        h12 = dtdx * dtdy
        h22 = dtdy * dtdy
        trace_mean = float(np.mean(h11 + h22))
        mu = 1e-6 * max(1.0, trace_mean)
        # the DCT inverse of mu_bar I + alpha B_N, mu_bar the mean diagonal
        # of the data blocks: exact on the curvature part away from the
        # border, a scalar fit of the data part
        mu_bar = 0.5 * trace_mean + mu
        tmp = np.empty_like(h11)

        def apply_h(v):
            # row k: h_k1 vx + h_k2 vy + alpha B v_k + mu v_k, left to right
            out = np.empty_like(v)
            for k, (ha, hb) in enumerate(((h11, h12), (h12, h22))):
                b = laplacian_adjoint_values(laplacian_values(v[k]))
                row = out[k]
                np.multiply(ha, v[0], out=row)
                row += np.multiply(hb, v[1], out=tmp)
                row += np.multiply(alpha, b, out=b)
                row += np.multiply(mu, v[k], out=tmp)
            return out

        def precondition(v):
            return neumann_solve(v, alpha / mu_bar) / mu_bar

        return _conjugate_gradient(apply_h, -g, precondition)

    return direction


def _seed_ratio(s, y, alpha):
    """The weight ``c`` of the quasi-Newton seed ``(I + c B_N)^(-1)`` fitted
    to one curvature pair ``(s, y)`` of ``(2, h, w)`` arrays, and whether
    it was fitted.

    Least squares fits ``a s + b alpha B s`` to ``y``, B the objective's
    :func:`bilaplacian`: a 2x2 system, solved in closed form.  The two-loop
    recursion's gamma sets the seed's scale (Nocedal & Wright, Numerical
    Optimization, 2nd ed., section 7.2), so only ``c = alpha b / a``
    counts.  Unless ``a > 0``, ``b > 0`` and the system is well
    conditioned, ``c`` stays ``alpha``: an affine ``s`` has B s = 0, and
    MI and NGF can have negative curvature.
    """
    h, w = s.shape[-2:]
    bs = bilaplacian(DisplacementField(GridGeometry(w, h), s[0], s[1]))
    q = alpha * np.stack([bs.u_x, bs.u_y])
    ss, sq, qq = _dot(s, s), _dot(s, q), _dot(q, q)
    sy, qy = _dot(s, y), _dot(q, y)
    det = ss * qq - sq * sq
    q_min = SEED_FIT_MIN_BS * alpha  # squared by a product: a float ** raises on overflow
    if not (qq > q_min * q_min * ss and det > SEED_FIT_MIN_SIN2 * ss * qq):
        return alpha, False
    a = (qq * sy - sq * qy) / det
    b = (ss * qy - sq * sy) / det
    if not (a > 0.0 and b > 0.0):
        return alpha, False
    return alpha * b / a, True


def _line_search_rule(direction):
    """Step rule for :func:`descend`: Armijo search along
    ``direction(rest)``, or along -g where that is no descent direction
    or finds no decrease.  ``rest[0]`` is the gradient at ``x``.

    One rule serves one level.  Each search along ``direction`` starts at
    min(1, 2 t), t the last step accepted along it (1 at first; Nocedal &
    Wright, Numerical Optimization, 2nd ed., section 3.5).  Every t is a
    power of two, so this accepts the step a search from 1 would whenever
    the trials above 2 t would fail.  The -g searches start at 1."""
    t_prev = 1.0

    def step(fun, x, j, rest):
        nonlocal t_prev
        g = rest[0]
        delta = direction(rest)
        slope = _dot(g, delta)
        hit = None
        if np.isfinite(slope) and slope < 0.0:
            hit = armijo_backtrack(fun, x, j, delta, slope, min(1.0, 2.0 * t_prev))
            if hit is not None:
                t_prev = hit[0]
        if hit is None:
            # no descent direction, or the model is useless where the
            # interpolant kinks (integer-aligned u): steepest descent still
            # gets off the spot
            hit = armijo_backtrack(fun, x, j, -g, -_dot(g, g))
        if hit is None:
            return None
        _, x_try, j_try, rest_try = hit
        return x_try, j_try, rest_try, _step_norm(x_try, x)

    return step


def _keep_freed_heap():
    """Let the C heap keep freed memory for the next iteration's arrays.

    Every iteration allocates and frees the same field-sized temporaries
    (128 KiB each on a 128² level).  By default glibc hands them back to
    the kernel whenever a free leaves more free memory at the top of the
    heap than twice the largest memory-mapped block freed so far, and the
    next iteration faults every page in again: about 240 000 minor faults and 0.4 s of system
    time for eight 128² l-BFGS registrations, with a cost that swings
    with the memory traffic of other processes.  Fixing the thresholds at
    the ceilings of glibc's own adaptive rule (mmap at 32 MiB, trim at
    twice that) reuses the pages instead, at the same peak resident size.
    Outside Linux, or where the C library has no ``mallopt``, this does
    nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _run_level(trace, minimize, name, note=None):
    """Run one level's minimization ``minimize()`` into ``trace``.

    The one place that records how a level ended: its wall time, the
    result's ``converged`` and ``n_evals``, the iteration-0 warning and the
    summary line, ``name`` introducing both and ``note()``, when given,
    ending the summary.  A :class:`DivergenceError` leaves with the level
    trace and its level attached.  The minimization
    runs on a heap that keeps freed memory (:func:`_keep_freed_heap`).
    """
    _keep_freed_heap()
    t0 = time.perf_counter()
    try:
        result = minimize()
    except DivergenceError as err:
        err.trace = trace
        err.level = trace.level
        raise
    finally:
        trace.wall_time = time.perf_counter() - t0
    trace.converged = result.converged
    trace.evaluations = result.n_evals
    if trace.iterations == 0:
        log.warning("%s stopped at iteration 0: no step was accepted", name)
    log.info(
        "%s: %d iterations, %d evaluations, J=%.6e, converged=%s%s",
        name, trace.iterations, trace.evaluations, result.fun, trace.converged,
        "" if note is None else note(),
    )
    return result


def _coarse_to_fine(pyr_t, pyr_r, solve_level):
    """Solve two image pyramids coarsest level first.

    ``solve_level(level, template, reference, state)`` returns the level's
    solution (``None`` comes in on the coarsest level, then the previous
    level's solution) and its :class:`LevelTrace`.  Returns the finest
    solution and the :class:`RegistrationTrace`; a :class:`DivergenceError`
    leaves with that trace, up to the failing level, in place of the
    level's own.
    """
    trace = RegistrationTrace()
    state = None
    for level in range(min(len(pyr_t), len(pyr_r)) - 1, -1, -1):
        try:
            state, level_trace = solve_level(level, pyr_t[level], pyr_r[level], state)
        except DivergenceError as err:
            trace.levels.append(err.trace)
            err.trace = trace
            raise
        trace.levels.append(level_trace)
    return state, trace


def register_level(template, reference, u0, config, level=0):
    """Run the configured solver on one pyramid level.

    Every solver is a step rule of :func:`fusereg.optimize.descend`
    (l-BFGS and trust-region through :func:`minimize_lbfgs`, semi-implicit
    and Gauss-Newton through :func:`_line_search_rule`) on the field as
    one ``(2, h, w)`` array; all of them invert the curvature term by the
    DCT solve :func:`neumann_solve`, and none factorizes.  The iteration
    history never shows an objective increase; a solver that finds no
    decrease stops there.  Only a non-finite J at ``u0`` raises
    :class:`DivergenceError`, with the partial trace attached.
    """
    _check_pair(template, reference, "register_level")
    _require_same_shape(template.geometry, u0.geometry, "register_level")
    template = fill_nodata(template)
    reference = _level_reference(reference, config)
    geometry = u0.geometry
    trace = LevelTrace(level, geometry.width, geometry.height, config.solver)
    terms = {}  # D and S of the latest evaluation, the accepted one at callbacks
    seed = {}  # the quasi-Newton seed's c and how it was set

    def full(x):
        u = DisplacementField(geometry, x[0], x[1])
        j, terms["D"], terms["S"], grad, jac = _objective_full(u, template, reference, config)
        return j, (grad, jac)

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
    x0 = np.stack([u0.u_x, u0.u_y])

    def minimize():
        if config.solver == "semi-implicit":
            # d = -dt (I + dt alpha B_N)^(-1) g: the implicit Euler-Lagrange
            # step with B_N for B; the line search and its -g fallback absorb
            # the difference in the two border rows
            def direction(rest):
                return -config.dt * neumann_solve(rest[0], config.dt * config.alpha)

            return descend(full, x0, _line_search_rule(direction), **limits)
        if config.solver == "gauss-newton":
            direction = _gauss_newton_direction(config.alpha)
            return descend(full, x0, _line_search_rule(direction), **limits)
        # seed the quasi-Newton model with (I + c B_N)^(-1): an identity seed
        # forces thousands of tiny steps.  c = alpha takes the data term's
        # curvature to be 1, some 300 times that of SSD at 64^2, so the
        # first curvature pair refits c (see _seed_ratio)
        seed.update(c=config.alpha, how="kept")

        def h0_solve(v):
            return neumann_solve(v, seed["c"])

        def h0_fit(s, y):
            c, fitted = _seed_ratio(s, y, config.alpha)
            seed.update(c=c, how="fitted" if fitted else "kept")

        cap = TRUST_RADIUS if config.solver == "trust-region" else None
        return minimize_lbfgs(
            fun_grad, x0, step_cap=cap, h0_solve=h0_solve, h0_fit=h0_fit, **limits
        )

    def seed_note():
        if not seed:
            return ""
        return ", seed c/alpha=%.4g (%s)" % (seed["c"] / config.alpha, seed["how"])

    name = "level %d (%dx%d, %s)" % (level, geometry.width, geometry.height, config.solver)
    x = _run_level(trace, minimize, name, seed_note).x
    return DisplacementField(geometry, x[0], x[1]), trace


def register_multilevel(template, reference, config):
    """Coarse-to-fine registration of template onto reference.

    Both images must share a grid and be normalized to [0, 1].  Returns the
    displacement field on the finest grid and the full trace.
    """
    _check_pair(template, reference, "register_multilevel")

    def solve_level(level, t_l, r_l, u):
        u = DisplacementField.zero(t_l.geometry) if u is None else prolong(u, t_l.geometry)
        # in pixel units the curvature energy of a fixed physical field is
        # level-invariant while the distance shrinks with the pixel count,
        # so a constant alpha would over-regularize each coarser level by
        # 4x; scaling alpha keeps every level a discretization of the same
        # continuum objective
        cfg_l = replace(config, alpha=config.alpha * 0.25**level)
        return register_level(t_l, r_l, u, cfg_l, level=level)

    pyr_t = build_pyramid(template, config.max_levels)
    pyr_r = build_pyramid(reference, config.max_levels)
    return _coarse_to_fine(pyr_t, pyr_r, solve_level)
