"""One monotone descent loop with pluggable step rules, and l-BFGS.

:func:`descend` is the only iteration loop: every non-parametric solver
and the affine baselines run through it, l-BFGS (and its step-capped
trust-region variant) as the step rule behind :func:`minimize_lbfgs`.
Hand rolled rather than delegated so that iterates, objective
decomposition and line-search behaviour stay fully observable and
bit-reproducible; all inner products use numpy sums, which are
deterministic regardless of BLAS threading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, FuseRegError

ARMIJO_C1 = 1e-4
# the factors of armijo_backtrack's stall test (see its docstring)
STALL_SECANT_SPREAD = 0.1
STALL_SLOPE_RATIO = 0.5
MAX_BACKTRACKS = 30
LBFGS_MEMORY = 10  # curvature pairs kept


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    n_evals: int


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> float:
    """a . b as one numpy sum of the products, formed in ``out`` when given;
    ``np.add.reduce`` is the reduction ``np.sum`` calls, without its wrapper."""
    return float(np.add.reduce(np.multiply(a, b, out=out), axis=None))


def _two_loop(gradient: np.ndarray, pairs, h0_gradient: np.ndarray) -> np.ndarray:
    """Standard l-BFGS two-loop recursion for -H * gradient.

    ``pairs`` holds ``(s, y, sy, h0_y)`` tuples, oldest first, ``sy`` being
    s . y, and ``h0_gradient = H0 gradient``: the seed matrix is gamma * H0,
    where H0 applies a fixed preconditioner (the identity when there is
    none) and gamma rescales it from the latest curvature pair (gamma =
    s.y / y.H0 y, the usual scalar when H0 is the identity).  The recursion
    is linear in H0, so H0 q = H0 gradient - sum_i a_i H0 y_i needs no
    further solve: each pair carries ``h0_y = H0 y``, the difference of the
    seeded gradients at its two ends.  Every product goes through one
    scratch buffer; the inputs are left alone.
    """
    buf = np.empty_like(gradient)
    q = gradient.copy()
    alphas = []
    for s, y, sy, _ in reversed(pairs):
        a = (1.0 / sy) * _dot(s, q, buf)
        alphas.append(a)
        q -= np.multiply(a, y, out=buf)
    q = h0_gradient.copy()
    for (_, _, _, h0_y), a in zip(reversed(pairs), alphas):
        q -= np.multiply(a, h0_y, out=buf)
    if pairs:
        _, y, sy, h0_y = pairs[-1]
        q *= sy / max(_dot(y, h0_y, buf), 1e-300)
    for (s, y, sy, _), a in zip(pairs, reversed(alphas)):
        beta = (1.0 / sy) * _dot(y, q, buf)
        q += np.multiply(a - beta, s, out=buf)
    return np.negative(q, out=q)


def armijo_backtrack(fun, x, f, d, slope, t=1.0):
    """Halving Armijo line search from ``x`` along the descent direction ``d``.

    Tries ``x + t d`` for t, t/2, ... (at most ``MAX_BACKTRACKS`` times) and
    accepts the first trial whose value ``fun(x_try)[0]`` is finite and at
    most ``f + ARMIJO_C1 * t * slope``.  A trial at which ``fun`` raises
    :class:`FuseRegError` has left the measure's domain and is rejected
    like any other.

    The search also stalls early, on evidence that no smaller trial can
    succeed: after two rejected finite trials in a row, at 2t and t, with
    secants s(t) = (J(t) - f) / t, the quadratic J = f + a tau + b tau^2
    through (0, f), (t, J(t)) and (2t, J(2t)) has a = 2 s(t) - s(2t).  The
    search ends when 0 <= s(2t) - s(t) <= ``STALL_SECANT_SPREAD`` s(t) (the
    secants agree and J is convex along the ray) and a >=
    ``STALL_SLOPE_RATIO`` |slope| (J rises from the start, about as steeply
    as ``slope`` predicted it to fall; so s(t) >= a > 0): a kink of the
    sampled objective.  A trial that raises or returns a non-finite
    value breaks the pair.

    A first t = 2^-k saves the k trials above it and accepts the step a
    search from 1 accepts whenever those trials would have failed and
    would not have ended the search.  Returns ``(t, x_try, value, rest)``
    for the accepted trial, ``rest`` being the second item ``fun``
    returned, or None.
    """
    secant = None  # that of the last trial, when it was rejected and finite
    for _ in range(MAX_BACKTRACKS):
        x_try = x + t * d
        try:
            f_try, rest = fun(x_try)
        except FuseRegError:
            f_try = np.nan
        if not np.isfinite(f_try):
            secant = None
        elif f_try <= f + ARMIJO_C1 * t * slope:
            return t, x_try, f_try, rest
        else:
            secant_prev, secant = secant, (f_try - f) / t
            if (
                secant_prev is not None
                and 0.0 <= secant_prev - secant <= STALL_SECANT_SPREAD * secant
                and 2.0 * secant - secant_prev >= STALL_SLOPE_RATIO * abs(slope)
            ):
                return None
        t *= 0.5
    return None


def descend(fun, x0, step, *, max_iters, rel_tolerance, callback=None) -> MinimizeResult:
    """The monotone descent loop every solver runs through.

    ``fun(x)`` returns ``(value, rest)``, ``rest`` being what the step rule
    needs at ``x`` (a gradient, say).  ``step(fun, x, value, rest)`` tries
    points only through the ``fun`` it is given and returns ``(x_new,
    value_new, rest_new, step_norm)`` for the one it accepts, or None when
    it finds no decrease (a working-precision stationary point or a kink of
    the sampled objective).  None and a relative objective change below
    ``rel_tolerance`` end the loop as converged; ``max_iters`` accepted
    steps end it unconverged.  A non-finite starting value raises
    :class:`DivergenceError`; ``n_evals`` counts evaluations that returned.

    ``callback(iteration, x, value, rest, step_norm)`` fires for the
    initial point (iteration 0) and after every accepted step.
    """
    n_evals = 0

    def counted(x):
        nonlocal n_evals
        out = fun(x)
        n_evals += 1
        return out

    x = x0
    f, rest = counted(x)
    if not np.isfinite(f):
        raise DivergenceError("objective is not finite at the starting point")
    if callback is not None:
        callback(0, x, f, rest, 0.0)
    iterations = 0
    converged = False
    for _ in range(max_iters):
        moved = step(counted, x, f, rest)
        if moved is None:
            converged = True
            break
        f_prev = f
        x, f, rest, step_norm = moved
        iterations += 1
        if callback is not None:
            callback(iterations, x, f, rest, step_norm)
        if abs(f_prev - f) <= rel_tolerance * max(abs(f), 1e-12):
            converged = True
            break
    return MinimizeResult(x=x, fun=f, iterations=iterations, converged=converged, n_evals=n_evals)


def _lbfgs_step(step_cap, h0_solve, h0_fit):
    """The l-BFGS step rule for :func:`descend`; ``rest`` is the gradient."""
    pairs: list = []
    h0_g_prev = None
    fit_pending = h0_fit is not None

    def step(fun, x, f, g):
        nonlocal h0_g_prev, fit_pending
        g_inf = float(np.max(np.abs(g))) if g.size else 0.0
        if g_inf <= 1e-12 * (1.0 + abs(f)):
            return None
        # seed the gradient here (H0 = I without h0_solve); the pair stored
        # at the last step still waits for its H0 y = H0 g_new - H0 g_old
        h0_g = g if h0_solve is None else h0_solve(g)
        if pairs and pairs[-1][3] is None:
            s, y, sy, _ = pairs[-1]
            pairs[-1] = (s, y, sy, h0_g - h0_g_prev)
        d = _two_loop(g, pairs, h0_g)
        slope = _dot(g, d)
        if not np.isfinite(slope) or slope >= 0.0:
            pairs.clear()
            d = -g
            slope = _dot(g, d)
        d_inf = float(np.max(np.abs(d)))
        t = 1.0
        if not pairs and d_inf > 0.0:
            # first trial step at most one pixel in any component (every
            # caller's x is in pixels, the affine baseline's in border pixels)
            t = min(1.0, 1.0 / d_inf)
        if step_cap is not None and d_inf * t > step_cap:
            t = step_cap / d_inf
        hit = armijo_backtrack(fun, x, f, d, slope, t)
        if hit is None:
            return None
        t, x_new, f_new, g_new = hit
        s = t * d
        y = g_new - g
        sy = _dot(s, y)
        if sy > 1e-12 * float(np.sqrt(_dot(s, s) * _dot(y, y)) + 1e-300):
            pairs.append((s, y, sy, None))
            if len(pairs) > LBFGS_MEMORY:
                pairs.pop(0)
            if fit_pending:
                # the first pair refits the seed; the old end of this pair
                # is seeded again, so its H0 y uses one seed at both ends
                fit_pending = False
                h0_fit(s, y)
                h0_g = h0_solve(g)
        h0_g_prev = h0_g
        return x_new, f_new, g_new, float(np.max(np.abs(s)))

    return step


def minimize_lbfgs(
    fun_grad,
    x0: np.ndarray,
    *,
    max_iters: int = 200,
    rel_tolerance: float = 1e-6,
    step_cap: float | None = None,
    h0_solve=None,
    h0_fit=None,
    callback=None,
) -> MinimizeResult:
    """Minimize fun_grad(x) -> (value, gradient) from x0 by l-BFGS.

    Runs :func:`descend` with Armijo steps and halving backtracks; a
    vanishing gradient also ends the run as converged.  Without curvature
    pairs, the first trial moves no component of ``x``, which must be in
    pixels, farther than one.  With ``step_cap`` set, trial steps are
    clipped so no component moves farther than the cap (a step-limited
    trust-region flavour).  ``h0_solve(v)``, when given, applies an SPD
    preconditioner as the seed matrix (see :func:`_two_loop`), once per
    iterate, to the gradient there.  ``h0_fit(s, y)``, when given with
    ``h0_solve``, is called once, with the first curvature pair stored,
    and may change what ``h0_solve`` applies from then on; the gradient
    at that pair's old end is then seeded once more, so no pair mixes two
    seeds.  ``callback`` is that of :func:`descend`, its ``rest`` the
    gradient.
    """
    return descend(
        fun_grad,
        np.array(x0, dtype=np.float64),
        _lbfgs_step(step_cap, h0_solve, h0_fit),
        max_iters=max_iters,
        rel_tolerance=rel_tolerance,
        callback=callback,
    )
