"""Quasi-Newton core on analytic problems."""

import hashlib

import numpy as np
import pytest

from fusereg.errors import DivergenceError, ParameterError
from fusereg.optimize import (
    MAX_BACKTRACKS,
    _two_loop,
    armijo_backtrack,
    descend,
    minimize_lbfgs,
)


def quadratic(diag):
    d = np.asarray(diag, dtype=np.float64)

    def fun_grad(x):
        return 0.5 * float(np.sum(d * x * x)), d * x

    return fun_grad


def rosenbrock(x):
    a, b = x
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    g = np.array(
        [-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]
    )
    return f, g


def test_quadratic_reaches_minimum(rng):
    fg = quadratic(np.linspace(1.0, 50.0, 20))
    x0 = rng.normal(size=20)
    res = minimize_lbfgs(fg, x0, max_iters=200, rel_tolerance=1e-12)
    assert res.converged
    assert res.fun < 1e-12
    assert np.abs(res.x).max() < 1e-5


def test_rosenbrock_valley():
    res = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iters=500, rel_tolerance=1e-14)
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)


def test_preconditioner_reaches_same_minimum(rng):
    diag = np.linspace(1.0, 1000.0, 30)
    fg = quadratic(diag)
    x0 = rng.normal(size=30)
    plain = minimize_lbfgs(fg, x0, max_iters=400, rel_tolerance=1e-13)
    pre = minimize_lbfgs(
        fg, x0, max_iters=400, rel_tolerance=1e-13, h0_solve=lambda v: v / diag
    )
    assert plain.fun < 1e-10 and pre.fun < 1e-10
    # the exact inverse Hessian seed solves the problem essentially at once
    assert pre.iterations <= plain.iterations


def test_preconditioner_applied_once_per_accepted_point(rng):
    diag = np.linspace(1.0, 1000.0, 30)
    h0 = rng.uniform(0.5, 2.0, size=30) / diag
    calls = []

    def h0_solve(v):
        calls.append(1)
        return h0 * v

    res = minimize_lbfgs(
        quadratic(diag), rng.normal(size=30), max_iters=50,
        rel_tolerance=1e-13, h0_solve=h0_solve,
    )
    assert res.iterations >= 3
    assert len(calls) <= res.iterations + 1


def test_two_loop_matches_two_solve_recursion(rng):
    # reference: the recursion that solves with H0 once for q and once
    # more for the scaling factor's H0 y
    n = 12
    a = rng.normal(size=(n, n))
    h0 = a @ a.T + n * np.eye(n)
    g = rng.normal(size=n)
    pairs = []
    for _ in range(5):
        s = rng.normal(size=n)
        y = s + 0.3 * rng.normal(size=n)
        pairs.append((s, y, 1.0 / float(s @ y)))

    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        alphas.append(alpha)
        q -= alpha * y
    q = h0 @ q
    s, y, _ = pairs[-1]
    q *= float(s @ y) / float(y @ (h0 @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        beta = rho * float(y @ q)
        q += (alpha - beta) * s
    want = -q

    got = _two_loop(g, [(s, y, float(s @ y), h0 @ y) for s, y, _ in pairs], h0 @ g)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_step_cap_limits_component_motion():
    seen = []

    def cb(i, x, f, g, step_norm):
        seen.append(step_norm)

    fg = quadratic(np.ones(4))
    minimize_lbfgs(fg, np.full(4, 100.0), step_cap=0.5, max_iters=10, callback=cb)
    assert max(seen[1:]) <= 0.5 + 1e-12


def test_callback_sees_monotone_objective(rng):
    values = []
    fg = quadratic(np.linspace(1.0, 5.0, 8))
    minimize_lbfgs(
        fg,
        rng.normal(size=8),
        max_iters=50,
        callback=lambda i, x, f, g, s: values.append(f),
    )
    assert len(values) >= 2
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_nonfinite_start_raises():
    def fg(x):
        return np.inf, np.zeros_like(x)

    with pytest.raises(DivergenceError):
        minimize_lbfgs(fg, np.zeros(3))


def test_stationary_start_converges_immediately():
    fg = quadratic(np.ones(5))
    res = minimize_lbfgs(fg, np.zeros(5))
    assert res.converged
    assert res.iterations == 0


def test_exhausted_line_search_reports_convergence():
    # |x| has a kink at the minimum; the search stalls there and must
    # call that convergence, not failure

    def fg(x):
        return float(np.sum(np.abs(x))), np.sign(x)

    res = minimize_lbfgs(fg, np.array([1.0]), max_iters=100, rel_tolerance=1e-16)
    assert res.converged
    assert res.fun <= 1.0


def test_backtrack_halves_past_trials_that_raise():
    # trial points beyond |x| = 1 leave the domain; the search halves past
    # them, and the driver counts only the evaluations that returned

    def fun(x):
        if abs(x[0]) > 1.0:
            raise ParameterError("outside the domain")
        return float(x[0] * x[0] - 2.0 * x[0]), "rest"

    hit = armijo_backtrack(fun, np.zeros(1), 0.0, np.array([4.0]), -8.0)
    t, x_try, value, rest = hit
    assert (t, x_try[0], value, rest) == (0.25, 1.0, -1.0, "rest")

    def step(fun, x, f, rest):
        t, x_new, f_new, rest_new = armijo_backtrack(fun, x, f, np.array([4.0]), -8.0)
        return x_new, f_new, rest_new, 4.0 * t

    res = descend(fun, np.zeros(1), step, max_iters=1, rel_tolerance=1e-12)
    assert (res.x[0], res.fun, res.iterations) == (1.0, -1.0, 1)
    # the start and the one trial that returned; the two that raised are not counted
    assert res.n_evals == 2


def _ray(values):
    """fun for a search from x = 0 along d = +1: J(t) = values(t), with a
    log of the trial points."""
    trials = []

    def fun(x):
        trials.append(float(x[0]))
        return values(float(x[0])), "rest"

    return fun, trials


@pytest.mark.parametrize("values,n_trials,accepted", [
    # |x| along +1 with the slope of the other side: both secants read +1
    (abs, 2, None),
    # J = t + 10 t^2: the secants 1 + 10 t first agree to 10% at t = 1/128
    (lambda t: t + 10.0 * t * t, 8, None),
    # the secants agree, but J rises far more gently than the predicted descent
    (lambda t: 0.1 * t, MAX_BACKTRACKS, None),
    # J = 2 t - t^2 is concave along the ray: its secants 2 - t never fall
    (lambda t: 2.0 * t - t * t, MAX_BACKTRACKS, None),
    # J = -t + 10 t^2: positive secants that fall fast; the search halves on
    # to the first Armijo point
    (lambda t: -t + 10.0 * t * t, 5, 0.0625),
], ids=["kink", "curved-rise", "shallow-rise", "concave-rise", "overshoot"])
def test_backtrack_stalls_only_where_no_smaller_trial_can_succeed(values, n_trials, accepted):
    fun, trials = _ray(values)
    hit = armijo_backtrack(fun, np.zeros(1), 0.0, np.ones(1), -1.0)
    assert trials == [0.5**k for k in range(n_trials)]
    if accepted is None:
        assert hit is None
    else:
        t, x_try, _, rest = hit
        assert (t, x_try[0], rest) == (accepted, accepted, "rest")


@pytest.mark.parametrize("bad", ["raise", "nan"])
def test_a_failed_trial_breaks_the_secant_pair(bad):
    # J(t) = t, but the trial at 1/2 raises or is not finite: the trials at
    # 1 and 1/4 are no pair, those at 1/4 and 1/8 are
    def values(t):
        if t == 0.5:
            if bad == "raise":
                raise ParameterError("outside the domain")
            return float("nan")
        return t

    fun, trials = _ray(values)
    assert armijo_backtrack(fun, np.zeros(1), 0.0, np.ones(1), -1.0) is None
    assert trials == [1.0, 0.5, 0.25, 0.125]


def test_iteration_budget_respected(rng):
    fg = quadratic(np.linspace(1.0, 300.0, 40))
    res = minimize_lbfgs(fg, rng.normal(size=40), max_iters=3, rel_tolerance=1e-16)
    assert res.iterations <= 3
    assert not res.converged


def _two_loop_reference(gradient, pairs, h0_gradient):
    # the recursion as first written: a fresh temporary per product, pairs
    # carrying rho = 1 / s.y
    q = gradient.copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * float(np.sum(s * q))
        alphas.append(a)
        q -= a * y
    q = h0_gradient.copy()
    for (_, _, _, h0_y), a in zip(reversed(pairs), alphas):
        q -= a * h0_y
    if pairs:
        s, y, _, h0_y = pairs[-1]
        q *= float(np.sum(s * y)) / max(float(np.sum(y * h0_y)), 1e-300)
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        beta = rho * float(np.sum(y * q))
        q += (a - beta) * s
    return -q


@pytest.mark.parametrize("shape", [(2, 9, 7), (6,)])
@pytest.mark.parametrize("n_pairs", [0, 1, 4])
def test_two_loop_is_bit_identical_and_leaves_its_inputs_alone(shape, n_pairs, rng):
    g = rng.normal(size=shape)
    h0_g = 0.5 * g + 0.1 * rng.normal(size=shape)
    pairs = []
    for _ in range(n_pairs):
        s = rng.normal(size=shape)
        y = s + 0.3 * rng.normal(size=shape)
        sy = float(np.sum(s * y))
        pairs.append((s, y, sy, 0.5 * y + 0.1 * rng.normal(size=shape)))
    before = [a.tobytes() for a in [g, h0_g] + [v for p in pairs for v in (p[0], p[1], p[3])]]
    want = _two_loop_reference(g, [(s, y, 1.0 / sy, h0_y) for s, y, sy, h0_y in pairs], h0_g)
    got = _two_loop(g, pairs, h0_g)
    assert got.tobytes() == want.tobytes()
    after = [a.tobytes() for a in [g, h0_g] + [v for p in pairs for v in (p[0], p[1], p[3])]]
    assert after == before


def _seeded_quadratic():
    diag = np.array([1.0, 3.0, 10.0, 30.0, 100.0, 300.0])
    x0 = np.array([1.0, -0.5, 0.25, 2.0, -1.5, 0.75])
    return diag, quadratic(diag), x0


def test_h0_fit_is_called_once_with_the_first_stored_pair(monkeypatch):
    import fusereg.optimize as optimize

    diag, fg, x0 = _seeded_quadratic()
    seed = {"c": 0.1}
    fits, solves, points, pairs_seen = [], [], [], []

    def h0_solve(v):
        solves.append(seed["c"])
        return v / (1.0 + seed["c"] * diag)

    def h0_fit(s, y):
        fits.append((s.copy(), y.copy()))
        seed["c"] = 0.01

    def spy(gradient, pairs, h0_gradient):
        pairs_seen.append([p[3] for p in pairs])
        return two_loop(gradient, pairs, h0_gradient)

    two_loop = optimize._two_loop
    monkeypatch.setattr(optimize, "_two_loop", spy)
    res = minimize_lbfgs(
        fg, x0, max_iters=40, rel_tolerance=1e-14, h0_solve=h0_solve, h0_fit=h0_fit,
        callback=lambda k, x, f, g, step: points.append((x.copy(), g.copy())),
    )
    assert res.iterations >= 3
    assert len(fits) == 1
    (x_0, g_0), (x_1, g_1) = points[:2]
    s, y = fits[0]
    np.testing.assert_allclose(s, x_1 - x_0, rtol=1e-12, atol=1e-15)
    assert y.tobytes() == (g_1 - g_0).tobytes()
    # one solve per step, one more to seed the first pair's old end again
    assert solves[:3] == [0.1, 0.01, 0.01]
    assert len(solves) == len(pairs_seen) + 1
    first_h0_y = pairs_seen[1][0]
    np.testing.assert_allclose(first_h0_y, y / (1.0 + 0.01 * diag), rtol=1e-12)


def test_runs_without_h0_fit_keep_their_bytes():
    # digests of the iterates the step rule gave before h0_fit existed
    diag, fg, x0 = _seeded_quadratic()
    h0 = dict(h0_solve=lambda v: v / (1.0 + 0.1 * diag))
    want = [
        ({}, 31, "6ab649496c1d7702f72d72e19216713c685cfca6ec88e79403cad7b6ade5c9d6"),
        (h0, 17, "5b2517fdcb3ffe5360b577cf8f29ec74a3ef96a3ab46ae4fa676dcdfc35034a1"),
        (dict(h0, step_cap=0.5), 23,
         "e3c9417f4760a68fcdc9466c235c8616170385ab12de6ea2c762e28317b337ab"),
    ]
    for kwargs, iterations, digest in want:
        h = hashlib.sha256()

        def cb(k, x, f, g, step):
            h.update(x.tobytes() + g.tobytes() + np.float64(f).tobytes()
                     + np.float64(step).tobytes())

        res = minimize_lbfgs(fg, x0, max_iters=40, rel_tolerance=1e-14, callback=cb, **kwargs)
        assert res.iterations == iterations
        assert h.hexdigest() == digest


def test_a_seed_that_is_not_spd_falls_back_to_steepest_descent():
    # H0 = -I turns -H0 g into +g, uphill: the step rule drops the pairs and
    # takes -g, the step an identity seed takes first
    fun_grad = quadratic([1.0, 4.0, 9.0])
    x0 = np.array([1.0, -2.0, 0.5])
    firsts = []
    for h0_solve in (lambda v: -v, None):
        xs = []
        res = minimize_lbfgs(fun_grad, x0, max_iters=20, h0_solve=h0_solve,
                             callback=lambda k, x, f, g, step: xs.append(x))
        assert res.iterations > 0 and res.fun < fun_grad(x0)[0]
        firsts.append(xs[1])
    assert firsts[0].tobytes() == firsts[1].tobytes()
