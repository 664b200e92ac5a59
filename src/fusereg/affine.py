"""Parametric affine registration baselines.

A six-parameter transform x' = A x + t (pixel coordinates) optimized by
multilevel quasi-Newton descent on any of the intensity distances.  The
optimization itself runs in border-pixel units: a unit change of any one
parameter moves the outermost pixels by one pixel, so rotations, shears and
translations have comparable magnitudes and l-BFGS's one-pixel first trial
is one pixel; the interface exposes plain pixel-frame parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .grid import (
    DisplacementField,
    GridGeometry,
    ScalarImage,
    _pixel_grid,
    build_pyramid,
    fill_nodata,
    warp_with_jacobian,
)
from .nonparametric import (
    IterationRecord,
    LevelTrace,
    RegistrationConfig,
    _check_pair,
    _coarse_to_fine,
    _distance,
    _level_reference,
    _run_level,
)
from .optimize import minimize_lbfgs


@dataclass(frozen=True)
class AffineParams:
    """Pixel-frame affine transform x' = A x + t."""

    a11: float
    a12: float
    a21: float
    a22: float
    t_x: float
    t_y: float

    def __post_init__(self):
        vals = (self.a11, self.a12, self.a21, self.a22, self.t_x, self.t_y)
        if not all(np.isfinite(v) for v in vals):
            raise ParameterError("affine parameters must be finite")
        if abs(self.det) < 1e-6:
            raise ParameterError("affine transform is singular (det %.3e)" % self.det)

    @classmethod
    def identity(cls) -> "AffineParams":
        return cls(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.t_x, self.t_y])

    def to_text(self) -> str:
        """Single-line, full-precision six-number record."""
        # cast keeps numpy scalars from leaking their repr into the file
        return " ".join(
            repr(float(v))
            for v in (self.a11, self.a12, self.a21, self.a22, self.t_x, self.t_y)
        )

    @classmethod
    def from_text(cls, text: str) -> "AffineParams":
        toks = text.split()
        if len(toks) != 6:
            raise ParameterError("affine record needs exactly 6 numbers")
        try:
            vals = [float(t) for t in toks]
        except ValueError as exc:
            raise ParameterError("bad affine record %r" % text) from exc
        return cls(*vals)


def affine_apply(params: AffineParams, x, y):
    """Transform pixel coordinates."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return (
        params.a11 * x + params.a12 * y + params.t_x,
        params.a21 * x + params.a22 * y + params.t_y,
    )


def affine_to_displacement(params: AffineParams, geometry: GridGeometry) -> DisplacementField:
    """Displacement field u(x) = x - (A x + t) realizing the transform."""
    grid = _pixel_grid(geometry)
    return DisplacementField(geometry, grid - affine_apply(params, *grid))


# ---------------------------------------------------------------------------
# border-pixel parameter frame: p(x) = c + Z x_hat + z_t, x_hat = S^-1 (x - c)


def _frame(geometry: GridGeometry):
    """Centre c and half extents S; x_hat spans [-1, 1] on each axis."""
    c = np.array([(geometry.width - 1) / 2.0, (geometry.height - 1) / 2.0])
    return c, np.maximum(c, 1.0)


def _hat_to_pixel(phat: np.ndarray, geometry: GridGeometry):
    """(A, t) in pixel frame from the border-pixel parameters (Z, z_t)."""
    c, s = _frame(geometry)
    a = phat[:4].reshape(2, 2) / s
    return a, c + phat[4:] - a @ c


def _pixel_to_hat(a: np.ndarray, t: np.ndarray, geometry: GridGeometry) -> np.ndarray:
    c, s = _frame(geometry)
    return np.concatenate([(a * s).ravel(), a @ c + t - c])


def _objective(t_img: ScalarImage, r_level, cfg: RegistrationConfig):
    """fun_grad(phat) -> (D, dD/dphat) of the distance of ``t_img`` seen
    through the border-pixel parameters ``phat`` to ``r_level``."""
    geometry = t_img.geometry
    xs, ys = _pixel_grid(geometry)
    (cx, cy), (sx, sy) = _frame(geometry)
    xhat = (xs - cx) / sx
    yhat = (ys - cy) / sy

    def fun_grad(phat):
        # u = x - p(x) with x = c + S x_hat: the identity gives u = 0
        # exactly, so its pixels sample the template on the node lattice
        u = DisplacementField(geometry, ((sx - phat[0]) * xhat - phat[1] * yhat - phat[4],
                                         (sy - phat[3]) * yhat - phat[2] * xhat - phat[5]))
        warped, jac = warp_with_jacobian(t_img, u)
        res = _distance(warped, r_level, cfg)
        wx, wy = res.d_warped * jac
        # six separate sums: one reduction over the stacked products would
        # order the additions differently
        grad = np.array([np.sum(wx * xhat), np.sum(wx * yhat), np.sum(wy * xhat),
                         np.sum(wy * yhat), np.sum(wx), np.sum(wy)])
        return res.value, grad

    return fun_grad


def register_affine(
    template: ScalarImage,
    reference: ScalarImage,
    measure: str,
    config: RegistrationConfig,
):
    """Multilevel affine registration of template onto reference.

    Returns the pixel-frame parameters of the finest level together with an
    iteration trace (regularizer column is zero: the transform itself is
    the regularity constraint).
    """
    cfg = config if config.measure == measure else replace(config, measure=measure)
    _check_pair(template, reference, "register_affine")

    def solve_level(level, t_l, r_l, state):
        # gap-free template + clamped sampling keep the distance continuous
        # in the parameters (a masked sum would reward transforms that push
        # pixels out of the domain; SSD exploits that immediately)
        t_img = fill_nodata(t_l)
        geometry = t_img.geometry
        fun_grad = _objective(t_img, _level_reference(r_l, cfg), cfg)
        # pixel transforms transfer across node-centred levels as
        # A -> A, t -> 2 t
        a, t = (np.eye(2), np.zeros(2)) if state is None else (state[0], 2.0 * state[1])
        phat0 = _pixel_to_hat(a, t, geometry)
        level_trace = LevelTrace(level, geometry.width, geometry.height, "affine-" + measure.lower())

        def callback(k, phat, f, g, step):
            # the trace's step column reads in border pixels
            level_trace.records.append(IterationRecord(k, f, f, 0.0, step))

        def minimize():
            return minimize_lbfgs(
                fun_grad,
                phat0,
                max_iters=cfg.max_iters_per_level,
                rel_tolerance=cfg.rel_tolerance,
                callback=callback,
            )

        name = "affine level %d (%dx%d, %s)" % (level, geometry.width, geometry.height, measure)
        result = _run_level(level_trace, minimize, name)
        return _hat_to_pixel(result.x, geometry), level_trace

    pyr_t = build_pyramid(template, cfg.max_levels)
    pyr_r = build_pyramid(reference, cfg.max_levels)
    (a, t), trace = _coarse_to_fine(pyr_t, pyr_r, solve_level)
    params = AffineParams(a[0, 0], a[0, 1], a[1, 0], a[1, 1], t[0], t[1])
    return params, trace
