"""Parametric affine registration baselines.

A six-parameter transform x' = A x + t (pixel coordinates) optimized by
multilevel quasi-Newton descent on any of the intensity distances.  The
optimization itself runs in a centred, half-extent-scaled parameter frame
so that rotations, shears and translations have comparable magnitudes; the
interface exposes plain pixel-frame parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import similarity
from .errors import ParameterError
from .grid import (
    DisplacementField,
    GridGeometry,
    ScalarImage,
    _check_normalized,
    _pixel_grid,
    _require_same_shape,
    build_pyramid,
    fill_nodata,
    warp_with_jacobian,
)
from .nonparametric import (
    IterationRecord,
    LevelTrace,
    RegistrationConfig,
    RegistrationTrace,
    _distance,
    _level_reference,
)
from .optimize import minimize_lbfgs

log = logging.getLogger(__name__)


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
    xs, ys = _pixel_grid(geometry)
    px, py = affine_apply(params, xs, ys)
    return DisplacementField(geometry, xs - px, ys - py)


# ---------------------------------------------------------------------------
# normalized parameter frame


def _frame(geometry: GridGeometry):
    cx = (geometry.width - 1) / 2.0
    cy = (geometry.height - 1) / 2.0
    sx = max(cx, 1.0)
    sy = max(cy, 1.0)
    return cx, cy, sx, sy


def _hat_to_pixel(phat: np.ndarray, geometry: GridGeometry):
    """(A, t) in pixel frame from the centred normalized parameters."""
    cx, cy, sx, sy = _frame(geometry)
    ah = phat[:4].reshape(2, 2)
    th = phat[4:]
    s = np.array([[sx, 0.0], [0.0, sy]])
    s_inv = np.array([[1.0 / sx, 0.0], [0.0, 1.0 / sy]])
    a = s @ ah @ s_inv
    c = np.array([cx, cy])
    t = c + s @ th - a @ c
    return a, t


def _pixel_to_hat(a: np.ndarray, t: np.ndarray, geometry: GridGeometry) -> np.ndarray:
    cx, cy, sx, sy = _frame(geometry)
    s = np.array([[sx, 0.0], [0.0, sy]])
    s_inv = np.array([[1.0 / sx, 0.0], [0.0, 1.0 / sy]])
    ah = s_inv @ a @ s
    c = np.array([cx, cy])
    th = s_inv @ (t + a @ c - c)
    return np.concatenate([ah.ravel(), th])


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
    if measure not in similarity.MEASURES:
        raise ParameterError("unknown measure %r" % measure)
    _require_same_shape(template.geometry, reference.geometry, "register_affine")
    _check_normalized(template, "template")
    _check_normalized(reference, "reference")
    cfg = config if config.measure == measure else replace(config, measure=measure)
    pyr_t = build_pyramid(template, cfg.max_levels)
    pyr_r = build_pyramid(reference, cfg.max_levels)
    n_levels = min(len(pyr_t), len(pyr_r))
    trace = RegistrationTrace()
    a = np.eye(2)
    t = np.zeros(2)
    for level in range(n_levels - 1, -1, -1):
        # gap-free template + clamped sampling keep the distance continuous
        # in the parameters (a masked sum would reward transforms that push
        # pixels out of the domain; SSD exploits that immediately)
        t_img = fill_nodata(pyr_t[level])
        r_level = _level_reference(pyr_r[level], cfg)
        geometry = t_img.geometry
        if level < n_levels - 1:
            # pixel transforms transfer across node-centred levels as
            # A -> A, t -> 2 t
            t = 2.0 * t
        phat0 = _pixel_to_hat(a, t, geometry)
        xs, ys = _pixel_grid(geometry)
        cx, cy, sx, sy = _frame(geometry)
        xhat = (xs - cx) / sx
        yhat = (ys - cy) / sy

        def fun_grad(phat):
            a_px, t_px = _hat_to_pixel(phat, geometry)
            px = a_px[0, 0] * xs + a_px[0, 1] * ys + t_px[0]
            py = a_px[1, 0] * xs + a_px[1, 1] * ys + t_px[1]
            u = DisplacementField(geometry, xs - px, ys - py)
            warped, dtdx, dtdy = warp_with_jacobian(t_img, u)
            res = _distance(warped, r_level, cfg)
            wx = res.d_warped * dtdx
            wy = res.d_warped * dtdy
            grad = np.array(
                [
                    float(np.sum(wx * xhat)) * sx,
                    float(np.sum(wx * yhat)) * sx,
                    float(np.sum(wy * xhat)) * sy,
                    float(np.sum(wy * yhat)) * sy,
                    float(np.sum(wx)) * sx,
                    float(np.sum(wy)) * sy,
                ]
            )
            return res.value, grad

        level_trace = LevelTrace(
            level=level,
            width=geometry.width,
            height=geometry.height,
            solver="affine-" + measure.lower(),
        )

        def callback(k, phat, f, g, step):
            level_trace.records.append(IterationRecord(k, f, f, 0.0, step))

        result = minimize_lbfgs(
            fun_grad,
            phat0,
            max_iters=cfg.max_iters_per_level,
            rel_tolerance=cfg.rel_tolerance,
            callback=callback,
        )
        level_trace.converged = result.converged
        level_trace.evaluations = result.n_evals
        trace.levels.append(level_trace)
        a, t = _hat_to_pixel(result.x, geometry)
        if level_trace.iterations == 0:
            log.warning(
                "affine level %d (%dx%d, %s) stopped at iteration 0: the transform did not move",
                level, geometry.width, geometry.height, measure,
            )
        log.info(
            "affine level %d (%dx%d, %s): %d iterations, D=%.6e",
            level,
            geometry.width,
            geometry.height,
            measure,
            level_trace.iterations,
            result.fun,
        )
    params = AffineParams(a[0, 0], a[0, 1], a[1, 0], a[1, 1], t[0], t[1])
    return params, trace
