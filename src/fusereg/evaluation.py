"""Synthetic-deformation experiments and registration quality metrics.

The harness builds a textured reference, deforms it by a known analytic
field, registers the pair and scores the estimate against the exact
recoverable field.  Note the direction subtlety: deforming the reference by
u_d produces a template whose correct registration field is the *inverse*
of u_d, not its negation; the inverse is computed to machine precision so
endpoint errors measure the solver, not the harness.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy import ndimage

from .affine import AffineParams, affine_to_displacement, register_affine
from .errors import FuseRegError, ParameterError
from .grid import (
    DisplacementField,
    GridGeometry,
    ScalarImage,
    _pixel_grid,
    _require_same_shape,
    normalize_intensity,
    warp,
)
from .nonparametric import RegistrationConfig, register_multilevel

DEFORMATION_KINDS = ("gaussian-bump", "sinusoid", "affine")
INVERSE_ITERATIONS = 60  # fixed-point sweeps of SyntheticDeformation.inverse


def synthetic_texture(geometry: GridGeometry, seed: int, smoothness: float = 3.0) -> ScalarImage:
    """Band-limited random texture in [0, 1] (seeded, reproducible)."""
    rng = np.random.default_rng(seed)
    noise = rng.uniform(size=geometry.shape)
    if smoothness > 0:
        noise = ndimage.gaussian_filter(noise, sigma=smoothness, mode="reflect")
    return normalize_intensity(ScalarImage(geometry, noise))


@dataclass
class SyntheticDeformation:
    """Analytic displacement field used to manufacture a template.

    kinds:
      gaussian-bump: radial-envelope push of ``amplitude`` pixels along a
        fixed unit direction, scale ``sigma``;
      sinusoid: phase-locked so the centre displacement norm equals the
        amplitude;
      affine: u = x - (A x + t) for the given parameters.
    """

    kind: str
    amplitude: float = 0.0
    sigma: float = 10.0
    direction: tuple = (0.6, 0.8)
    wavelength: float = 48.0
    params: AffineParams | None = None

    def __post_init__(self):
        if self.kind not in DEFORMATION_KINDS:
            raise ParameterError("unknown deformation kind %r" % self.kind)
        if self.kind == "affine":
            if self.params is None:
                raise ParameterError("affine deformation needs params")
        else:
            if self.amplitude <= 0:
                raise ParameterError("amplitude must be positive")
            d = self.direction
            if not (isinstance(d, (tuple, list, np.ndarray)) and len(d) == 2 and all(
                    isinstance(c, numbers.Real) and math.isfinite(c) for c in d)):
                raise ParameterError("direction must be two finite numbers")
            norm = float(np.hypot(*d))
            if norm < 1e-12:
                raise ParameterError("direction must be nonzero")
            self.direction = (d[0] / norm, d[1] / norm)
        if self.kind == "gaussian-bump" and self.sigma <= 0:
            raise ParameterError("sigma must be positive")
        if self.kind == "sinusoid" and self.wavelength <= 0:
            raise ParameterError("wavelength must be positive")

    def evaluate(self, x, y, geometry: GridGeometry):
        """Analytic (u_x, u_y) at arbitrary pixel coordinates."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        cx = (geometry.width - 1) / 2.0
        cy = (geometry.height - 1) / 2.0
        if self.kind == "gaussian-bump":
            env = self.amplitude * np.exp(
                -((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * self.sigma**2)
            )
            return env * self.direction[0], env * self.direction[1]
        if self.kind == "sinusoid":
            ux = self.amplitude * self.direction[0] * np.cos(
                2.0 * np.pi * (y - cy) / self.wavelength
            )
            uy = self.amplitude * self.direction[1] * np.cos(
                2.0 * np.pi * (x - cx) / self.wavelength
            )
            return ux, uy
        p = self.params
        px = p.a11 * x + p.a12 * y + p.t_x
        py = p.a21 * x + p.a22 * y + p.t_y
        return x - px, y - py

    def realized(self, geometry: GridGeometry) -> DisplacementField:
        """The field sampled on the grid (centre norm equals the amplitude
        for the non-affine kinds)."""
        return DisplacementField(geometry, self.evaluate(*_pixel_grid(geometry), geometry))

    def inverse(self, geometry: GridGeometry) -> DisplacementField:
        """Exact field u* with warp(warp(R, u_d), u*) == R.

        Solves u*(x) = -u_d(z), z = x + u_d(z) by fixed point (closed form
        for affine deformations).
        """
        grid = _pixel_grid(geometry)
        xs, ys = grid
        if self.kind == "affine":
            p = self.params
            a_inv = np.linalg.inv(p.matrix)
            zx = a_inv[0, 0] * (xs - p.t_x) + a_inv[0, 1] * (ys - p.t_y)
            zy = a_inv[1, 0] * (xs - p.t_x) + a_inv[1, 1] * (ys - p.t_y)
            return DisplacementField(geometry, (xs - zx, ys - zy))
        z = grid
        for _ in range(INVERSE_ITERATIONS):
            z = grid + self.evaluate(*z, geometry)
        return DisplacementField(geometry, np.negative(self.evaluate(*z, geometry)))


# ---------------------------------------------------------------------------
# metrics


@dataclass
class EpeStats:
    mean: float
    median: float
    p95: float
    max: float


def endpoint_error(
    u_est: DisplacementField, u_true: DisplacementField, margin: int | None = None
) -> tuple[EpeStats, np.ndarray]:
    """Per-pixel |u_est - u_true| plus summary statistics.

    Statistics exclude a boundary band (default: the true field's maximum
    norm rounded up plus one) where the deformation drags in pixels that
    have no data constraint; the same band applies to whatever method
    produced the estimate.
    """
    if u_est.geometry.shape != u_true.geometry.shape:
        raise ParameterError("fields live on different grids")
    dx, dy = u_est.values - u_true.values
    err = np.sqrt(dx**2 + dy**2)
    if margin is None:
        margin = int(np.ceil(u_true.max_norm())) + 1
    elif isinstance(margin, bool) or not isinstance(margin, (int, np.integer)) or margin < 0:
        raise ParameterError("margin must be an integer >= 0")
    h, w = err.shape
    if 2 * margin >= min(h, w):
        raise ParameterError("margin leaves no interior pixels")
    interior = err[margin : h - margin, margin : w - margin]
    stats = EpeStats(
        mean=float(np.mean(interior)),
        median=float(np.median(interior)),
        p95=float(np.percentile(interior, 95.0)),
        max=float(np.max(interior)),
    )
    return stats, err


def mean_abs_difference(a: ScalarImage, b: ScalarImage, mask: np.ndarray | None = None) -> float:
    """Mean |a - b| over the joint valid mask (optionally intersected)."""
    _require_same_shape(a.geometry, b.geometry, "mean_abs_difference")
    m = a.valid_mask & b.valid_mask
    if mask is not None:
        m = m & mask
    if not m.any():
        raise ParameterError("no valid pixels to compare")
    return float(np.mean(np.abs(a.values[m] - b.values[m])))


def registration_summary(template, reference, u, trace):
    """The registered template and the run summary that ``fusereg register``'s
    metrics file and :class:`MetricReport` share; the mean absolute differences
    cover the pixels valid in all three images."""
    registered = warp(template, u)
    shared = registered.valid_mask & template.valid_mask & reference.valid_mask
    finest = trace.levels[-1]
    return registered, {
        "final_objective": finest.records[-1].objective,
        "iterations": trace.total_iterations(),
        "converged": finest.converged,
        "mad_registered": mean_abs_difference(registered, reference, shared),
        "mad_unregistered": mean_abs_difference(template, reference, shared),
    }


def difference_map(a: ScalarImage, b: ScalarImage) -> ScalarImage:
    """|a - b| with the union of the nodata masks."""
    _require_same_shape(a.geometry, b.geometry, "difference_map")
    return ScalarImage(a.geometry, np.abs(a.values - b.values), ~(a.valid_mask & b.valid_mask))


def checkerboard(a: ScalarImage, b: ScalarImage, tiles: int = 8) -> ScalarImage:
    """Alternating blocks of the two images for visual alignment checks."""
    _require_same_shape(a.geometry, b.geometry, "checkerboard")
    if tiles < 1:
        raise ParameterError("tiles must be >= 1")
    h, w = a.geometry.shape
    xs, ys = _pixel_grid(a.geometry)
    cell_h = max(h // tiles, 1)
    cell_w = max(w // tiles, 1)
    take_a = ((ys // cell_h) + (xs // cell_w)) % 2 == 0
    vals = np.where(take_a, a.values, b.values)
    return ScalarImage(a.geometry, vals, np.where(take_a, ~a.valid_mask, ~b.valid_mask))


# ---------------------------------------------------------------------------
# experiment harness


@dataclass
class ExperimentScenario:
    """One synthetic registration run; ``config.measure`` names its measure."""

    name: str
    width: int
    height: int
    seed: int
    deformation: SyntheticDeformation
    method: str = "nonparametric"  # or "affine"
    config: RegistrationConfig = field(default_factory=RegistrationConfig)
    texture_smoothness: float = 3.0

    def __post_init__(self):
        if self.method not in ("nonparametric", "affine"):
            raise ParameterError("method must be 'nonparametric' or 'affine'")


@dataclass
class MetricReport:
    """Quality summary of one experiment.

    wall_time is informational only and never serialized, so stored
    artifacts stay byte-identical across machines and reruns.
    """

    name: str
    method: str
    measure: str
    epe_mean: float = float("nan")
    epe_median: float = float("nan")
    epe_p95: float = float("nan")
    epe_max: float = float("nan")
    mad_registered: float = float("nan")
    mad_unregistered: float = float("nan")
    final_objective: float = float("nan")
    iterations: int = 0
    converged: bool = False
    wall_time: float = 0.0
    failed: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["wall_time"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_experiment(scenario: ExperimentScenario):
    """Build the pair, register, score; returns (report, artifacts).

    Artifacts: reference, template, registered image, difference map,
    checkerboard, estimated field, true field.  A registration failure is
    converted into a failed-run report (error recorded, metrics NaN).
    """
    geometry = GridGeometry(width=scenario.width, height=scenario.height)
    reference = synthetic_texture(geometry, scenario.seed, scenario.texture_smoothness)
    u_d = scenario.deformation.realized(geometry)
    template = warp(reference, u_d)
    u_true = scenario.deformation.inverse(geometry)
    cfg = scenario.config
    report = MetricReport(name=scenario.name, method=scenario.method, measure=cfg.measure)
    t0 = time.perf_counter()
    try:
        if scenario.method == "affine":
            params, trace = register_affine(template, reference, cfg.measure, cfg)
            u_est = affine_to_displacement(params, geometry)
        else:
            u_est, trace = register_multilevel(template, reference, cfg)
    except FuseRegError as exc:
        report.wall_time = time.perf_counter() - t0
        report.failed = True
        report.error = "%s: %s" % (type(exc).__name__, exc)
        return report, {
            "reference": reference,
            "template": template,
            "truth": u_true,
        }
    report.wall_time = time.perf_counter() - t0
    registered, summary = registration_summary(template, reference, u_est, trace)
    epe, err_map = endpoint_error(u_est, u_true)
    report = replace(report, epe_mean=epe.mean, epe_median=epe.median, epe_p95=epe.p95,
                     epe_max=epe.max, **summary)
    artifacts = {
        "reference": reference,
        "template": template,
        "registered": registered,
        "difference": difference_map(registered, reference),
        "checkerboard": checkerboard(registered, reference),
        "field": u_est,
        "truth": u_true,
        "error_map": err_map,
        "trace": trace,
    }
    return report, artifacts
