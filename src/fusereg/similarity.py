"""Distance measures between a warped template and a reference image.

Every measure returns the scalar distance together with its exact
derivative with respect to the warped template intensities, one entry per
pixel.  Pixels outside the joint valid mask contribute nothing and carry a
zero derivative; the registration objective chains these derivatives
through the warp.

All measures are distances: smaller is better, and the self-distance
TW == R attains the minimum (0 for SSD/NCC, the eta floor for NGF, minus
the self-information for MI).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateImageError, ParameterError
from .grid import (
    ScalarImage,
    _check_normalized,
    _require_same_shape,
    gradient_axis,
    gradient_axis_adjoint,
)

MEASURES = ("SSD", "NCC", "MI", "NGF")


@dataclass
class SimilarityResult:
    """Distance value and its per-pixel derivative wrt the warped template."""

    value: float
    d_warped: np.ndarray


@dataclass
class NgfField:
    """Regularized unit gradient field n = grad(I) / sqrt(|grad I|^2 + eta^2)."""

    n_x: np.ndarray
    n_y: np.ndarray


def _joint_mask(template_w: ScalarImage, reference: ScalarImage) -> np.ndarray:
    _require_same_shape(template_w.geometry, reference.geometry, "similarity")
    return template_w.valid_mask & reference.valid_mask


def ssd(template_w: ScalarImage, reference: ScalarImage) -> SimilarityResult:
    """Sum of squared differences, 0.5 * sum((T - R)^2) over valid pixels."""
    m = _joint_mask(template_w, reference)
    diff = np.where(m, template_w.values - reference.values, 0.0)
    value = 0.5 * float(np.sum(diff * diff))
    return SimilarityResult(value, diff)


def ncc(template_w: ScalarImage, reference: ScalarImage) -> SimilarityResult:
    """1 - (Pearson correlation)^2 over the joint valid mask.

    Invariant under affine intensity rescaling of either input; constant
    images have no defined correlation and are rejected.
    """
    m = _joint_mask(template_w, reference)
    mf = m.astype(np.float64)
    n = float(np.sum(mf))
    if n < 2:
        raise DegenerateImageError("correlation needs at least two valid pixels")
    t_mean = float(np.sum(template_w.values * mf)) / n
    r_mean = float(np.sum(reference.values * mf)) / n
    a = np.where(m, template_w.values - t_mean, 0.0)
    b = np.where(m, reference.values - r_mean, 0.0)
    a_norm = float(np.sqrt(np.sum(a * a)))
    b_norm = float(np.sqrt(np.sum(b * b)))
    if a_norm < 1e-12 or b_norm < 1e-12:
        raise DegenerateImageError("constant image: correlation undefined")
    rho = float(np.sum(a * b)) / (a_norm * b_norm)
    d_rho = (b / (a_norm * b_norm) - (rho / a_norm**2) * a) * mf
    return SimilarityResult(1.0 - rho * rho, -2.0 * rho * d_rho)


# ---------------------------------------------------------------------------
# mutual information


def _parzen_weights(c: np.ndarray, bins: int, sigma: float):
    """Per-pixel window weights over histogram bins.

    ``c`` holds continuous bin coordinates in [0, bins-1].  Returns
    (indices, weights, d_weights_dc) with one row per window tap; weights
    are normalized to sum to 1 for every pixel, taps beyond the truncation
    radius or outside the histogram carry zero weight.
    """
    radius = int(np.ceil(5.0 * sigma))
    base = np.ceil(c - radius)
    offsets = np.arange(2 * radius + 2, dtype=np.float64)
    j = base[None, :] + offsets[:, None]
    dist = j - c[None, :]
    inside = (np.abs(dist) <= radius) & (j >= 0) & (j <= bins - 1)
    w = np.where(inside, np.exp(-0.5 * (dist / sigma) ** 2), 0.0)
    total = np.sum(w, axis=0)
    w_hat = w / total[None, :]
    mu = np.sum(w_hat * dist, axis=0)
    dw_hat = w_hat * (dist - mu[None, :]) / sigma**2
    idx = np.clip(j, 0, bins - 1).astype(np.int64)
    return idx, w_hat, dw_hat


def mi(
    template_w: ScalarImage,
    reference: ScalarImage,
    bins: int = 64,
    parzen_sigma: float = 1.0,
) -> SimilarityResult:
    """Negative mutual information of the joint intensity histogram.

    Intensities in [0, 1] map to continuous bin coordinate v * (bins - 1);
    each pixel spreads over nearby bins through a truncated Gaussian window
    (sigma in bins) whose weights are normalized per pixel.  With
    ``parzen_sigma = 0`` pixels are assigned to the nearest bin and the
    derivative is zero almost everywhere.
    """
    if bins < 8:
        raise ParameterError("mi needs at least 8 bins")
    if parzen_sigma < 0:
        raise ParameterError("parzen_sigma must be >= 0")
    _check_normalized(template_w, "template")
    _check_normalized(reference, "reference")
    m = _joint_mask(template_w, reference)
    n = int(np.sum(m))
    if n == 0:
        raise DegenerateImageError("no overlapping valid pixels")
    t = np.clip(template_w.values[m], 0.0, 1.0) * (bins - 1)
    r = np.clip(reference.values[m], 0.0, 1.0) * (bins - 1)

    if parzen_sigma == 0.0:
        jt = np.rint(t).astype(np.int64)
        jr = np.rint(r).astype(np.int64)
        joint = np.bincount(jt * bins + jr, minlength=bins * bins).astype(np.float64)
        joint = joint.reshape(bins, bins) / n
        value = -_histogram_mi(joint)
        return SimilarityResult(value, np.zeros(template_w.geometry.shape))

    idx_t, w_t, dw_t = _parzen_weights(t, bins, parzen_sigma)
    idx_r, w_r, _ = _parzen_weights(r, bins, parzen_sigma)
    taps = idx_t.shape[0]
    joint = np.zeros(bins * bins)
    for a in range(taps):
        wa = w_t[a]
        if not wa.any():
            continue
        for b in range(taps):
            wb = w_r[b]
            contrib = wa * wb
            if not contrib.any():
                continue
            joint += np.bincount(idx_t[a] * bins + idx_r[b], weights=contrib, minlength=bins * bins)
    joint = joint.reshape(bins, bins) / n
    p_t = joint.sum(axis=1)
    p_r = joint.sum(axis=0)
    pos = joint > 0.0
    log_ratio = np.zeros_like(joint)
    log_ratio[pos] = np.log(joint[pos] / np.outer(p_t, p_r)[pos])
    value = -float(np.sum(joint[pos] * log_ratio[pos]))

    # d(-MI)/dt_i: contract the joint-histogram sensitivity with the window
    # derivative of the template axis only (marginal-normalization terms
    # cancel because the per-pixel weights sum to 1).
    grad_valid = np.zeros(n)
    for a in range(taps):
        da = dw_t[a]
        if not da.any():
            continue
        h_a = np.zeros(n)
        for b in range(taps):
            wb = w_r[b]
            if not wb.any():
                continue
            h_a += log_ratio[idx_t[a], idx_r[b]] * wb
        grad_valid += da * h_a
    grad_valid *= -(bins - 1) / n
    d_warped = np.zeros(template_w.geometry.shape)
    d_warped[m] = grad_valid
    return SimilarityResult(value, d_warped)


def _histogram_mi(joint: np.ndarray) -> float:
    """Mutual information of a normalized joint histogram."""
    p_t = joint.sum(axis=1)
    p_r = joint.sum(axis=0)
    pos = joint > 0.0
    indep = np.outer(p_t, p_r)
    return float(np.sum(joint[pos] * np.log(joint[pos] / indep[pos])))


# ---------------------------------------------------------------------------
# normalized gradient fields


def _ngf_parts(image: ScalarImage, eta: float):
    # gradients in intensity-per-pixel units, not per metre: eta then keeps
    # one meaning across pyramid levels (coarsening grows the spacing, and
    # per-metre gradients would sink below any fixed noise floor)
    if eta <= 0.0:
        raise ParameterError("eta must be positive")
    gx = gradient_axis(image.values, 1, 1.0)
    gy = gradient_axis(image.values, 0, 1.0)
    scale = np.sqrt(gx * gx + gy * gy + eta * eta)
    return gx, gy, scale, gx / scale, gy / scale


def ngf_field(image: ScalarImage, eta: float) -> NgfField:
    """Gradient direction field with the eta noise floor."""
    _, _, _, n_x, n_y = _ngf_parts(image, eta)
    return NgfField(n_x, n_y)


def ngf(template_w: ScalarImage, reference: ScalarImage, eta: float) -> SimilarityResult:
    """Normalized gradient field distance sum(1 - (n_T . n_R)^2).

    Every pixel of the grid contributes: valid pixels pay 1 - (n_T . n_R)^2,
    pixels outside the joint valid mask pay the full distance 1.  Charging
    invalid pixels the maximum keeps the measure honest under warps; a sum
    over the shrinking valid set would reward displacement fields for
    pushing content out of the domain (about 1 per evicted pixel, easily
    the dominant term).  The measure rewards parallel or anti-parallel
    image gradients regardless of intensity scale.
    """
    m = _joint_mask(template_w, reference)
    mf = m.astype(np.float64)
    _, _, scale_t, nt_x, nt_y = _ngf_parts(template_w, eta)
    _, _, _, nr_x, nr_y = _ngf_parts(reference, eta)
    rho = nt_x * nr_x + nt_y * nr_y
    value = float(rho.size - np.sum(mf * rho * rho))
    # d value / d grad(T) = -2 rho (n_R - rho n_T) / scale_T, pulled back
    # through the exact adjoint of the gradient stencils.
    coeff = mf * (-2.0 * rho) / scale_t
    w_x = coeff * (nr_x - rho * nt_x)
    w_y = coeff * (nr_y - rho * nt_y)
    d_warped = gradient_axis_adjoint(w_x, 1, 1.0) + gradient_axis_adjoint(w_y, 0, 1.0)
    return SimilarityResult(value, d_warped)


def evaluate(
    measure: str,
    template_w: ScalarImage,
    reference: ScalarImage,
    eta: float = 0.1,
    mi_bins: int = 64,
    mi_parzen_sigma: float = 1.0,
) -> SimilarityResult:
    """Dispatch a measure by name (SSD / NCC / MI / NGF)."""
    if measure == "SSD":
        return ssd(template_w, reference)
    if measure == "NCC":
        return ncc(template_w, reference)
    if measure == "MI":
        return mi(template_w, reference, bins=mi_bins, parzen_sigma=mi_parzen_sigma)
    if measure == "NGF":
        return ngf(template_w, reference, eta)
    raise ParameterError("unknown measure %r" % measure)
