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

import math
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

# pixels per block of the MI band products: enough rows for BLAS, few enough
# that a block and its temporaries stay in cache
MI_CHUNK = 1024


def check_mi_parameters(bins, parzen_sigma):
    """Reject histogram settings MI cannot use."""
    if not isinstance(bins, (int, np.integer)) or bins < 8:
        raise ParameterError("mi needs an integer number of bins >= 8")
    if not (math.isfinite(parzen_sigma) and parzen_sigma >= 0.0):
        raise ParameterError("parzen_sigma must be finite and >= 0")
    # a pixel's nearest tap can sit half a bin from it; where even that
    # weight underflows, windows normalize to 0/0
    if parzen_sigma > 0.0 and math.exp(-0.125 / parzen_sigma**2) == 0.0:
        raise ParameterError(
            "parzen_sigma %g is so small that the Parzen window underflows; "
            "use 0 (nearest bin) or a value >= 0.013" % parzen_sigma
        )


def _bin_coordinates(values: np.ndarray, bins: int) -> np.ndarray:
    return np.clip(values, 0.0, 1.0) * (bins - 1)


def _parzen_weights(c: np.ndarray, bins: int, sigma: float):
    """Per-pixel window weights over histogram bins, in band form.

    ``c`` holds continuous bin coordinates in [0, bins-1].  Pixel i spreads
    over the 2R+1 bins ``start[i] - R + a`` (R = ceil(5 sigma), a the row
    index), i.e. over columns ``start[i] + a`` of a histogram padded by R
    bins on either side.  Returns (start, weights, d_weights_dc); weights
    are normalized to sum to 1 for every pixel, taps beyond the truncation
    radius or outside the histogram carry zero weight.
    """
    radius = int(np.ceil(5.0 * sigma))
    base = np.ceil(c - radius)
    offsets = np.arange(2 * radius + 1, dtype=np.float64)
    j = base[None, :] + offsets[:, None]
    dist = j - c[None, :]
    inside = (np.abs(dist) <= radius) & (j >= 0) & (j <= bins - 1)
    w = np.where(inside, np.exp(-0.5 * (dist / sigma) ** 2), 0.0)
    total = np.sum(w, axis=0)
    w_hat = w / total[None, :]
    mu = np.sum(w_hat * dist, axis=0)
    dw_hat = w_hat * (dist - mu[None, :]) / sigma**2
    return base.astype(np.int64) + radius, w_hat, dw_hat


@dataclass(frozen=True)
class ParzenBand:
    """Parzen windows of the reference pixels of a mask, built once per
    pyramid level.

    Pixels are sorted by their first bin, so a chunk of consecutive pixels
    touches only a few bins: entry k is pixel ``order[k]`` of
    ``values[mask]``, with ``start[k]`` and column k of ``weights`` as
    returned by :func:`_parzen_weights`.
    """

    bins: int
    sigma: float
    order: np.ndarray
    start: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, image: ScalarImage, mask: np.ndarray, bins: int, sigma: float):
        r = _bin_coordinates(image.values[mask], bins)
        radius = int(np.ceil(5.0 * sigma))
        order = np.argsort(np.ceil(r - radius), kind="stable")
        r = r[order]
        start = np.empty(r.size, dtype=np.int64)
        weights = np.empty((2 * radius + 1, r.size))
        for lo in range(0, r.size, MI_CHUNK):
            hi = lo + MI_CHUNK
            start[lo:hi], weights[:, lo:hi], _ = _parzen_weights(r[lo:hi], bins, sigma)
        return cls(bins, sigma, order, start, weights)

    def blocks(self, buffer: np.ndarray):
        """Per chunk of MI_CHUNK pixels: ``(lo, hi, first, block)``, the
        chunk's weights scattered into a dense (pixels x bins) block over
        padded columns ``first:first + block.shape[1]``.  Blocks live in
        ``buffer`` and are valid until the next one."""
        taps = self.weights.shape[0]
        offsets = np.arange(taps)[:, None]
        for lo in range(0, self.start.size, MI_CHUNK):
            start = self.start[lo : lo + MI_CHUNK]
            rows = start.size
            first = int(start[0])
            cols = int(start[-1]) - first + taps
            block = buffer[: rows * cols]
            block.fill(0.0)
            block[offsets + (cols * np.arange(rows) + start - first)] = self.weights[:, lo : lo + rows]
            yield lo, lo + rows, first, block.reshape(rows, cols)


def _band_mi(t: np.ndarray, band: ParzenBand):
    """-MI of template bin coordinates ``t`` (in ``band`` order) against the
    reference band, and its derivative with respect to ``t``.

    Per chunk, the template windows are scattered into a dense block T and
    the joint histogram gathers T^T R.  With L the log-ratio of the joint
    to its marginals, the derivative is the template window derivative
    contracted with G = R L^T at the template's bins; the terms of the
    marginals cancel because every window sums to 1.
    """
    bins, sigma = band.bins, band.sigma
    taps = band.weights.shape[0]
    radius = (taps - 1) // 2
    width = bins + 2 * radius
    inner = slice(radius, radius + bins)
    n = t.size
    lanes = np.arange(taps)[:, None] + width * np.arange(MI_CHUNK)
    t_start = np.empty(n, dtype=np.int64)
    t_dw = np.empty((taps, n))
    scratch = np.empty((MI_CHUNK, width))  # T per chunk, then G per chunk
    buffer = np.empty(MI_CHUNK * width)
    joint = np.zeros((width, width))
    for lo, hi, first, r_block in band.blocks(buffer):
        rows = hi - lo
        t_start[lo:hi], w, t_dw[:, lo:hi] = _parzen_weights(t[lo:hi], bins, sigma)
        t_rows = scratch[:rows]
        t_rows.fill(0.0)
        t_rows.ravel()[lanes[:, :rows] + t_start[lo:hi]] = w
        joint[:, first : first + r_block.shape[1]] += t_rows.T @ r_block

    joint = joint[inner, inner] / n
    p_t = joint.sum(axis=1)
    p_r = joint.sum(axis=0)
    pos = joint > 0.0
    log_ratio = np.zeros((width, width))
    inner_ratio = log_ratio[inner, inner]
    inner_ratio[pos] = np.log(joint[pos] / np.outer(p_t, p_r)[pos])
    value = -float(np.sum(joint[pos] * inner_ratio[pos]))

    grad = np.empty(n)
    for lo, hi, first, r_block in band.blocks(buffer):
        rows = hi - lo
        g = scratch[:rows]
        np.matmul(r_block, log_ratio[:, first : first + r_block.shape[1]].T, out=g)
        picked = g.ravel()[lanes[:, :rows] + t_start[lo:hi]]
        grad[lo:hi] = np.sum(t_dw[:, lo:hi] * picked, axis=0)
    grad *= -(bins - 1) / n
    return value, grad


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
    return _mi(template_w, reference, bins, parzen_sigma, None)


def _mi(template_w, reference, bins, parzen_sigma, band):
    """:func:`mi`, optionally with the band of the reference's valid pixels
    built beforehand; it serves while the template has no gaps, otherwise
    the band is rebuilt over the joint mask."""
    check_mi_parameters(bins, parzen_sigma)
    _check_normalized(template_w, "template")
    if band is None:
        _check_normalized(reference, "reference")
    m = _joint_mask(template_w, reference)
    n = int(np.sum(m))
    if n == 0:
        raise DegenerateImageError("no overlapping valid pixels")
    t = _bin_coordinates(template_w.values[m], bins)

    if parzen_sigma == 0.0:
        r = _bin_coordinates(reference.values[m], bins)
        jt = np.rint(t).astype(np.int64)
        jr = np.rint(r).astype(np.int64)
        joint = np.bincount(jt * bins + jr, minlength=bins * bins).astype(np.float64)
        joint = joint.reshape(bins, bins) / n
        value = -_histogram_mi(joint)
        return SimilarityResult(value, np.zeros(template_w.geometry.shape))

    if band is None or template_w.nodata is not None:
        band = ParzenBand.build(reference, m, bins, parzen_sigma)
    value, grad = _band_mi(t[band.order], band)
    grad_valid = np.empty(n)
    grad_valid[band.order] = grad
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
    return _ngf(template_w, reference, eta, None)


def _ngf(template_w, reference, eta, field):
    """:func:`ngf`, optionally with the reference's field built beforehand."""
    m = _joint_mask(template_w, reference)
    mf = m.astype(np.float64)
    _, _, scale_t, nt_x, nt_y = _ngf_parts(template_w, eta)
    if field is None:
        field = ngf_field(reference, eta)
    nr_x, nr_y = field.n_x, field.n_y
    rho = nt_x * nr_x + nt_y * nr_y
    value = float(rho.size - np.sum(mf * rho * rho))
    # d value / d grad(T) = -2 rho (n_R - rho n_T) / scale_T, pulled back
    # through the exact adjoint of the gradient stencils.
    coeff = mf * (-2.0 * rho) / scale_t
    w_x = coeff * (nr_x - rho * nt_x)
    w_y = coeff * (nr_y - rho * nt_y)
    d_warped = gradient_axis_adjoint(w_x, 1, 1.0) + gradient_axis_adjoint(w_y, 0, 1.0)
    return SimilarityResult(value, d_warped)


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class LevelReference:
    """A reference image with the reference-side data of one measure, built
    once per pyramid level by :func:`level_reference` and passed to
    :func:`evaluate` in place of the image."""

    image: ScalarImage
    parameters: tuple  # (measure, eta, mi_bins, mi_parzen_sigma) it was built for
    mi_band: ParzenBand | None = None
    ngf_field: NgfField | None = None


def level_reference(
    reference: ScalarImage,
    measure: str,
    eta: float = 0.1,
    mi_bins: int = 64,
    mi_parzen_sigma: float = 1.0,
) -> LevelReference:
    """Build what ``measure`` needs of the reference before the first
    evaluation: the Parzen band of its valid pixels for MI, the gradient
    direction field for NGF."""
    if measure not in MEASURES:
        raise ParameterError("unknown measure %r" % measure)
    band = field = None
    if measure == "MI":
        check_mi_parameters(mi_bins, mi_parzen_sigma)
        _check_normalized(reference, "reference")
        if mi_parzen_sigma > 0.0:
            band = ParzenBand.build(reference, reference.valid_mask, mi_bins, mi_parzen_sigma)
    elif measure == "NGF":
        field = ngf_field(reference, eta)
    return LevelReference(reference, (measure, eta, mi_bins, mi_parzen_sigma), band, field)


def evaluate(
    measure: str,
    template_w: ScalarImage,
    reference: ScalarImage | LevelReference,
    eta: float = 0.1,
    mi_bins: int = 64,
    mi_parzen_sigma: float = 1.0,
) -> SimilarityResult:
    """Dispatch a measure by name (SSD / NCC / MI / NGF).

    ``reference`` is an image or a :class:`LevelReference` built for the
    same measure and parameters.
    """
    band = field = None
    if isinstance(reference, LevelReference):
        if reference.parameters != (measure, eta, mi_bins, mi_parzen_sigma):
            raise ParameterError("reference was built for other measure parameters")
        band, field, reference = reference.mi_band, reference.ngf_field, reference.image
    if measure == "SSD":
        return ssd(template_w, reference)
    if measure == "NCC":
        return ncc(template_w, reference)
    if measure == "MI":
        return _mi(template_w, reference, mi_bins, mi_parzen_sigma, band)
    if measure == "NGF":
        return _ngf(template_w, reference, eta, field)
    raise ParameterError("unknown measure %r" % measure)
