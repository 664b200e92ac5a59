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


def _joint_mask(template_w: ScalarImage, reference: ScalarImage) -> np.ndarray | None:
    """The joint valid mask, or None when neither image has nodata: then
    the mask is all true, and leaving it out of the products changes no
    value."""
    _require_same_shape(template_w.geometry, reference.geometry, "similarity")
    if template_w.nodata is None and reference.nodata is None:
        return None
    return template_w.valid_mask & reference.valid_mask


def _zero_outside(m: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    return values if m is None else np.where(m, values, 0.0)


def ssd(template_w: ScalarImage, reference: ScalarImage) -> SimilarityResult:
    """Sum of squared differences, 0.5 * sum((T - R)^2) over valid pixels."""
    m = _joint_mask(template_w, reference)
    diff = _zero_outside(m, template_w.values - reference.values)
    value = 0.5 * float(np.sum(diff * diff))
    return SimilarityResult(value, diff)


def ncc(template_w: ScalarImage, reference: ScalarImage) -> SimilarityResult:
    """1 - (Pearson correlation)^2 over the joint valid mask.

    Invariant under affine intensity rescaling of either input; constant
    images have no defined correlation and are rejected.
    """
    m = _joint_mask(template_w, reference)
    n = float(template_w.values.size if m is None else np.count_nonzero(m))
    if n < 2:
        raise DegenerateImageError("correlation needs at least two valid pixels")
    t_mean = float(np.sum(_zero_outside(m, template_w.values))) / n
    r_mean = float(np.sum(_zero_outside(m, reference.values))) / n
    a = _zero_outside(m, template_w.values - t_mean)
    b = _zero_outside(m, reference.values - r_mean)
    a_norm = float(np.sqrt(np.sum(a * a)))
    b_norm = float(np.sqrt(np.sum(b * b)))
    if a_norm < 1e-12 or b_norm < 1e-12:
        raise DegenerateImageError("constant image: correlation undefined")
    rho = float(np.sum(a * b)) / (a_norm * b_norm)
    d_rho = _zero_outside(m, b / (a_norm * b_norm) - (rho / a_norm**2) * a)
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
    if not (math.isfinite(parzen_sigma) and parzen_sigma > 0.0):
        raise ParameterError("parzen_sigma must be finite and positive")
    # a pixel's nearest tap can sit half a bin from it; where even that
    # weight underflows, windows normalize to 0/0
    if math.exp(-0.125 / parzen_sigma**2) == 0.0:
        raise ParameterError(
            "parzen_sigma %g is so small that the Parzen window underflows; "
            "use a value >= 0.013" % parzen_sigma
        )


def _bin_coordinates(values: np.ndarray, bins: int) -> np.ndarray:
    return np.clip(values, 0.0, 1.0) * (bins - 1)


def _parzen_radius(sigma: float, bins: int) -> int:
    """Truncation radius R of the Parzen window in bins: 5 sigma, but never
    wider than the histogram, whose bins all lie within bins - 1 of a pixel."""
    return min(int(np.ceil(5.0 * sigma)), bins - 1)


def _parzen_weights(c: np.ndarray, bins: int, sigma: float):
    """Per-pixel window weights over histogram bins, in band form.

    ``c`` holds continuous bin coordinates in [0, bins-1].  Pixel i spreads
    over the 2R+1 bins ``start[i] - R + a`` (R = :func:`_parzen_radius`, a
    the row index), i.e. over columns ``start[i] + a`` of a histogram padded
    by R bins on either side.  Returns (start, weights, d_weights_dc);
    weights are normalized to sum to 1 for every pixel, taps beyond the
    truncation radius or outside the histogram carry zero weight.
    """
    radius = _parzen_radius(sigma, bins)
    taps = 2 * radius + 1
    base = np.ceil(c - radius)
    # the tap distances j - c: base - c lies in [-R, -R + 1), so adding the
    # integer offsets rounds nothing
    dist = (base - c) + np.arange(taps, dtype=np.float64)[:, None]
    w = np.square(dist)
    w *= -0.5 / sigma**2
    np.exp(w, out=w)
    # of all taps only the last, at [R, R + 1), can lie beyond the radius
    np.copyto(w[-1], 0.0, where=dist[-1] > radius)
    if base.min() < 0 or base.max() > bins - taps:
        # taps outside the histogram, of pixels within R bins of either end
        edge = np.flatnonzero((base < 0) | (base > bins - taps))
        j = base[edge] + np.arange(taps)[:, None]
        w[:, edge] *= (j >= 0) & (j <= bins - 1)
    w /= np.add.reduce(w, axis=0)
    mu = np.einsum("ij,ij->j", w, dist)
    dist -= mu
    dist *= w
    dist *= 1.0 / sigma**2
    return base.astype(np.int64) + radius, w, dist


def _windows(block: np.ndarray, taps: int) -> np.ndarray:
    """A view of C-contiguous ``block`` whose row p is the run of ``taps``
    entries from flat position p: for a (rows, cols) block, row
    ``cols * k + s`` is the window at columns s:s + taps of row k."""
    step = block.itemsize
    return np.ndarray((block.size - taps + 1, taps), block.dtype, block, 0, (step, step))


@dataclass(frozen=True)
class ParzenBand:
    """Parzen windows of an image's valid pixels, built once per pyramid
    level.

    Pixels are sorted by their first bin, so a chunk of consecutive pixels
    touches only a few bins: entry k is the pixel at flat position
    ``index[k]`` of the image.  Per chunk of MI_CHUNK entries, ``chunks``
    holds ``(lo, hi, first, block)``: the windows of entries lo:hi (see
    :func:`_parzen_weights`) scattered into a dense, read-only
    (pixels x bins) block over padded columns ``first:first + block.shape[1]``.
    """

    bins: int
    sigma: float
    index: np.ndarray
    chunks: tuple

    @classmethod
    def build(cls, image: ScalarImage, bins: int, sigma: float):
        index = np.flatnonzero(image.valid_mask)
        r = _bin_coordinates(image.values.ravel()[index], bins)
        radius = _parzen_radius(sigma, bins)
        order = np.argsort(np.ceil(r - radius), kind="stable")
        index, r = index[order], r[order]
        index.flags.writeable = False
        taps = 2 * radius + 1
        chunks = []
        for lo in range(0, r.size, MI_CHUNK):
            start, weights, _ = _parzen_weights(r[lo : lo + MI_CHUNK], bins, sigma)
            rows = start.size
            first = int(start[0])
            cols = int(start[-1]) - first + taps
            block = np.zeros((rows, cols))
            _windows(block, taps)[cols * np.arange(rows) + (start - first)] = weights.T
            block.flags.writeable = False
            chunks.append((lo, lo + rows, first, block))
        return cls(bins, sigma, index, tuple(chunks))


def _band_mi(t: np.ndarray, band: ParzenBand, keep: np.ndarray | None):
    """-MI of template bin coordinates ``t`` (in ``band`` order) against the
    reference band, and its derivative with respect to ``t``.  ``keep``
    (None: all) marks the entries that count; the others, the template's
    gaps, get zero windows and a zero derivative.  A gap's window sits at
    a kept entry's bin of its chunk, so it does not widen the chunk's
    template block.

    Per chunk, the template windows are scattered into a dense block T,
    only as wide as the chunk's template bins span, and the joint
    histogram gathers T^T R.  With L the log-ratio of the joint to its
    marginals (0 where the joint is 0), the derivative is the template
    window derivative contracted with G = R L^T at the template's bins;
    the terms of the marginals cancel because every window sums to 1.
    """
    bins, sigma = band.bins, band.sigma
    radius = _parzen_radius(sigma, bins)
    taps = 2 * radius + 1
    width = bins + 2 * radius
    inner = slice(radius, radius + bins)
    n = t.size if keep is None else int(np.count_nonzero(keep))
    if n == 0:
        raise DegenerateImageError("no overlapping valid pixels")
    t_chunks = []  # per chunk: T's first column and width, window slots, window derivative
    scratch = np.empty(MI_CHUNK * width)  # T per chunk, then G per chunk
    joint = np.zeros((width, width))
    for lo, hi, first, r_block in band.chunks:
        tc = t[lo:hi]
        if keep is not None:
            k = keep[lo:hi]
            tc = np.where(k, tc, tc[np.argmax(k)])
        start, w, dw = _parzen_weights(tc, bins, sigma)
        if keep is not None:
            w *= k
        t_first = int(start.min())
        span = int(start.max()) - t_first + taps
        t_rows = scratch[: (hi - lo) * span].reshape(hi - lo, span)
        t_rows.fill(0.0)
        slots = span * np.arange(hi - lo) + (start - t_first)  # see _windows
        _windows(t_rows, taps)[slots] = w.T
        joint[t_first : t_first + span, first : first + r_block.shape[1]] += t_rows.T @ r_block
        t_chunks.append((t_first, span, slots, dw))

    joint = joint[inner, inner] / n
    pos = joint > 0.0
    ratio = np.log(joint[pos] / np.outer(joint.sum(axis=1), joint.sum(axis=0))[pos])
    value = -float(np.sum(joint[pos] * ratio))
    log_ratio = np.zeros((width, width))
    log_ratio[inner, inner][pos] = ratio

    grad = np.empty(t.size)
    for (lo, hi, first, r_block), (t_first, span, slots, dw) in zip(band.chunks, t_chunks):
        g = scratch[: (hi - lo) * span].reshape(hi - lo, span)
        ratio = log_ratio[t_first : t_first + span, first : first + r_block.shape[1]]
        np.matmul(r_block, ratio.T, out=g)
        grad[lo:hi] = np.einsum("ij,ji->j", dw, _windows(g, taps)[slots])
    grad *= -(bins - 1) / n
    return value, grad if keep is None else np.where(keep, grad, 0.0)


def mi(
    template_w: ScalarImage,
    reference: ScalarImage,
    bins: int = 64,
    parzen_sigma: float = 1.0,
) -> SimilarityResult:
    """Negative mutual information of the joint intensity histogram.

    Intensities in [0, 1] map to continuous bin coordinate v * (bins - 1);
    each pixel spreads over nearby bins through a truncated Gaussian window
    (sigma in bins) whose weights are normalized per pixel.
    """
    return evaluate("MI", template_w, reference, mi_bins=bins, mi_parzen_sigma=parzen_sigma)


def _mi(template_w, reference, bins, band):
    """:func:`mi` with the reference side built by :func:`level_reference`,
    which checked the parameters and the reference.  Its band holds the
    reference's valid pixels, of which a template with gaps keeps those
    of the joint mask."""
    _check_normalized(template_w, "template")
    _require_same_shape(template_w.geometry, reference.geometry, "similarity")
    keep = None if template_w.nodata is None else ~template_w.nodata.ravel()[band.index]
    # one gather of the template in band order, one scatter of the derivative
    t = _bin_coordinates(template_w.values.ravel()[band.index], bins)
    value, grad = _band_mi(t, band, keep)
    d_warped = np.zeros(template_w.geometry.shape)
    d_warped.ravel()[band.index] = grad
    return SimilarityResult(value, d_warped)


# ---------------------------------------------------------------------------
# normalized gradient fields


def _ngf_parts(image: ScalarImage, eta: float):
    # gradients in intensity-per-pixel units, not per metre: eta then keeps
    # one meaning across pyramid levels (coarsening grows the spacing, and
    # per-metre gradients would sink below any fixed noise floor)
    # a square that underflows to 0 drops the floor: 0 / 0 on flat patches
    if not (eta > 0.0 and 0.0 < eta * eta < math.inf):
        raise ParameterError("eta must be finite and positive, and so must its square")
    gx = gradient_axis(image.values, 1)
    gy = gradient_axis(image.values, 0)
    scale = np.sqrt(gx * gx + gy * gy + eta * eta)
    return scale, gx / scale, gy / scale


def ngf_field(image: ScalarImage, eta: float) -> NgfField:
    """Gradient direction field with the eta noise floor."""
    _, n_x, n_y = _ngf_parts(image, eta)
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
    return evaluate("NGF", template_w, reference, eta=eta)


def _ngf(template_w, reference, eta, field):
    """:func:`ngf` with the reference's field built by :func:`level_reference`."""
    m = _joint_mask(template_w, reference)
    mf = None if m is None else m.astype(np.float64)
    scale_t, nt_x, nt_y = _ngf_parts(template_w, eta)
    nr_x, nr_y = field.n_x, field.n_y
    rho = nt_x * nr_x + nt_y * nr_y
    rho2 = rho * rho if mf is None else mf * rho * rho
    value = float(rho.size - np.sum(rho2))
    # d value / d grad(T) = -2 rho (n_R - rho n_T) / scale_T, pulled back
    # through the exact adjoint of the gradient stencils.
    coeff = -2.0 * rho if mf is None else mf * (-2.0 * rho)
    coeff /= scale_t
    w_x = coeff * (nr_x - rho * nt_x)
    w_y = coeff * (nr_y - rho * nt_y)
    d_warped = gradient_axis_adjoint(w_x, 1) + gradient_axis_adjoint(w_y, 0)
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
    evaluation: for MI the checked parameters and the Parzen band of the
    reference's valid pixels, with their flat indices in band order; for
    NGF the gradient direction field.  :func:`evaluate` builds one for a
    plain reference image, so this is the one place that checks and
    builds the reference side."""
    if measure not in MEASURES:
        raise ParameterError("unknown measure %r" % measure)
    band = field = None
    if measure == "MI":
        check_mi_parameters(mi_bins, mi_parzen_sigma)
        _check_normalized(reference, "reference")
        band = ParzenBand.build(reference, mi_bins, mi_parzen_sigma)
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

    ``reference`` is a :class:`LevelReference` built for the same measure
    and parameters, or an image, for which one is built here.
    """
    parameters = (measure, eta, mi_bins, mi_parzen_sigma)
    if not isinstance(reference, LevelReference):
        reference = level_reference(reference, *parameters)
    elif reference.parameters != parameters:
        raise ParameterError("reference was built for other measure parameters")
    image = reference.image
    if measure == "SSD":
        return ssd(template_w, image)
    if measure == "NCC":
        return ncc(template_w, image)
    if measure == "MI":
        return _mi(template_w, image, mi_bins, reference.mi_band)
    return _ngf(template_w, image, eta, reference.ngf_field)
