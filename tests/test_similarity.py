"""Distance measures: values against independent oracles, derivatives against
finite differences."""

import collections
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fusereg import similarity
from fusereg.errors import DegenerateImageError, IntensityRangeError, ParameterError
from fusereg.grid import GridGeometry, ScalarImage
from fusereg.nonparametric import RegistrationConfig
from fusereg.similarity import (
    MEASURES,
    _parzen_weights,
    evaluate,
    level_reference,
    mi,
    ncc,
    ngf,
    ngf_field,
    ssd,
)

from conftest import random_image


def directional_fd(fun, image, direction, h=1e-6):
    """Central difference of fun along one intensity perturbation."""
    up = image.with_values(image.values + h * direction)
    dn = image.with_values(image.values - h * direction)
    return (fun(up) - fun(dn)) / (2.0 * h)


# ---------------------------------------------------------------------------
# SSD


def test_ssd_self_distance_is_zero(geom16, rng):
    img = random_image(geom16, rng)
    res = ssd(img, img)
    assert res.value == 0.0
    np.testing.assert_array_equal(res.d_warped, 0.0)


def test_ssd_matches_direct_sum(geom16, rng):
    t = random_image(geom16, rng)
    r = random_image(geom16, rng)
    res = ssd(t, r)
    assert res.value == pytest.approx(0.5 * np.sum((t.values - r.values) ** 2), rel=1e-12)
    np.testing.assert_allclose(res.d_warped, t.values - r.values, atol=1e-12)


def test_ssd_offset_constant():
    g = GridGeometry(8, 8)
    t = ScalarImage(g, np.full(g.shape, 2.0))
    r = ScalarImage(g, np.full(g.shape, 1.0))
    assert ssd(t, r).value == pytest.approx(0.5 * 64)


def test_ssd_ignores_masked_pixels(geom16, rng):
    t = random_image(geom16, rng)
    r = random_image(geom16, rng)
    mask = np.zeros(geom16.shape, bool)
    mask[0:4, 0:4] = True
    tm = ScalarImage(geom16, t.values, mask)
    res = ssd(tm, r)
    want = 0.5 * np.sum((tm.values[~mask] - r.values[~mask]) ** 2)
    assert res.value == pytest.approx(want, rel=1e-12)
    np.testing.assert_array_equal(res.d_warped[mask], 0.0)


def test_ssd_derivative_fd(geom16, rng):
    t = random_image(geom16, rng)
    r = random_image(geom16, rng)
    d = rng.normal(size=geom16.shape)
    res = ssd(t, r)
    fd = directional_fd(lambda im: ssd(im, r).value, t, d)
    assert np.sum(res.d_warped * d) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# NCC


def test_ncc_self_distance_is_zero(geom16, rng):
    img = random_image(geom16, rng)
    assert ncc(img, img).value == pytest.approx(0.0, abs=1e-12)


def test_ncc_affine_intensity_invariance(geom16, rng):
    t = random_image(geom16, rng)
    r = random_image(geom16, rng)
    base = ncc(t, r).value
    scaled = ncc(t.with_values(3.0 * t.values - 2.0), r).value
    assert scaled == pytest.approx(base, rel=1e-10)
    flipped = ncc(t.with_values(-t.values), r).value  # squared correlation
    assert flipped == pytest.approx(base, rel=1e-10)


def test_ncc_matches_corrcoef(geom16, rng):
    t = random_image(geom16, rng)
    r = random_image(geom16, rng)
    rho = np.corrcoef(t.values.ravel(), r.values.ravel())[0, 1]
    assert ncc(t, r).value == pytest.approx(1.0 - rho * rho, rel=1e-10)


def test_ncc_derivative_fd(geom16, rng):
    t = random_image(geom16, rng)
    r = random_image(geom16, rng)
    d = rng.normal(size=geom16.shape)
    res = ncc(t, r)
    fd = directional_fd(lambda im: ncc(im, r).value, t, d)
    assert np.sum(res.d_warped * d) == pytest.approx(fd, rel=1e-5)


def test_ncc_rejects_constant_image(geom16, rng):
    r = random_image(geom16, rng)
    flat = ScalarImage(geom16, np.full(geom16.shape, 4.0))
    with pytest.raises(DegenerateImageError):
        ncc(flat, r)
    with pytest.raises(DegenerateImageError):
        ncc(r, flat)


# ---------------------------------------------------------------------------
# MI


def test_mi_prefers_aligned_over_shuffled(geom16, rng):
    img = random_image(geom16, rng)
    perm = img.with_values(rng.permutation(img.values.ravel()).reshape(geom16.shape))
    aligned = mi(img, img, bins=16, parzen_sigma=1.0).value
    shuffled = mi(img, perm, bins=16, parzen_sigma=1.0).value
    assert aligned < shuffled  # distances: aligned pair is closer


def test_mi_derivative_fd(rng):
    g = GridGeometry(12, 12)
    t = random_image(g, rng, lo=0.05, hi=0.95)
    r = random_image(g, rng, lo=0.05, hi=0.95)
    d = rng.normal(size=g.shape)
    res = mi(t, r, bins=16, parzen_sigma=1.0)
    fd = directional_fd(lambda im: mi(im, r, bins=16, parzen_sigma=1.0).value, t, d)
    assert np.sum(res.d_warped * d) == pytest.approx(fd, rel=1e-4)


def test_mi_parameter_validation(geom16, rng):
    t = random_image(geom16, rng)
    with pytest.raises(ParameterError):
        mi(t, t, bins=4)
    with pytest.raises(ParameterError):
        mi(t, t, parzen_sigma=-1.0)
    with pytest.raises(ParameterError):
        mi(t, t, parzen_sigma=float("nan"))
    with pytest.raises(ParameterError):
        mi(t, t, parzen_sigma=float("inf"))
    with pytest.raises(ParameterError):
        mi(t, t, bins=8.5)
    # windows narrower than this underflow to 0/0 at the half-bin tap
    for sigma in (1e-3, 0.0125):
        with pytest.raises(ParameterError, match="underflows"):
            mi(t, t, parzen_sigma=sigma)
        with pytest.raises(ParameterError, match="underflows"):
            level_reference(t, "MI", mi_parzen_sigma=sigma)
    assert np.isfinite(mi(t, t, parzen_sigma=0.013).value)
    with pytest.raises(ParameterError):
        level_reference(t, "MI", mi_parzen_sigma=float("nan"))
    hot = t.with_values(t.values + 2.0)
    with pytest.raises(IntensityRangeError):
        mi(hot, t)
    with pytest.raises(IntensityRangeError):
        mi(t, hot)


def test_zero_parzen_width_is_refused_alike_everywhere(geom16, rng):
    # a nearest-bin MI has a zero derivative almost everywhere, so no
    # entry point takes sigma = 0
    t = random_image(geom16, rng)
    messages = set()
    for call in (
        lambda: mi(t, t, parzen_sigma=0.0),
        lambda: level_reference(t, "MI", mi_parzen_sigma=0.0),
        lambda: RegistrationConfig(measure="MI", mi_parzen_sigma=0.0),
    ):
        with pytest.raises(ParameterError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"parzen_sigma must be finite and positive"}


def _mi_oracle(template_w, reference, bins, sigma):
    """Reference formula, tap by tap: (2R+2)^2 bincount passes for the
    joint histogram and as many gathers for the derivative."""

    def windows(c):
        radius = int(np.ceil(5.0 * sigma))
        base = np.ceil(c - radius)
        offsets = np.arange(2 * radius + 2, dtype=np.float64)
        j = base[None, :] + offsets[:, None]
        dist = j - c[None, :]
        inside = (np.abs(dist) <= radius) & (j >= 0) & (j <= bins - 1)
        w = np.where(inside, np.exp(-0.5 * (dist / sigma) ** 2), 0.0)
        w_hat = w / np.sum(w, axis=0)[None, :]
        mu = np.sum(w_hat * dist, axis=0)
        dw_hat = w_hat * (dist - mu[None, :]) / sigma**2
        return np.clip(j, 0, bins - 1).astype(np.int64), w_hat, dw_hat

    m = template_w.valid_mask & reference.valid_mask
    n = int(np.sum(m))
    idx_t, w_t, dw_t = windows(np.clip(template_w.values[m], 0.0, 1.0) * (bins - 1))
    idx_r, w_r, _ = windows(np.clip(reference.values[m], 0.0, 1.0) * (bins - 1))
    taps = idx_t.shape[0]
    joint = np.zeros(bins * bins)
    for a in range(taps):
        for b in range(taps):
            joint += np.bincount(
                idx_t[a] * bins + idx_r[b], weights=w_t[a] * w_r[b], minlength=bins * bins
            )
    joint = joint.reshape(bins, bins) / n
    pos = joint > 0.0
    log_ratio = np.zeros_like(joint)
    indep = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    log_ratio[pos] = np.log(joint[pos] / indep[pos])
    value = -float(np.sum(joint[pos] * log_ratio[pos]))
    grad = np.zeros(n)
    for a in range(taps):
        h_a = np.zeros(n)
        for b in range(taps):
            h_a += log_ratio[idx_t[a], idx_r[b]] * w_r[b]
        grad += dw_t[a] * h_a
    d_warped = np.zeros(template_w.geometry.shape)
    d_warped[m] = grad * (-(bins - 1) / n)
    return value, d_warped


@pytest.fixture
def masked_pair(rng):
    """A non-square pair with a masked template block and a masked
    reference strip, spanning the full intensity range."""
    g = GridGeometry(70, 45)
    base = rng.uniform(0.0, 1.0, g.shape)
    t_mask = np.zeros(g.shape, bool)
    t_mask[5:20, 30:50] = True
    r_mask = np.zeros(g.shape, bool)
    r_mask[:, :3] = True
    t = ScalarImage(g, np.clip(base + rng.normal(0.0, 0.1, g.shape), 0.0, 1.0), t_mask)
    r = ScalarImage(g, np.clip(np.sqrt(base) + rng.normal(0.0, 0.05, g.shape), 0.0, 1.0), r_mask)
    return t, r


@pytest.mark.parametrize("bins,sigma", [(8, 0.3), (16, 1.0), (64, 1.0), (32, 2.5)])
def test_mi_matches_tap_by_tap_oracle(masked_pair, bins, sigma):
    t, r = masked_pair
    level = level_reference(r, "MI", mi_bins=bins, mi_parzen_sigma=sigma)
    for tpl in (t, ScalarImage(t.geometry, t.values)):
        want_value, want_grad = _mi_oracle(tpl, r, bins, sigma)
        res = mi(tpl, r, bins=bins, parzen_sigma=sigma)
        assert res.value == pytest.approx(want_value, rel=1e-12)
        np.testing.assert_allclose(
            res.d_warped, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max()
        )
        np.testing.assert_array_equal(res.d_warped[~(tpl.valid_mask & r.valid_mask)], 0.0)
        # the per-level reference band gives the plain-image result bit for bit
        ctx = evaluate("MI", tpl, level, mi_bins=bins, mi_parzen_sigma=sigma)
        assert ctx.value == res.value
        np.testing.assert_array_equal(ctx.d_warped, res.d_warped)


def test_level_reference_matches_plain_images(masked_pair):
    t, r = masked_pair
    gap_free = ScalarImage(t.geometry, t.values)
    shifted = gap_free.with_values(np.roll(gap_free.values, 3, axis=1))
    for measure in MEASURES:
        level = level_reference(r, measure, eta=0.05, mi_bins=32, mi_parzen_sigma=0.7)
        # one level reference serves evaluations in a row; none of them may
        # change what the next one reads
        for tpl in (t, gap_free, shifted, gap_free):
            want = evaluate(measure, tpl, r, eta=0.05, mi_bins=32, mi_parzen_sigma=0.7)
            got = evaluate(measure, tpl, level, eta=0.05, mi_bins=32, mi_parzen_sigma=0.7)
            assert got.value == want.value
            np.testing.assert_array_equal(got.d_warped, want.d_warped)
    level = level_reference(r, "MI", mi_bins=32)
    with pytest.raises(ParameterError):
        evaluate("MI", t, level, mi_bins=16)
    with pytest.raises(ParameterError):
        evaluate("NGF", t, level)


def test_level_reference_is_the_one_owner_of_the_reference_side(masked_pair, monkeypatch):
    t, r = masked_pair
    gap_free = ScalarImage(t.geometry, t.values)
    calls = collections.Counter()
    check, field = similarity.check_mi_parameters, similarity.ngf_field

    def spy_check(*args):
        calls["check"] += 1
        return check(*args)

    def spy_field(*args):
        calls["field"] += 1
        return field(*args)

    monkeypatch.setattr(similarity, "check_mi_parameters", spy_check)
    monkeypatch.setattr(similarity, "ngf_field", spy_field)
    plain = [
        (lambda tpl: mi(tpl, r), "check"),
        (lambda tpl: evaluate("MI", tpl, r), "check"),
        (lambda tpl: ngf(tpl, r, 0.1), "field"),
        (lambda tpl: evaluate("NGF", tpl, r), "field"),
    ]
    for call, owner in plain:
        for tpl in (t, gap_free):
            calls.clear()
            call(tpl)
            assert calls == {owner: 1}
    levels = {m: level_reference(r, m) for m in ("MI", "NGF")}
    calls.clear()
    for tpl in (t, gap_free):
        for measure, level in levels.items():
            evaluate(measure, tpl, level)
    assert not calls
    # a template with gaps rebuilds the band over the joint mask, as the
    # plain call does
    want = evaluate("MI", t, levels["MI"])
    got = mi(t, r)
    assert got.value == want.value and got.d_warped.tobytes() == want.d_warped.tobytes()


def _whole_histogram_mi(t_vals, r_vals, bins, sigma):
    """-MI and its derivative when every pixel's window spans the whole
    histogram, dense: the joint is W_t^T W_r / n."""
    j = np.arange(bins)

    def windows(v):
        dist = j[None, :] - v[:, None] * (bins - 1)
        w = np.exp(-0.5 * (dist / sigma) ** 2)
        w /= np.sum(w, axis=1, keepdims=True)
        mu = np.sum(w * dist, axis=1, keepdims=True)
        return w, w * (dist - mu) / sigma**2

    w_t, dw_t = windows(t_vals)
    w_r, _ = windows(r_vals)
    n = t_vals.size
    joint = w_t.T @ w_r / n
    log_ratio = np.log(joint / np.outer(joint.sum(axis=1), joint.sum(axis=0)))
    value = -float(np.sum(joint * log_ratio))
    grad = -(bins - 1) / n * np.sum(dw_t * (w_r @ log_ratio.T), axis=1)
    return value, grad


def test_wide_parzen_window_is_bounded_by_the_histogram():
    # every bin lies within bins - 1 of any pixel, so no window needs more
    # than 2 bins - 1 taps (a 5-sigma window at sigma = 100 spans 1001)
    g = GridGeometry(4, 4)
    bins = 8
    base = np.linspace(0.0, 1.0, g.width * g.height).reshape(g.shape)
    _, weights, _ = _parzen_weights(base.ravel() * (bins - 1), bins, 100.0)
    assert weights.shape[0] <= 2 * bins - 1
    # at sigma = 2 the bound applies too, and MI stays far from 0
    res = mi(ScalarImage(g, base), ScalarImage(g, base**2), bins=bins, parzen_sigma=2.0)
    want_value, want_grad = _whole_histogram_mi(base.ravel(), base.ravel() ** 2, bins, 2.0)
    assert res.value == pytest.approx(want_value, rel=1e-12)
    np.testing.assert_allclose(res.d_warped.ravel(), want_grad, rtol=1e-12, atol=0.0)


THREADS_SCRIPT = r"""
import hashlib, sys
import numpy as np
from fusereg.grid import GridGeometry, ScalarImage
from fusereg.similarity import mi

rng = np.random.default_rng(7)
g = GridGeometry(150, 110)
base = rng.uniform(0.0, 1.0, g.shape)
t = ScalarImage(g, base)
r = ScalarImage(g, np.clip(0.6 * base + rng.uniform(0.0, 0.4, g.shape), 0.0, 1.0))
res = mi(t, r, bins=64, parzen_sigma=1.0)
print(repr(res.value), hashlib.sha256(res.d_warped.tobytes()).hexdigest())
"""


def test_mi_bytes_do_not_depend_on_thread_count():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_mi_rejects_empty_overlap(geom16, rng):
    half = np.zeros(geom16.shape, bool)
    half[:, :8] = True
    t = ScalarImage(geom16, rng.uniform(0, 1, geom16.shape), half)
    r = ScalarImage(geom16, rng.uniform(0, 1, geom16.shape), ~half)
    with pytest.raises(DegenerateImageError):
        mi(t, r)


# ---------------------------------------------------------------------------
# NGF


def test_ngf_flat_image_pays_full_distance(geom16, rng):
    r = random_image(geom16, rng)
    flat = ScalarImage(geom16, np.full(geom16.shape, 3.0))
    res = ngf(flat, r, eta=0.1)
    assert res.value == pytest.approx(geom16.width * geom16.height, rel=1e-12)


def test_ngf_parallel_ramp_closed_form():
    g = GridGeometry(10, 10)
    xs, _ = np.meshgrid(np.arange(10.0), np.arange(10.0))
    img = ScalarImage(g, xs)
    eta = 0.25
    res = ngf(img, img, eta)
    # unit slope everywhere: rho = 1 / (1 + eta^2), every pixel identical
    rho = 1.0 / (1.0 + eta * eta)
    assert res.value == pytest.approx(100 * (1.0 - rho * rho), rel=1e-12)


def test_ngf_self_distance_leq_crossed(texture64, rng):
    other = texture64.with_values(texture64.values[::-1, ::-1].copy())
    self_d = ngf(texture64, texture64, 0.02).value
    cross_d = ngf(texture64, other, 0.02).value
    assert self_d < cross_d


def test_ngf_contrast_invariance_as_eta_vanishes(texture64):
    # exact invariance holds only for |grad| >> eta; shrink eta and watch
    # the contrast sensitivity die off
    r = texture64.with_values(np.roll(texture64.values, 2, axis=1))
    scaled_t = texture64.with_values(5.0 * texture64.values + 1.0)
    gaps = []
    for eta in (0.02, 0.005, 0.001):
        base = ngf(texture64, r, eta).value
        scaled = ngf(scaled_t, r, eta).value
        gaps.append(abs(scaled - base) / base)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-3


def test_ngf_masked_pixels_pay_full_distance(geom16, rng):
    t = random_image(geom16, rng)
    vals = rng.uniform(0.0, 1.0, geom16.shape)
    vals[7, 7] = 0.0  # matches the stored value once the pixel is masked,
    # so masking changes only the accounting, not any gradient
    base = ngf(t, ScalarImage(geom16, vals), 0.1)
    mask = np.zeros(geom16.shape, bool)
    mask[7, 7] = True
    masked = ngf(t, ScalarImage(geom16, vals, mask), 0.1)
    # the masked pixel's alignment reward is forfeited
    ft = ngf_field(t, 0.1)
    fr = ngf_field(ScalarImage(geom16, vals), 0.1)
    rho = ft.n_x * fr.n_x + ft.n_y * fr.n_y
    assert masked.value - base.value == pytest.approx(rho[7, 7] ** 2, abs=1e-12)


def test_ngf_derivative_fd(geom16, rng):
    t = random_image(geom16, rng)
    r = random_image(geom16, rng)
    d = rng.normal(size=geom16.shape)
    res = ngf(t, r, 0.1)
    fd = directional_fd(lambda im: ngf(im, r, 0.1).value, t, d)
    assert np.sum(res.d_warped * d) == pytest.approx(fd, rel=1e-5)


def test_ngf_rejects_bad_eta(geom16, rng):
    img = random_image(geom16, rng)
    with pytest.raises(ParameterError):
        ngf(img, img, 0.0)
    with pytest.raises(ParameterError):
        ngf_field(img, -0.5)
    # an eta^2 of 0 would drop the floor: 0 / 0 on flat patches
    for eta in (math.nan, math.inf, 1e-200, 1e200):
        with pytest.raises(ParameterError):
            ngf(img, img, eta)
        with pytest.raises(ParameterError):
            ngf_field(img, eta)
        with pytest.raises(ParameterError):
            level_reference(img, "NGF", eta=eta)


def test_ngf_field_is_subunit(texture64):
    f = ngf_field(texture64, 0.1)
    norm = f.n_x**2 + f.n_y**2
    assert norm.max() < 1.0
    assert norm.min() >= 0.0


@pytest.mark.parametrize("measure", ["SSD", "NCC", "NGF"])
def test_gap_free_images_match_an_all_false_nodata_mask_bit_for_bit(measure, texture64):
    r = texture64.with_values(np.roll(texture64.values, 3, axis=1))

    def with_empty_mask(image):
        # ScalarImage drops an all-false mask; set one after construction so
        # the masked products run
        out = image.with_values(image.values.copy())
        out.nodata = np.zeros(image.geometry.shape, bool)
        return out

    plain = evaluate(measure, texture64, r, eta=0.05)
    for t_mask, r_mask in ((True, False), (False, True), (True, True)):
        t = with_empty_mask(texture64) if t_mask else texture64
        masked = evaluate(measure, t, with_empty_mask(r) if r_mask else r, eta=0.05)
        assert masked.value == plain.value
        assert masked.d_warped.tobytes() == plain.d_warped.tobytes()


# ---------------------------------------------------------------------------
# dispatcher


def test_evaluate_dispatches_each_measure(geom16, rng):
    t = random_image(geom16, rng)
    r = random_image(geom16, rng)
    assert evaluate("SSD", t, r).value == ssd(t, r).value
    assert evaluate("NCC", t, r).value == ncc(t, r).value
    assert evaluate("MI", t, r).value == mi(t, r).value
    assert evaluate("NGF", t, r, eta=0.3).value == ngf(t, r, 0.3).value
    with pytest.raises(ParameterError):
        evaluate("SAD", t, r)


@pytest.mark.parametrize("measure", MEASURES)
def test_every_measure_derivative_fd(measure, rng):
    g = GridGeometry(16, 16)
    t = ScalarImage(g, rng.uniform(0.05, 0.95, g.shape))
    r = ScalarImage(g, rng.uniform(0.05, 0.95, g.shape))
    d = rng.normal(size=g.shape)
    res = evaluate(measure, t, r, eta=0.1)
    fd = directional_fd(lambda im: evaluate(measure, im, r, eta=0.1).value, t, d)
    assert np.sum(res.d_warped * d) == pytest.approx(fd, rel=1e-4)
