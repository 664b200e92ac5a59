"""The banded MI kernel against a dense oracle, and the per-level MI context.

The oracle builds every pixel's Parzen window explicitly over all bins and
the joint histogram as a sum of per-pixel outer products, so it shares no
band, chunk or block bookkeeping with the program.
"""

import collections
import math

import numpy as np
import pytest

from fusereg import similarity
from fusereg.affine import register_affine
from fusereg.errors import DegenerateImageError
from fusereg.evaluation import synthetic_texture
from fusereg.grid import GridGeometry, ScalarImage
from fusereg.nonparametric import RegistrationConfig
from fusereg.similarity import MI_CHUNK, evaluate, level_reference, mi


def _dense_mi(t_vals, r_vals, bins, sigma):
    """-MI and its derivative with respect to the template values."""
    radius = min(math.ceil(5.0 * sigma), bins - 1)
    j = np.arange(bins, dtype=np.float64)

    def windows(v):
        dist = j[None, :] - np.clip(v, 0.0, 1.0)[:, None] * (bins - 1)
        w = np.where(np.abs(dist) <= radius, np.exp(-0.5 * (dist / sigma) ** 2), 0.0)
        w /= np.sum(w, axis=1, keepdims=True)
        mu = np.sum(w * dist, axis=1, keepdims=True)
        return w, w * (dist - mu) / sigma**2

    w_t, dw_t = windows(t_vals)
    w_r, _ = windows(r_vals)
    n = t_vals.size
    joint = np.einsum("ka,kb->ab", w_t, w_r) / n
    pos = joint > 0.0
    log_ratio = np.zeros_like(joint)
    log_ratio[pos] = np.log(joint[pos] / np.outer(joint.sum(axis=1), joint.sum(axis=0))[pos])
    value = -float(np.sum(joint[pos] * log_ratio[pos]))
    grad = -(bins - 1) / n * np.einsum("ka,ab,kb->k", dw_t, log_ratio, w_r)
    return value, grad


def _assert_matches_oracle(t, r, bins, sigma):
    m = t.valid_mask & r.valid_mask
    want_value, want_grad = _dense_mi(t.values[m], r.values[m], bins, sigma)
    res = mi(t, r, bins=bins, parzen_sigma=sigma)
    assert res.value == pytest.approx(want_value, rel=1e-12)
    np.testing.assert_allclose(
        res.d_warped[m], want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max()
    )
    np.testing.assert_array_equal(res.d_warped[~m], 0.0)


def _pair(rng, g):
    """A template related to the reference by a monotone map plus noise."""
    r = rng.uniform(0.0, 1.0, g.shape)
    t = np.clip(np.sqrt(r) + rng.normal(0.0, 0.05, g.shape), 0.0, 1.0)
    return ScalarImage(g, t), ScalarImage(g, r)


@pytest.mark.parametrize("bins,sigma", [(64, 0.3), (64, 1.0), (32, 2.5), (8, 3.0)])
def test_kernel_matches_dense_oracle(rng, bins, sigma):
    # at bins = 8, sigma = 3 the 15-bin radius is capped at 7
    t, r = _pair(rng, GridGeometry(30, 20))
    _assert_matches_oracle(t, r, bins, sigma)


def test_kernel_matches_dense_oracle_at_the_narrowest_window(rng):
    # at sigma = 0.013 a coordinate half a bin from both neighbours has
    # subnormal weights that no two formulas round alike; keep every
    # coordinate within 0.45 bins of a bin, where the weights are normal
    bins = 64
    g = GridGeometry(30, 20)

    def near_bins():
        k = rng.integers(0, bins, g.shape)
        return np.clip((k + rng.uniform(-0.45, 0.45, g.shape)) / (bins - 1), 0.0, 1.0)

    t = ScalarImage(g, near_bins())
    r = ScalarImage(g, near_bins())
    _assert_matches_oracle(t, r, bins, 0.013)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
def test_kernel_at_the_ends_of_the_range_and_on_integer_bins(rng, sigma):
    # bins - 1 = 32, so k / 32 maps to bin coordinate k exactly: the last
    # tap of every window then lies on the truncation radius
    bins = 33
    g = GridGeometry(16, 12)
    t_vals = rng.integers(0, bins, g.shape) / 32.0
    t_vals[0, :4] = 0.0
    t_vals[1, :4] = 1.0
    r_vals = rng.uniform(0.0, 1.0, g.shape)
    r_vals[2, :3] = (0.0, 1.0, 0.5)
    _assert_matches_oracle(ScalarImage(g, t_vals), ScalarImage(g, r_vals), bins, sigma)


def test_kernel_on_a_decorrelated_template(rng):
    # each chunk's template windows reach across the whole histogram, so
    # its template block is as wide as it can get
    g = GridGeometry(48, 40)
    t_vals = rng.uniform(0.0, 1.0, g.shape)
    t_vals.flat[:64] = np.linspace(0.0, 1.0, 64)  # a pixel on every bin
    r = ScalarImage(g, rng.uniform(0.0, 1.0, g.shape))
    _assert_matches_oracle(ScalarImage(g, t_vals), r, 64, 1.0)


def test_kernel_with_a_one_pixel_last_chunk(rng):
    g = GridGeometry(41, 25)
    assert g.width * g.height == MI_CHUNK + 1
    t, r = _pair(rng, g)
    _assert_matches_oracle(t, r, 64, 1.0)
    level = level_reference(r, "MI")
    assert [hi - lo for lo, hi, _, _ in level.mi_band.chunks] == [MI_CHUNK, 1]


def test_kernel_falls_back_to_the_joint_mask_for_a_gap_template(rng):
    g = GridGeometry(40, 30)
    t, r = _pair(rng, g)
    t_mask = np.zeros(g.shape, bool)
    t_mask[3:11, 5:30] = True
    r_mask = np.zeros(g.shape, bool)
    r_mask[:, -4:] = True
    t = ScalarImage(g, t.values, t_mask)
    r = ScalarImage(g, r.values, r_mask)
    _assert_matches_oracle(t, r, 64, 1.0)
    # the level's band covers the reference's valid pixels, and a template
    # with gaps keeps those of the joint mask
    got = evaluate("MI", t, level_reference(r, "MI"))
    want = mi(t, r)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    np.testing.assert_allclose(got.d_warped, want.d_warped, rtol=1e-12, atol=1e-15)


def test_kernel_with_a_gap_template_across_a_chunk_boundary(rng):
    g = GridGeometry(41, 25)
    t, r = _pair(rng, g)
    t_mask = rng.uniform(size=g.shape) < 0.3
    t = ScalarImage(g, t.values, t_mask)
    _assert_matches_oracle(t, r, 64, 1.0)
    assert not np.signbit(mi(t, r).d_warped[t_mask]).any()
    level = level_reference(r, "MI")
    assert [hi - lo for lo, hi, _, _ in level.mi_band.chunks] == [MI_CHUNK, 1]
    # gaps fall in both chunks
    kept = ~t_mask.ravel()[level.mi_band.index]
    assert not kept[:MI_CHUNK].all() and kept[:MI_CHUNK].any()


def test_kernel_rejects_a_fully_gapped_template(rng):
    g = GridGeometry(16, 12)
    t, r = _pair(rng, g)
    t = ScalarImage(g, t.values, np.ones(g.shape, bool))
    with pytest.raises(DegenerateImageError):
        mi(t, r)
    with pytest.raises(DegenerateImageError):
        evaluate("MI", t, level_reference(r, "MI"))


@pytest.fixture
def band_builds(monkeypatch):
    calls = collections.Counter()
    build = similarity.ParzenBand.build.__func__

    def spy_build(cls, *args):
        calls["build"] += 1
        return build(cls, *args)

    monkeypatch.setattr(similarity.ParzenBand, "build", classmethod(spy_build))
    return calls


def test_a_gap_template_builds_the_band_once(rng, band_builds):
    g = GridGeometry(40, 30)
    t, r = _pair(rng, g)
    t_mask = np.zeros(g.shape, bool)
    t_mask[:, :10] = True
    t = ScalarImage(g, t.values, t_mask)
    mi(t, r)
    assert band_builds["build"] == 1
    evaluate("MI", t, r)
    assert band_builds["build"] == 2
    level = level_reference(r, "MI")
    assert band_builds["build"] == 3
    evaluate("MI", t, level)
    assert band_builds["build"] == 3


# ---------------------------------------------------------------------------
# the per-level context


def test_level_reference_matches_mi_on_a_gap_free_pair(rng):
    t, r = _pair(rng, GridGeometry(50, 44))
    level = level_reference(r, "MI", mi_bins=48, mi_parzen_sigma=0.8)
    got = evaluate("MI", t, level, mi_bins=48, mi_parzen_sigma=0.8)
    want = mi(t, r, bins=48, parzen_sigma=0.8)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    np.testing.assert_allclose(
        got.d_warped, want.d_warped, rtol=1e-12, atol=1e-12 * np.abs(want.d_warped).max()
    )


def test_reference_side_work_runs_once_per_level(monkeypatch):
    g = GridGeometry(64, 64)
    ref = synthetic_texture(g, seed=3, smoothness=2.0)
    tem = ScalarImage(g, np.roll(ref.values, 2, axis=1))
    cfg = RegistrationConfig(measure="MI", max_levels=2, max_iters_per_level=20)

    calls = collections.Counter()
    check = similarity.check_mi_parameters
    build = similarity.ParzenBand.build.__func__
    evaluate_ = similarity.evaluate

    def spy_check(*args):
        calls["check"] += 1
        return check(*args)

    def spy_build(cls, *args):
        calls["build"] += 1
        return build(cls, *args)

    def spy_evaluate(*args, **kwargs):
        calls["evaluate"] += 1
        return evaluate_(*args, **kwargs)

    monkeypatch.setattr(similarity, "check_mi_parameters", spy_check)
    monkeypatch.setattr(similarity.ParzenBand, "build", classmethod(spy_build))
    monkeypatch.setattr(similarity, "evaluate", spy_evaluate)
    _, trace = register_affine(tem, ref, "MI", cfg)
    levels = len(trace.levels)
    assert levels == 2
    assert calls["evaluate"] == sum(lt.evaluations for lt in trace.levels) > 2 * levels
    assert calls["check"] == levels
    assert calls["build"] == levels
