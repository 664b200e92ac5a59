"""Quantitative acceptance checks for the whole toolchain.

Run ``pytest tests/test_acceptance.py -s`` to get one summary line per
check next to the threshold it is held to.  The suite exercises the
public API end to end: objective gradients against finite differences,
the implicit curvature operator, synthetic scene recovery at realistic
sizes, iteration-trace monotonicity across a mixed scenario batch,
evaluation-metric direction, byte-level CLI determinism, the photo
footprint model, and the solver iteration comparison.  The synthetic
recovery problems dominate the runtime (a few minutes).
"""

import filecmp
import time

import numpy as np
import pytest

from fusereg.affine import AffineParams, affine_to_displacement, register_affine
from fusereg.cli import main
from fusereg.curvature import SemiImplicitOperator
from fusereg.evaluation import (
    ExperimentScenario,
    SyntheticDeformation,
    endpoint_error,
    run_experiment,
    synthetic_texture,
)
from fusereg.geo import PhotoMetadata, photo_footprint
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage, warp
from fusereg.nonparametric import RegistrationConfig, objective, register_multilevel
from fusereg.similarity import MEASURES

from conftest import field_from_vector, field_vector

# curvature weight per measure that balances the data term on [0, 1]
# synthetic textures
ALPHA = {"SSD": 1.0, "NCC": 0.01, "MI": 0.1, "NGF": 50.0}


def _verdict(name, ok, detail):
    print("\n[%s] %-24s %s" % ("PASS" if ok else "FAIL", name, detail))
    return detail


def _rigid(deg, scale, tx, ty, about=(0.0, 0.0)):
    th = np.deg2rad(deg)
    a = scale * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    c = np.asarray(about, dtype=np.float64)
    t = c - a @ c + np.array([tx, ty])
    return SyntheticDeformation(
        kind="affine",
        params=AffineParams(a[0, 0], a[0, 1], a[1, 0], a[1, 1], t[0], t[1]),
    )


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def affine_scene():
    """256x256 textured scene warped by a centred 3 degree rotation,
    2 percent scale change and 3 px shift, registered three ways."""
    geom = GridGeometry(256, 256)
    ref = synthetic_texture(geom, seed=11, smoothness=2.0)
    deform = _rigid(3.0, 1.02, 3.0, 0.0, about=(127.5, 127.5))
    tpl = warp(ref, deform.realized(geom))
    u_true = deform.inverse(geom)

    runs = {}
    for solver, cap in (("l-bfgs", 500), ("semi-implicit", 3000)):
        cfg = RegistrationConfig(
            measure="NGF",
            alpha=50.0,
            eta=0.02,
            solver=solver,
            max_levels=4,
            max_iters_per_level=cap,
        )
        t0 = time.perf_counter()
        u, trace = register_multilevel(tpl, ref, cfg)
        runs[solver] = {
            "elapsed": time.perf_counter() - t0,
            "iterations": trace.total_iterations(),
            "converged": all(lt.converged for lt in trace.levels),
            "epe": endpoint_error(u, u_true)[0],
        }
    t0 = time.perf_counter()
    params, trace = register_affine(
        tpl, ref, "NCC", RegistrationConfig(measure="NCC", max_levels=4)
    )
    runs["affine-ncc"] = {
        "elapsed": time.perf_counter() - t0,
        "iterations": trace.total_iterations(),
        "converged": all(lt.converged for lt in trace.levels),
        "epe": endpoint_error(affine_to_displacement(params, geom), u_true)[0],
    }
    return runs


@pytest.fixture(scope="module")
def bump_scene():
    """Gaussian-bump deformation (4 px amplitude, sigma 10 px) on a 128x128
    texture: non-parametric result plus all four affine baselines."""
    geom = GridGeometry(128, 128)
    ref = synthetic_texture(geom, seed=7, smoothness=2.0)
    deform = SyntheticDeformation(kind="gaussian-bump", amplitude=4.0, sigma=10.0)
    tpl = warp(ref, deform.realized(geom))
    u_true = deform.inverse(geom)

    cfg = RegistrationConfig(
        measure="NGF",
        alpha=ALPHA["NGF"],
        eta=0.02,
        solver="l-bfgs",
        max_levels=3,
        max_iters_per_level=300,
    )
    u, _ = register_multilevel(tpl, ref, cfg)
    np_epe = endpoint_error(u, u_true)[0].mean

    baselines = {}
    for measure in MEASURES:
        params, _ = register_affine(
            tpl, ref, measure, RegistrationConfig(measure=measure, eta=0.02, max_levels=3)
        )
        u_aff = affine_to_displacement(params, geom)
        baselines[measure] = endpoint_error(u_aff, u_true)[0].mean
    return np_epe, baselines


def _suite_config(measure, solver="l-bfgs", iters=300, levels=3):
    return RegistrationConfig(
        measure=measure,
        alpha=ALPHA[measure],
        eta=0.02,
        solver=solver,
        max_levels=levels,
        max_iters_per_level=iters,
    )


def _bump(amplitude, sigma):
    return SyntheticDeformation(
        kind="gaussian-bump", amplitude=amplitude, sigma=sigma
    )


def _sinusoid(amplitude, wavelength, direction=(0.6, 0.8)):
    return SyntheticDeformation(
        kind="sinusoid",
        amplitude=amplitude,
        wavelength=wavelength,
        direction=direction,
    )


def _scenario(name, w, h, seed, deformation, method="nonparametric", measure="NGF", **kw):
    return ExperimentScenario(
        name=name,
        width=w,
        height=h,
        seed=seed,
        deformation=deformation,
        method=method,
        config=_suite_config(measure, **kw),
        texture_smoothness=2.0,
    )


def _scenario_batch():
    """Twenty seeded recovery problems mixing deformation kinds, distance
    measures, solvers and methods."""
    return [
        _scenario("bump-ngf-lbfgs", 128, 128, 7, _bump(4.0, 10.0)),
        _scenario("bump-ssd-lbfgs", 96, 96, 3, _bump(3.0, 10.0), measure="SSD"),
        _scenario("bump-ncc-lbfgs", 96, 96, 4, _bump(3.0, 12.0), measure="NCC"),
        _scenario("bump-mi-lbfgs", 96, 96, 5, _bump(3.0, 12.0), measure="MI", iters=200),
        _scenario("bump-ngf-semi", 128, 128, 8, _bump(4.0, 10.0), solver="semi-implicit"),
        _scenario(
            "bump-ssd-semi", 96, 96, 9, _bump(3.0, 10.0), measure="SSD", solver="semi-implicit"
        ),
        _scenario("bump-ngf-trust", 96, 96, 10, _bump(3.0, 10.0), solver="trust-region"),
        _scenario(
            "bump-ssd-trust", 96, 96, 11, _bump(3.0, 12.0), measure="SSD", solver="trust-region"
        ),
        _scenario("bump-ngf-gn", 96, 96, 12, _bump(3.0, 10.0), solver="gauss-newton", iters=40),
        _scenario("sin-ngf-lbfgs", 128, 128, 13, _sinusoid(2.5, 48.0)),
        _scenario("sin-ssd-lbfgs", 128, 96, 14, _sinusoid(2.0, 32.0), measure="SSD"),
        _scenario(
            "sin-ncc-lbfgs", 96, 96, 15, _sinusoid(2.0, 48.0, direction=(1.0, 0.0)), measure="NCC"
        ),
        _scenario("sin-ngf-semi", 96, 96, 16, _sinusoid(2.0, 48.0), solver="semi-implicit"),
        _scenario("sin-ngf-trust", 128, 96, 6, _sinusoid(2.0, 48.0), solver="trust-region"),
        _scenario(
            "affine-ngf-lbfgs", 128, 128, 17, _rigid(2.0, 1.01, 2.0, -1.0, about=(63.5, 63.5))
        ),
        _scenario("shift-ssd-lbfgs", 96, 96, 18, _rigid(0.0, 1.0, 2.5, -1.5), measure="SSD"),
        _scenario(
            "affine-fit-ncc",
            128,
            128,
            19,
            _rigid(2.0, 1.0, 1.5, 1.0, about=(63.5, 63.5)),
            method="affine",
            measure="NCC",
        ),
        _scenario(
            "shift-fit-ssd", 96, 96, 20, _rigid(0.0, 1.0, 2.0, 1.0), method="affine", measure="SSD"
        ),
        _scenario("shift-fit-ngf", 96, 96, 21, _rigid(0.0, 1.0, 1.5, -1.0), method="affine"),
        _scenario("shift-mi-lbfgs", 96, 96, 22, _rigid(0.0, 1.0, 1.5, 1.0), measure="MI", iters=200),
    ]


@pytest.fixture(scope="module")
def scenario_batch():
    results = []
    for scenario in _scenario_batch():
        report, artifacts = run_experiment(scenario)
        results.append((scenario.name, report, artifacts.get("trace")))
    return results


# ---------------------------------------------------------------------------
# objective gradient


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    geom = GridGeometry(16, 16)
    h = 1e-6
    worst = 0.0
    t0 = time.perf_counter()
    for measure in MEASURES:
        cfg = RegistrationConfig(measure=measure, alpha=0.5, eta=0.1)
        for _ in range(2):
            tpl = ScalarImage(geom, rng.uniform(0.05, 0.95, geom.shape))
            ref = ScalarImage(geom, rng.uniform(0.05, 0.95, geom.shape))
            u = DisplacementField(
                geom,
                (rng.uniform(-0.4, 0.4, geom.shape),
                 rng.uniform(-0.4, 0.4, geom.shape)),
            )
            _, grad = objective(u, tpl, ref, cfg)
            for _ in range(2):
                d = rng.normal(size=2 * geom.width * geom.height)
                up = field_from_vector(geom, field_vector(u) + h * d)
                dn = field_from_vector(geom, field_vector(u) - h * d)
                fd = (
                    objective(up, tpl, ref, cfg)[0] - objective(dn, tpl, ref, cfg)[0]
                ) / (2 * h)
                got = float(np.dot(field_vector(grad), d))
                worst = max(worst, abs(got - fd) / max(abs(fd), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    detail = _verdict(
        "objective-gradient",
        ok,
        "worst rel err %.2e (< 1e-4) over %s in %.2fs (< 10s)"
        % (worst, "/".join(MEASURES), elapsed),
    )
    assert ok, detail


# ---------------------------------------------------------------------------
# implicit curvature operator


def test_implicit_operator_inverts_and_passes_affine():
    rng = np.random.default_rng(99)
    geom = GridGeometry(64, 64)
    op = SemiImplicitOperator(geom, alpha=5000.0, dt=1.0)

    worst_res = 0.0
    for _ in range(5):
        w = DisplacementField(
            geom, (rng.normal(size=geom.shape), rng.normal(size=geom.shape))
        )
        v = op.solve(w)
        back = op.apply(v)
        res = max(
            float(np.max(np.abs(back.u_x - w.u_x))),
            float(np.max(np.abs(back.u_y - w.u_y))),
        )
        scale = max(float(np.max(np.abs(w.u_x))), float(np.max(np.abs(w.u_y))))
        worst_res = max(worst_res, res / scale)

    ys, xs = np.mgrid[0.0 : 64.0, 0.0 : 64.0]
    u_aff = DisplacementField(
        geom, (0.02 * xs - 0.015 * ys + 0.8, 0.01 * xs + 0.02 * ys - 1.2)
    )
    sol = op.solve(u_aff)
    app = op.apply(u_aff)
    drift = max(
        float(np.max(np.abs(sol.u_x - u_aff.u_x))),
        float(np.max(np.abs(sol.u_y - u_aff.u_y))),
        float(np.max(np.abs(app.u_x - u_aff.u_x))),
        float(np.max(np.abs(app.u_y - u_aff.u_y))),
    )
    ok = worst_res < 1e-8 and drift < 1e-10
    detail = _verdict(
        "implicit-operator",
        ok,
        "solve residual %.2e (< 1e-8), affine drift %.2e (< 1e-10)"
        % (worst_res, drift),
    )
    assert ok, detail


# ---------------------------------------------------------------------------
# synthetic scene recovery


def test_affine_scene_recovery(affine_scene):
    np_run = affine_scene["l-bfgs"]
    aff_run = affine_scene["affine-ncc"]
    ok = (
        np_run["epe"].mean < 0.5
        and aff_run["epe"].mean < 0.5
        and np_run["elapsed"] < 60.0
        and aff_run["elapsed"] < 60.0
    )
    detail = _verdict(
        "affine-scene-recovery",
        ok,
        "np epe %.4f px / %.1fs, affine-NCC epe %.4f px / %.1fs (epe < 0.5, t < 60s)"
        % (
            np_run["epe"].mean,
            np_run["elapsed"],
            aff_run["epe"].mean,
            aff_run["elapsed"],
        ),
    )
    assert ok, detail


def test_bump_recovery_beats_affine_baselines(bump_scene):
    np_epe, baselines = bump_scene
    best_affine = min(baselines.values())
    ok = np_epe < 0.5 and all(np_epe < epe for epe in baselines.values())
    detail = _verdict(
        "bump-vs-affine",
        ok,
        "np epe %.4f px (< 0.5) vs affine %s (all higher)"
        % (
            np_epe,
            " ".join("%s=%.4f" % (m, baselines[m]) for m in MEASURES),
        ),
    )
    assert ok, detail
    assert np_epe < best_affine


# ---------------------------------------------------------------------------
# trace monotonicity and metric direction over the scenario batch


def test_objective_monotone_over_accepted_iterates(scenario_batch):
    violations = []
    levels_checked = 0
    for name, report, trace in scenario_batch:
        assert not report.failed, "%s failed: %s" % (name, report.error)
        for lt in trace.levels:
            levels_checked += 1
            objs = [r.objective for r in lt.records]
            for prev, cur in zip(objs, objs[1:]):
                if cur > prev + 1e-12 * max(1.0, abs(prev)):
                    violations.append((name, lt.level, prev, cur))
            if objs[-1] > objs[0] + 1e-12 * max(1.0, abs(objs[0])):
                violations.append((name, lt.level, objs[0], objs[-1]))
    ok = not violations
    detail = _verdict(
        "trace-monotonicity",
        ok,
        "%d scenarios, %d level traces non-increasing%s"
        % (
            len(scenario_batch),
            levels_checked,
            "" if ok else "; violations: %s" % violations[:3],
        ),
    )
    assert ok, detail


def test_registration_improves_intensity_difference(scenario_batch):
    regressions = [
        (name, report.mad_registered, report.mad_unregistered)
        for name, report, _ in scenario_batch
        if report.mad_registered > report.mad_unregistered
    ]
    tightest = min(
        report.mad_unregistered - report.mad_registered
        for _, report, _ in scenario_batch
    )
    ok = not regressions
    detail = _verdict(
        "mad-improvement",
        ok,
        "registered <= unregistered on all %d scenarios (smallest gain %.2e)%s"
        % (
            len(scenario_batch),
            tightest,
            "" if ok else "; regressions: %s" % regressions,
        ),
    )
    assert ok, detail


# ---------------------------------------------------------------------------
# CLI pipeline determinism


def _write_clouds(root):
    """Jittered-grid survey over 24x24 m and a smoothly displaced copy."""
    rng = np.random.default_rng(33)
    coords = np.arange(0.0, 24.0, 0.25)
    xs, ys = np.meshgrid(coords, coords)
    xs = xs.ravel() + rng.uniform(-0.1, 0.1, xs.size)
    ys = ys.ravel() + rng.uniform(-0.1, 0.1, ys.size)
    zs = 40.0 + 0.2 * xs - 0.1 * ys
    inten = 0.5 + 0.35 * np.sin(2 * np.pi * xs / 7.0) * np.cos(2 * np.pi * ys / 9.0)
    inten += 0.25 * np.sin(2 * np.pi * (xs + ys) / 5.0)
    inten += rng.normal(0.0, 0.02, xs.size)
    inten = np.clip(inten * 100.0, 0.0, None)

    def dump(path, px, py):
        lines = ["x,y,z,intensity,return"]
        for x, y, z, i in zip(px, py, zs, inten):
            lines.append("%.6f,%.6f,%.3f,%.4f,1" % (x, y, z, i))
        path.write_text("\n".join(lines) + "\n")

    ref_csv = root / "ref_points.csv"
    tpl_csv = root / "tpl_points.csv"
    dump(ref_csv, xs, ys)
    dump(
        tpl_csv,
        xs + 0.4 * np.sin(2 * np.pi * ys / 12.0),
        ys + 0.3 * np.cos(2 * np.pi * xs / 16.0),
    )
    return ref_csv, tpl_csv


_PIPELINE_FILES = [
    "lidar.raster",
    "lidar.raster.hdr",
    "tpl.raster",
    "tpl.raster.hdr",
    "reg.field.raster",
    "reg.field.raster.hdr",
    "reg.registered.raster",
    "reg.registered.raster.hdr",
    "reg.trace.txt",
    "reg.metrics.json",
    "rep.diff.raster",
    "rep.diff.raster.hdr",
    "rep.diff.pgm",
    "rep.diff.txt",
]


def _run_pipeline(root, label, ref_csv, tpl_csv, threads=None):
    d = root / label
    d.mkdir()
    pre = [] if threads is None else ["--threads", str(threads)]
    assert (
        main(
            pre
            + [
                "rasterize",
                "--points",
                str(ref_csv),
                "--cell",
                "0.5",
                "--out",
                str(d / "lidar.raster"),
            ]
        )
        == 0
    )
    assert (
        main(
            pre
            + [
                "rasterize",
                "--points",
                str(tpl_csv),
                "--cell",
                "0.5",
                "--out",
                str(d / "tpl.raster"),
            ]
        )
        == 0
    )
    assert (
        main(
            pre
            + [
                "register",
                "--ref",
                str(d / "lidar.raster"),
                "--tpl",
                str(d / "tpl.raster"),
                "--out",
                str(d / "reg"),
                "--measure",
                "NGF",
                "--alpha",
                "50",
                "--eta",
                "0.02",
                "--levels",
                "2",
                "--max-iters",
                "60",
                "--tol",
                "1e-6",
            ]
        )
        == 0
    )
    assert (
        main(
            pre
            + [
                "report",
                "--mode",
                "diff",
                "--a",
                str(d / "reg.registered.raster"),
                "--b",
                str(d / "lidar.raster"),
                "--out",
                str(d / "rep"),
            ]
        )
        == 0
    )
    return d


def test_pipeline_outputs_are_byte_deterministic(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    ref_csv, tpl_csv = _write_clouds(root)
    base = _run_pipeline(root, "a", ref_csv, tpl_csv)
    others = [
        _run_pipeline(root, "b", ref_csv, tpl_csv),
        _run_pipeline(root, "t1", ref_csv, tpl_csv, threads=1),
        _run_pipeline(root, "t2", ref_csv, tpl_csv, threads=2),
    ]
    mismatches = [
        (other.name, name)
        for other in others
        for name in _PIPELINE_FILES
        if not filecmp.cmp(base / name, other / name, shallow=False)
    ]
    ok = not mismatches
    detail = _verdict(
        "pipeline-determinism",
        ok,
        "rasterize+register+report: %d files byte-identical across rerun and "
        "thread counts 1/2%s"
        % (len(_PIPELINE_FILES), "" if ok else "; mismatches: %s" % mismatches),
    )
    assert ok, detail


# ---------------------------------------------------------------------------
# photo footprint model


def test_photo_footprint_dimensions():
    meta = PhotoMetadata(
        centre_easting=450_000.0, centre_northing=5_430_000.0, width_px=7000, height_px=5000
    )
    fp = photo_footprint(meta)
    centred = (
        fp.min_easting == meta.centre_easting - fp.width / 2.0
        and fp.min_northing == meta.centre_northing - fp.height / 2.0
    )
    ok = fp.width == 2400.0 and fp.height == 1800.0 and centred
    detail = _verdict(
        "photo-footprint",
        ok,
        "7000x5000 px -> %.1f x %.1f m (expect exactly 2400 x 1800, centred)"
        % (fp.width, fp.height),
    )
    assert ok, detail


# ---------------------------------------------------------------------------
# solver comparison


def test_lbfgs_converges_in_fewer_iterations(affine_scene):
    lbfgs = affine_scene["l-bfgs"]
    semi = affine_scene["semi-implicit"]
    ok = (
        lbfgs["converged"]
        and semi["converged"]
        and lbfgs["iterations"] < semi["iterations"]
    )
    detail = _verdict(
        "solver-iterations",
        ok,
        "l-bfgs %d < semi-implicit %d iterations to tolerance (both converged)"
        % (lbfgs["iterations"], semi["iterations"]),
    )
    assert ok, detail
