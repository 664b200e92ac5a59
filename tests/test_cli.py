"""Command line workflow, exit codes and manifests."""

import dataclasses
import json

import numpy as np
import pytest

from fusereg.affine import AffineParams, affine_to_displacement
from fusereg.cli import main
from fusereg.evaluation import synthetic_texture
from fusereg.grid import GridGeometry, ScalarImage, warp
from fusereg.nonparametric import RegistrationConfig
from fusereg.raster_io import read_field, read_image, read_raster, write_image


POINTS_CSV = (
    "easting,northing,elevation,intensity,return\n"
    "10.0,20.0,5.0,100.0,1\n"
    "11.0,20.0,5.5,200.0,1\n"
    "11.0,21.0,6.0,50.0,2\n"
    "12.0,21.0,6.5,75.0,1\n"
)


def write_pair(tmp_path, n=48, shift=(2.0, 0.0), seed=11):
    """Reference texture raster and a shifted template raster."""
    g = GridGeometry(n, n)
    ref = synthetic_texture(g, seed=seed, smoothness=2.0)
    gen = AffineParams(1.0, 0.0, 0.0, 1.0, float(shift[0]), float(shift[1]))
    tem = warp(ref, affine_to_displacement(gen, g))
    ref_path = tmp_path / "ref.raster"
    tpl_path = tmp_path / "tpl.raster"
    write_image(ref_path, ref)
    write_image(tpl_path, tem)
    return str(ref_path), str(tpl_path)


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# rasterize


def test_rasterize_writes_raster_and_manifest(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text(POINTS_CSV)
    out = tmp_path / "lidar.raster"
    assert run("rasterize", "--points", pts, "--cell", "1.0", "--out", out) == 0
    img = read_image(out)
    assert img.values[0, 0] == 100.0
    manifest = json.loads((tmp_path / "lidar.raster.manifest.json").read_text())
    assert manifest["command"] == "rasterize"
    assert manifest["config"]["cell"] == 1.0
    assert manifest["inputs"]["points"] == str(pts)
    assert manifest["seed"] == 0
    assert manifest["threads"] >= 1


def test_rasterize_creates_output_directory(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text(POINTS_CSV)
    out = tmp_path / "deep" / "nested" / "lidar.raster"
    assert run("rasterize", "--points", pts, "--out", out) == 0
    assert out.exists()


def test_rasterize_missing_points_exits_3(tmp_path):
    assert run("rasterize", "--points", tmp_path / "absent.csv", "--out", tmp_path / "x") == 3


def test_rasterize_malformed_points_exits_3(tmp_path):
    pts = tmp_path / "bad.csv"
    pts.write_text("1,2,3\n")
    assert run("rasterize", "--points", pts, "--out", tmp_path / "x") == 3


def test_rasterize_bad_cell_exits_2(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text(POINTS_CSV)
    for cell in ("0", "nan", "inf"):
        assert run("rasterize", "--points", pts, "--cell", cell, "--out", tmp_path / "x") == 2


# ---------------------------------------------------------------------------
# register


def test_register_nonparametric_outputs(tmp_path):
    ref, tpl = write_pair(tmp_path)
    out = tmp_path / "run" / "reg"
    rc = run(
        "register", "--ref", ref, "--tpl", tpl, "--out", out,
        "--measure", "SSD", "--alpha", "1.0", "--levels", "1",
        "--max-iters", "60",
    )
    assert rc == 0
    u = read_field(str(out) + ".field.raster")
    assert u.geometry.shape == (48, 48)
    # the generating transform shifts by -2, so the template is ref(x+2)
    # and the recovered field moves the bulk of the image by +2
    assert np.median(u.u_x) == pytest.approx(2.0, abs=0.2)
    registered = read_image(str(out) + ".registered.raster")
    assert registered.geometry.shape == (48, 48)
    metrics = json.loads((tmp_path / "run" / "reg.metrics.json").read_text())
    assert metrics["method"] == "np"
    assert metrics["mad_registered"] <= metrics["mad_unregistered"]
    assert metrics["iterations"] > 0
    trace_text = (tmp_path / "run" / "reg.trace.txt").read_text()
    assert "level=0" in trace_text
    manifest = json.loads((tmp_path / "run" / "reg.manifest.json").read_text())
    assert manifest["config"]["measure"] == "SSD"
    assert manifest["config"]["method"] == "np"
    for f in dataclasses.fields(RegistrationConfig):
        assert f.name in manifest["config"], f.name


def test_register_affine_outputs(tmp_path):
    ref, tpl = write_pair(tmp_path, shift=(1.5, -1.0))
    out = tmp_path / "aff"
    # NCC: the CLI normalizes each raster to its own range, so the pair
    # differs by an intensity gain that SSD would trade against alignment
    rc = run(
        "register", "--ref", ref, "--tpl", tpl, "--out", out,
        "--method", "affine", "--measure", "NCC", "--levels", "1",
        "--max-iters", "300", "--tol", "1e-10",
    )
    assert rc == 0
    params = AffineParams.from_text((tmp_path / "aff.affine.txt").read_text())
    # registration recovers the inverse of the generating transform
    np.testing.assert_allclose(params.translation, [-1.5, 1.0], atol=0.1)
    np.testing.assert_allclose(params.matrix, np.eye(2), atol=5e-3)


def test_register_preset_sets_parameters(tmp_path):
    ref, tpl = write_pair(tmp_path)
    out = tmp_path / "preset"
    rc = run(
        "register", "--ref", ref, "--tpl", tpl, "--out", out,
        "--preset", "photo-to-hs", "--levels", "1", "--max-iters", "2",
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "preset.manifest.json").read_text())
    assert manifest["config"]["alpha"] == 1.5e5
    assert manifest["config"]["eta"] == 0.03
    # an explicit flag overrides the preset
    rc = run(
        "register", "--ref", ref, "--tpl", tpl, "--out", out,
        "--preset", "photo-to-hs", "--eta", "0.5", "--levels", "1",
        "--max-iters", "2",
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "preset.manifest.json").read_text())
    assert manifest["config"]["eta"] == 0.5


def test_register_resamples_template_grid(tmp_path):
    g_ref = GridGeometry(48, 48, 1.0, 1.0, 100.0, 200.0)
    ref = synthetic_texture(g_ref, seed=4, smoothness=2.0)
    # same scene on a finer, offset grid
    g_tpl = GridGeometry(96, 96, 0.5, 0.5, 100.0, 200.0)
    rng = np.random.default_rng(0)
    tem = ScalarImage(
        g_tpl, np.kron(ref.values, np.ones((2, 2)))
    )
    ref_path = tmp_path / "r.raster"
    tpl_path = tmp_path / "t.raster"
    write_image(ref_path, ref)
    write_image(tpl_path, tem)
    out = tmp_path / "rs"
    rc = run(
        "register", "--ref", ref_path, "--tpl", tpl_path, "--out", out,
        "--measure", "SSD", "--alpha", "1.0", "--levels", "1", "--max-iters", "10",
    )
    assert rc == 0
    u = read_field(str(out) + ".field.raster")
    assert u.geometry.shape == (48, 48)  # template was brought to the ref grid


def test_register_constant_image_exits_4(tmp_path):
    g = GridGeometry(32, 32)
    write_image(tmp_path / "flat.raster", ScalarImage(g, np.full(g.shape, 3.0)))
    write_image(tmp_path / "tex.raster", synthetic_texture(g, seed=1))
    rc = run(
        "register", "--ref", tmp_path / "tex.raster",
        "--tpl", tmp_path / "flat.raster", "--out", tmp_path / "x",
    )
    assert rc == 4


def test_register_missing_input_exits_3(tmp_path):
    ref, _ = write_pair(tmp_path)
    assert run("register", "--ref", ref, "--tpl", tmp_path / "no.raster", "--out", tmp_path / "x") == 3


def test_register_bad_flag_value_exits_2(tmp_path):
    ref, tpl = write_pair(tmp_path)
    for bad in ("-5", "nan", "inf"):
        assert run(
            "register", "--ref", ref, "--tpl", tpl, "--out", tmp_path / "x",
            "--alpha", bad,
        ) == 2, bad


def test_register_rerun_is_byte_identical(tmp_path):
    ref, tpl = write_pair(tmp_path)
    for sub in ("one", "two"):
        out = tmp_path / sub / "reg"
        rc = run(
            "register", "--ref", ref, "--tpl", tpl, "--out", out,
            "--measure", "SSD", "--alpha", "1.0", "--levels", "1",
            "--max-iters", "40",
        )
        assert rc == 0
    for name in ("reg.field.raster", "reg.registered.raster", "reg.trace.txt", "reg.metrics.json"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


# ---------------------------------------------------------------------------
# report


def test_report_diff_mode(tmp_path):
    ref, tpl = write_pair(tmp_path)
    out = tmp_path / "rep"
    assert run("report", "--mode", "diff", "--a", ref, "--b", tpl, "--out", out) == 0
    assert (tmp_path / "rep.diff.raster").exists()
    assert (tmp_path / "rep.diff.pgm").read_bytes().startswith(b"P5")
    stats = (tmp_path / "rep.diff.txt").read_text()
    assert stats.startswith("mad = ")
    assert float(stats.split("=")[1]) > 0.0


def test_report_checkerboard_mode(tmp_path):
    ref, tpl = write_pair(tmp_path)
    out = tmp_path / "board"
    rc = run(
        "report", "--mode", "checkerboard", "--a", ref, "--b", tpl,
        "--out", out, "--tiles", "4",
    )
    assert rc == 0
    geom, bands, _, _ = read_raster(str(out) + ".checkerboard.raster")
    assert geom.shape == (48, 48)


# ---------------------------------------------------------------------------
# mosaic


def make_tiles(tmp_path, overlap=False):
    shift = 6.0 if overlap else 8.0
    g_a = GridGeometry(8, 8, 1.0, 1.0, 0.0, 0.0)
    g_b = GridGeometry(8, 8, 1.0, 1.0, shift, 0.0)
    rng = np.random.default_rng(5)
    a = ScalarImage(g_a, rng.uniform(0.1, 0.9, g_a.shape))
    b = ScalarImage(g_b, rng.uniform(0.1, 0.9, g_b.shape))
    pa = tmp_path / "tile_a.raster"
    pb = tmp_path / "tile_b.raster"
    write_image(pa, a)
    write_image(pb, b)
    return pa, pb


def test_mosaic_two_tiles(tmp_path):
    pa, pb = make_tiles(tmp_path)
    out = tmp_path / "mos"
    assert run("mosaic", "--tile", pa, "--tile", pb, "--out", out) == 0
    composite = read_image(str(out) + ".mosaic.raster")
    assert composite.geometry.shape == (8, 16)
    seams = (tmp_path / "mos.seams.txt").read_text().strip().splitlines()
    assert len(seams) == 1
    assert seams[0].startswith("seam tiles=tile_a|tile_b")
    manifest = json.loads((tmp_path / "mos.manifest.json").read_text())
    assert manifest["command"] == "mosaic"
    assert len(manifest["config"]["tiles"]) == 2


def test_mosaic_alpha_without_ref_exits_2(tmp_path):
    pa, pb = make_tiles(tmp_path)
    rc = run("mosaic", "--tile", f"{pa}:100.0", "--tile", pb, "--out", tmp_path / "m")
    assert rc == 2


def test_mosaic_bad_flag_exits_2_before_writing(tmp_path):
    pa, pb = make_tiles(tmp_path)
    assert run("mosaic", "--tile", pa, "--tile", pb, "--alpha", "-5", "--out", tmp_path / "m") == 2
    assert not list(tmp_path.glob("m.*"))


def test_mosaic_misaligned_tiles_exits_4(tmp_path):
    g_a = GridGeometry(8, 8, 1.0, 1.0, 0.0, 0.0)
    g_b = GridGeometry(8, 8, 1.0, 1.0, 4.5, 0.0)
    rng = np.random.default_rng(5)
    pa = tmp_path / "a.raster"
    pb = tmp_path / "b.raster"
    write_image(pa, ScalarImage(g_a, rng.uniform(0.1, 0.9, g_a.shape)))
    write_image(pb, ScalarImage(g_b, rng.uniform(0.1, 0.9, g_b.shape)))
    assert run("mosaic", "--tile", pa, "--tile", pb, "--out", tmp_path / "m") == 4


def test_mosaic_with_reregistration(tmp_path):
    g = GridGeometry(64, 64)
    ref = synthetic_texture(g, seed=31, smoothness=2.0)
    gen = AffineParams(1.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    tile = warp(ref, affine_to_displacement(gen, g))
    ref_path = tmp_path / "ref.raster"
    tile_path = tmp_path / "tile.raster"
    write_image(ref_path, ref)
    write_image(tile_path, tile)
    out = tmp_path / "rr"
    rc = run(
        "mosaic", "--tile", f"{tile_path}:1.0", "--ref", ref_path,
        "--out", out, "--measure", "SSD", "--levels", "1", "--max-iters", "40",
    )
    assert rc == 0
    composite = read_image(str(out) + ".mosaic.raster")
    assert composite.geometry.shape == (64, 64)


# ---------------------------------------------------------------------------
# global flags


def test_threads_flag_validation(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text(POINTS_CSV)
    assert run("--threads", "0", "rasterize", "--points", pts, "--out", tmp_path / "x") == 2
    assert run("--threads", "2", "rasterize", "--points", pts, "--out", tmp_path / "x") == 0


def test_threads_env_fallback(tmp_path, monkeypatch):
    pts = tmp_path / "pts.csv"
    pts.write_text(POINTS_CSV)
    monkeypatch.setenv("FUSEREG_THREADS", "junk")
    assert run("rasterize", "--points", pts, "--out", tmp_path / "x") == 2
    monkeypatch.setenv("FUSEREG_THREADS", "1")
    out = tmp_path / "y.raster"
    assert run("rasterize", "--points", pts, "--out", out) == 0
    manifest = json.loads((tmp_path / "y.raster.manifest.json").read_text())
    assert manifest["threads"] == 1


def test_seed_recorded_in_manifest(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text(POINTS_CSV)
    out = tmp_path / "s.raster"
    assert run("--seed", "42", "rasterize", "--points", pts, "--out", out) == 0
    manifest = json.loads((tmp_path / "s.raster.manifest.json").read_text())
    assert manifest["seed"] == 42


@pytest.mark.parametrize("line", ["origin_easting = nan", "spacing_x = inf", "width = 1"])
def test_report_bad_header_exits_3(tmp_path, line):
    ref, tpl = write_pair(tmp_path)
    hdr = tmp_path / "ref.raster.hdr"
    hdr.write_text(hdr.read_text() + line + "\n")  # a repeated key overrides
    assert run("report", "--mode", "diff", "--a", ref, "--b", tpl, "--out", tmp_path / "r") == 3


# ---------------------------------------------------------------------------
# manifests


@pytest.mark.parametrize("command", ["rasterize", "register", "report", "mosaic"])
def test_manifest_has_the_six_keys(tmp_path, command):
    pts = tmp_path / "pts.csv"
    pts.write_text(POINTS_CSV)
    ref, tpl = write_pair(tmp_path)
    pa, pb = make_tiles(tmp_path)
    argv = {
        "rasterize": ["--points", pts],
        "register": ["--ref", ref, "--tpl", tpl, "--levels", "1", "--max-iters", "2"],
        "report": ["--mode", "diff", "--a", ref, "--b", tpl],
        "mosaic": ["--tile", pa, "--tile", pb],
    }[command]
    assert run(command, *argv, "--out", tmp_path / "runs" / command) == 0
    manifest = json.loads((tmp_path / "runs" / (command + ".manifest.json")).read_text())
    assert set(manifest) == {"command", "inputs", "outputs", "config", "seed", "threads"}
    assert manifest["command"] == command


@pytest.mark.parametrize("command", ["rasterize", "register", "report", "mosaic"])
def test_failing_command_writes_no_manifest(tmp_path, command):
    missing = tmp_path / "absent.raster"
    argv = {
        "rasterize": ["--points", tmp_path / "absent.csv"],
        "register": ["--ref", missing, "--tpl", missing],
        "report": ["--mode", "diff", "--a", missing, "--b", missing],
        "mosaic": ["--tile", missing],
    }[command]
    assert run(command, *argv, "--out", tmp_path / "x") == 3
    assert not (tmp_path / "x.manifest.json").exists()
