"""Command line workflow, exit codes and manifests."""

import dataclasses
import json

import numpy as np
import pytest

from fusereg import cli
from fusereg.affine import AffineParams, affine_to_displacement
from fusereg.cli import main
from fusereg.errors import DivergenceError, FormatError
from fusereg.evaluation import (
    ExperimentScenario,
    SyntheticDeformation,
    endpoint_error,
    run_experiment,
    synthetic_texture,
)
from fusereg.grid import GridGeometry, ScalarImage, resample_to_geometry, warp
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


@pytest.mark.parametrize(
    "content, line", [(b"1,2,3,4,1\n1,2,3,4,\xe9\n", 2), (b"caf\xe9,y,z,i,r\n1,2,3,4,1\n", 1)]
)
def test_rasterize_non_ascii_points_exits_3(tmp_path, capsys, content, line):
    pts = tmp_path / "latin.csv"
    pts.write_bytes(content)
    assert run("rasterize", "--points", pts, "--out", tmp_path / "x") == 3
    assert "%s:%d: non-ASCII byte" % (pts, line) in capsys.readouterr().err


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


def test_register_metrics_match_the_experiment_report(tmp_path, monkeypatch):
    # one synthetic pair, registered through `fusereg register` and through
    # run_experiment, gives the same five summary values
    cfg = RegistrationConfig(measure="SSD", alpha=1.0, max_levels=2, max_iters_per_level=30)
    bump = SyntheticDeformation(kind="gaussian-bump", amplitude=2.0, sigma=8.0)
    report, artifacts = run_experiment(
        ExperimentScenario("bump", 64, 64, seed=3, deformation=bump, config=cfg)
    )
    assert not report.failed
    # the rasters store float32 and the CLI normalizes what it reads, so
    # hand it the experiment's own pair
    pair = (artifacts["reference"], artifacts["template"])
    monkeypatch.setattr(cli, "_load_pair", lambda ref_path, tpl_path: pair)
    out = tmp_path / "reg"
    rc = run(
        "register", "--ref", "ref.raster", "--tpl", "tpl.raster", "--out", out,
        "--measure", "SSD", "--alpha", "1.0", "--levels", "2", "--max-iters", "30",
    )
    assert rc == 0
    metrics = json.loads((tmp_path / "reg.metrics.json").read_text())
    for key in ("final_objective", "iterations", "converged", "mad_registered",
                "mad_unregistered"):
        assert metrics[key] == getattr(report, key), key
    assert report.iterations > 0
    assert report.mad_registered < report.mad_unregistered


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


def test_register_divergence_exits_4_with_its_message(tmp_path, monkeypatch, capsys):
    ref, tpl = write_pair(tmp_path, n=32)

    def diverge(*args, **kwargs):
        raise DivergenceError("objective is not finite at the starting point")

    monkeypatch.setattr(cli, "register_multilevel", diverge)
    assert run("register", "--ref", ref, "--tpl", tpl, "--out", tmp_path / "new" / "hs") == 4
    err = capsys.readouterr().err.splitlines()
    assert "fusereg: registration diverged: objective is not finite at the starting point" in err
    assert not (tmp_path / "new").exists()


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
# registration settings

# flag, value on the command line, the RegistrationConfig field it sets and
# the value that field gets; none equals its default or a preset's value
REGISTRATION_FLAGS = [
    ("--measure", "SSD", "measure", "SSD"),
    ("--alpha", "2.5", "alpha", 2.5),
    ("--eta", "0.2", "eta", 0.2),
    ("--solver", "gauss-newton", "solver", "gauss-newton"),
    ("--levels", "3", "max_levels", 3),
    ("--max-iters", "7", "max_iters_per_level", 7),
    ("--tol", "1e-4", "rel_tolerance", 1e-4),
    ("--dt", "0.5", "dt", 0.5),
]


@pytest.mark.parametrize("command", ["register", "mosaic"])
@pytest.mark.parametrize("preset", [None, "photo-to-hs"])
@pytest.mark.parametrize("flag,text,name,value", REGISTRATION_FLAGS)
def test_each_registration_flag_sets_its_config_field(command, preset, flag, text, name, value):
    inputs = {"register": ["--tpl", "t.raster"], "mosaic": ["--tile", "t.raster"]}[command]
    head = [command, "--ref", "r.raster", "--out", "x", *inputs]
    head += ["--preset", preset] if preset else []
    base = cli._build_config(cli.build_parser().parse_args(head))
    cfg = cli._build_config(cli.build_parser().parse_args(head + [flag, text]))
    assert getattr(base, name) != value
    assert cfg == dataclasses.replace(base, **{name: value})


def test_register_manifest_records_the_config(tmp_path):
    ref, tpl = write_pair(tmp_path)
    rc = run(
        "register", "--ref", ref, "--tpl", tpl, "--out", tmp_path / "a",
        "--measure", "SSD", "--alpha", "2.5", "--eta", "0.2", "--solver", "gauss-newton",
        "--levels", "1", "--max-iters", "3", "--tol", "1e-4", "--dt", "0.5",
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    assert manifest["config"] == {
        "alpha": 2.5, "dt": 0.5, "eta": 0.2, "max_iters_per_level": 3, "max_levels": 1,
        "measure": "SSD", "method": "np", "mi_bins": 64, "mi_parzen_sigma": 1.0,
        "rel_tolerance": 1e-4, "solver": "gauss-newton",
    }
    rc = run(
        "register", "--ref", ref, "--tpl", tpl, "--out", tmp_path / "b",
        "--preset", "photo-to-hs", "--levels", "1", "--max-iters", "2",
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "b.manifest.json").read_text())
    assert manifest["config"] == {
        "alpha": 1.5e5, "dt": 1.0, "eta": 0.03, "max_iters_per_level": 2, "max_levels": 1,
        "measure": "NGF", "method": "np", "mi_bins": 64, "mi_parzen_sigma": 1.0,
        "rel_tolerance": 1e-6, "solver": "l-bfgs",
    }


def test_register_zero_levels_exits_2(tmp_path):
    ref, tpl = write_pair(tmp_path)
    assert run("register", "--ref", ref, "--tpl", tpl, "--out", tmp_path / "x",
               "--levels", "0") == 2


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
# the pair both commands compare


def write_offset_pair(tmp_path, origin):
    """A 40x40 texture at 1 m cells and a template whose grid starts at ``origin``."""
    ref = synthetic_texture(GridGeometry(40, 40), seed=1, smoothness=2.0)
    tpl = synthetic_texture(GridGeometry(40, 40, 1.0, 1.0, *origin), seed=2, smoothness=2.0)
    write_image(tmp_path / "ref.raster", ref)
    write_image(tmp_path / "tpl.raster", tpl)
    return tmp_path / "ref.raster", tmp_path / "tpl.raster"


@pytest.mark.parametrize(
    "command", [("register",), ("report", "--mode", "diff"), ("report", "--mode", "checkerboard")]
)
def test_disjoint_pair_exits_4_naming_both_files(tmp_path, capsys, command):
    ref, tpl = write_offset_pair(tmp_path, (1000.0, 0.0))
    a, b = ("--ref", "--tpl") if command == ("register",) else ("--a", "--b")
    assert run(*command, a, ref, b, tpl, "--out", tmp_path / "out" / "x") == 4
    assert "fusereg: %s and %s share no valid pixel" % (tpl, ref) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_register_refuses_a_template_constant_on_the_shared_pixels(tmp_path, capsys):
    ref, tpl = write_offset_pair(tmp_path, (39.0, 39.0))  # one pixel in common
    assert run("register", "--ref", ref, "--tpl", tpl, "--out", tmp_path / "x") == 4
    err = capsys.readouterr().err
    assert "fusereg: %s is constant on the pixels it shares with %s" % (tpl, ref) in err
    # a report compares, it does not register: one shared pixel is enough
    assert run("report", "--mode", "diff", "--a", ref, "--b", tpl, "--out", tmp_path / "d") == 0


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
    # the tile's alpha drives its registration; the manifest records the
    # flags' configuration beside it
    manifest = json.loads((tmp_path / "rr.manifest.json").read_text())
    assert manifest["config"] == {
        "tiles": [{"path": str(tile_path), "alpha": 1.0}],
        "registration": {
            "alpha": 5000.0, "dt": 1.0, "eta": 0.1, "max_iters_per_level": 40,
            "max_levels": 1, "measure": "SSD", "mi_bins": 64, "mi_parzen_sigma": 1.0,
            "rel_tolerance": 1e-6, "solver": "l-bfgs",
        },
    }


def test_mosaic_refuses_a_bad_tile_alpha_before_reading_a_raster(tmp_path, capsys):
    ref, tpl = write_offset_pair(tmp_path, (1000.0, 0.0))  # registering would exit 4
    for spec in ("%s:-5" % tpl, "%s:nan" % tpl, "%s:-5" % (tmp_path / "missing.raster")):
        rc = run("mosaic", "--tile", tpl, "--tile", spec, "--ref", ref, "--out", tmp_path / "m")
        assert rc == 2, spec
        assert "alpha must be finite and positive" in capsys.readouterr().err


def test_mosaic_refuses_a_tile_alpha_that_is_not_a_number(tmp_path, capsys, monkeypatch):
    ref, tpl = write_offset_pair(tmp_path, (1000.0, 0.0))
    read = []
    monkeypatch.setattr(cli.raster_io, "read_image", lambda path: read.append(path))
    for spec in ("%s:5e" % tpl, "%s:" % tpl, "%s:one" % (tmp_path / "missing.raster")):
        rc = run("mosaic", "--tile", tpl, "--tile", spec, "--ref", ref, "--out", tmp_path / "m")
        assert rc == 2, spec
        assert "is not a number" in capsys.readouterr().err
    assert read == []


def test_mosaic_takes_a_tile_path_that_holds_a_colon(tmp_path):
    pa, pb = make_tiles(tmp_path)
    colon = tmp_path / "x:y.raster"
    write_image(colon, read_image(pa))
    assert run("mosaic", "--tile", colon, "--tile", pb, "--out", tmp_path / "m") == 0
    assert read_image(str(tmp_path / "m.mosaic.raster")).geometry.shape == (8, 16)
    manifest = json.loads((tmp_path / "m.manifest.json").read_text())
    assert manifest["config"]["tiles"][0] == {"path": str(colon), "alpha": None}


def test_mosaic_tile_on_the_reference_grid_is_registered_as_register_does(tmp_path):
    ref, tpl = write_pair(tmp_path)
    flags = ["--measure", "SSD", "--levels", "2", "--max-iters", "30"]
    assert run("register", "--ref", ref, "--tpl", tpl, "--alpha", "2.5",
               "--out", tmp_path / "r", *flags) == 0
    assert run("mosaic", "--tile", tpl + ":2.5", "--ref", ref, "--out", tmp_path / "m", *flags) == 0
    for suffix in ("", ".hdr"):
        registered = (tmp_path / ("r.registered.raster" + suffix)).read_bytes()
        assert (tmp_path / ("m.mosaic.raster" + suffix)).read_bytes() == registered
    assert (tmp_path / "m.mosaic.raster").read_bytes() != (tmp_path / "tpl.raster").read_bytes()


E0, N0 = 355200.0, 5687400.0


# tile grid, reference grid, texture grid, the tile pixels scored (the
# reference's coverage less a 3-pixel band) and the epe_mean bound; seed 7
# measures 0.154 px (bound margin 0.046) and 0.056 px (0.024), where the
# zero field scores 0.310 and 0.223 px
@pytest.mark.parametrize(
    "tile_g,ref_g,texture_g,box,bound",
    [
        (GridGeometry(96, 96, 0.5, 0.5, E0, N0), GridGeometry(96, 96, 0.5, 0.5, E0 + 8.0, N0 + 6.0),
         GridGeometry(120, 120, 0.5, 0.5, E0 - 5.0, N0 - 5.0), (slice(15, 93), slice(19, 93)), 0.2),
        (GridGeometry(96, 96), GridGeometry(56, 56, 2.0, 2.0, -8.0, -8.0),
         GridGeometry(240, 240, 0.5, 0.5, -10.0, -10.0), (slice(3, 93), slice(3, 93)), 0.08),
    ],
    ids=["partial-0.5m-georeferenced", "1m-tile-on-2m-reference"],
)
def test_mosaic_reregistration_recovers_a_bump(tmp_path, monkeypatch, tile_g, ref_g, texture_g,
                                               box, bound):
    texture = synthetic_texture(texture_g, seed=7, smoothness=4.0)
    bump = SyntheticDeformation("gaussian-bump", amplitude=2.0, sigma=12.0)
    write_image(tmp_path / "tile.raster", warp(resample_to_geometry(texture, tile_g),
                                               bump.realized(tile_g)))
    write_image(tmp_path / "ref.raster", resample_to_geometry(texture, ref_g))
    fields = []

    def warp_and_keep_the_field(image, u):
        fields.append(u)
        return warp(image, u)

    monkeypatch.setattr(cli, "warp", warp_and_keep_the_field)
    assert run("mosaic", "--tile", "%s:50" % (tmp_path / "tile.raster"),
               "--ref", tmp_path / "ref.raster", "--measure", "NGF", "--eta", "0.02",
               "--levels", "3", "--out", tmp_path / "m") == 0
    _, err = endpoint_error(fields[0], bump.inverse(tile_g), margin=0)
    assert err[box].mean() < bound


@pytest.mark.parametrize(
    "origin,message",
    [
        ((1000.0, 0.0), "%s and %s share no valid pixel"),
        ((39.0, 0.0), "%s and %s overlap in a window smaller than 2x2 pixels"),
        ((20.0, 0.0), "%s is constant on the pixels it shares with %s"),
    ],
    ids=["disjoint", "one-column", "constant"],
)
def test_mosaic_reregistration_refuses_what_register_refuses(tmp_path, capsys, origin, message):
    ref, tpl = write_offset_pair(tmp_path, origin)
    if message.startswith("%s is constant"):  # flat over the 20 columns the reference covers
        tile = read_image(tpl)
        write_image(tpl, tile.with_values(np.where(np.arange(40) < 20, 0.5, tile.values)))
    rc = run("mosaic", "--tile", "%s:5" % tpl, "--ref", ref, "--out", tmp_path / "out" / "m")
    assert rc == 4
    assert "fusereg: " + message % (tpl, ref) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "line", ["origin_easting = nan", "spacing_x = inf", "width = 1", "spacng_x = 0.5"]
)
def test_report_bad_header_exits_3(tmp_path, line):
    ref, tpl = write_pair(tmp_path)
    hdr = tmp_path / "ref.raster.hdr"
    key = line.partition(" = ")[0]
    kept = [ln for ln in hdr.read_text().splitlines() if not ln.startswith(key + " ")]
    hdr.write_text("\n".join(kept + [line]) + "\n")
    assert run("report", "--mode", "diff", "--a", ref, "--b", tpl, "--out", tmp_path / "r") == 3


def test_report_non_ascii_header_exits_3(tmp_path, capsys):
    ref, tpl = write_pair(tmp_path)
    hdr = tmp_path / "ref.raster.hdr"
    hdr.write_bytes(hdr.read_bytes() + b"# caf\xe9\n")
    assert run("report", "--mode", "diff", "--a", ref, "--b", tpl, "--out", tmp_path / "r") == 3
    assert "ref.raster.hdr:" in capsys.readouterr().err


def test_report_non_finite_raster_exits_3(tmp_path, capsys):
    ref, tpl = write_pair(tmp_path)
    payload = np.fromfile(ref, dtype="<f4")
    payload[100] = np.nan
    payload.tofile(ref)
    assert run("report", "--mode", "diff", "--a", ref, "--b", tpl, "--out", tmp_path / "r") == 3
    assert "ref.raster: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# manifests


@pytest.mark.parametrize("command", ["rasterize", "register", "report", "mosaic"])
def test_manifest_has_the_five_keys(tmp_path, command):
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
    assert set(manifest) == {"command", "inputs", "outputs", "config", "threads"}
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


def failing_argv(tmp_path, code):
    """Arguments of a command that exits with ``code`` before writing anything."""
    pts = tmp_path / "pts.csv"
    pts.write_text(POINTS_CSV)
    if code == 2:
        return ["rasterize", "--points", pts, "--cell", "nan"]
    if code == 3:
        latin = tmp_path / "latin.csv"
        latin.write_bytes(POINTS_CSV.encode() + b"\xe9\n")
        return ["rasterize", "--points", latin]
    g = GridGeometry(32, 32)
    write_image(tmp_path / "flat.raster", ScalarImage(g, np.full(g.shape, 3.0)))
    write_image(tmp_path / "tex.raster", synthetic_texture(g, seed=1))
    return ["register", "--ref", tmp_path / "tex.raster", "--tpl", tmp_path / "flat.raster"]


@pytest.mark.parametrize("code", [2, 3, 4])
def test_failing_command_removes_the_directories_it_made(tmp_path, code):
    argv = failing_argv(tmp_path, code)
    before = sorted(tmp_path.iterdir())
    (tmp_path / "kept").mkdir()
    assert run(*argv, "--out", tmp_path / "new" / "deeper" / "x") == code
    assert run(*argv, "--out", tmp_path / "kept" / "new" / "x") == code
    assert sorted(tmp_path.iterdir()) == sorted(before + [tmp_path / "kept"])
    assert not any((tmp_path / "kept").iterdir())


def test_failing_command_keeps_a_directory_that_holds_files(tmp_path, monkeypatch):
    def half_done(args):
        with open(args.out + ".partial", "w", encoding="ascii") as fh:
            fh.write("x\n")
        raise FormatError("failed after writing")

    monkeypatch.setattr("fusereg.cli.cmd_rasterize", half_done)
    out = tmp_path / "new" / "deeper" / "x"
    assert run("rasterize", "--points", tmp_path / "any.csv", "--out", out) == 3
    assert sorted(p.name for p in (tmp_path / "new" / "deeper").iterdir()) == ["x.partial"]
