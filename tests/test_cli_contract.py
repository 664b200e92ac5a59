"""The command line's exit-code contract under malformed input.

Every run ends in 0, 2 (parameters), 3 (files and formats) or 4 (numeric
failures) with a one-line message, never a traceback, and every raster a
run writes is finite outside its nodata mask.  A seeded fuzz mutates point
CSVs, raster headers and payloads, tile specs and numeric flags and calls
``cli.main`` in process.

Grid sizes stay small or astronomically large, never in between: a derived
grid past the cell cap must be refused before anything is allocated, and a
mid-sized grid (10^8 cells, say) would be allocated by a program that does
not refuse it.
"""

import os

import numpy as np
import pytest

from fusereg import cli, geo
from fusereg.errors import ParameterError
from fusereg.geo import LidarPointCloud, rasterize_lidar
from fusereg.grid import GridGeometry, ScalarImage
from fusereg.raster_io import write_image

EXITS = (0, 2, 3, 4)
E0, N0 = 355200.0, 5687400.0
FUZZ_SEED = 20261021
TRIALS = 240

CELLS = ("1", "0.5", "2", "0.25", "1e-9", "1e-300", "0", "-1", "nan", "inf")
# a moved return: metres from where it was, or a coordinate of its own
NEAR_OR_FAR = (1e15, -3.5, 12.25)
FAR_AWAY = (1e308, -1e308)
TOKENS = ("", "x", "1e999", "nan", "-5", "1.5", "0", "1e308", "\xe9", "1,2")
HEADER_VALUES = {
    "width": ("0", "1", "-3", "4", "16", "1000000000", "x", "8.0", ""),
    "height": ("0", "1", "-3", "4", "16", "1000000000", "x", ""),
    "bands": ("0", "2", "-1", "x"),
    "spacing_x": ("0", "-1", "nan", "inf", "1e-320", "1e300", "2", "1.0000001"),
    "spacing_y": ("0", "nan", "1e-320", "1e300", "2"),
    "origin_easting": ("nan", "inf", "1e308", "-1e308", repr(E0 + 0.5), repr(E0 + 1e13)),
    "origin_northing": ("nan", "-1e308", repr(N0 + 1e13), repr(N0 - 2.0)),
    "nodata": ("nan", "x", "0.5", "-9999"),
}
FLAGS = {
    "--alpha": ("5", "0", "-1", "nan", "inf", "1e308", "1e-308"),
    "--eta": ("0.1", "0", "-1", "nan", "1e308", "1e-308"),
    "--dt": ("1", "0", "nan", "1e308"),
    "--tol": ("1e-6", "0", "1", "2", "nan"),
    "--levels": ("1", "0", "-1", "3"),
    "--max-iters": ("0", "1", "3"),
    "--measure": ("SSD", "NCC", "MI", "NGF"),
    "--solver": ("l-bfgs", "semi-implicit", "gauss-newton", "trust-region"),
}
ALPHAS = ("2e5", "nan", "-1", "0", "x", "", "inf", "1e308")


def call(argv, capsys):
    """Run the command; check its exit code and message, and every raster
    it left in its output directory."""
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in EXITS, (argv, code, err)
    if code:
        assert "fusereg: " in err and "Traceback" not in err, (argv, err)
    out = os.path.dirname(str(argv[argv.index("--out") + 1]))
    if os.path.isdir(out):
        for name in os.listdir(out):
            if name.endswith(".raster"):
                assert_finite_outside_nodata(os.path.join(out, name))
    return code, err


def assert_finite_outside_nodata(path):
    """Read a raster without the program's reader and check its samples."""
    header = {}
    with open(path + ".hdr", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
    shape = (int(header["bands"]), int(header["height"]), int(header["width"]))
    data = np.fromfile(path, dtype="<f4").reshape(shape)
    valid = np.ones(shape[1:], dtype=bool)
    if "nodata" in header:
        valid = ~(data == np.float32(float(header["nodata"]))).any(axis=0)
    assert np.isfinite(data[:, valid]).all(), path


# ---------------------------------------------------------------------------
# inputs


def cloud_rows(rng, n=40):
    """x,y,z,intensity,return rows spanning exactly 10 m x 10 m."""
    rows = [[E0, N0], [E0 + 10.0, N0 + 10.0]] + [
        [E0 + x, N0 + y] for x, y in np.round(rng.uniform(0.0, 10.0, (n - 2, 2)), 2)
    ]
    return [
        [repr(float(e)), repr(float(nn)), "5.0", "%.1f" % rng.uniform(0.0, 255.0), str(rng.integers(1, 4))]
        for e, nn in rows
    ]


def write_csv(path, rows, header=True):
    lines = ["x,y,z,intensity,return"] if header else []
    path.write_text("\n".join(lines + [",".join(r) for r in rows]) + "\n", encoding="latin-1")


def write_tiles(folder, rng):
    """Two 8x8 rasters on one 1 m lattice, the second 4 m east of the first."""
    paths = []
    for k, shift in enumerate((0.0, 4.0)):
        g = GridGeometry(8, 8, 1.0, 1.0, E0 + shift, N0)
        path = folder / ("tile%d.raster" % k)
        write_image(path, ScalarImage(g, rng.uniform(0.1, 0.9, g.shape)))
        paths.append(path)
    return paths


def mutate_header(path, rng):
    hdr = path.with_name(path.name + ".hdr")
    lines = hdr.read_text().splitlines()
    key = rng.choice(sorted(HEADER_VALUES))
    value = rng.choice(HEADER_VALUES[key])
    lines = [ln for ln in lines if ln.partition("=")[0].strip() != key]
    hdr.write_text("\n".join(lines + ["%s = %s" % (key, value)]) + "\n")


def mutate_payload(path, rng):
    data = np.fromfile(path, dtype="<f4")
    kind = rng.integers(3)
    if kind == 0:
        data = data[: rng.integers(data.size)]
    else:
        data[rng.integers(data.size)] = np.float32(np.nan if kind == 1 else np.inf)
    data.astype("<f4").tofile(path)


def registration_flags(rng):
    argv = ["--max-iters", "3"]
    for flag in rng.choice(sorted(FLAGS), size=rng.integers(0, 3), replace=False):
        argv += ["%s=%s" % (flag, rng.choice(FLAGS[flag]))]
    return argv


# ---------------------------------------------------------------------------
# the fixed cases: grids past the cap


def test_rasterize_refuses_a_grid_past_the_cell_cap(tmp_path, capsys):
    for far, cell in ((1e308, "1"), (1e308, "0.5"), (None, "1e-9"), (E0 + 1e15, "1")):
        rows = cloud_rows(np.random.default_rng(1))
        if far is not None:
            rows[5][0] = repr(far)
        write_csv(tmp_path / "pts.csv", rows)
        argv = ["rasterize", "--points", tmp_path / "pts.csv", "--cell=" + cell,
                "--out", tmp_path / "out" / "lidar.raster"]
        code, err = call(argv, capsys)
        assert code == 2
        assert "returns span" in err and "cell size %g" % float(cell) in err
        assert not (tmp_path / "out").exists()


def test_mosaic_refuses_tiles_placed_past_the_cell_cap(tmp_path, capsys):
    paths = []
    for k, east in enumerate((E0, E0 + 1e13)):
        g = GridGeometry(4, 4, 1.0, 1.0, east, N0)
        paths.append(tmp_path / ("t%d.raster" % k))
        write_image(paths[-1], ScalarImage(g, np.linspace(0.1, 0.9, 16).reshape(4, 4)))
    argv = ["mosaic", "--tile", paths[0], "--tile", paths[1], "--out", tmp_path / "m" / "mos"]
    code, err = call(argv, capsys)
    assert code == 4 and "mosaic limit" in err


def test_the_cap_bounds_the_cells_of_a_derived_grid(monkeypatch):
    monkeypatch.setattr(geo, "MAX_GRID_CELLS", 100)
    ones = np.ones(2)
    for north, ok in ((9.0, True), (10.0, False)):
        cloud = LidarPointCloud(np.array([0.0, 9.0]), np.array([0.0, north]), ones, ones, ones)
        if ok:
            assert rasterize_lidar(cloud).geometry.shape == (10, 10)
        else:
            with pytest.raises(ParameterError, match="more than 100 cells"):
                rasterize_lidar(cloud)


# ---------------------------------------------------------------------------
# the fuzz


def trial(rng, folder, capsys):
    folder.mkdir()
    out = folder / "out" / "run"
    family = rng.integers(5)
    if family == 0:  # a return moved far away, any cell size
        rows = cloud_rows(rng)
        row, axis = rows[rng.integers(len(rows))], rng.integers(2)
        if rng.integers(2):
            row[axis] = repr(float(row[axis]) + float(rng.choice(NEAR_OR_FAR)))
        else:
            row[axis] = repr(float(rng.choice(FAR_AWAY)))
        write_csv(folder / "pts.csv", rows)
        argv = ["rasterize", "--points", folder / "pts.csv", "--cell=" + rng.choice(CELLS)]
    elif family == 1:  # a corrupted point file
        rows = cloud_rows(rng)
        row = rows[rng.integers(len(rows))]
        kind = rng.integers(4)
        if kind == 0:
            row[rng.integers(len(row))] = rng.choice(TOKENS)
        elif kind == 1:
            row.append(rng.choice(TOKENS))
        elif kind == 2:
            row.pop()
        else:
            rows = rows[: rng.integers(len(rows))]
        write_csv(folder / "pts.csv", rows, header=bool(rng.integers(2)))
        argv = ["rasterize", "--points", folder / "pts.csv", "--cell=1"]
    else:  # rasters with a mutated header or payload into report, register, mosaic
        a, b = write_tiles(folder, rng)
        target = a if rng.integers(2) else b
        (mutate_header if rng.integers(4) else mutate_payload)(target, rng)
        if family == 2:
            mode = rng.choice(("diff", "checkerboard"))
            argv = ["report", "--mode", mode, "--a", a, "--b", b,
                    "--tiles=" + rng.choice(("0", "-2", "1", "3", "1000000"))]
        elif family == 3:
            argv = ["register", "--ref", a, "--tpl", b,
                    "--method", rng.choice(("np", "affine"))] + registration_flags(rng)
        else:
            spec = str(b)
            if rng.integers(2):
                spec += ":" + rng.choice(ALPHAS)
            argv = ["mosaic", "--tile", a, "--tile", spec] + registration_flags(rng)
            if rng.integers(4):
                argv += ["--ref", a]
    return call(argv + ["--out", out], capsys)[0]


def test_every_malformed_input_ends_in_a_documented_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(FUZZ_SEED)
    codes = [trial(rng, tmp_path / ("t%d" % k), capsys) for k in range(TRIALS)]
    # the fuzz reaches every outcome of the contract
    assert set(codes) == set(EXITS)
