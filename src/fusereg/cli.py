"""Command line front end.

Subcommands cover the airborne fusion workflow: ``rasterize`` grids LiDAR
returns, ``register`` aligns two rasters (non-parametric or affine),
``report`` renders comparison artifacts, ``mosaic`` composes georeferenced
tiles with optional per-tile re-registration.  ``main`` writes one JSON run
manifest beside the output of every command that succeeds (each ``cmd_*``
returns its inputs, outputs and config) and removes the directories it
made for ``--out`` when the command fails; all outputs are deterministic
functions of the inputs and flags.

Exit codes: 0 success, 2 usage, 3 file/format problems, 4 numerical
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import geo, raster_io, similarity
from .affine import affine_to_displacement, register_affine
from .errors import (
    DegenerateImageError,
    DivergenceError,
    FormatError,
    FuseRegError,
    ParameterError,
)
from .evaluation import checkerboard, difference_map, mean_abs_difference, registration_summary
from .grid import (
    MIN_INTENSITY_RANGE,
    DisplacementField,
    ScalarImage,
    normalize_intensity,
    resample_to_geometry,
    warp,
)
from .nonparametric import SOLVERS, RegistrationConfig, register_multilevel

log = logging.getLogger("fusereg")

PRESETS = {
    "hs-to-lidar": {"alpha": 5000.0, "eta": 0.1},
    "photo-to-hs": {"alpha": 1.5e5, "eta": 0.03},
}

USAGE_EXIT = 2
IO_EXIT = 3
NUMERIC_EXIT = 4


def _resolve_threads(value):
    if value is None:
        env = os.environ.get("FUSEREG_THREADS")
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise ParameterError("FUSEREG_THREADS must be an integer")
    if value is None:
        value = os.cpu_count() or 1
    if value < 1:
        raise ParameterError("thread count must be >= 1")
    try:  # cap BLAS pools when the control package is present
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=value)
    except ImportError:
        pass
    return value


def _write_json(path, obj):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _registration_flags(parser):
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="parameter preset for a sensor pairing (flags still override)",
    )
    parser.add_argument("--measure", choices=similarity.MEASURES, help="distance measure")
    parser.add_argument("--alpha", type=float, help="curvature weight")
    parser.add_argument("--eta", type=float, help="NGF noise floor")
    parser.add_argument(
        "--solver",
        choices=SOLVERS,
        help="non-parametric solver (default l-bfgs)",
    )
    # each dest is the RegistrationConfig field the flag sets
    parser.add_argument("--levels", dest="max_levels", type=int, help="pyramid levels (default 4)")
    parser.add_argument(
        "--max-iters", dest="max_iters_per_level", type=int, help="iteration cap per level"
    )
    parser.add_argument(
        "--tol", dest="rel_tolerance", type=float, help="relative objective tolerance"
    )
    parser.add_argument("--dt", type=float, help="semi-implicit time step")


def _build_config(args) -> RegistrationConfig:
    """Dataclass defaults, then the preset, then every flag that was given."""
    values = dict(PRESETS.get(args.preset, {}))
    for f in fields(RegistrationConfig):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    return RegistrationConfig(**values)


# ---------------------------------------------------------------------------
# subcommands


def cmd_rasterize(args):
    cloud = geo.LidarPointCloud.from_csv(args.points)
    image = geo.rasterize_lidar(cloud, cell_size=args.cell)
    raster_io.write_image(args.out, image)
    log.info(
        "rasterized %d points onto %dx%d cells",
        len(cloud),
        image.geometry.width,
        image.geometry.height,
    )
    return {"points": args.points}, {"raster": args.out}, {"cell": args.cell}


def _shared_pixels(template, reference, tpl_path, ref_path):
    """Where both images on one grid hold data; a pair that shares no valid
    pixel is refused."""
    shared = template.valid_mask & reference.valid_mask
    if not shared.any():
        raise DegenerateImageError("%s and %s share no valid pixel" % (tpl_path, ref_path))
    return shared


def _check_registrable(template, reference, tpl_path, ref_path):
    """The overlap rule of every registration: the pair shares a valid pixel
    and the template is not constant over the shared pixels."""
    shared = _shared_pixels(template, reference, tpl_path, ref_path)
    if np.ptp(template.values[shared]) < MIN_INTENSITY_RANGE:
        raise DegenerateImageError(
            "%s is constant on the pixels it shares with %s" % (tpl_path, ref_path)
        )


def _load_pair(ref_path, tpl_path):
    """Both rasters normalized, the template on the reference grid; a pair
    that shares no valid pixel there is refused."""
    reference = normalize_intensity(raster_io.read_image(ref_path))
    template = normalize_intensity(raster_io.read_image(tpl_path))
    if template.geometry != reference.geometry:
        template = resample_to_geometry(template, reference.geometry)
    _shared_pixels(template, reference, tpl_path, ref_path)
    return reference, template


def cmd_register(args):
    cfg = _build_config(args)
    reference, template = _load_pair(args.ref, args.tpl)
    _check_registrable(template, reference, args.tpl, args.ref)
    outputs = {
        "field": args.out + ".field.raster",
        "registered": args.out + ".registered.raster",
        "trace": args.out + ".trace.txt",
        "metrics": args.out + ".metrics.json",
    }
    if args.method == "affine":
        params, trace = register_affine(template, reference, cfg.measure, cfg)
        u = affine_to_displacement(params, reference.geometry)
        outputs["affine"] = args.out + ".affine.txt"
        with open(outputs["affine"], "w", encoding="ascii") as fh:
            fh.write(params.to_text() + "\n")
    else:
        u, trace = register_multilevel(template, reference, cfg)
    registered, summary = registration_summary(template, reference, u, trace)
    raster_io.write_field(outputs["field"], u)
    raster_io.write_image(outputs["registered"], registered)
    with open(outputs["trace"], "w", encoding="ascii") as fh:
        fh.write(trace.to_text())
    metrics = dict(summary, method=args.method, measure=cfg.measure)
    _write_json(outputs["metrics"], metrics)
    log.info(
        "registered %s onto %s: %d iterations, MAD %.4g -> %.4g",
        args.tpl,
        args.ref,
        metrics["iterations"],
        metrics["mad_unregistered"],
        metrics["mad_registered"],
    )
    return {"ref": args.ref, "tpl": args.tpl}, outputs, dict(asdict(cfg), method=args.method)


def cmd_report(args):
    image_a, image_b = _load_pair(args.a, args.b)
    outputs = {}
    if args.mode == "diff":
        diff = difference_map(image_a, image_b)
        outputs["raster"] = args.out + ".diff.raster"
        outputs["pgm"] = args.out + ".diff.pgm"
        outputs["stats"] = args.out + ".diff.txt"
        raster_io.write_image(outputs["raster"], diff)
        # complement display: aligned structure shows white
        raster_io.write_pgm(outputs["pgm"], 1.0 - np.clip(diff.values, 0.0, 1.0))
        with open(outputs["stats"], "w", encoding="ascii") as fh:
            fh.write("mad = %.12e\n" % mean_abs_difference(image_a, image_b))
    else:
        board = checkerboard(image_a, image_b, tiles=args.tiles)
        outputs["raster"] = args.out + ".checkerboard.raster"
        outputs["pgm"] = args.out + ".checkerboard.pgm"
        raster_io.write_image(outputs["raster"], board)
        raster_io.write_pgm(outputs["pgm"], board.values)
    return {"a": args.a, "b": args.b}, outputs, {"mode": args.mode, "tiles": args.tiles}


def _parse_tile_spec(spec: str):
    """``PATH`` or ``PATH:ALPHA``.  A suffix that is not a number is
    refused, unless the whole spec names a file (a POSIX path may hold ``:``)."""
    path, sep, suffix = spec.rpartition(":")
    if not (sep and path):
        return spec, None
    try:
        return path, float(suffix)
    except ValueError:
        if os.path.isfile(spec):
            return spec, None
        raise ParameterError("--tile %s: alpha %r is not a number" % (spec, suffix)) from None


def _window(image: ScalarImage, box) -> ScalarImage:
    """``image[box]``, a box of row and column slices, on its own sub-grid."""
    rows, cols = box
    g = image.geometry
    sub = replace(
        g,
        width=cols.stop - cols.start,
        height=rows.stop - rows.start,
        origin_easting=g.origin_easting + cols.start * g.spacing_x,
        origin_northing=g.origin_northing + rows.start * g.spacing_y,
    )
    return ScalarImage(sub, image.values[box].copy(), ~image.valid_mask[box])


def _reregister(tile, reference, cfg, tile_path, ref_path):
    """``tile`` registered on its own grid against ``reference`` over the box
    of the tile pixels the reference covers; the field is held constant from
    the box's edge outwards."""
    on_tile = resample_to_geometry(reference, tile.geometry)
    _check_registrable(tile, on_tile, tile_path, ref_path)
    rows, cols = np.nonzero(on_tile.valid_mask)
    if np.ptp(rows) < 1 or np.ptp(cols) < 1:
        raise DegenerateImageError(
            "%s and %s overlap in a window smaller than 2x2 pixels" % (tile_path, ref_path)
        )
    box = slice(rows.min(), rows.max() + 1), slice(cols.min(), cols.max() + 1)
    u, _ = register_multilevel(_window(tile, box), _window(on_tile, box), cfg)
    pad = [(0, 0)] + [(s.start, n - s.stop) for s, n in zip(box, tile.geometry.shape)]
    return warp(tile, DisplacementField(tile.geometry, np.pad(u.values, pad, mode="edge")))


def cmd_mosaic(args):
    base = _build_config(args)  # rejects bad flags before any output
    specs = [_parse_tile_spec(s) for s in args.tile]
    # a tile's alpha is refused here, before any raster is read
    configs = [None if alpha is None else replace(base, alpha=alpha) for _, alpha in specs]
    if args.ref is None and any(cfg is not None for cfg in configs):
        raise ParameterError("--ref is required when a tile overrides alpha")
    reference = None
    if args.ref is not None:
        reference = normalize_intensity(raster_io.read_image(args.ref))
    tiles = []
    for (path, alpha), cfg in zip(specs, configs):
        tile_id = os.path.splitext(os.path.basename(path))[0]
        tile = normalize_intensity(raster_io.read_image(path))
        if cfg is not None:
            tile = _reregister(tile, reference, cfg, path, args.ref)
            log.info("re-registered tile %s with alpha=%g", tile_id, alpha)
        tiles.append((tile_id, tile))
    composite, seams = geo.mosaic(tiles)
    outputs = {
        "mosaic": args.out + ".mosaic.raster",
        "seams": args.out + ".seams.txt",
    }
    raster_io.write_image(outputs["mosaic"], composite)
    with open(outputs["seams"], "w", encoding="ascii") as fh:
        for rec in seams:
            fh.write(rec.to_text() + "\n")
    cfg_entry = {
        "tiles": [{"path": p, "alpha": a} for p, a in specs],
        "registration": asdict(base),
    }
    log.info("mosaic of %d tiles, %d seam interfaces", len(tiles), len(seams))
    return {"tiles": [p for p, _ in specs], "ref": args.ref}, outputs, cfg_entry


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusereg",
        description="Registration and fusion of airborne LiDAR, hyperspectral "
        "and photographic rasters.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="internal thread cap (default: all cores; results do not depend on it)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rasterize", help="grid LiDAR returns into mean-intensity cells")
    p.add_argument("--points", required=True, help="CSV of x,y,z,intensity,return[,agc]")
    p.add_argument("--cell", type=float, default=1.0, help="cell size in metres")
    p.add_argument("--out", required=True, help="output raster path")
    p.set_defaults(func=cmd_rasterize)

    p = sub.add_parser("register", help="align a template raster onto a reference")
    p.add_argument("--ref", required=True, help="reference raster")
    p.add_argument("--tpl", required=True, help="template raster (resampled to the reference grid)")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument(
        "--method",
        choices=("np", "affine"),
        default="np",
        help="non-parametric field or affine baseline",
    )
    _registration_flags(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("report", help="difference map or checkerboard of two rasters")
    p.add_argument("--mode", choices=("diff", "checkerboard"), required=True)
    p.add_argument("--a", required=True, help="first raster")
    p.add_argument("--b", required=True, help="second raster")
    p.add_argument("--tiles", type=int, default=8, help="checkerboard tiling")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("mosaic", help="compose georeferenced tiles, optionally re-registering")
    p.add_argument(
        "--tile",
        action="append",
        required=True,
        metavar="PATH[:ALPHA]",
        help="tile raster; a trailing :ALPHA re-registers it against --ref",
    )
    p.add_argument("--ref", help="reference raster for re-registration")
    p.add_argument("--out", required=True, help="output prefix")
    _registration_flags(p)
    p.set_defaults(func=cmd_mosaic)
    return parser


def _missing_dirs(path):
    """``path`` and its ancestors that do not exist yet, deepest first."""
    missing = []
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    created = _missing_dirs(os.path.dirname(os.path.abspath(args.out)))
    try:
        threads = _resolve_threads(args.threads)
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        inputs, outputs, config = args.func(args)
        manifest = dict(
            command=args.command, inputs=inputs, outputs=outputs, config=config, threads=threads
        )
        _write_json(args.out + ".manifest.json", manifest)
        return 0
    except ParameterError as exc:
        print("fusereg: %s" % exc, file=sys.stderr)
        status = USAGE_EXIT
    except (FormatError, OSError) as exc:
        print("fusereg: %s" % exc, file=sys.stderr)
        status = IO_EXIT
    except DivergenceError as exc:
        print("fusereg: registration diverged: %s" % exc, file=sys.stderr)
        status = NUMERIC_EXIT
    except FuseRegError as exc:
        print("fusereg: %s" % exc, file=sys.stderr)
        status = NUMERIC_EXIT
    for path in created:  # deepest first; rmdir removes only empty directories
        with contextlib.suppress(OSError):
            os.rmdir(path)
    return status


if __name__ == "__main__":
    sys.exit(main())
