"""Command line front end.

Subcommands cover the airborne fusion workflow: ``rasterize`` grids LiDAR
returns, ``register`` aligns two rasters (non-parametric or affine),
``report`` renders comparison artifacts, ``mosaic`` composes georeferenced
tiles with optional per-tile re-registration.  ``main`` writes one JSON run
manifest beside the output of every command that succeeds (each ``cmd_*``
returns its inputs, outputs and config); all outputs are deterministic
functions of the inputs and flags.

Exit codes: 0 success, 2 usage, 3 file/format problems, 4 numerical
failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import geo, raster_io, similarity
from .affine import affine_to_displacement, register_affine
from .errors import (
    DivergenceError,
    FormatError,
    FuseRegError,
    ParameterError,
)
from .evaluation import mean_abs_difference, checkerboard, difference_map
from .grid import (
    displacement_to_geometry,
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

# registration flag (argparse dest) -> RegistrationConfig field
CONFIG_FLAGS = {
    "measure": "measure",
    "alpha": "alpha",
    "eta": "eta",
    "solver": "solver",
    "levels": "max_levels",
    "max_iters": "max_iters_per_level",
    "tol": "rel_tolerance",
    "dt": "dt",
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
    parser.add_argument("--levels", type=int, help="pyramid levels (default 4)")
    parser.add_argument("--max-iters", type=int, help="iteration cap per level")
    parser.add_argument("--tol", type=float, help="relative objective tolerance")
    parser.add_argument("--dt", type=float, help="semi-implicit time step")


def _build_config(args, alpha_override=None) -> RegistrationConfig:
    """Dataclass defaults, then the preset, then every flag that was given."""
    values = dict(PRESETS.get(args.preset, {}))
    for flag, name in CONFIG_FLAGS.items():
        if getattr(args, flag) is not None:
            values[name] = getattr(args, flag)
    cfg = RegistrationConfig(**values)
    if alpha_override is not None:
        cfg = replace(cfg, alpha=alpha_override)
    return cfg


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


def _load_pair(ref_path, tpl_path):
    reference = normalize_intensity(raster_io.read_image(ref_path))
    template = normalize_intensity(raster_io.read_image(tpl_path))
    if template.geometry != reference.geometry:
        template = resample_to_geometry(template, reference.geometry)
    return reference, template


def cmd_register(args):
    cfg = _build_config(args)
    reference, template = _load_pair(args.ref, args.tpl)
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
    registered = warp(template, u)
    raster_io.write_field(outputs["field"], u)
    raster_io.write_image(outputs["registered"], registered)
    with open(outputs["trace"], "w", encoding="ascii") as fh:
        fh.write(trace.to_text())
    shared = registered.valid_mask & template.valid_mask & reference.valid_mask
    metrics = {
        "method": args.method,
        "measure": cfg.measure,
        "final_objective": trace.levels[-1].records[-1].objective,
        "iterations": trace.total_iterations(),
        "converged": trace.levels[-1].converged,
        "mad_registered": mean_abs_difference(registered, reference, shared),
        "mad_unregistered": mean_abs_difference(template, reference, shared),
    }
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
    path, sep, suffix = spec.rpartition(":")
    if sep and path:
        try:
            return path, float(suffix)
        except ValueError:
            pass
    return spec, None


def cmd_mosaic(args):
    registration = asdict(_build_config(args))  # rejects bad flags before any output
    specs = [_parse_tile_spec(s) for s in args.tile]
    needs_ref = any(alpha is not None for _, alpha in specs)
    if needs_ref and args.ref is None:
        raise ParameterError("--ref is required when a tile overrides alpha")
    reference = None
    if args.ref is not None:
        reference = normalize_intensity(raster_io.read_image(args.ref))
    tiles = []
    for path, alpha in specs:
        tile_id = os.path.splitext(os.path.basename(path))[0]
        tile = normalize_intensity(raster_io.read_image(path))
        if alpha is not None:
            cfg = _build_config(args, alpha_override=alpha)
            crop_tile, crop_ref = geo.crop_to_overlap(tile, reference)
            on_ref = resample_to_geometry(crop_tile, crop_ref.geometry)
            u, _ = register_multilevel(on_ref, crop_ref, cfg)
            u_tile = displacement_to_geometry(u, tile.geometry)
            tile = warp(tile, u_tile)
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
        "tiles": [
            {"path": p, "alpha": a} for p, a in specs
        ],
        "registration": registration,
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
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in manifests")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        threads = _resolve_threads(args.threads)
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        inputs, outputs, config = args.func(args)
        manifest = dict(command=args.command, inputs=inputs, outputs=outputs, config=config)
        manifest.update(seed=args.seed, threads=threads)
        _write_json(args.out + ".manifest.json", manifest)
        return 0
    except ParameterError as exc:
        print("fusereg: %s" % exc, file=sys.stderr)
        return USAGE_EXIT
    except (FormatError, OSError) as exc:
        print("fusereg: %s" % exc, file=sys.stderr)
        return IO_EXIT
    except DivergenceError as exc:
        print("fusereg: registration diverged: %s" % exc, file=sys.stderr)
        return NUMERIC_EXIT
    except FuseRegError as exc:
        print("fusereg: %s" % exc, file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
