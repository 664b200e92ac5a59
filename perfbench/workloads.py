"""The four workloads: what one round runs and how its outputs are checked.

A round is a fixed list of operations.  Each operation has a timed part
(one call into the program) and an untimed check that scores the output
against the synthetic truth and returns a fingerprint of the
deterministic facts: endpoint errors, per-level iterations, l-BFGS
objective evaluations, the final objective and output file digests.
The program is always reached through module attributes, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import re

import numpy as np

from fusereg import affine, cli, nonparametric
from fusereg.grid import GridGeometry, ScalarImage
from fusereg.nonparametric import RegistrationConfig

import scenes

ITER_CAP = 300


def endpoint_error(ux, uy, tx, ty):
    """(mean, 95th percentile) of |u - u*| inside a band of width
    ceil(max |u*|) + 1, where the deformation drags in unconstrained pixels."""
    err = np.hypot(ux - tx, uy - ty)
    margin = int(math.ceil(float(np.max(np.hypot(tx, ty))))) + 1
    inner = err[margin:-margin, margin:-margin]
    return float(np.mean(inner)), float(np.percentile(inner, 95.0))


def _trace_facts(trace):
    return {
        "iters": [lt.iterations for lt in trace.levels],
        "final_j": repr(float(trace.levels[-1].records[-1].objective)),
    }


def _image(values, nodata=None):
    h, w = values.shape
    return ScalarImage(GridGeometry(width=w, height=h), values, nodata)


# ---------------------------------------------------------------------------
# library workloads


def _nonparametric_op(name, scene, cfg):
    tpl, ref, (tx, ty) = scene

    def run(_):
        return nonparametric.register_multilevel(tpl, ref, cfg)

    def check(result):
        u, trace = result
        mean, p95 = endpoint_error(u.u_x, u.u_y, tx, ty)
        return dict(_trace_facts(trace), epe_mean=mean, epe_p95=p95)

    return name, run, check


def _load_bump_scenes(inputs, cfg):
    out = []
    for k in range(cfg["scenes"]):
        ref, tpl, tpl_nodata, tx, ty = scenes.load_arrays(
            inputs, "scene%d" % k, "reference", "template", "template_nodata", "truth_x", "truth_y"
        )
        out.append((_image(tpl, tpl_nodata), _image(ref), (tx, ty)))
    return out


def ngf_lbfgs_ops(inputs, cfg):
    reg = RegistrationConfig(
        measure="NGF", alpha=50.0, eta=0.02, solver="l-bfgs",
        max_levels=cfg["levels"], max_iters_per_level=ITER_CAP,
    )
    return [
        _nonparametric_op("ngf-l-bfgs/scene%d" % k, scene, reg)
        for k, scene in enumerate(_load_bump_scenes(inputs, cfg))
    ]


def solver_mix_ops(inputs, cfg):
    variants = (
        ("semi-implicit", "NGF", 50.0),
        ("gauss-newton", "SSD", 5.0),
        ("trust-region", "SSD", 5.0),
    )
    ops = []
    for k, scene in enumerate(_load_bump_scenes(inputs, cfg)):
        for solver, measure, alpha in variants:
            reg = RegistrationConfig(
                measure=measure, alpha=alpha, eta=0.02, solver=solver,
                max_levels=cfg["levels"], max_iters_per_level=ITER_CAP,
            )
            ops.append(_nonparametric_op("%s/scene%d" % (solver, k), scene, reg))
    return ops


def mi_affine_ops(inputs, cfg):
    reg = RegistrationConfig(
        measure="MI", mi_bins=64, mi_parzen_sigma=1.0,
        max_levels=cfg["levels"], max_iters_per_level=ITER_CAP,
    )
    ops = []
    for k in range(cfg["scenes"]):
        ref, tpl, tpl_nodata, tx, ty = scenes.load_arrays(
            inputs, "scene%d" % k, "reference", "template", "template_nodata", "truth_x", "truth_y"
        )
        ops.append(_affine_op("affine-mi/scene%d" % k, _image(tpl, tpl_nodata), _image(ref), tx, ty, reg))
    return ops


def _affine_op(name, tpl, ref, tx, ty, reg):
    def run(_):
        return affine.register_affine(tpl, ref, "MI", reg)

    def check(result):
        p, trace = result
        xs, ys = scenes.pixel_grid(tx.shape)
        ux = xs - (p.a11 * xs + p.a12 * ys + p.t_x)
        uy = ys - (p.a21 * xs + p.a22 * ys + p.t_y)
        mean, p95 = endpoint_error(ux, uy, tx, ty)
        return dict(_trace_facts(trace), epe_mean=mean, epe_p95=p95)

    return name, run, check


# ---------------------------------------------------------------------------
# CLI workload


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_raster(path):
    """Payload and header of a raster written by the program, without
    using the program's reader."""
    header = {}
    with open(path + ".hdr", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
    w, h, b = int(header["width"]), int(header["height"]), int(header["bands"])
    data = np.fromfile(path, dtype="<f4").astype(np.float64)
    if data.size != w * h * b:
        raise ValueError("%s: payload size does not match its header" % path)
    return data.reshape(b, h, w), header


def _finite_rasters(paths):
    for path in paths:
        data, _ = _read_raster(path)
        if not np.isfinite(data).all():
            raise ValueError("%s holds non-finite samples" % path)


def _parse_trace(path):
    """Per-level iterations (coarse to fine) and the last objective value."""
    iters, final_j = [], None
    with open(path, encoding="ascii") as fh:
        for line in fh:
            m = re.search(r"iterations=(\d+)", line)
            if m:
                iters.append(int(m.group(1)))
            m = re.search(r" J=(\S+)", line)
            if m:
                final_j = m.group(1)
    if not iters or final_j is None:
        raise ValueError("%s: no levels in trace" % path)
    return iters, final_j


def lidar_cli_ops(inputs, cfg):
    tx, ty = scenes.load_arrays(inputs, "truth", "truth_x", "truth_y")

    def cli_op(name, argv_fn, outputs_fn, rasters_fn, extra=None):
        def run(rd):
            os.makedirs(rd, exist_ok=True)
            return rd, cli.main(argv_fn(rd))

        def check(result):
            rd, code = result
            if code != 0:
                raise RuntimeError("exit code %d" % code)
            outputs = outputs_fn(rd)
            missing = [p for p in outputs if not os.path.exists(p)]
            if missing:
                raise RuntimeError("missing outputs: %s" % ", ".join(missing))
            _finite_rasters(rasters_fn(rd))
            facts = {"digest": _digest(outputs)}
            if extra is not None:
                facts.update(extra(rd))
            return facts

        return name, run, check

    p = os.path.join

    def strip(name):
        return cli_op(
            "rasterize/" + name,
            lambda rd: ["rasterize", "--points", p(inputs, name + ".csv"),
                        "--cell", "1", "--out", p(rd, name + ".raster")],
            lambda rd: [p(rd, name + ".raster"), p(rd, name + ".raster.hdr")],
            lambda rd: [p(rd, name + ".raster")],
        )

    def register_facts(rd):
        field, _ = _read_raster(p(rd, "reg", "hs.field.raster"))
        iters, final_j = _parse_trace(p(rd, "reg", "hs.trace.txt"))
        mean, p95 = endpoint_error(field[0], field[1], tx, ty)
        return {"iters": iters, "final_j": final_j, "epe_mean": mean, "epe_p95": p95}

    def mosaic(rd):
        return p(rd, "mosaic.mosaic.raster")

    return [
        strip("strip_a"),
        strip("strip_b"),
        cli_op(
            "mosaic",
            lambda rd: ["mosaic", "--tile", p(rd, "strip_a.raster"), "--tile",
                        p(rd, "strip_b.raster"), "--out", p(rd, "mosaic")],
            lambda rd: [mosaic(rd), p(rd, "mosaic.seams.txt")],
            lambda rd: [mosaic(rd)],
        ),
        cli_op(
            "register",
            lambda rd: ["register", "--ref", mosaic(rd), "--tpl",
                        p(inputs, "hs_band.raster"), "--out", p(rd, "reg", "hs"),
                        "--preset", "hs-to-lidar"],
            lambda rd: [p(rd, "reg", "hs." + s) for s in
                        ("field.raster", "registered.raster", "trace.txt", "metrics.json")],
            lambda rd: [p(rd, "reg", "hs.field.raster"), p(rd, "reg", "hs.registered.raster")],
            register_facts,
        ),
        cli_op(
            "report",
            lambda rd: ["report", "--mode", "diff", "--a", p(rd, "reg", "hs.registered.raster"),
                        "--b", mosaic(rd), "--out", p(rd, "rep", "hs")],
            lambda rd: [p(rd, "rep", "hs.diff." + s) for s in ("raster", "pgm", "txt")],
            lambda rd: [p(rd, "rep", "hs.diff.raster")],
        ),
    ]


OPERATIONS = {
    "ngf-lbfgs-128": ngf_lbfgs_ops,
    "mi-affine-192": mi_affine_ops,
    "solver-mix-64": solver_mix_ops,
    "lidar-fusion-cli": lidar_cli_ops,
}


def operations(workload, scale, inputs):
    """[(name, run(round_dir) -> state, check(state) -> facts)] for one round."""
    return OPERATIONS[workload](inputs, scenes.SCALES[scale][workload])
