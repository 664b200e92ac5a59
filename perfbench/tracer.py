"""Outside-in layer tracing of the fusereg package.

The tracer replaces public functions of the program with timing wrappers
at the place where their callers look them up (a module attribute or a
class attribute), records one span per call and derives per-layer
metrics from the spans.  Nothing inside the program changes, so the
layers are the program's modules and the boundaries are its imports.

A span holds its name, layer, start, end and parent span.  A layer's self
time is the summed duration of its spans minus the time covered by their
direct children.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

LEVELS = 4
MEASURES = ("ssd", "ncc", "mi", "ngf")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, layer, start, end, parent index or -1)
        self._stack = []  # [span index, child time]
        self.total = defaultdict(float)
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.counts = Counter()

    # -- spans ------------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs):
        """Run fn inside a span; returns (result, duration)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dt = t1 - t0
            if parent is not None:
                parent[1] += dt
            self.spans[index] = (name, layer, t0, t1, parent[0] if parent else -1)
            self.total[name] += dt
            self.calls[name] += 1
            self.self_time[layer] += dt - frame[1]
        return result, dt

    def wrapped(self, fn, name, layer, after=None):
        """fn wrapped in a span; ``after(result, duration, args, kwargs)``
        records counts from the result."""
        tracer = self

        def wrapper(*args, **kwargs):
            result, dt = tracer.call(name, layer, fn, args, kwargs)
            if after is not None:
                after(result, dt, args, kwargs)
            return result

        return wrapper

    def leaf(self, fn, name, layer):
        """fn timed and counted like a span but not recorded as one.

        For calls too short and too many to record one by one (the
        Gauss-Newton stencils run over 10^5 times a round); they call
        nothing traced, so their time is all self time.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                tracer.total[name] += dt
                tracer.calls[name] += 1
                tracer.self_time[layer] += dt

        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, name, layer, after=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            inner = self.wrapped(raw.__func__, name, layer, after)
            setattr(owner, attr, classmethod(inner))
        else:
            setattr(owner, attr, self.wrapped(raw, name, layer, after))

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        from fusereg import affine, cli, curvature, geo, nonparametric, raster_io, similarity

        count = self.counts

        # curvature
        op = curvature.SemiImplicitOperator
        self.patch(op, "__init__", "curvature.setup", "curvature")
        self.patch(op, "solve", "curvature.solve", "curvature")
        self.patch(nonparametric, "bilaplacian", "curvature.bilaplacian", "curvature")
        self.patch(nonparametric, "curvature_energy", "curvature.energy", "curvature")

        # similarity, bucketed by the measure argument
        evaluate = similarity.__dict__["evaluate"]

        def traced_evaluate(measure, *args, **kwargs):
            name = "similarity." + str(measure).lower()
            return self.call(name, "similarity", evaluate, (measure,) + args, kwargs)[0]

        similarity.evaluate = traced_evaluate

        # optimize: wrap the objective and preconditioner callbacks so the
        # minimizer's own time can be separated from theirs
        for module, layer in ((nonparametric, "nonparametric"), (affine, "affine")):
            self._patch_lbfgs(module, layer)

        # grid
        for module in (nonparametric, affine):
            self.patch(module, "warp_with_jacobian", "grid.warp_with_jacobian", "grid")
            self.patch(module, "build_pyramid", "grid.build_pyramid", "grid")
            self.patch(module, "fill_nodata", "grid.fill_nodata", "grid")
        self.patch(nonparametric, "prolong", "grid.prolong", "grid")
        self.patch(cli, "resample_to_geometry", "grid.resample", "grid")
        for attr in ("laplacian_values", "laplacian_adjoint_values"):
            # Gauss-Newton's CG matvecs are the only stencil calls made from
            # nonparametric itself: four per matvec
            raw = nonparametric.__dict__[attr]
            setattr(nonparametric, attr, self.leaf(raw, "grid.stencil", "grid"))

        # nonparametric levels and drivers
        def after_level(result, dt, args, kwargs):
            level = kwargs.get("level", args[4] if len(args) > 4 else 0)
            iters = result[1].iterations
            count["nonparametric.level%d_s" % level] += dt
            count["nonparametric.level%d_iters" % level] += iters
            count["nonparametric.iters_total"] += iters
            count["nonparametric.zero_iter_levels"] += iters == 0

        self.patch(nonparametric, "register_level", "nonparametric.register_level",
                   "nonparametric", after_level)
        self.patch(nonparametric, "register_multilevel", "nonparametric.register_multilevel",
                   "nonparametric")
        self.patch(cli, "register_multilevel", "nonparametric.register_multilevel",
                   "nonparametric")

        def after_affine(result, dt, args, kwargs):
            for lt in result[1].levels:
                count["affine.level%d_iters" % lt.level] += lt.iterations

        self.patch(affine, "register_affine", "affine.register_affine", "affine", after_affine)

        # geo
        def after_csv(result, dt, args, kwargs):
            count["geo.points"] += len(result)

        def after_mosaic(result, dt, args, kwargs):
            count["geo.seam_pairs"] += sum(rec.pixel_pairs for rec in result[1])

        self.patch(geo.LidarPointCloud, "from_csv", "geo.from_csv", "geo", after_csv)
        self.patch(geo, "rasterize_lidar", "geo.rasterize", "geo")
        self.patch(geo, "mosaic", "geo.mosaic", "geo", after_mosaic)

        # raster_io: byte counts from the files on disk
        def file_bytes(path):
            path = str(path)
            return sum(os.path.getsize(p) for p in (path, path + ".hdr") if os.path.exists(p))

        def after_read(result, dt, args, kwargs):
            count["raster_io.bytes_read"] += file_bytes(args[0])

        def after_write(result, dt, args, kwargs):
            count["raster_io.bytes_written"] += file_bytes(args[0])

        self.patch(raster_io, "read_raster", "raster_io.read", "raster_io", after_read)
        self.patch(raster_io, "write_raster", "raster_io.write", "raster_io", after_write)

        # cli
        for sub in ("rasterize", "mosaic", "register", "report"):
            self.patch(cli, "cmd_" + sub, "cli." + sub, "cli")
        self.patch(cli, "main", "cli.main", "cli")

    def _patch_lbfgs(self, module, layer):
        raw = module.__dict__["minimize_lbfgs"]
        count = self.counts

        def traced_lbfgs(fun_grad, x0, **kwargs):
            fun_grad = self.wrapped(fun_grad, layer + ".fun_grad", layer)
            if kwargs.get("h0_solve") is not None:
                kwargs["h0_solve"] = self.wrapped(kwargs["h0_solve"], "optimize.h0_solve", layer)
            result, _ = self.call("optimize.minimize_lbfgs", "optimize", raw, (fun_grad, x0), kwargs)
            count["optimize.evals"] += result.n_evals
            count["optimize.accepted"] += result.iterations
            return result

        module.minimize_lbfgs = traced_lbfgs

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics keyed as in BENCHMARK.json's ``per_layer``."""
        t, n, c, own = self.total, self.calls, self.counts, self.self_time
        m = {
            "curvature.setup_s": t["curvature.setup"],
            "curvature.setup_calls": n["curvature.setup"],
            "curvature.solve_s": t["curvature.solve"],
            "curvature.solve_calls": n["curvature.solve"],
            "curvature.bilaplacian_s": t["curvature.bilaplacian"],
            "curvature.energy_s": t["curvature.energy"],
        }
        for meas in MEASURES:
            m["similarity.%s_s" % meas] = t["similarity." + meas]
            m["similarity.%s_calls" % meas] = n["similarity." + meas]
        evals = c["optimize.evals"]
        m.update({
            "optimize.evals": evals,
            "optimize.accepted": c["optimize.accepted"],
            "optimize.accept_ratio": c["optimize.accepted"] / evals if evals else 0.0,
            "optimize.h0_solve_calls": n["optimize.h0_solve"],
            "optimize.self_s": own["optimize"],
            "grid.warp_with_jacobian_s": t["grid.warp_with_jacobian"],
            "grid.warp_with_jacobian_calls": n["grid.warp_with_jacobian"],
            "grid.build_pyramid_s": t["grid.build_pyramid"],
            "grid.prolong_s": t["grid.prolong"],
            "grid.fill_nodata_s": t["grid.fill_nodata"],
            "grid.resample_s": t["grid.resample"],
            "grid.stencil_s": t["grid.stencil"],
            "grid.stencil_calls": n["grid.stencil"],
        })
        for k in range(LEVELS):
            m["nonparametric.level%d_s" % k] = c["nonparametric.level%d_s" % k]
        for k in range(LEVELS):
            m["nonparametric.level%d_iters" % k] = c["nonparametric.level%d_iters" % k]
        m.update({
            "nonparametric.iters_total": c["nonparametric.iters_total"],
            "nonparametric.self_s": own["nonparametric"],
            "nonparametric.zero_iter_levels": c["nonparametric.zero_iter_levels"],
        })
        for k in range(LEVELS):
            m["affine.level%d_iters" % k] = c["affine.level%d_iters" % k]
        m.update({
            "affine.self_s": own["affine"],
            "geo.from_csv_s": t["geo.from_csv"],
            "geo.points": c["geo.points"],
            "geo.rasterize_s": t["geo.rasterize"],
            "geo.mosaic_s": t["geo.mosaic"],
            "geo.seam_pairs": c["geo.seam_pairs"],
            "raster_io.read_s": t["raster_io.read"],
            "raster_io.write_s": t["raster_io.write"],
            "raster_io.bytes_read": c["raster_io.bytes_read"],
            "raster_io.bytes_written": c["raster_io.bytes_written"],
            "cli.rasterize_s": t["cli.rasterize"],
            "cli.mosaic_s": t["cli.mosaic"],
            "cli.register_s": t["cli.register"],
            "cli.report_s": t["cli.report"],
            "cli.self_s": own["cli"],
        })
        return m

    def dump(self, path):
        """Write the raw spans (seconds relative to the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            {"name": s[0], "layer": s[1], "start": s[2] - t0, "end": s[3] - t0, "parent": s[4]}
            for s in self.spans
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)


class FactCounter:
    """Counts l-BFGS objective evaluations and curvature factorizations.

    Installed in untraced runs too: it wraps one call per pyramid level
    or per factorization, so its cost is nil, and it lets every run report
    ``optimize.evals`` and ``curvature.setup_calls`` for the determinism
    check.
    """

    def __init__(self):
        self.evals = 0
        self.factorizations = 0

    def reset(self):
        self.evals = self.factorizations = 0

    def install(self):
        from fusereg import affine, curvature, nonparametric

        for module in (nonparametric, affine):
            raw = module.minimize_lbfgs

            def counted(*args, _raw=raw, **kwargs):
                result = _raw(*args, **kwargs)
                self.evals += result.n_evals
                return result

            module.minimize_lbfgs = counted

        op = curvature.SemiImplicitOperator
        init = op.__init__

        def counted_init(*args, **kwargs):
            self.factorizations += 1
            init(*args, **kwargs)

        op.__init__ = counted_init
