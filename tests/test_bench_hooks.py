"""The benchmark's layer tracer still finds and sees every hook it patches.

``perfbench/tracer.py`` measures the program from outside: it replaces
module attributes such as ``nonparametric.warp_with_jacobian`` with timing
wrappers.  A hook that is renamed makes its install fail; a hook that is
no longer called through its module silently reads zero.  This test runs
tiny registrations under the tracer, in a subprocess so that the patched
modules do not leak into other tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, os, sys
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "src")]

import numpy as np
import tracer
from fusereg import affine, nonparametric
from fusereg.evaluation import synthetic_texture
from fusereg.grid import DisplacementField, GridGeometry, warp

spans = tracer.Tracer()
spans.install()
facts = tracer.FactCounter()
facts.install()

g = GridGeometry(40, 40)
ref = synthetic_texture(g, seed=3, smoothness=2.0)
tpl = warp(ref, DisplacementField(g, np.full(g.shape, 0.7), np.full(g.shape, -0.4)))
for solver in ("l-bfgs", "gauss-newton", "semi-implicit"):
    cfg = nonparametric.RegistrationConfig(
        measure="NGF", alpha=50.0, solver=solver, max_levels=1, max_iters_per_level=3
    )
    nonparametric.register_multilevel(tpl, ref, cfg)
affine.register_affine(tpl, ref, "NGF", cfg)
mi_cfg = nonparametric.RegistrationConfig(measure="MI", max_levels=1, max_iters_per_level=3)
affine.register_affine(tpl, ref, "MI", mi_cfg)
print(json.dumps({
    "metrics": spans.metrics(),
    "calls": dict(spans.calls),
    "evals": facts.evals,
    "factorizations": facts.factorizations,
}))
"""

# spans every tiny run above must record, one per patched hook it crosses
EXPECTED_CALLS = (
    "curvature.bilaplacian",
    "curvature.energy",
    "similarity.ngf",
    "similarity.mi",
    "optimize.minimize_lbfgs",
    "optimize.h0_solve",
    "nonparametric.fun_grad",
    "affine.fun_grad",
    "grid.warp_with_jacobian",
    "grid.build_pyramid",
    "grid.fill_nodata",
    "grid.stencil",
    "nonparametric.register_level",
    "nonparametric.register_multilevel",
    "affine.register_affine",
)


def test_tracer_hooks_are_called():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, ROOT],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = out["metrics"]
    assert metrics["curvature.setup_calls"] == 0
    assert metrics["similarity.ngf_calls"] > 0
    assert metrics["similarity.mi_calls"] > 0
    assert metrics["grid.stencil_calls"] > 0
    assert metrics["optimize.evals"] > 0
    missing = [name for name in EXPECTED_CALLS if not out["calls"].get(name)]
    assert not missing, missing
    assert out["evals"] > 0
    assert out["factorizations"] == 0
