"""fusereg benchmark: seeded registration workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  ``--workload all`` runs every workload in turn.

A run first sets up five times: each set-up is a fresh process that
imports the program, generates the seeded inputs and writes them.
``setup_s`` is their median, and their input digests must agree.  Then:

* ``--trace 0`` runs one fresh, single-threaded worker process that
  repeats the workload's round until the next round would end after
  ``--seconds`` (at least one round) and reports the end-to-end metrics;
* ``--trace 1`` runs an untraced worker, a traced worker and a second
  untraced worker, one round each, and reports the per-layer metrics of
  the traced one plus the tracing overhead.

Every operation's deterministic facts (endpoint errors, per-level
iterations, objective evaluations, final objective, output digests) must
be identical across rounds and processes; an operation that raises,
exits nonzero, fails its output check or disagrees counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This file uses the standard library only, so the worker processes it
starts inherit no large address space and report their own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ngf-lbfgs-128", "mi-affine-192", "solver-mix-64", "lidar-fusion-cli")
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole command must end within 180 s
EPE_RESOLUTION_PX = 0.01
# pinned to one thread in every worker: BLAS/OpenMP pools and the
# program's own cap
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "FUSEREG_THREADS",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "epe_mean_px": "px",
    "epe_p95_px": "px",
    "ok_fraction": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The harness itself could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Harness:
    def __init__(self, workload, seed, scale, deadline):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.deadline = deadline
        self.env = child_env()
        self.work = os.path.join(
            ROOT, ".bench_build", "perfbench", "%s-%d-%d" % (workload, seed, os.getpid())
        )

    def child(self, *args) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the time limit: %s" % " ".join(args))
        if proc.returncode != 0:
            raise BenchError("worker exited %d: %s" % (proc.returncode, " ".join(args)))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self):
        """Median wall time of fresh set-up processes and whether their
        inputs agree byte for byte."""
        walls, digests = [], []
        for k in range(SETUP_REPEATS):
            out = os.path.join(self.work, "inputs%d" % k)
            t0 = time.perf_counter()
            res = self.child("setup", "--workload", self.workload, "--seed", str(self.seed),
                             "--scale", self.scale, "--out", out)
            walls.append(time.perf_counter() - t0)
            digests.append(res["digests"])
            if k:
                shutil.rmtree(out)
        # flush the kept inputs now, so their write-back does not overlap the
        # timed rounds
        inputs = os.path.join(self.work, "inputs0")
        for name in os.listdir(inputs):
            with open(os.path.join(inputs, name), "rb") as fh:
                os.fsync(fh.fileno())
        return statistics.median(walls), [d == digests[0] for d in digests]

    def run(self, tag, *extra) -> dict:
        return self.child("run", "--workload", self.workload, "--scale", self.scale,
                          "--inputs", os.path.join(self.work, "inputs0"),
                          "--out", os.path.join(self.work, tag), *extra)


def tally(runs, setup_agree):
    """(attempted, failed, first round's facts by operation name)."""
    attempted = len(setup_agree)
    failed = setup_agree.count(False)
    reference = {}
    for run in runs:
        for rnd in run["rounds"]:
            for op in rnd["ops"]:
                attempted += 1
                ref = reference.setdefault(op["name"], op["facts"])
                if not op["ok"] or op["facts"] != ref:
                    failed += 1
    return attempted, failed, reference


def endpoint_error(facts, key):
    """Worst registration setting of the median over its scenes, floored at
    EPE_RESOLUTION_PX.

    Operations are named "<setting>/scene<k>"; scenes are replicas drawn
    from the seed, so their median is the setting's typical error and one
    unlucky scene does not decide the figure.  Below the floor the error
    is optimizer stopping noise (affine MI converges to about 0.001 px and
    varies several-fold between scenes), which no useful bound could hold.
    """
    by_setting = {}
    for name, f in facts.items():
        if key in f:
            by_setting.setdefault(name.split("/scene")[0], []).append(f[key])
    if not by_setting:
        raise BenchError("no registration succeeded, so there is no endpoint error")
    return max(EPE_RESOLUTION_PX, max(statistics.median(v) for v in by_setting.values()))


def bench(workload, seed, seconds, trace, scale, deadline):
    """One benchmark run; returns (result dict, printable report lines)."""
    h = Harness(workload, seed, scale, deadline)
    try:
        setup_s, setup_agree = h.setup()
        if trace:
            runs = [h.run("untraced_a", "--rounds", "1"),
                    h.run("traced", "--rounds", "1", "--trace",
                          "--spans", os.path.join(ROOT, ".bench_build", "perfbench",
                                                  "spans-%s-%d.json" % (workload, seed))),
                    h.run("untraced_b", "--rounds", "1")]
        else:
            runs = [h.run("untraced", "--seconds", str(seconds))]
    finally:
        shutil.rmtree(h.work, ignore_errors=True)

    attempted, failed, facts = tally(runs, setup_agree)
    lines = ["workload %s  seed %d  trace %d" % (workload, seed, trace),
             "env %s" % json.dumps(runs[0]["env"], sort_keys=True)]
    for name, f in facts.items():
        shown = {k: v for k, v in f.items() if k != "digest"}
        lines.append("op %-28s %s" % (name, json.dumps(shown, sort_keys=True)))
    for run in runs:
        for rnd in run["rounds"]:
            for op in rnd["ops"]:
                if not op["ok"]:
                    lines.append("FAILED %s: %s" % (op["name"], op["error"]))
    lines.append("failed_fraction %d/%d = %.6g" % (failed, attempted, failed / attempted))

    if trace:
        untraced = statistics.mean([runs[0]["rounds"][0]["wall_s"], runs[2]["rounds"][0]["wall_s"]])
        metrics = dict(runs[1]["layers"])
        metrics["trace.overhead_s"] = runs[1]["rounds"][0]["wall_s"] - untraced
        lines.append("untraced wall_s %.4f  traced wall_s %.4f"
                     % (untraced, runs[1]["rounds"][0]["wall_s"]))
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        walls = [rnd["wall_s"] for rnd in runs[0]["rounds"]]
        lines.append("rounds %d  round wall_s %s  cpu_s %s" % (
            len(walls), " ".join("%.4f" % w for w in walls),
            " ".join("%.4f" % rnd["cpu_s"] for rnd in runs[0]["rounds"])))
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": runs[0]["rss_mb"],
            "epe_mean_px": endpoint_error(facts, "epe_mean"),
            "epe_p95_px": endpoint_error(facts, "epe_p95"),
            "ok_fraction": (attempted - failed) / attempted,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for name, m in result["metrics"].items():
        lines.append("%-36s %16.8g %s" % (name, m["value"], m["unit"]))
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fusereg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the harness self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fusereg", "__init__.py")):
        print("run.py: no program source at src/fusereg; run from a fusereg checkout",
              file=sys.stderr)
        return 2
    # a terminated run still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, lines = bench(name, args.seed, args.seconds, args.trace, args.scale,
                                  time.monotonic() + DEADLINE_S)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
