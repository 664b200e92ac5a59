"""Child process of the benchmark: generates inputs or runs rounds.

    worker.py setup --workload W --seed N --scale S --out DIR
    worker.py run --workload W --scale S --inputs DIR --out DIR
                  (--seconds T | --rounds K) [--trace] [--spans FILE]

Both print one JSON object on their last stdout line.  ``run`` repeats
rounds until the next one would end after ``--seconds`` (at least one),
or runs exactly ``--rounds``.  Peak RSS is this process's own
``ru_maxrss``; the inputs were generated by other processes, so they do
not set it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import scenes
import tracer as tracing
import workloads  # imports the program
from run import THREAD_VARS


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def cmd_setup(args) -> dict:
    digests = scenes.generate(args.workload, args.seed, args.scale, args.out)
    return {"digests": digests}


def _error(exc) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_round(ops, counter, round_dir) -> dict:
    results = []
    wall = cpu = 0.0
    for name, run, check in ops:
        gc.collect()
        counter.reset()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            state = run(round_dir)
            error = None
        except Exception as exc:  # a failed operation is a result, not a crash
            state, error = None, _error(exc)
            traceback.print_exc(file=sys.stderr)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        facts = {}
        if error is None:
            try:
                facts = check(state)
            except Exception as exc:
                error = _error(exc)
        del state
        facts["evals"] = counter.evals
        facts["factorizations"] = counter.factorizations
        results.append({"name": name, "ok": error is None, "error": error, "facts": facts})
    return {"wall_s": wall, "cpu_s": cpu, "ops": results}


def warm_inputs(inputs):
    """Read every input file once, so the timed rounds find them cached."""
    for name in sorted(os.listdir(inputs)):
        with open(os.path.join(inputs, name), "rb") as fh:
            while fh.read(1 << 20):
                pass


def cmd_run(args) -> dict:
    warm_inputs(args.inputs)
    ops = workloads.operations(args.workload, args.scale, args.inputs)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    counter = tracing.FactCounter()
    counter.install()
    t_start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(ops, counter, os.path.join(args.out, "round%d" % len(rounds))))
        if args.rounds:
            if len(rounds) >= args.rounds:
                break
        elif time.perf_counter() - t_start + rounds[-1]["wall_s"] > args.seconds:
            break
    out = {
        "rounds": rounds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if args.spans:
            tracer.dump(args.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(scenes.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full", choices=sorted(scenes.SCALES))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True, choices=sorted(scenes.GENERATORS))
    p.add_argument("--scale", default="full", choices=sorted(scenes.SCALES))
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans")
    p.set_defaults(func=cmd_run)
    args = parser.parse_args(argv)
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
