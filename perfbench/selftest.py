"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Checks, for every workload at tiny scale, that the last output line has
the four result keys, that the metric names and units match
``BENCHMARK.json``, that deterministic figures repeat exactly for a
repeated seed, and that the benchmark refuses to run without the
program's source.  Takes about a minute and a half.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

DETERMINISTIC = ("epe_mean_px", "epe_p95_px", "ok_fraction")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def last_json(proc):
    if proc.returncode != 0:
        raise AssertionError("exit %d\n%s" % (proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("result keys %s" % sorted(result))
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError("run not correct: %s\n%s" % (result, proc.stdout[-3000:]))
    return result


def check_units(result, declared, what):
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != declared:
        raise AssertionError("%s metrics differ from BENCHMARK.json: %s vs %s"
                             % (what, sorted(set(got) ^ set(declared)), got))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]

    # the declarations agree with what the harness can produce
    produced = set(Tracer().metrics()) | {"trace.overhead_s"}
    if tuple(names) != run.WORKLOADS or e2e != run.END_TO_END or set(layers) != produced:
        raise AssertionError("BENCHMARK.json differs from the harness: %s %s %s"
                             % (names, e2e, sorted(set(layers) ^ produced)))
    if any(run.per_layer_unit(n) != u for n, u in layers.items()):
        raise AssertionError("a per-layer unit in BENCHMARK.json differs from the harness")

    for name in names:
        common = ("--workload", name, "--seconds", "1", "--scale", "tiny")
        first = last_json(bench(*common, "--seed", "3", "--trace", "0"))
        again = last_json(bench(*common, "--seed", "3", "--trace", "0"))
        traced = last_json(bench(*common, "--seed", "3", "--trace", "1"))
        check_units(first, e2e, name)
        check_units(traced, layers, name)
        for key in DETERMINISTIC:
            a, b = first["metrics"][key]["value"], again["metrics"][key]["value"]
            if a != b:
                raise AssertionError("%s %s differs across runs: %r vs %r" % (name, key, a, b))
        print("ok  %s" % name, flush=True)

    # without src/ the benchmark must fail without printing a result
    bare = os.path.join(ROOT, ".bench_build", "selftest-%d" % os.getpid())
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("ran without the program: exit %d" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
