"""List the functions of ``src/fusereg`` that no benchmark operation calls.

Generates every benchmark workload's tiny-scale inputs (seed 1) into a
temporary directory, runs each operation of one round once under
``sys.setprofile`` and prints, sorted and counted, every top-level function
and method of ``src/fusereg/*.py`` that none of them called.  The README's
"Code no benchmark runs" section gives each entry its reason.

Run from the root of a source checkout::

    python3 tools/reach.py

Standard library plus the program and the benchmark's own ``scenes`` and
``workloads`` modules, which it imports and never changes.  It sets no
threshold (the exit code is 0 whatever the list holds) and writes nothing
into the checkout.
"""

from __future__ import annotations

import ast
import logging
import os
import sys
import tempfile

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "fusereg")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import scenes  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def definitions():
    """{(file, first line): "module.qualname"} of every top-level function
    and every method of a top-level class; the first line is that of the
    first decorator, as the code object records it."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = name[:-3]
        for node in tree.body:
            members = [(node, module)]
            if isinstance(node, ast.ClassDef):
                members = [(sub, "%s.%s" % (module, node.name)) for sub in node.body]
            for sub, owner in members:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([sub.lineno] + [d.lineno for d in sub.decorator_list])
                    found[(os.path.realpath(path), first)] = "%s.%s" % (owner, sub.name)
    return found


def called_code(work):
    """(file, first line) of every code object entered while ``work()`` runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(f), line) for f, line in seen}


def main() -> int:
    logging.disable(logging.WARNING)  # the program's own notes are not the list
    defined = definitions()
    called = set()
    with tempfile.TemporaryDirectory(prefix="fusereg-reach-") as tmp:
        for workload in sorted(workloads.OPERATIONS):
            inputs = os.path.join(tmp, workload, "inputs")
            os.makedirs(inputs)
            scenes.generate(workload, SEED, "tiny", inputs)
            for name, run, check in workloads.operations(workload, "tiny", inputs):
                round_dir = os.path.join(tmp, workload, "round")
                called |= called_code(lambda: check(run(round_dir)))
    never = sorted(defined[key] for key in set(defined) - called)
    for name in never:
        print(name)
    print("%d of %d top-level functions and methods in src/fusereg never run "
          "by a benchmark operation" % (len(never), len(defined)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
