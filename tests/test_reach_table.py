"""The README's "Code no benchmark runs" table names exactly the functions
``tools/reach.py`` finds, so a function that no benchmark runs is listed
with its reason, and a row outlives no deleted function."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_entries():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Code no benchmark runs\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)


def test_the_readme_table_lists_what_reach_finds():
    tool = os.path.join(ROOT, "tools", "reach.py")
    out = subprocess.run([sys.executable, tool], capture_output=True, text=True, check=True)
    never_run = out.stdout.splitlines()[:-1]  # the last line is the count
    assert readme_entries() == never_run
