"""Every ```python block of README.md runs as written, so the documented
API cannot drift from the code."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

with open(README) as f:
    TEXT = f.read()

# (the ``##`` heading the block sits under, line of its first line, its code):
# a test is named after its heading, so prose edits above it rename nothing
BLOCKS = [(re.findall(r"^## (.+)$", TEXT[:m.start()], re.M)[-1],
           TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


# the n-th block under a heading is named `heading (n)` from n = 2 on, so a
# block added under a heading renames none of the blocks above it
HEADINGS = [h for h, _, _ in BLOCKS]
IDS = [h if n == 1 else f"{h} ({n})"
       for i, h in enumerate(HEADINGS) for n in [HEADINGS[:i + 1].count(h)]]


def test_readme_has_its_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("heading, line, code", BLOCKS, ids=IDS)
def test_readme_block_runs(heading, line, code):
    # padded so that a traceback names the README's own line
    exec(compile("\n" * (line - 1) + code, README, "exec"), {"__name__": "readme"})
