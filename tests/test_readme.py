"""Every ```python block of README.md runs as written, so the documented
API cannot drift from the code."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

with open(README) as f:
    TEXT = f.read()

# (line of the block's first line, its code)
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


def test_readme_has_its_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, code):
    # padded so that a traceback names the README's own line
    exec(compile("\n" * (line - 1) + code, README, "exec"), {"__name__": "readme"})
