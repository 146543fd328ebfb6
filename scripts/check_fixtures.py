#!/usr/bin/env python3
"""Check every answer recorded in perfbench/fixtures/ against the code.

* sort_enum: for each (expression, sort) item, the number of words of
  `enumerate_slice` and the digest of its sorted rendered words;
* crosscheck: for each item, `check_equivalence` of the expression and
  its compiled automaton must PASS with the recorded number of words.

The benchmark checks only the items a run draws; this checks them all.
Prints every mismatch and a summary line, and exits 1 on any mismatch.

Usage: python3 scripts/check_fixtures.py
"""

import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from nomlang.compiler import compile_regex  # noqa: E402
from nomlang.oracle import check_equivalence  # noqa: E402
from nomlang.regex import enumerate_slice  # noqa: E402

from render import digest  # noqa: E402
from workloads import _parse as parse, load_fixture  # noqa: E402


def items(fx: dict):
    """(spec, bound) of every fixed and pool item."""
    for spec in fx["fixed"]:
        yield spec, spec["bound"]
    for spec in fx["pool"]["items"]:
        yield spec, fx["pool"]["bound"]


def check_sort_enum(fx: dict) -> tuple[int, list[str]]:
    count, bad = 0, []
    for spec, bound in items(fx):
        e = parse(spec["src"], fx["letters"])
        for sort, want in spec["sorts"].items():
            count += 1
            got = enumerate_slice(e, sort, bound).words
            if len(got) != want["words"]:
                bad.append(f"sort_enum {spec['src']!r} @{bound} {sort}: "
                           f"{len(got)} words, fixture says {want['words']}")
            elif digest(sort, got) != want["digest"]:
                bad.append(f"sort_enum {spec['src']!r} @{bound} {sort}: digest differs")
    return count, bad


def check_crosscheck(fx: dict) -> tuple[int, list[str]]:
    count, bad = 0, []
    for spec, bound in items(fx):
        count += 1
        e = parse(spec["src"], fx["letters"])
        report = check_equivalence(e, compile_regex(e), bound)
        if not report.passed:
            bad.append(f"crosscheck {spec['src']!r} @{bound}: FAIL")
        elif report.common != spec["words"]:
            bad.append(f"crosscheck {spec['src']!r} @{bound}: "
                       f"{report.common} words, fixture says {spec['words']}")
    return count, bad


def main() -> int:
    t0 = time.monotonic()
    total, bad = 0, []
    for name, check in (("sort_enum", check_sort_enum), ("crosscheck", check_crosscheck)):
        count, wrong = check(load_fixture(name))
        total += count
        bad += wrong
    for line in bad:
        print(line)
    print(f"{total} fixture items, {len(bad)} mismatches in {time.monotonic() - t0:.1f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
