#!/usr/bin/env python3
"""Cross-check every expression in expressions/ against its compilation.

Usage: python3 scripts/check_corpus.py
Exits 0 if every expression's bounded language matches the automaton's.
"""

import glob
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from nomlang.compiler import compile_regex
from nomlang.hds import validate
from nomlang.oracle import check_equivalence
from nomlang.syntax import parse_nre

EXPRESSIONS = os.path.join(os.path.dirname(__file__), os.pardir, "expressions")
BOUND = 8  # token length bound
NS_BOUND = 18  # for the protocol expression, whose shortest nonempty word is long


def main() -> int:
    failed = 0
    for path in sorted(glob.glob(os.path.join(EXPRESSIONS, "*.nre"))):
        name = os.path.basename(path)
        bound = NS_BOUND if "ns_protocol" in name else BOUND
        with open(path, encoding="utf-8") as f:
            e, _ = parse_nre(f.read())
        h = compile_regex(e)
        problems = validate(h)
        if problems:
            print(f"FAIL {name}: invalid automaton: {problems[0]}")
            failed += 1
            continue
        report = check_equivalence(e, h, bound)
        print(f"{name}: " + report.lines()[0])
        for line in report.lines()[1:]:
            print(line)
        if not report.passed:
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
