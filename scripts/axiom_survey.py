#!/usr/bin/env python3
"""Survey which equational laws hold in which word sort.

Samples random premise-satisfying instances of each law of
`nomlang.oracle.LAWS` in each sort and prints a table: 'yes' if every
sampled instance held, otherwise the count of counterexamples.

Usage: python3 scripts/axiom_survey.py [--count 200] [--seed 0]
"""

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from nomlang.names import Letter, Name
from nomlang.monoids import SORTS
from nomlang.oracle import LAWS, gen_axiom_instances


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200, help="instances per cell")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    names = [Name(x) for x in ("n", "m", "k")]
    letters = [Letter(s) for s in ("a", "b")]
    sorts = ["G", "L", "S"]

    header = f"{'law':4} {'statement':34}" + "".join(f"{s:>8}" for s in sorts)
    print(header)
    print("-" * len(header))
    for ax, (statement, _) in LAWS.items():
        row = f"{ax:4} {statement:34}"
        for sort in sorts:
            ops = SORTS[sort]
            insts = gen_axiom_instances(ax, sort, args.count, names, letters, rng)
            fails = sum(1 for inst in insts if not inst.holds(ops))
            row += f"{'yes' if fails == 0 else f'{fails} cex':>8}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
