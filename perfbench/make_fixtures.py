#!/usr/bin/env python3
"""Regenerate perfbench/fixtures/, the expected answers of the benchmark.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/make_fixtures.py

`fixtures/crosscheck.json` and `fixtures/sort_enum.json` hold, for every
fixed item and for every expression of the workload's random pool, the
answer the benchmark checks at run time (membership builds its words
with their verdicts and has no fixture):

* crosscheck: the number of words both sides of `check_equivalence`
  agree on (the verdict itself must be PASS);
* sort_enum: per sort, the number of words and a SHA-256 digest of the
  sorted rendered words.

Each M-sort answer is confirmed here once against an independent
implementation: `hds.language_slice` of the compiled automaton, and
`oracle.brute_slice` at the largest bound it can afford.  The pools are
draws of `oracle.random_regex` from fixed generator seeds; at run time
the benchmark seed picks a stratified sample of them.  `gen_ms`, the
median of eleven timings taken here and scaled by the machine-speed
probe as run.py scales item times, is used only to stratify that sample.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from nomlang import hds, oracle, regex, syntax  # noqa: E402
from nomlang.compiler import compile_regex  # noqa: E402
from nomlang.names import Letter, Name  # noqa: E402
from nomlang.words import token_length  # noqa: E402

from probe import REF_S, probe  # noqa: E402
from render import digest  # noqa: E402
from workloads import CORPUS  # noqa: E402

COMMAND = "PYTHONPATH=src python3 perfbench/make_fixtures.py"
CROSSCHECK_EXTRA = [
    # the star expressions at bound 4 (341 words, 0.1 s and 0.3 s on the
    # seed code): at 5 they took 0.6 s and 1.6 s, two thirds of a pass,
    # and a run could time each item only eight times
    ("( #k* + b* + #n + #m )*", 4),
    ("( ( #k + b* ) ( #n + a )* )*", 4),
    ("( b + #n + a )* <#k. 0 #k > ( <#n. #n > + #k + #m )", 6),
]
SORT_FIXED = [("( <#n. #n #m > + a + #m )*", 12)]
LETTERS = ("a", "b")
NAMES = ("n", "m", "k")
SORTS = "MGLS"
DEPTH = 5
MAX_WORDS = 99  # random expressions with larger M slices are left out of the pools
CROSS_BOUND, CROSS_SEED, CROSS_POOL = 5, 2026, 800
SORT_BOUND, SORT_SEED, SORT_POOL = 8, 2027, 300


def _ms(fn, reps: int = 11) -> float:
    """Median of `reps` timings of `fn` in milliseconds, scaled as run.py scales them."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt * REF_S / probe())
    return statistics.median(times) * 1e3


def _confirm_m(e, bound: int, words: frozenset, brute_bound: int) -> dict:
    """Check an M-sort slice against the automaton and the brute oracle."""
    h = compile_regex(e)
    if hds.language_slice(h, bound) != words:
        raise SystemExit(f"language_slice disagrees on {syntax.render_regex(e)}")
    b = min(bound, brute_bound)
    pool = frozenset(regex.free_names(e)) | {Name(f"p{i}") for i in range(b // 2 + 1)}
    short = frozenset(w for w in words if token_length(w) <= b)
    if oracle.brute_slice(h, b, pool) != short:
        raise SystemExit(f"brute_slice disagrees on {syntax.render_regex(e)}")
    return {"language_slice_bound": bound, "brute_slice_bound": b}


def _sorts(e, bound: int, timed: bool = False) -> dict:
    out = {}
    for s in SORTS:
        ws = regex.enumerate_slice(e, s, bound).words
        out[s] = {"words": len(ws), "digest": digest(s, ws)}
        if timed:
            out[s]["gen_ms"] = round(_ms(lambda: regex.enumerate_slice(e, s, bound)), 4)
    return out


def _random_exprs(gen_seed: int):
    rng = random.Random(gen_seed)
    names = [Name(x) for x in NAMES]
    letters = [Letter(x) for x in LETTERS]
    while True:
        src = syntax.render_regex(oracle.random_regex(rng, names, letters, DEPTH))
        # the stored text is the item; reparse so the tree matches run time
        yield src, syntax.parse_regex(src, set(LETTERS))


def _has_binder(e) -> bool:
    if isinstance(e, regex.Binder):
        return True
    return any(_has_binder(getattr(e, f)) for f in ("left", "right", "body") if hasattr(e, f))


def write(out_dir: str, workload: str, fixed: list, pool: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    fixture = {"command": COMMAND, "letters": list(LETTERS), "fixed": fixed, "pool": pool}
    with open(os.path.join(out_dir, f"{workload}.json"), "w", encoding="utf-8") as f:
        json.dump(fixture, f, indent=1)
        f.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "fixtures"),
                    help="directory to write the fixture files to")
    args = ap.parse_args()

    cross_fixed = []
    for fname, text, bound in CORPUS:
        e, _ = syntax.parse_nre(text)
        r = oracle.check_equivalence(e, compile_regex(e), bound)
        assert r.passed
        cross_fixed.append({"src": text, "file": fname, "bound": bound, "words": r.common})
    for src, bound in CROSSCHECK_EXTRA:
        e = syntax.parse_regex(src, set(LETTERS))
        r = oracle.check_equivalence(e, compile_regex(e), bound)
        assert r.passed
        cross_fixed.append({"src": src, "bound": bound, "words": r.common})
        print(f"crosscheck fixed {src} @{bound}: {r.common} words", flush=True)

    cross_pool = []
    for src, e in _random_exprs(CROSS_SEED):
        if len(cross_pool) == CROSS_POOL:
            break
        h = compile_regex(e)
        r = oracle.check_equivalence(e, h, CROSS_BOUND)
        if not r.passed:
            raise SystemExit(f"crosscheck FAIL on {src}")
        if r.common > MAX_WORDS:
            continue
        ms = _ms(lambda: oracle.check_equivalence(e, h, CROSS_BOUND))
        cross_pool.append({"src": src, "words": r.common, "gen_ms": round(ms, 4)})
    print(f"crosscheck pool: {len(cross_pool)} expressions", flush=True)

    sort_fixed = []
    for src, bound in SORT_FIXED:
        e = syntax.parse_regex(src, set(LETTERS))
        sorts = _sorts(e, bound)
        m = regex.enumerate_slice(e, "M", bound).words
        conf = _confirm_m(e, bound, m, brute_bound=5)
        sort_fixed.append({"src": src, "bound": bound, "sorts": sorts, "confirmed": conf})
        print(f"sort fixed {src} @{bound}: {sorts}", flush=True)

    sort_pool = []
    for src, e in _random_exprs(SORT_SEED):
        if len(sort_pool) == SORT_POOL:
            break
        if not _has_binder(e):
            continue
        m = regex.enumerate_slice(e, "M", SORT_BOUND).words
        if len(m) > MAX_WORDS:
            continue
        sorts = _sorts(e, SORT_BOUND, timed=True)
        _confirm_m(e, SORT_BOUND, m, brute_bound=4)
        sort_pool.append({"src": src, "sorts": sorts})
    print(f"sort pool: {len(sort_pool)} expressions", flush=True)

    write(args.out, "crosscheck", cross_fixed, {
        "gen_seed": CROSS_SEED, "depth": DEPTH, "names": list(NAMES), "bound": CROSS_BOUND,
        "max_words": MAX_WORDS, "size": CROSS_POOL, "items": cross_pool})
    write(args.out, "sort_enum", sort_fixed, {
        "gen_seed": SORT_SEED, "depth": DEPTH, "names": list(NAMES), "bound": SORT_BOUND,
        "max_words": MAX_WORDS, "size": SORT_POOL, "binder_bearing": True,
        "items": sort_pool})
    return 0


if __name__ == "__main__":
    sys.exit(main())
