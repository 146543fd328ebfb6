#!/usr/bin/env python3
"""Randomized compiler cross-check campaign.

Generates random expressions, compiles each, and compares the bounded
language of the expression against the bounded language of the
automaton.  Each compiled automaton must read back through `serialize`
and `parse` as itself (a `FORMAT` line otherwise).  It also checks that
the expression's G slice is the image of its M slice under the quotient
map, its L slice the image of its G slice, and that its S slice holds
the image of its L slice (a vacuous binder costs two tokens in L but
none in S, so S may hold more).  The quotients return canonical
values, so their images are compared as they come.  In every sort,
`member` must agree with the slice on a sample of words drawn from the
expression's slice and the previous expression's.  On
the M words of that sample, their one-token near-misses (inserted
closes and opens, deletions, name swaps) and two raw spellings of each
(every binder named after the first pool name, and the first binder
named after a pool name that occurs free), the automaton's `run` must
never say CUTOFF, and its verdict must equal that of the referee
`oracle.naive_run`, which keeps every frame, renames no binder and
fires a push transition at most once between two consumed tokens.
`run` with a depth cap of one more than the stream's tokens, which no
pop-free search reaches, must give the default run's verdict.  A capped
run takes the exact depth-first search, and the default run the
forward walk over the node graph wherever the walk decides, so the
`CAP` check (a `CAP` line per mismatch) compares the two on every
campaign stream.  The trace of each accepted stream, which the
depth-first search records, must be a run of `step` on its tokens.
Each of these M words and raw spellings, rendered, must parse back to
its own token row, also with each binder's dot spaced off.  Each
expression, rendered, must parse back to an expression that renders
the same and has the same M slice (a `PARSE` line otherwise).
Prints every mismatch and a summary line.

Usage: python3 scripts/random_campaign.py --count 500 --depth 4 --bound 7
(these are the defaults; --seed, --names and --letters choose the rest)
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from nomlang.names import Letter, Name
from nomlang.compiler import compile_regex
from nomlang.hds import ACCEPT, CUTOFF, language_slice, run, validate
from nomlang.hds_format import FormatError, parse, serialize
from nomlang.monoids import SORTS, quot_gl, quot_ls, quot_mg
from nomlang.oracle import naive_run, near_misses, random_regex, renamed, trace_follows_step
from nomlang.regex import enumerate_slice, member
from nomlang.syntax import ParseError, parse_regex, parse_word, render_regex, render_word
from nomlang.words import MWord, TOpen, support, tokenize


MEMBER_SAMPLE = 3  # words per sort per expression on which `member` is checked


def raw_spellings(w, pool: list) -> list[tuple]:
    """The tokens of `w` with every binder named `pool[0]`, and with its
    first binder named after the first pool name free in `w`: none if `w`
    has no binder, and only the first if no pool name is free in it."""
    tokens = tokenize(w)
    if not any(type(t) is TOpen for t in tokens):
        return []
    out = [renamed(tokens, lambda i, old: pool[0])]
    names = support(w)
    free = [nm for nm in pool if nm in names]
    if free:
        out.append(renamed(tokens, lambda i, old: free[0] if i == 0 else old))
    return out


def check_spellings(w, pool: list, where: str) -> int:
    """Mismatches of `parse_word` on the rendered `w` and its raw
    spellings: each must read back as the token row it renders, both as
    rendered, which `str.split` cuts, and with each binder's dot spaced
    off, which `parse_word` cuts with its pattern instead."""
    bad = 0
    for tokens in [tokenize(w)] + raw_spellings(w, pool):
        text = render_word(MWord(tokens))
        for spelled in dict.fromkeys([text, text.replace(". ", " . ")]):
            if parse_word(spelled).tokens != tokens:
                bad += 1
                print(f"SPELLING {where}: {spelled}")
    return bad


def check_truncation(h, w, pool: list, where: str) -> tuple[int, int, int]:
    """(mismatches, undecided, streams) of the runs on the tokens of `w`,
    their near-misses and `w`'s raw spellings.

    A compiled automaton has no pop transition, so the default run is
    exhaustive: a CUTOFF from it is a mismatch.  The referee gets the
    most frames the default run can hold, one more than the tokens.
    Where that cap cuts the referee (CUTOFF), there is no verdict to
    compare.  `run` under the same cap, which takes the depth-first
    search `hds._depth_first`, must give the verdict of the default
    run's walk, and
    an accepted stream's trace must follow `step` (`trace_follows_step`).
    """
    bad = undecided = 0
    tokens = tokenize(w)
    streams = [tokens] + near_misses(tokens, tuple(pool)) + raw_spellings(w, pool)
    for t in streams:
        got = run(h, t).outcome
        full = naive_run(h, t, max_depth=len(t) + 1).outcome
        if got == CUTOFF or (full != CUTOFF and got != full):
            bad += 1
            print(f"TRUNCATION {where}: {' '.join(map(repr, t))}: {got}, referee {full}")
        elif full == CUTOFF:
            undecided += 1
        capped = run(h, t, max_depth=len(t) + 1).outcome
        if capped != got:
            bad += 1
            print(f"CAP {where}: {' '.join(map(repr, t))}: {capped}, default {got}")
        if got == ACCEPT and not trace_follows_step(h, t, run(h, t, want_trace=True).trace):
            bad += 1
            print(f"TRACE {where}: {' '.join(map(repr, t))}")
    return bad, undecided, len(streams)


def run_campaign(cfg: argparse.Namespace) -> int:
    """Run the campaign `cfg` (the options `main` reads) and print its
    mismatches and summary; 1 if anything mismatched, else 0."""
    rng = random.Random(cfg.seed)
    pool = [Name(x) for x in cfg.names]
    letters = [Letter(s) for s in cfg.letters]
    pick = random.Random(cfg.seed)  # member samples; `rng` draws the expressions
    prev: dict = {}  # sort -> the previous expression's slice
    mismatches = 0
    checked = undecided = 0  # truncation checks, and those the untruncated run cut off
    t0 = time.monotonic()
    for i in range(cfg.count):
        e = random_regex(rng, pool, letters, cfg.depth)
        h = compile_regex(e)
        problems = validate(h)
        if problems:
            mismatches += 1
            print(f"INVALID #{i}: {render_regex(e)}: {problems[0]}")
            continue
        try:
            problem = None if parse(serialize(h)) == h else "reads back as another automaton"
        except FormatError as exc:
            problem = str(exc)
        if problem:
            mismatches += 1
            print(f"FORMAT #{i}: {render_regex(e)}: {problem}")
        want = enumerate_slice(e, "M", cfg.bound).words
        text = render_regex(e)
        try:
            again = parse_regex(text, cfg.letters)
            problem = (None if render_regex(again) == text
                       and enumerate_slice(again, "M", cfg.bound).words == want
                       else f"reads back as {render_regex(again)}")
        except ParseError as exc:
            problem = str(exc)
        if problem:
            mismatches += 1
            print(f"PARSE #{i}: {text}: {problem}")
        got = language_slice(h, cfg.bound)
        if want != got:
            mismatches += 1
            print(f"MISMATCH #{i}: {render_regex(e)}")
            for w in sorted(want - got, key=repr)[:5]:
                print(f"  missing from automaton: {render_word(w)}")
            for w in sorted(got - want, key=repr)[:5]:
                print(f"  extra in automaton:     {render_word(w)}")
        g = enumerate_slice(e, "G", cfg.bound).words
        l = enumerate_slice(e, "L", cfg.bound).words
        s = enumerate_slice(e, "S", cfg.bound).words
        if g != {quot_mg(w) for w in want}:
            mismatches += 1
            print(f"QUOTIENT M->G #{i}: {render_regex(e)}")
        if l != {quot_gl(w) for w in g}:
            mismatches += 1
            print(f"QUOTIENT G->L #{i}: {render_regex(e)}")
        if not s >= {quot_ls(w) for w in l}:
            mismatches += 1
            print(f"QUOTIENT L->S #{i}: {render_regex(e)}")
        slices = {"M": want, "G": g, "L": l, "S": s}
        for sort, words in slices.items():
            ops = SORTS[sort]
            drawn = sorted(words | prev.get(sort, frozenset()), key=repr)
            for w in pick.sample(drawn, min(MEMBER_SAMPLE, len(drawn))):
                if member(e, w, sort) != (ops.canon(w) in words):
                    mismatches += 1
                    print(f"MEMBER {sort} #{i}: {render_regex(e)}: {render_word(ops.to_mword(w))}")
                if sort == "M":
                    where = f"#{i}: {render_regex(e)}"
                    mismatches += check_spellings(w, pool, where)
                    bad, cut, streams = check_truncation(h, w, pool, where)
                    mismatches += bad
                    undecided += cut
                    checked += streams
        prev = slices
    dt = time.monotonic() - t0
    print(
        f"{cfg.count} expressions, depth {cfg.depth}, bound {cfg.bound}, "
        f"seed {cfg.seed}: {mismatches} mismatches in {dt:.1f}s "
        f"(truncation: {undecided} of {checked} streams undecided)"
    )
    return 1 if mismatches else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--bound", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--names", nargs="+", default=["n", "m", "k"])
    ap.add_argument("--letters", nargs="+", default=["a", "b"])
    return run_campaign(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
