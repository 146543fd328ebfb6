"""The three workloads: their inputs, their items and the expected answers.

Inputs come from `--seed` and the workload's file in `fixtures/`; fixed
items are named by their source text.  Each item is one user-level job, checked against a
reference that does not come from the code it times:

* crosscheck -- `oracle.check_equivalence(e, h, bound)` with `h` compiled
  at set-up: the verdict must be PASS and the number of words must match
  the fixture.
* membership -- parse, canonicalize and tokenize a word, then `hds.run`:
  the verdict must be the one the word was built to have.
* sort_enum -- `regex.enumerate_slice(e, ops, bound)` in one sort: the
  word count and the digest of the sorted rendered words must match the
  fixture.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from nomlang import compiler, hds, hds_format, oracle, regex, syntax, words

from render import digest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

CORPUS = [
    # (file name, source text, bound): the files in expressions/ at the
    # time of writing, named by their text so that the benchmark does not
    # follow later edits of the corpus.
    ("fresh_names.nre", "<#n. #n >*", 8),
    ("nested_nonce.nre", "<#n. #n <#m. #n #m > >*", 8),
    ("ns_protocol.nre", "letters ENCR FOR A B;\n"
     "<#n. ENCR #n A FOR B <#m. ENCR #n #m FOR A ( ENCR #m FOR B ) > >*", 18),
    ("scoped_pairs.nre", "<#l. #l <#m. <#n. #m #n > >* >", 8),
    ("session_nonce.nre", "#m <#n. #m #n >*", 8),
]

# Random items per workload run.  The pool is ordered by its fixture cost
# and its OUTLIERS costliest entries are left out: they are few and far
# apart (43-150 ms against 21-35 ms for the next 14 in the sort_enum pool),
# so the eleventh-slowest item, where item_tail_ms lies, fell on one of
# them and its interquartile range over five seeds was 0.16-0.18 of its
# median.  The next TOP entries are in every run; the rest is cut into
# BINS equal bins and the seed draws PER_BIN items from each.  Every run
# then holds the same mix of cheap and costly items, so the seed changes
# which expressions are timed but not how much work a pass is, nor which
# cost its median item has; and the tail lies among the TOP entries, the
# same in every run and close together in cost.  Drawn from the top bins
# instead, the tail item's cost moved with the seed by 0.08 (crosscheck)
# and 0.19 (sort_enum) of its median, as interquartile range over 40 seeds.
OUTLIERS = 10
TOP = 24
BINS = 40
PER_BIN = {"crosscheck": 6, "sort_enum": 6}

# Per-item time cap for crosscheck and membership.  The slowest item on
# the seed code (the 10-iteration binder-star reject) takes about 1.8 s on
# a 2-core x86-64 VM, under a tenth of the cap.
ITEM_CAP_S = 30.0

# Seconds one pass over the item list takes on the seed code (2-vCPU x86-64
# VM, typical rather than best).  A measured run makes round(--seconds /
# PASS_S) passes, at least worker.MIN_PASSES, so every run of a workload
# has the same number of samples per item, whatever the machine's speed.
PASS_S = {"crosscheck": 1.9, "membership": 7.0, "sort_enum": 2.6}

MEMBERSHIP_K = range(1, 65)
MEMBERSHIP_ORDER_SEED = 0  # the item order is the same for every --seed
# Up to 10 iterations: the 11- and 12-iteration rejects take 3.2 s and
# 6.6 s on the seed code, so a pass took 16 s and each item ran only three
# times in a run, too few for a median that holds from run to run.
BINDER_STAR_K = range(2, 11)
SESSION_BLOCK = "<#n. #m #n >"
NS_BLOCK = "<#n. ENCR #n A FOR B <#m. ENCR #n #m FOR A ENCR #m FOR B > >"
NS_LETTERS = ("ENCR", "FOR", "A", "B")
BINDER_STAR = "( <#n. #n ( #m + #n )* > )*"
BINDER_STAR_BLOCK = "<#n. #n #m #n #m >"


@dataclass
class Item:
    key: str
    kind: str  # "fixed" or "random"
    run: Callable  # (ops accessor) -> result; the timed call
    check: Callable  # result -> None, or the reason the answer is wrong
    smoke: bool = False  # part of the reduced item list of a smoke run
    sort: Optional[str] = None


@dataclass
class Workload:
    name: str
    items: list[Item]
    capped: bool
    record: dict = field(default_factory=dict)
    automata: list = field(default_factory=list)
    fixture_load_s: float = 0.0  # reading the expected answers, not the program


def load_fixture(workload: str) -> dict:
    with open(os.path.join(FIXTURES, f"{workload}.json"), encoding="utf-8") as f:
        return json.load(f)


def stratified(pool: list, cost, per_bin: int, rng: random.Random) -> list:
    """The seed's draw from each cost bin, cheapest first, then the TOP entries."""
    ordered = sorted(pool, key=cost)[:-OUTLIERS]
    rest, top = ordered[:-TOP], ordered[-TOP:]
    n = len(rest)
    out = []
    for b in range(BINS):
        out += rng.sample(rest[b * n // BINS:(b + 1) * n // BINS], per_bin)
    return out + top


def _parse(src: str, letters) -> regex.Regex:
    if src.startswith("letters"):
        return syntax.parse_nre(src)[0]
    return syntax.parse_regex(src, set(letters))


def _compile(e) -> hds.Hds:
    h = compiler.compile_regex(e)
    problems = hds.validate(h)
    if problems:
        raise RuntimeError(f"invalid automaton: {problems[0]}")
    return h


# ---------------------------------------------------------------------------
# crosscheck

def _cross_item(key, kind, e, h, bound, want_words, smoke=False) -> Item:
    def run(ops):
        return oracle.check_equivalence(e, h, bound)

    def check(report):
        if not report.passed:
            return "verdict FAIL"
        if report.common != want_words:
            return f"{report.common} words, fixture says {want_words}"
        return None

    return Item(key, kind, run, check, smoke)


def crosscheck(seed: int, cfx: dict) -> Workload:
    letters = cfx["letters"]
    pool = cfx["pool"]
    drawn = stratified(pool["items"], lambda x: (x["gen_ms"], x["src"]),
                       PER_BIN["crosscheck"], random.Random(seed))
    items, automata = [], []
    for spec in cfx["fixed"]:
        e = _parse(spec["src"], letters)
        h = _compile(e)
        automata.append(h)
        key = f"{spec['src']} @{spec['bound']}"
        items.append(_cross_item(key, "fixed", e, h, spec["bound"], spec["words"], True))
    for spec in drawn:
        e = _parse(spec["src"], letters)
        h = _compile(e)
        automata.append(h)
        items.append(_cross_item(f"{spec['src']} @{pool['bound']}", "random", e, h,
                                 pool["bound"], spec["words"]))
    items[len(cfx["fixed"])].smoke = True  # the first draw, from the cheapest bin
    record = {"fixed_bounds": {s["src"]: s["bound"] for s in cfx["fixed"]},
              "random_bound": pool["bound"], "random_depth": pool["depth"],
              "random_pool": len(pool["items"]), "random_drawn": len(drawn),
              "random_top": TOP, "random_outliers_left_out": OUTLIERS}
    return Workload("crosscheck", items, True, record, automata)


# ---------------------------------------------------------------------------
# membership

def _blocks(block: str, k: int, head: str = "") -> str:
    return " ".join(([head] if head else []) + [block] * k)


def _near_miss(text: str, block: str, rng: random.Random) -> tuple[str, str]:
    """The word with one token changed so that it leaves the language.

    A name occurrence becomes `#z`, a name no word of the language has
    free; a letter becomes another letter, which breaks the fixed letter
    pattern of the protocol blocks.  Binder positions are left alone.
    The change is made in the last block, so every reject reads the
    whole word before it fails and its cost does not hang on the seed.
    Returns the word and what changed.
    """
    toks = text.split()
    start = len(toks) - len(block.split())
    slots = [i for i, t in enumerate(toks) if i >= start and (
        (t.startswith("#") and not t.endswith(".")) or t in NS_LETTERS)]
    i = rng.choice(slots)
    old = toks[i]
    if old in NS_LETTERS:
        toks[i] = rng.choice([x for x in NS_LETTERS if x != old])
    else:
        toks[i] = "#z"
    return " ".join(toks), f"token {i} {old}->{toks[i]}"


def _member_item(key, kind, h, text, accept, smoke=False) -> Item:
    def run(ops):
        w = syntax.parse_word(text)
        return hds.run(h, words.tokenize(words.alpha_canonical(w)))

    def check(result):
        if result.outcome == hds.CUTOFF:
            return "cutoff"
        want = hds.ACCEPT if accept else hds.REJECT
        return None if result.outcome == want else f"{result.outcome}, built to {want}"

    return Item(key, kind, run, check, smoke)


def _load(e) -> hds.Hds:
    """Compile, then load through the text format as the CLI does."""
    h = hds_format.parse(hds_format.serialize(_compile(e)))
    problems = hds.validate(h)
    if problems:
        raise RuntimeError(f"invalid automaton: {problems[0]}")
    return h


def membership(seed: int, _fx: None) -> Workload:
    rng = random.Random(seed)
    by_file = {fname: src for fname, src, _ in CORPUS}
    h_session = _load(_parse(by_file["session_nonce.nre"], ()))
    h_ns = _load(_parse(by_file["ns_protocol.nre"], ()))
    h_star = _load(_parse(BINDER_STAR, ()))
    items = []
    for family, h, block, head in (("session", h_session, SESSION_BLOCK, "#m"),
                                   ("ns", h_ns, NS_BLOCK, "")):
        for k in MEMBERSHIP_K:
            word = _blocks(block, k, head)
            smoke = k <= 2
            items.append(_member_item(f"{family} accept k={k}", "fixed", h, word, True, smoke))
            miss, change = _near_miss(word, block, rng)
            items.append(_member_item(f"{family} near-miss k={k} {change}", "random", h,
                                      miss, False, smoke))
    for k in BINDER_STAR_K:
        word = _blocks(BINDER_STAR_BLOCK, k)
        items.append(_member_item(f"binder-star accept k={k}", "fixed", h_star, word, True,
                                  k <= 3))
        items.append(_member_item(f"binder-star reject k={k}", "fixed", h_star,
                                  word + " #k", False, k <= 3))
    # A pass takes about 7 s, a third of it in the last binder-star
    # rejects, and the machine's speed drifts over seconds.  In build order
    # the items that set item_p50_ms would all run in the first seconds of
    # a pass; a fixed shuffle spreads every family over the whole pass.
    random.Random(MEMBERSHIP_ORDER_SEED).shuffle(items)
    record = {"k": [MEMBERSHIP_K.start, MEMBERSHIP_K.stop - 1],
              "binder_star_k": [BINDER_STAR_K.start, BINDER_STAR_K.stop - 1],
              "max_tokens": len(_blocks(NS_BLOCK, MEMBERSHIP_K[-1]).split())}
    return Workload("membership", items, True, record, [h_session, h_ns, h_star])


# ---------------------------------------------------------------------------
# sort_enum

def _sort_item(key, kind, e, sort, bound, want, smoke=False) -> Item:
    def run(ops):
        return regex.enumerate_slice(e, ops(sort), bound)

    verified = []  # hash of the word set once it has matched the fixture

    def check(result):
        got = len(result.words)
        if got != want["words"]:
            return f"{got} words, fixture says {want['words']}"
        # rendering for the digest costs more than the item; a later pass
        # may instead give the very set that matched it in this process
        if verified and hash(result.words) == verified[0]:
            return None
        if digest(sort, result.words) != want["digest"]:
            return "digest differs from fixture"
        verified.append(hash(result.words))
        return None

    return Item(key, kind, run, check, smoke, sort)


def sort_enum(seed: int, sfx: dict) -> Workload:
    letters = sfx["letters"]
    pool = sfx["pool"]
    # an item is one (expression, sort) pair; pairs are drawn by their own cost
    pairs = [(spec, s) for spec in pool["items"] for s in "MGLS"]
    drawn = stratified(pairs, lambda p: (p[0]["sorts"][p[1]]["gen_ms"], p[0]["src"], p[1]),
                       PER_BIN["sort_enum"], random.Random(seed))
    items = []
    for spec in sfx["fixed"]:
        e = _parse(spec["src"], letters)
        for s in "MGLS":
            items.append(_sort_item(f"{spec['src']} @{spec['bound']} {s}", "fixed", e, s,
                                    spec["bound"], spec["sorts"][s], True))
    for j, (spec, s) in enumerate(drawn):
        e = _parse(spec["src"], letters)
        items.append(_sort_item(f"{spec['src']} @{pool['bound']} {s}", "random", e, s,
                                pool["bound"], spec["sorts"][s], smoke=j < 4))
    record = {"fixed_bounds": {s["src"]: s["bound"] for s in sfx["fixed"]},
              "random_bound": pool["bound"], "random_depth": pool["depth"],
              "random_pool": len(pairs), "random_drawn": len(drawn), "random_top": TOP,
              "random_outliers_left_out": OUTLIERS}
    return Workload("sort_enum", items, False, record)


BY_NAME = {"crosscheck": crosscheck, "membership": membership, "sort_enum": sort_enum}


def build(name: str, seed: int) -> Workload:
    """The workload's items; membership builds its words and needs no fixture."""
    t0 = time.monotonic()
    fx = None if name == "membership" else load_fixture(name)
    load_s = time.monotonic() - t0
    wl = BY_NAME[name](seed, fx)
    wl.fixture_load_s = load_s
    return wl
