"""Acceptance gate: one test (and one PASS/FAIL line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to see the verdict per
criterion.  Each test is seeded and self-contained; together they take
well under five minutes.
"""

import glob
import itertools
import os
import random

from nomlang.names import Letter, Name
from nomlang import regex as rx
from nomlang import words
from nomlang.words import (
    alpha_canonical,
    alpha_equal,
    concat,
    support,
    token_length,
    tokenize,
)
from nomlang.syntax import parse_nre, parse_regex, parse_word, render_regex
from nomlang.regex import enumerate_slice
from nomlang.monoids import SORTS, SORT_S, plain_words_bounded
from nomlang.hds import (
    Hds,
    NameMap,
    POP,
    PUSH,
    Transition,
    accepts,
    language_slice,
    validate,
)
from nomlang.compiler import compile_regex
from nomlang.oracle import (
    alpha_oracle,
    brute_slice,
    check_equivalence,
    fresh_binder_variant,
    gen_axiom_instances,
    naive_run,
    random_mword,
    random_regex,
)

from conftest import NAMES, LETTERS, junk_below

n, m, k = NAMES
a, b = LETTERS
SEED = 20260823
EXPR_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "expressions")


def _verdict(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {title}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_1_corpus_and_campaign():
    """Compiled automata match expression languages on the corpus and at random."""
    failures = []
    for path in sorted(glob.glob(os.path.join(EXPR_DIR, "*.nre"))):
        bound = 18 if "ns_protocol" in path else 8
        with open(path) as f:
            e, _ = parse_nre(f.read())
        h = compile_regex(e)
        if validate(h):
            failures.append(f"{os.path.basename(path)}: invalid automaton")
            continue
        report = check_equivalence(e, h, bound)
        if not report.passed:
            failures.append(os.path.basename(path))
    rng = random.Random(SEED)
    for i in range(300):
        e = random_regex(rng, NAMES, LETTERS, 4)
        h = compile_regex(e)
        if validate(h) or enumerate_slice(e, "M", 7).words != language_slice(h, 7):
            failures.append(f"random #{i}: {render_regex(e)}")
    _verdict(
        1,
        "corpus + 300 random expressions agree with their compilations",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_2_operator_compositionality():
    """Bounded slices decompose over sum, concatenation, star, and binder."""
    rng = random.Random(SEED + 1)
    bound = 6
    bad = []

    def slice_of(e, bnd=bound):
        return enumerate_slice(e, "M", bnd).words

    def cat_of(s1, s2):
        return frozenset(
            alpha_canonical(concat(u, v))
            for u in s1
            for v in s2
            if token_length(u) + token_length(v) <= bound
        )

    for i in range(100):
        e1 = random_regex(rng, NAMES, LETTERS, 2)
        e2 = random_regex(rng, NAMES, LETTERS, 2)
        s1, s2 = slice_of(e1), slice_of(e2)
        if slice_of(rx.Sum(e1, e2)) != s1 | s2:
            bad.append(f"sum #{i}")
        if slice_of(rx.Cat(e1, e2)) != cat_of(s1, s2):
            bad.append(f"cat #{i}")
        star = frozenset({alpha_canonical(words.EPSILON)})
        while True:
            grown = star | cat_of(s1, star)
            if grown == star:
                break
            star = grown
        if slice_of(rx.Star(e1)) != star:
            bad.append(f"star #{i}")
        binder = frozenset(
            alpha_canonical(words.bind(n, w)) for w in slice_of(e1, bound - 2)
        )
        if slice_of(rx.Binder(n, e1)) != binder:
            bad.append(f"binder #{i}")
    _verdict(
        2,
        "slice(sum/cat/star/binder) decompose over operand slices",
        not bad,
        "; ".join(bad[:5]),
    )


def test_criterion_3_pop_automaton_exact_language():
    """A hand-built push/pop loop accepts exactly #n ... #n (1..6 times)."""
    x = Name("x")
    NM = NameMap.of
    h = Hds(
        states={q: frozenset({x}) for q in ("q0", "q1", "q2", "q3")},
        initial="q0",
        eta={x: n},
        finals=frozenset({"q1"}),
        trans={
            "q0": (Transition(x, "q1", NM({x: x})),),
            "q1": (Transition(PUSH, "q2", NM({x: x})),),
            "q2": (Transition(x, "q3", NM({x: x})),),
            "q3": (Transition(POP, "q1", NM({x: x})),),
        },
    )
    ok = validate(h) == []
    got = brute_slice(h, 6, frozenset({n, m}))
    want = frozenset(parse_word(" ".join(["#n"] * i)) for i in range(1, 7))
    ok = ok and got == want and got == language_slice(h, 6)
    _verdict(3, "push/pop automaton language is exactly {#n^i | 1<=i<=6}", ok)


def _with_added_local(h: Hds, x: Name) -> Hds:
    """`h` with the local name `x` in every state, threaded through every
    move with the identity; `x` has no initial meaning."""
    states = {q: locs | {x} for q, locs in h.states.items()}
    trans = {q: tuple(Transition(t.label, t.target, NameMap.of(t.sigma.as_dict() | {x: x}))
                      for t in ts)
             for q, ts in h.trans.items()}
    return Hds(states, h.initial, h.eta, h.finals, trans)


def test_criterion_4_junk_stacks_and_added_locals():
    """Frames below the initial one, and unused locals, never change acceptance."""
    rng = random.Random(SEED + 2)
    pool = NAMES + [Name("p")]
    bad = []
    for i in range(100):
        e = random_regex(rng, NAMES, LETTERS, 3)
        h = compile_regex(e)
        w = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        tokens = tokenize(alpha_canonical(w))
        frames = tuple(
            NameMap.of({
                Name(f"j{j}"): rng.choice(pool)
                for j in range(rng.randint(0, 2))
            })
            for _ in range(rng.randint(1, 2))
        )
        plain = naive_run(h, tokens).accepted
        junked = naive_run(junk_below(h, frames), tokens).accepted
        if plain != junked:
            bad.append(f"stack #{i}: {render_regex(e)}")
    for i in range(30):
        e = random_regex(rng, NAMES, LETTERS, 3)
        h = compile_regex(e)
        h2 = _with_added_local(h, Name("z9"))
        if validate(h2) or language_slice(h2, 6) != language_slice(h, 6):
            bad.append(f"added local #{i}: {render_regex(e)}")
    _verdict(
        4,
        "junk initial stacks and added locals preserve acceptance",
        not bad,
        "; ".join(bad[:3]),
    )


def test_criterion_5_axiom_suites():
    """Each sort satisfies exactly its advertised equational laws."""
    rng = random.Random(SEED + 3)
    suites = {"G": ["Ax1"], "L": ["Ax1", "Ax2", "Ax3"],
              "S": ["Ax1", "Ax2", "Ax3", "Ax4", "Ax5"]}
    bad = []
    for sort, axioms in suites.items():
        ops = SORTS[sort]
        for ax in axioms:
            for inst in gen_axiom_instances(ax, sort, 200, NAMES, LETTERS, rng):
                if not inst.holds(ops):
                    bad.append(f"{ax} in {sort}")
                    break
    _verdict(
        5,
        "Ax1 holds in G, Ax1-3 in L, Ax1-5 in S (200 instances each)",
        not bad,
        "; ".join(bad),
    )


def test_criterion_6_distinct_names_language_idempotent():
    """The all-distinct-names language is closed under concatenation in S."""
    e = rx.Star(rx.Binder(n, rx.Atom(n)))
    W = enumerate_slice(e, "S", 12).words
    closed = set(W)
    for u, v in itertools.product(W, W):
        z = SORT_S.concat(u, v)
        if SORT_S.tok_len(z) <= 12:
            closed.add(SORT_S.canon(z))
    ok = frozenset(closed) == W
    pool = frozenset(Name(s) for s in "pqrs")
    proj = plain_words_bounded([SORT_S.to_mword(w) for w in W], pool)
    got = {t for t in proj if len(t) <= 4 and all(s in pool for s in t)}
    want = {t for L in range(5) for t in itertools.permutations(sorted(pool), L)}
    ok = ok and got == want
    _verdict(
        6,
        "L.L = L for the distinct-names language in sort S, "
        "with the expected binder-free projection",
        ok,
    )


def test_criterion_7_alpha_invariant_acceptance():
    """Raw acceptance of fresh-binder representatives matches canonical acceptance."""
    rng = random.Random(SEED + 4)
    bad = 0
    total = 0
    for _ in range(50):
        e = random_regex(rng, NAMES, LETTERS, 3)
        h = compile_regex(e)
        for _ in range(20):
            w = random_mword(rng, NAMES, LETTERS, rng.randint(0, 5))
            v = fresh_binder_variant(w)
            total += 1
            if accepts(h, tokenize(v)) != accepts(h, tokenize(alpha_canonical(w))):
                bad += 1
    _verdict(
        7,
        f"acceptance is alpha-invariant on {total} automaton/word/variant triples",
        bad == 0,
        f"{bad} mismatches",
    )


def test_criterion_8_alpha_oracle_and_quotients():
    """Canonical forms agree with the rewriting oracle; quotients are monoid maps."""
    rng = random.Random(SEED + 5)
    pool = frozenset(NAMES) | {Name("p"), Name("q")}
    bad = []
    for i in range(1500):
        u = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        v = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        if alpha_oracle(u, v, pool) != alpha_equal(u, v):
            bad.append(f"pair #{i}")
    for i in range(500):
        u = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        v = fresh_binder_variant(u)
        wide = pool | words.all_names(u) | words.all_names(v)
        if not alpha_oracle(u, v, wide):
            bad.append(f"variant #{i}")

    from nomlang.monoids import (
        SORT_G, SORT_L, canon_g, canon_l, canon_s,
        concat_g, concat_l, embed_gm, embed_lg, embed_sl,
        quot_gl, quot_ls, quot_mg,
    )
    from nomlang.oracle import _build

    for i in range(200):
        x, y = (_build(SORT_L, rng, NAMES, LETTERS, 4) for _ in range(2))
        if canon_s(quot_ls(concat_l(x, y))) != canon_s(
            SORT_S.concat(quot_ls(x), quot_ls(y))
        ):
            bad.append(f"ls #{i}")
        g1, g2 = (_build(SORT_G, rng, NAMES, LETTERS, 4) for _ in range(2))
        if canon_l(quot_gl(concat_g(g1, g2))) != canon_l(
            concat_l(quot_gl(g1), quot_gl(g2))
        ):
            bad.append(f"gl #{i}")
        u, v = (random_mword(rng, NAMES, LETTERS, 4) for _ in range(2))
        if canon_g(quot_mg(concat(u, v))) != canon_g(
            concat_g(quot_mg(u), quot_mg(v))
        ):
            bad.append(f"mg #{i}")
        s = _build(SORT_S, rng, NAMES, LETTERS, 4)
        if canon_s(quot_ls(embed_sl(s))) != canon_s(s):
            bad.append(f"section ls #{i}")
        l = _build(SORT_L, rng, NAMES, LETTERS, 4)
        if canon_l(quot_gl(embed_lg(l))) != canon_l(l):
            bad.append(f"section gl #{i}")
        g = _build(SORT_G, rng, NAMES, LETTERS, 4)
        if canon_g(quot_mg(embed_gm(g))) != canon_g(g):
            bad.append(f"section mg #{i}")
    _verdict(
        8,
        "canonical alpha-forms match the rewriting oracle; "
        "sort quotients are homomorphisms with the embeddings as sections",
        not bad,
        "; ".join(bad[:5]),
    )
