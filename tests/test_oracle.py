import random

import pytest

from nomlang.names import Name, Letter
from nomlang.words import (
    EPSILON,
    TCLOSE,
    TOpen,
    alpha_canonical,
    alpha_equal,
    parse_tokens,
    support,
    token_length,
)
from nomlang.syntax import parse_word, render_regex
from nomlang.compiler import compile_regex
from nomlang.oracle import (
    alpha_oracle,
    balanced_streams,
    check_equivalence,
    gen_axiom_instances,
    random_mword,
    random_regex,
)

from conftest import NAMES, LETTERS

n, m, k = NAMES
a, b = LETTERS
POOL = frozenset(NAMES) | {Name("p"), Name("q")}


# -- the independent alpha decision procedure --------------------------------

def test_alpha_oracle_examples():
    assert alpha_oracle(parse_word("<#n. #n >"), parse_word("<#m. #m >"), POOL)
    assert not alpha_oracle(parse_word("<#n. #n >"), parse_word("<#n. #m >"), POOL)
    assert alpha_oracle(
        parse_word("<#n. <#m. #n #m > >"),
        parse_word("<#m. <#n. #m #n > >"),
        POOL,
    )
    assert not alpha_oracle(
        parse_word("<#n. <#m. #n #m > >"),
        parse_word("<#n. <#m. #m #n > >"),
        POOL,
    )
    # renaming the outer n to m would let the inner binder capture it
    assert not alpha_oracle(
        parse_word("<#n. <#m. #n > >"),
        parse_word("<#m. <#m. #m > >"),
        POOL,
    )


def test_alpha_oracle_agrees_with_canonical(rng):
    for _ in range(300):
        u = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        v = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        assert alpha_oracle(u, v, POOL) == alpha_equal(u, v)


def test_alpha_oracle_accepts_permuted_variants(rng):
    # positive cases: rebuild the same word from its canonical form
    for _ in range(100):
        u = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        assert alpha_oracle(u, alpha_canonical(u), POOL | support(u) | {
            nm for nm in (Name("~0"), Name("~1"), Name("~2"), Name("~3"))
        })


# -- stream enumeration ------------------------------------------------------

def test_balanced_streams_counts():
    pool = frozenset({n})
    letters = frozenset({a})
    assert list(balanced_streams(0, pool, letters)) == [()]
    # length 1: #n or a
    assert len(list(balanced_streams(1, pool, letters))) == 2
    # every stream parses back to a word of that token length
    for length in range(5):
        for s in balanced_streams(length, pool, letters):
            w = parse_tokens(s)
            assert token_length(w) == length


def test_balanced_streams_are_balanced():
    for s in balanced_streams(4, frozenset({n, m}), frozenset()):
        depth = 0
        for t in s:
            if isinstance(t, TOpen):
                depth += 1
            elif t is TCLOSE:
                depth -= 1
            assert depth >= 0
        assert depth == 0


# -- generators --------------------------------------------------------------

def test_random_regex_depth_and_alphabet(rng):
    from nomlang.regex import free_names

    for _ in range(100):
        e = random_regex(rng, NAMES, LETTERS, 3)
        assert free_names(e) <= frozenset(NAMES)
        assert compile_regex(e).letters() <= frozenset(LETTERS)
        render_regex(e)  # must be printable


# -- axiom instances ---------------------------------------------------------

def test_axiom_instances_satisfy_premises(rng):
    # Ax1's premise says the bound name must be fresh for the right
    # operand; check the generator respects it in the raw sort, where
    # the left side is the row of [n]X, then the row of Y
    checked = 0
    for inst in gen_axiom_instances("Ax1", "M", 50, NAMES, LETTERS, rng):
        toks = inst.lhs.tokens
        head = toks[0]
        assert isinstance(head, TOpen)
        depth, j = 1, 0
        while depth:  # j goes to the first binder's close
            j += 1
            depth += isinstance(toks[j], TOpen) - (toks[j] is TCLOSE)
        rest = parse_tokens(toks[j + 1:])
        assert head.name not in support(rest)
        checked += rest != EPSILON
    assert checked > 0


def test_unknown_axiom_rejected(rng):
    with pytest.raises(ValueError):
        gen_axiom_instances("Ax7", "S", 1, NAMES, LETTERS, rng)


# -- equivalence reports -----------------------------------------------------

def test_check_equivalence_pass_and_fail():
    from nomlang.syntax import parse_regex

    e = parse_regex("<#n. #n >*", letters=set())
    h = compile_regex(e)
    report = check_equivalence(e, h, 6)
    assert report.passed
    assert report.lines()[0].startswith("PASS")

    other = parse_regex("#n*", letters=set())
    report = check_equivalence(other, h, 6)
    assert not report.passed
    assert report.lines()[0].startswith("FAIL")
    assert any("only in" in line for line in report.lines()[1:])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_equivalence_reports_the_word_level_differences(seed):
    # an expression against another expression's automaton: the report
    # holds the set differences of the two slices as words, sorted by repr
    from nomlang.hds import language_slice
    from nomlang.oracle import EquivalenceReport
    from nomlang.regex import enumerate_slice

    rng = random.Random(seed)
    exprs = [random_regex(rng, NAMES, LETTERS, 3) for _ in range(40)]
    failed = 0
    for e, other in zip(exprs, exprs[1:] + exprs[:1]):
        h = compile_regex(other)
        report = check_equivalence(e, h, 5)
        s1 = enumerate_slice(e, "M", 5).words
        s2 = language_slice(h, 5)
        want = EquivalenceReport(
            expression=e,
            bound=5,
            passed=s1 == s2,
            common=len(s1 & s2),
            only_regex=sorted(s1 - s2, key=repr),
            only_automaton=sorted(s2 - s1, key=repr),
            seconds=report.seconds,
        )
        assert report == want
        assert report.lines() == want.lines()
        failed += not report.passed
    assert failed > 20


def test_check_equivalence_past_the_campaign_bound():
    # the campaign checks up to bound 7 and the corpus up to bound 8
    from nomlang.syntax import parse_regex

    e = parse_regex("( ( #k + b* ) ( #n + a )* )*", letters={"a", "b"})
    report = check_equivalence(e, compile_regex(e), 9)
    assert report.passed and report.common == 349525


# -- the collector pause -----------------------------------------------------

def _cut_pop_hds():
    """A pop automaton whose push loop only the depth cap ends, so that
    its slice raises `Undecided`."""
    from nomlang.hds import POP, PUSH, Hds, NameMap, Transition

    x = Name("x")
    states = {"q0": frozenset({x}), "q1": frozenset({x}), "q2": frozenset()}
    trans = {
        "q0": (Transition(PUSH, "q0", NameMap.of({x: x})),
               Transition(x, "q1", NameMap.of({x: x}))),
        "q1": (Transition(POP, "q2", NameMap.of({})),),
        "q2": (),
    }
    return Hds(states, "q0", {x: n}, frozenset({"q2"}), trans)


def _pause_users():
    from nomlang.hds import Undecided, language_slice
    from nomlang.regex import enumerate_slice, member
    from nomlang.syntax import parse_regex

    e = parse_regex("( <#n. #n #m > + a + #m )*", letters={"a"})
    h = compile_regex(e)
    w = parse_word("<#n. #n #m > a")
    return {
        "enumerate_slice": (lambda: enumerate_slice(e, "S", 6), None),
        "enumerate_slice, negative bound": (lambda: enumerate_slice(e, "M", -1), ValueError),
        "member": (lambda: member(e, w, "G"), None),
        "language_slice": (lambda: language_slice(h, 6), None),
        "language_slice, negative bound": (lambda: language_slice(h, -1), ValueError),
        "language_slice, cut": (lambda: language_slice(_cut_pop_hds(), 3), Undecided),
        "check_equivalence": (lambda: check_equivalence(e, h, 6), None),
        "check_equivalence, negative bound": (lambda: check_equivalence(e, h, -1), ValueError),
    }


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("user", list(_pause_users()))
def test_the_collector_is_left_as_it_was(user, enabled):
    import gc

    call, error = _pause_users()[user]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_the_collector_is_paused_in_one_place():
    from pathlib import Path

    import nomlang

    sources = Path(nomlang.__file__).parent.glob("*.py")
    assert sum(p.read_text(encoding="utf-8").count("gc.disable") for p in sources) == 1
