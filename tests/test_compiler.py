import glob
import hashlib
import os
import random
import time

import pytest

from nomlang.names import Letter, Name, STAR
from nomlang import regex as rx
from nomlang.hds_format import serialize
from nomlang.regex import enumerate_slice
from nomlang.syntax import parse_nre, parse_regex, parse_word, render_word
from nomlang.words import alpha_canonical
from nomlang.hds import OPEN, PUSH, accepts_word, language_slice, validate
from nomlang.compiler import compile_regex
from nomlang.oracle import brute_slice, check_equivalence, random_regex

from conftest import NAMES, LETTERS, repeats_star

n, m, k = NAMES
a, b = LETTERS


def compiled(src, bound=None, letters=LETTERS):
    e = parse_regex(src, letters={s.symbol for s in letters})
    h = compile_regex(e)
    assert validate(h) == []
    if bound is None:
        return e, h
    report = check_equivalence(e, h, bound)
    assert report.passed, "\n".join(report.lines())
    return e, h


# -- constructors ------------------------------------------------------------

def test_compile_atoms():
    _, h = compiled("1")
    assert language_slice(h, 4) == {alpha_canonical(parse_word("^"))}
    _, h = compiled("0")
    assert language_slice(h, 4) == frozenset()
    _, h = compiled("#n")
    assert language_slice(h, 4) == {parse_word("#n")}
    _, h = compiled("a")
    assert language_slice(h, 4) == {parse_word("a")}


def test_a_node_of_no_expression_type_is_refused():
    unknown = rx.Regex((("unknown", None, None, None),))
    with pytest.raises(TypeError, match="unknown expression node 'unknown'"):
        compile_regex(rx.Cat(rx.Atom(n), unknown))


def test_compile_sum_cat_star_bind():
    compiled("#n + a", bound=4)
    compiled("#n a #m", bound=5)
    compiled("( #n a )*", bound=8)
    compiled("<#n. #n a >", bound=6)


@pytest.mark.parametrize("src, states", [
    # the sum's entry is a fresh state in front of the star's initial
    # state, which the star's push re-enters
    ("a* + b", 6),
    ("( a* + b )*", 7),
    ("( a + b ) c", 6),
    ("( 0 + a ) b", 5),
    ("0 a", 3),
    ("( a + 1 ) ( b + 1 )", 8),
    ("( ( a + b )* + c )*", 9),
])
def test_a_sum_or_a_concatenation_adds_no_state(src, states):
    _, h = compiled(src, bound=5, letters=LETTERS + [Letter("c")])
    assert len(h.states) == states


def test_compile_binder_binds_only_its_scope():
    _, h = compiled("<#n. #n > #n", bound=6)
    assert accepts_word(h, parse_word("<#m. #m > #n"))
    assert not accepts_word(h, parse_word("<#n. #n > #m"))


def test_compile_star_under_binder_is_hygienic():
    # every iteration must read the name bound on entry, and the free
    # name n may not leak into the bound position
    e, h = compiled("<#n. #n* >", bound=7)
    assert accepts_word(h, parse_word("<#m. #m #m #m >"))
    assert not accepts_word(h, parse_word("<#m. #m #n >"))
    assert not accepts_word(h, parse_word("<#m. #n #n >"))


def test_compile_binder_under_star_allocates_freshly():
    _, h = compiled("<#n. #n >*", bound=8)
    assert accepts_word(h, parse_word("<#n. #n > <#m. #m >"))
    assert not accepts_word(h, parse_word("<#n. #m >"))


def test_compile_star_skip_does_not_shortcut_inner_loops():
    # the outer star's skip must not enter the body halfway
    compiled("( b** ( #n 0 + <#m. #k > ) )*", bound=6)


def test_compile_nested_binders_see_outer_name():
    e, h = compiled("<#n. #n <#m. #n #m > >", bound=8)
    assert accepts_word(h, parse_word("<#n. #n <#m. #n #m > >"))
    assert not accepts_word(h, parse_word("<#n. #n <#m. #m #m > >"))


def test_brute_oracle_agrees_with_slice():
    # exhaustive stream-based membership agrees with the forward search
    for src in ("<#n. #n a >", "<#n. #n >*", "#m <#n. #m #n >"):
        _, h = compiled(src)
        got = brute_slice(h, 5, frozenset({n, m}))
        want = {w for w in language_slice(h, 5)}
        assert got == want, src


# -- the worked example ------------------------------------------------------

def test_session_expression_golden_shape():
    e, h = compiled("#m <#n. #m #n >*", bound=8)
    assert len(h.states) == 9
    assert sorted(v.label for v in h.eta.values()) == ["m", "m"]
    opens = [t for _, t in h.transitions() if t.label is OPEN]
    assert len(opens) == 1
    (o,) = opens
    assert STAR in set(o.sigma.values())
    assert any(v is not STAR and o.sigma.table.get(v) is v for v in o.sigma.domain)
    pushes = [t for _, t in h.transitions() if t.label is PUSH]
    assert len(pushes) == 1
    (p,) = pushes
    assert list(p.sigma.values()) == [m]
    assert not repeats_star(h)


def test_compilation_deterministic_up_to_isomorphism():
    e = parse_regex("#m <#n. #m #n >*", letters=set())
    assert compile_regex(e) == compile_regex(e)


# -- helper constructions ----------------------------------------------------

def test_a_long_binder_chain_compiles_in_time():
    # each block's free name is threaded through every block before it,
    # so the automaton grows quadratically along the chain; compiling it
    # took 8 to 10 s when every construction rebuilt the whole automaton
    src = " ".join(f"<#n. #n #m{i} >" for i in range(200))
    e = parse_regex(src, letters=set())
    start = time.perf_counter()
    h = compile_regex(e)
    assert time.perf_counter() - start < 2.0
    assert validate(h) == []


def test_a_sum_compiles_in_linear_size():
    # the parser nests sums to the left, and a sum shares its left
    # operand's entry, which takes over only the right operand's initial
    # locals: one local per name, and one identity entry per sum
    sizes = []
    for k in (1000, 8000):
        e = parse_regex(" + ".join(f"#x{i}" for i in range(k)), letters=set())
        h = compile_regex(e)
        locs = sum(len(v) for v in h.states.values())
        entries = sum(len(t.sigma.entries) for _, t in h.transitions())
        assert (len(h.states), locs, entries) == (2 * k, 2 * k - 1, k - 1)
        sizes.append((locs, entries))
    (locs1, entries1), (locs8, entries8) = sizes
    assert locs8 <= 9 * locs1 and entries8 <= 9 * entries1


def test_500_random_expressions_compile_to_a_pinned_size():
    # a binder closes from every final state of its body, so it adds its
    # open state and its close state and no joining state; only a star
    # keeps one final state of its own
    rng = random.Random(0)
    states = transitions = 0
    for _ in range(500):
        e = random_regex(rng, NAMES, LETTERS, 4)
        h = compile_regex(e)
        states += len(h.states)
        transitions += sum(map(len, h.trans.values()))
        assert len(compile_regex(rx.Binder(k, e)).states) == len(h.states) + 2
        report = check_equivalence(e, h, 7)
        assert report.passed, "\n".join(report.lines())
    assert (states, transitions) == (6118, 6891)


def test_relaxed_star_flag_for_shared_bindings():
    # both locals of the doubled state denote the bound name, so the
    # allocation map sends two locals to the placeholder
    e = parse_regex("<#n. #n <#m. #n #m > >*", letters=set())
    h = compile_regex(e)
    assert repeats_star(h)
    assert validate(h) == []
    report = check_equivalence(e, h, 8)
    assert report.passed, "\n".join(report.lines())


@pytest.mark.parametrize("src", [
    # a threaded local named like the binder was resolved as the bound name
    "<#x1. #x2* #n #x1 >*",
    "<#x1. 1* #x1* #x2 #x1 ( 0 + #x1 ) #x1 >",
    # a push was taken to record the bound name, which no initial local denotes
    "<#x1. ( a + 1 ) ( a + 1 ) + #n* ( #m + 0 ) >*",
    "<#x1. #~0* b #m >",
    "<#x0. <#x1. ( #x1 + #m )* > > <#~0. <#x1. a > >",
    "<#x0. <#x1. 1* #n + ( #n + a ) <#m. #x1 > > >",
    "<#x1. <#m. <#x0. 0 >* #x0 #x0 > >",
])
def test_a_binder_named_like_a_local_compiles_its_language(src):
    compiled(src, bound=6)


# -- randomized cross-check --------------------------------------------------

@pytest.mark.parametrize("seed", [7, 42, 99])
def test_random_expressions_round_trip(seed):
    import random

    rng = random.Random(seed)
    for _ in range(60):
        e = random_regex(rng, NAMES, LETTERS, 3)
        h = compile_regex(e)
        assert validate(h) == []
        s1 = enumerate_slice(e, "M", 6).words
        s2 = language_slice(h, 6)
        assert s1 == s2, render_word(next(iter(s1 ^ s2)))


# -- pinned output -----------------------------------------------------------

EXPRESSIONS = os.path.join(os.path.dirname(__file__), os.pardir, "expressions")

# sha256 over the serialized automaton of the corpus files and 3,000
# random expressions, each followed by a NUL byte
PINNED_DIGEST = "823509a4f30f6d3a070fce5f478bc43c80d8c2420d7934d7901e37b776c1cfa1"


def test_compiled_output_is_pinned():
    exprs = []
    for path in sorted(glob.glob(os.path.join(EXPRESSIONS, "*.nre"))):
        with open(path, encoding="utf-8") as f:
            exprs.append(parse_nre(f.read())[0])
    # x0 and x1 are the compiler's own local names and ~0 a reserved
    # binder name: free or bound occurrences of them must not disturb the
    # output
    pool = [Name(s) for s in ("n", "m", "x0", "x1", "~0")]
    rng = random.Random(22)
    exprs += [random_regex(rng, pool, LETTERS, 1 + i % 5) for i in range(3000)]
    digest = hashlib.sha256()
    relaxed = 0
    for e in exprs:
        h = compile_regex(e)
        relaxed += repeats_star(h)
        digest.update(serialize(h).encode() + b"\0")
    assert relaxed  # some entries bind shared locals
    assert digest.hexdigest() == PINNED_DIGEST
