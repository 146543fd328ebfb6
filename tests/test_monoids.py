import pytest
from hypothesis import given, settings, strategies as st

from nomlang.names import Name, Letter
from nomlang import words
from nomlang.monoids import (
    SORT_G,
    SORT_L,
    SORT_M,
    SORT_S,
    SORTS,
    embed_gm,
    embed_lg,
    embed_lm,
    embed_sl,
    embed_sm,
    plain_words_bounded,
)
from nomlang.oracle import gen_axiom_instances
from nomlang.syntax import parse_word

from conftest import NAMES, LETTERS

n, m, k = NAMES
a, b = LETTERS

names_st = st.sampled_from(NAMES)
letters_st = st.sampled_from(LETTERS)


def sort_words_st(ops, max_size=5):
    """Random words of a sort, as a sequence of constructor steps."""
    step = st.one_of(
        names_st.map(lambda x: ("n", x)),
        letters_st.map(lambda s: ("s", s)),
        names_st.map(lambda x: ("b", x)),
    )

    def build(steps):
        w = ops.unit
        for kind, payload in steps:
            if kind == "b":
                w = ops.bind(payload, w)
            else:  # "n" or "s": a name or a letter
                w = ops.concat(w, ops.atom(payload))
        return w

    return st.lists(step, max_size=max_size).map(build)


# -- monoid laws per sort ----------------------------------------------------

@pytest.mark.parametrize("tag", sorted(SORTS))
def test_unit_laws(tag, rng):
    ops = SORTS[tag]
    for _ in range(30):
        from nomlang.oracle import _build

        w = _build(ops, rng, NAMES, LETTERS, 4)
        assert ops.canon(ops.concat(ops.unit, w)) == ops.canon(w)
        assert ops.canon(ops.concat(w, ops.unit)) == ops.canon(w)


@pytest.mark.parametrize("tag", sorted(SORTS))
def test_concat_associative(tag, rng):
    ops = SORTS[tag]
    from nomlang.oracle import _build

    for _ in range(30):
        u, v, w = (_build(ops, rng, NAMES, LETTERS, 3) for _ in range(3))
        assert ops.canon(ops.concat(ops.concat(u, v), w)) == ops.canon(
            ops.concat(u, ops.concat(v, w))
        )


@pytest.mark.parametrize("tag", sorted(SORTS))
def test_canon_idempotent(tag, rng):
    ops = SORTS[tag]
    from nomlang.oracle import _build

    for _ in range(30):
        w = _build(ops, rng, NAMES, LETTERS, 4)
        c = ops.canon(w)
        assert ops.canon(c) == c
    # the key operations keep keys canonical, so a decoded key is too
    for _ in range(200):
        c = ops.keyed.to_mword(_build(ops.keyed, rng, NAMES, LETTERS, 8))
        assert ops.canon(c) == c


@pytest.mark.parametrize("tag", sorted(SORTS))
def test_value_operations_return_canonical_values(tag, rng):
    ops = SORTS[tag]
    from nomlang.oracle import _build

    for x in NAMES:
        assert ops.atom(x) == ops.canon(ops.atom(x))
    for s in LETTERS:
        assert ops.atom(s) == ops.canon(ops.atom(s))
    for _ in range(60):
        u, v = (_build(ops, rng, NAMES, LETTERS, rng.randint(0, 5)) for _ in range(2))
        w = ops.concat(u, v)
        assert w == ops.canon(w)
        w = ops.bind(rng.choice(NAMES), u)
        assert w == ops.canon(w)
    if tag == "M":  # raw rows in, the canonical row out
        w = ops.concat(parse_word("<#a. #a >"), parse_word("<#b. #b #c >"))
        assert w == ops.canon(w) == parse_word("<#~0. #~0 > <#~1. #~1 #c >")


# -- which laws hold where ---------------------------------------------------

def _all_hold(axiom, sort, rng, count=60):
    ops = SORTS[sort]
    return all(
        inst.holds(ops)
        for inst in gen_axiom_instances(axiom, sort, count, NAMES, LETTERS, rng)
    )


def test_law_profile_by_sort(rng):
    # prefix-scoped words satisfy the scope-extrusion law for binders,
    # letters, and fresh names; unordered-binder words additionally
    # commute and garbage-collect their binders.
    assert _all_hold("Ax1", "G", rng)
    for ax in ("Ax1", "Ax2", "Ax3"):
        assert _all_hold(ax, "L", rng)
    for ax in ("Ax1", "Ax2", "Ax3", "Ax4", "Ax5"):
        assert _all_hold(ax, "S", rng)


def test_laws_fail_where_expected():
    # Ax4 in L: binder order is observable
    ops = SORT_L
    lhs = ops.bind(n, ops.bind(m, ops.concat(ops.atom(n), ops.atom(m))))
    rhs = ops.bind(m, ops.bind(n, ops.concat(ops.atom(n), ops.atom(m))))
    assert ops.canon(lhs) != ops.canon(rhs)
    # Ax5 in L: a vacuous binder is observable
    w = ops.atom(a)
    assert ops.canon(ops.bind(n, w)) != ops.canon(w)
    # Ax2 in G: a binder cannot cross a letter
    ops = SORT_G
    y = ops.atom(m)
    lhs = ops.concat(ops.atom(a), ops.bind(m, y))
    rhs = ops.bind(m, ops.concat(ops.atom(a), y))
    assert ops.canon(lhs) != ops.canon(rhs)


def test_ax6_extra_in_s(rng):
    # unordered-binder words also let a binder cross a whole fresh word
    assert _all_hold("Ax6", "S", rng, count=100)
    # ...but ordered sorts do not: moving a binder over a word that has
    # binders of its own changes the observable prefix order
    ops = SORT_L
    x = ops.bind(k, ops.atom(k))
    lhs = ops.concat(x, ops.bind(n, ops.atom(n)))
    rhs = ops.bind(n, ops.concat(x, ops.atom(n)))
    assert ops.canon(lhs) != ops.canon(rhs)


# -- token length ---------------------------------------------------------------

@pytest.mark.parametrize(
    "ops", [*SORTS.values(), *(o.keyed for o in SORTS.values())],
    ids=[*SORTS, *(f"{s}-keys" for s in SORTS)],
)
def test_token_length_adds_up_under_concat(rng, ops):
    # enumerate_slice files a product under the sum of its operands' lengths
    from nomlang.oracle import _build

    for _ in range(80):
        x, y = (ops.canon(_build(ops, rng, NAMES, LETTERS, rng.randint(0, 5)))
                for _ in range(2))
        w = ops.canon(ops.concat(x, y))
        assert ops.tok_len(w) == ops.tok_len(x) + ops.tok_len(y)


def test_keyed_m_sort_decodes_to_canonical_words(rng):
    from nomlang.oracle import random_mword

    keyed = SORT_M.keyed
    for _ in range(100):
        u, v = (random_mword(rng, NAMES, LETTERS, 4) for _ in range(2))
        ku, kv = words.alpha_key(u), words.alpha_key(v)
        assert keyed.to_mword(keyed.concat(ku, kv)) == SORT_M.canon(SORT_M.concat(u, v))
        assert keyed.to_mword(keyed.bind(n, ku)) == SORT_M.canon(SORT_M.bind(n, u))


# -- embeddings and the quotients they section -------------------------------
#
# The embeddings pick one representative per word of the coarser sort.
# The maps in the other direction (forgetting structure) are the monoid
# homomorphisms, and each embedding is a section of its quotient.

from nomlang.monoids import (  # noqa: E402
    canon_g,
    canon_l,
    canon_s,
    concat_g,
    concat_l,
    quot_gl,
    quot_ls,
    quot_mg,
)


def _rand_s(rng, size=4):
    from nomlang.oracle import _build

    return _build(SORT_S, rng, NAMES, LETTERS, size)


def _rand_l(rng, size=4):
    from nomlang.oracle import _build

    return _build(SORT_L, rng, NAMES, LETTERS, size)


def test_quotient_ls_homomorphism(rng):
    for _ in range(60):
        x, y = _rand_l(rng), _rand_l(rng)
        lhs = canon_s(quot_ls(concat_l(x, y)))
        rhs = canon_s(SORT_S.concat(quot_ls(x), quot_ls(y)))
        assert lhs == rhs


def test_quotient_gl_homomorphism(rng):
    from nomlang.oracle import _build

    for _ in range(60):
        x, y = (_build(SORT_G, rng, NAMES, LETTERS, 4) for _ in range(2))
        lhs = canon_l(quot_gl(concat_g(x, y)))
        rhs = canon_l(concat_l(quot_gl(x), quot_gl(y)))
        assert lhs == rhs


def test_quotient_mg_homomorphism(rng):
    from nomlang.oracle import random_mword

    for _ in range(60):
        u, v = (random_mword(rng, NAMES, LETTERS, 4) for _ in range(2))
        lhs = canon_g(quot_mg(words.concat(u, v)))
        rhs = canon_g(concat_g(quot_mg(u), quot_mg(v)))
        assert lhs == rhs


def test_embeddings_are_sections(rng):
    from nomlang.oracle import _build

    for _ in range(60):
        s = _rand_s(rng)
        assert canon_s(quot_ls(embed_sl(s))) == canon_s(s)
        l = _rand_l(rng)
        assert canon_l(quot_gl(embed_lg(l))) == canon_l(l)
        g = _build(SORT_G, rng, NAMES, LETTERS, 4)
        assert canon_g(quot_mg(embed_gm(g))) == canon_g(g)


def test_embeddings_respect_canonical_class(rng):
    # embedding then canonicalizing agrees with canonicalizing first
    for _ in range(40):
        x = _rand_s(rng)
        assert words.alpha_canonical(embed_sm(x)) == words.alpha_canonical(
            embed_sm(SORT_S.canon(x))
        )
        y = _rand_l(rng)
        assert words.alpha_canonical(embed_lm(y)) == words.alpha_canonical(
            embed_lm(SORT_L.canon(y))
        )


def test_embedding_composition(rng):
    for _ in range(40):
        x = _rand_s(rng)
        via_l = words.alpha_canonical(embed_gm(embed_lg(embed_sl(x))))
        direct = words.alpha_canonical(embed_sm(x))
        assert via_l == direct


def test_long_g_word_needs_no_recursion():
    from nomlang.monoids import GWord
    from nomlang.regex import member
    from nomlang.syntax import parse_regex

    w = GWord((a,) * 1500)
    assert hash(w) == hash(GWord((a,) * 1500))
    assert words.token_length(embed_gm(w)) == 1500
    assert quot_gl(w).body == w.tokens
    assert member(parse_regex("a*", {"a"}), w, "G")


def test_g_word_repr_is_its_m_word_repr():
    from nomlang.monoids import GWord
    from nomlang.syntax import render_word
    from nomlang.words import TOpen

    w = GWord((m, TOpen(n)))
    assert repr(w) == render_word(embed_gm(w)) == "#m <#n. ^ >"
    assert repr(GWord(())) == "^"


def test_an_empty_body_is_written_as_the_empty_word():
    assert repr(SORT_L.unit) == repr(SORT_S.unit) == "^"
    assert repr(SORT_L.bind(n, SORT_L.unit)) == "[~0]^"


# a row of names (two of them reserved), letters and binders, any name
# bound any number of times
g_names_st = st.sampled_from(NAMES + [Name("~0"), Name("~1")])
g_rows_st = st.lists(st.one_of(g_names_st, letters_st, g_names_st.map(words.TOpen)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(g_rows_st)
def test_a_g_key_is_the_m_key_of_the_closed_word_without_its_closes(row):
    from nomlang.monoids import GWord

    w = GWord(tuple(row))
    assert SORT_G.encode(w) == words.alpha_key(embed_gm(w))[:len(w.tokens)]


@pytest.mark.parametrize("ops, two", [
    (SORT_L, "[~0][~1]#~1 #~0"),  # the prefix keeps the binders' order: m, then n
    (SORT_S, "[~0][~1]#~0 #~1"),  # the set's names are numbered by first occurrence
], ids=["L", "S"])
def test_prefix_and_set_words_write_their_binders_first(ops, two):
    assert repr(ops.bind(n, ops.concat(ops.atom(n), ops.atom(a)))) == "[~0]#~0 a"
    assert repr(ops.bind(m, ops.bind(n, ops.concat(ops.atom(n), ops.atom(m))))) == two
    assert repr(ops.concat(ops.atom(m), ops.atom(a))) == "#m a"


def test_s_word_rejects_bound_names_it_cannot_bind():
    from nomlang.monoids import SWord

    assert SWord(frozenset({n}), (n, a)).bound == {n}
    with pytest.raises(ValueError):
        SWord(frozenset({n}), (m, a))  # n does not occur
    with pytest.raises(ValueError):
        SWord(frozenset({a}), (n, a))  # a occurs, but a letter binds nothing


# -- decoding keys -----------------------------------------------------------
#
# The decoders take binder names from the reserved-name table; the
# reference below names them with `canonical_supply`, one generator per key.

def _body_and_binders(tag: str, key):
    return (key[1], key[0]) if tag in "LS" else (key, key.count(words.KEY_OPEN))


def _reference_decode(tag: str, key):
    from itertools import islice

    from nomlang.monoids import GWord, LWord, SWord
    from nomlang.names import canonical_supply
    from nomlang.words import KEY_OPEN, TCLOSE, MWord, TOpen

    body, k = _body_and_binders(tag, key)
    names = list(islice(canonical_supply([x for x in body if type(x) is Name]), k))
    if tag == "L":
        return LWord(tuple(names), tuple(names[-1 - x] if type(x) is int else x for x in body))
    if tag == "S":
        return SWord(frozenset(names), tuple(names[x] if type(x) is int else x for x in body))
    fresh = iter(names)
    binders: list = []
    out = []
    for x in key:
        if type(x) is int:
            x = binders[-1 - x]
        elif x is KEY_OPEN:
            binders.append(next(fresh))
            x = TOpen(binders[-1])
        elif x is TCLOSE:
            binders.pop()
        out.append(x)
    return MWord(tuple(out)) if tag == "M" else GWord(tuple(out))


@pytest.mark.parametrize("tag", sorted(SORTS))
def test_decoders_agree_with_a_reference_on_canonical_supply(tag, rng):
    from nomlang import names
    from nomlang.names import binder_names, bound_name
    from nomlang.oracle import _build, fresh_binder_variant

    ops = SORTS[tag]
    keyed = ops.keyed
    binder_names(2, ())  # the table holds ~0 and ~1 at least
    size = len(names._reserved)
    reserved = [bound_name(0), bound_name(size - 1), bound_name(size), bound_name(size + 2)]

    def deep(j):  # j binders, each binding an occurrence of n
        key = keyed.unit
        for _ in range(j):
            key = keyed.bind(n, keyed.concat(keyed.atom(n), key))
        return key

    # more binders than the table holds: first with no reserved name
    # free, then around the reserved names at and beyond its new end
    grown = size + 1
    around = keyed.concat(keyed.atom(bound_name(grown)),
                          keyed.concat(deep(grown + 2), keyed.atom(bound_name(grown + 2))))
    keys = [deep(grown), around] + [
        _build(keyed, rng, NAMES + reserved, LETTERS, rng.randint(0, 8)) for _ in range(300)]
    seen = set()
    for key in keys:
        body, k = _body_and_binders(tag, key)
        table = len(names._reserved)
        if k > table:
            seen.add("table grows")
        for x in body:
            if type(x) is Name and x.label.startswith("~"):
                j = int(x.label[1:])
                seen.add("free below" if j < table else "free at" if j == table else "free beyond")
        got = keyed.to_mword(key)
        assert got == _reference_decode(tag, key)
        if not k:
            seen.add("no binder")
            if tag in "LS":
                assert got.body is key[1]
            else:
                assert got.tokens is key
            if tag == "S":
                assert got.bound == frozenset()
        w = ops.to_mword(got)
        want = _reference_decode("M", words.alpha_key(w))
        assert words.alpha_canonical(w) == want
        assert words.alpha_canonical(fresh_binder_variant(w)) == want
    assert seen == {"no binder", "table grows", "free below", "free at", "free beyond"}


# -- projection to binder-free words -----------------------------------------

def test_plain_words_bounded_simple():
    pool = frozenset(NAMES)
    w = parse_word("<#n. #n >")
    got = plain_words_bounded([w], pool)
    assert got == frozenset({(x,) for x in pool} | {(n,)})


def test_plain_words_bounded_freshness():
    pool = frozenset(NAMES)
    # the bound name may become any pool name absent from the rest
    w = parse_word("<#n. #n #m >")
    got = plain_words_bounded([w], pool)
    assert (k, m) in got
    assert (n, m) in got
    assert (m, m) not in got


def test_plain_words_pool_must_cover_support():
    with pytest.raises(ValueError):
        plain_words_bounded([parse_word("#zz")], frozenset(NAMES))
