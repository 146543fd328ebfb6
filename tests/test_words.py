import random

import pytest
from hypothesis import given, settings, strategies as st

from nomlang.names import Name, Letter, Permutation, STAR
from nomlang import monoids
from nomlang.words import (
    EPSILON,
    KEY_OPEN,
    MWord,
    alpha_canonical,
    alpha_equal,
    alpha_key,
    all_names,
    bind,
    canonical_row,
    concat,
    from_key,
    key_bind,
    parse_tokens,
    permute,
    support,
    token_length,
    tokenize,
    TOpen,
    TCLOSE,
)
from nomlang.syntax import parse_word, render_word
from nomlang.oracle import alpha_oracle, fresh_binder_variant, random_mword

from conftest import NAMES, LETTERS

n, m, k = NAMES
a, b = LETTERS


# -- strategies --------------------------------------------------------------

names_st = st.sampled_from(NAMES)
letters_st = st.sampled_from(LETTERS)


def words_st(depth=3):
    base = st.one_of(
        st.just(EPSILON),
        names_st.map(lambda x: MWord((x,))),
        letters_st.map(lambda x: MWord((x,))),
    )
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.lists(kids, min_size=2, max_size=3).map(lambda ps: concat(*ps)),
            st.tuples(names_st, kids).map(lambda t: bind(*t)),
        ),
        max_leaves=8,
    )


# -- monoid structure --------------------------------------------------------

def test_concat_unit_and_flattening():
    w = concat(parse_word("#n"), EPSILON, parse_word("a"))
    assert w == MWord((n, a)) == parse_word("#n ^ a")
    assert concat() == EPSILON
    assert concat(EPSILON, EPSILON) == EPSILON
    assert concat(parse_word("#n")) == parse_word("#n")


@given(words_st(), words_st(), words_st())
@settings(max_examples=100, deadline=None)
def test_concat_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


def test_support_and_all_names():
    w = parse_word("<#n. #m #n > #k")
    assert support(w) == {m, k}
    assert all_names(w) == {n, m, k}


def test_support_shadowing():
    assert support(parse_word("<#n. #n >")) == frozenset()
    assert support(parse_word("<#n. #m >")) == {m}
    assert support(parse_word("<#n. <#n. #n > #n > #n")) == {n}


# -- alpha equivalence -------------------------------------------------------

def test_alpha_basics():
    assert alpha_equal(parse_word("<#n. #n >"), parse_word("<#m. #m >"))
    assert not alpha_equal(parse_word("<#n. #n >"), parse_word("<#n. #m >"))
    assert not alpha_equal(parse_word("<#n. #m >"), parse_word("<#m. #m >"))
    # binding a name free elsewhere must not capture
    assert not alpha_equal(parse_word("<#n. #m >"), parse_word("<#m. #n >"))


def test_alpha_canonical_idempotent_examples():
    w = parse_word("<#n. #m #n > <#m. #m >")
    c = alpha_canonical(w)
    assert alpha_canonical(c) == c


@given(words_st())
@settings(max_examples=150, deadline=None)
def test_alpha_canonical_idempotent(w):
    c = alpha_canonical(w)
    assert alpha_canonical(c) == c


@given(words_st(), names_st, names_st)
@settings(max_examples=150, deadline=None)
def test_alpha_invariant_under_bound_swap(w, x, y):
    # swapping two names not free in w preserves the alpha class
    if x in support(w) or y in support(w):
        return
    pi = Permutation.transposition(x, y)
    assert alpha_equal(w, permute(pi, w))


@given(words_st(), names_st, names_st)
@settings(max_examples=150, deadline=None)
def test_permutation_equivariance(w, x, y):
    pi = Permutation.transposition(x, y)
    assert support(permute(pi, w)) == frozenset(pi(z) for z in support(w))
    assert alpha_canonical(permute(pi, alpha_canonical(w))) == alpha_canonical(
        permute(pi, w)
    )


def test_canonical_avoids_free_reserved_names():
    # a word whose free names collide with the reserved bound-name pool
    t0 = Name("~0")
    w = concat(MWord((t0,)), bind(n, MWord((n,))))
    c = alpha_canonical(w)
    assert c.tokens[0] is t0
    assert c.tokens[1].name is not t0
    assert support(c) == {t0}


def test_alpha_canonical_is_its_decoded_key(rng, monkeypatch):
    # one loop and no key: the word, and the row that also avoids extra
    # names, are those the key decodes to, with reserved names free and
    # bound and with more binders than the table holds; from the same
    # table, both make the same reserved names and grow it alike
    from nomlang import names

    made = []
    bound_name = names.bound_name
    monkeypatch.setattr(names, "bound_name", lambda j: made.append(j) or bound_name(j))
    reserved = [bound_name(j) for j in range(5)]

    def from_table(size, canon, *args):
        monkeypatch.setattr(names, "_reserved", tuple(reserved[:size]))
        monkeypatch.setattr(names, "_reserved_set", set(reserved[:size]))
        made.clear()
        return canon(*args), names._reserved, sorted(made)

    def decoded(w, avoid=()):
        key = alpha_key(w)
        return from_key(key + tuple(avoid)).tokens[:len(key)]

    seen = set()
    for _ in range(500):
        w = random_mword(rng, NAMES + reserved[:4], LETTERS, rng.randint(0, 10))
        size = rng.randint(0, 3)
        opens = sum(type(t) is TOpen for t in w.tokens)
        seen.add("table grows" if opens > size else "no binder" if not opens else "table holds")
        if set(reserved[:size]) & support(w):
            seen.add("reserved free")
        if set(reserved[size:opens]) & support(w):
            seen.add("reserved free where the table grows")
        if set(reserved) & (all_names(w) - support(w)):
            seen.add("reserved bound")
        got = from_table(size, alpha_canonical, w)
        assert got == from_table(size, lambda w: from_key(alpha_key(w)), w)
        avoid = rng.sample(NAMES + reserved, rng.randint(0, 2))
        assert from_table(size, canonical_row, w, avoid) == from_table(size, decoded, w, avoid)
    assert seen == {"table grows", "table holds", "no binder", "reserved free",
                    "reserved free where the table grows", "reserved bound"}


# -- alpha keys --------------------------------------------------------------

def test_alpha_key_decides_alpha_equivalence(rng):
    pool = frozenset(NAMES) | {Name("p"), Name("q")}
    outcomes = set()
    for _ in range(400):
        u = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        if rng.random() < 0.5:
            v = fresh_binder_variant(u)
        else:
            v = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        wide = pool | all_names(u) | all_names(v)
        same = alpha_key(u) == alpha_key(v)
        assert same == alpha_oracle(u, v, wide)
        outcomes.add(same)
    assert outcomes == {True, False}


def test_alpha_key_is_a_homomorphism(rng):
    # indices make concatenation plain tuple concatenation, with no renaming
    for _ in range(300):
        u = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        v = random_mword(rng, NAMES, LETTERS, rng.randint(0, 4))
        x = rng.choice(NAMES)
        assert alpha_key(concat(u, v)) == alpha_key(u) + alpha_key(v)
        assert alpha_key(bind(x, u)) == key_bind(x, alpha_key(u))
        assert len(alpha_key(u)) == token_length(u)


def test_alpha_key_uses_de_bruijn_indices():
    w = parse_word("<#n. #m #n <#k. #n #k a > > #n")
    keys = alpha_key(w)
    # n is one binder up inside k's scope; the last #n is free
    assert [x for x in keys if isinstance(x, int)] == [0, 1, 0]
    assert keys[-1] is n
    # every element hashes in C: a key holds the hash-consed tokens
    assert all(type(x) in (Name, Letter, int) or x in (KEY_OPEN, TCLOSE) for x in keys)


def test_tokens_are_hash_consed():
    assert Letter("a") is Letter("a")
    assert TOpen(n) is TOpen(Name("n"))
    for tok, field in ((Letter("a"), "symbol"), (TOpen(n), "name")):
        with pytest.raises(AttributeError):
            setattr(tok, field, None)
        with pytest.raises(AttributeError):
            tok.other = None
    assert sorted([Letter("b"), Letter("c"), Letter("a")]) == [Letter(x) for x in "abc"]
    # equality and hashing are identity, in C
    for cls in (Letter, TOpen, type(TCLOSE)):
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__


# -- token streams -----------------------------------------------------------

@given(words_st())
@settings(max_examples=150, deadline=None)
def test_tokenize_parse_roundtrip(w):
    assert parse_tokens(tokenize(w)) == w


def test_token_length_counts_binders():
    assert token_length(parse_word("<#n. #n >")) == 3
    assert token_length(parse_word("^")) == 0
    assert token_length(parse_word("#n a")) == 2


def test_parse_tokens_rejects_unbalanced():
    with pytest.raises(ValueError):
        parse_tokens((TCLOSE,))
    with pytest.raises(ValueError):
        parse_tokens((TOpen(n), n))


# -- concrete syntax ---------------------------------------------------------

@given(words_st())
@settings(max_examples=150, deadline=None)
def test_render_parse_roundtrip(w):
    assert parse_word(render_word(w)) == w


def test_empty_words_and_bodies_render_as_caret():
    # fixture digests hash these exact strings
    for text in ("^", "<#n. ^ >", "<#n. <#m. ^ > #n >"):
        w = parse_word(text)
        assert render_word(w) == text
        assert parse_word(render_word(w)).tokens == w.tokens
    assert parse_word("<#n. <#m. ^ > #n >").tokens == (TOpen(n), TOpen(m), TCLOSE, n, TCLOSE)
    assert render_word(EPSILON) == render_word(parse_word("^ ^")) == "^"
    assert render_word(bind(n, EPSILON)) == "<#n. ^ >"


def test_deeply_nested_word_needs_no_recursion():
    depth = 1500
    w = parse_word("<#n. " * depth + "#n" + " >" * depth)
    assert hash(w) == hash(parse_word(render_word(w)))
    c = alpha_canonical(w)
    assert tokenize(c)[depth] is c.tokens[depth - 1].name
    assert len(tokenize(w)) == 2 * depth + 1
    assert render_word(c).count(">") == depth
    assert len(monoids.quot_mg(w).tokens) == depth + 1


def test_random_mword_generator_terminates(rng):
    for _ in range(50):
        w = random_mword(rng, NAMES, LETTERS, 6)
        assert token_length(w) <= 2 * 6
