import random

import pytest

from nomlang.names import Letter, Name
from nomlang import regex as rx
from nomlang.regex import enumerate_slice, free_names, member
from nomlang.syntax import ParseError, parse_nre, parse_regex, parse_word, render_regex
from nomlang.words import alpha_canonical, token_length

from conftest import NAMES, LETTERS

n, m, k = NAMES
a, b = LETTERS


def words_of(src, bound=6, sort="M"):
    e = parse_regex(src, letters={s.symbol for s in LETTERS})
    return enumerate_slice(e, sort, bound).words


def canon(src):
    return alpha_canonical(parse_word(src))


# -- parsing -----------------------------------------------------------------

def test_parser_precedence():
    e = parse_regex("#n #m + #k*", letters=set())
    assert e == rx.Sum(rx.Cat(rx.Atom(n), rx.Atom(m)), rx.Star(rx.Atom(k)))


def test_parser_binder_and_groups():
    e = parse_regex("<#n. #n ( a + b ) >", letters={"a", "b"})
    assert e == rx.Binder(n, parse_regex("#n ( a + b )", letters={"a", "b"}))
    assert e[-1][:2] == (rx.BINDER, n)


def test_render_parse_roundtrip_examples():
    for src in ("#n* + a", "<#n. #n <#m. #n #m > >", "( #n + 0 ) ( 1 + b )"):
        e = parse_regex(src, letters={"a", "b"})
        assert parse_regex(render_regex(e), letters={"a", "b"}) == e


@pytest.mark.parametrize("src", [" ".join(["a"] * 20000), "<#n. " * 20000 + "a" + " >" * 20000,
                                 "(" * 20000 + "a" + ")*" * 20000],
                         ids=["20000-letter concatenation", "20000-deep binders",
                              "20000-deep stars"])
def test_deep_expressions_compare_hash_and_render(src):
    # an expression is one flat tuple: comparing, hashing, rendering and
    # finding its free names take no recursion per level of its tree
    e = parse_regex(src, letters={"a"})
    assert e == parse_regex(src, letters={"a"})
    assert hash(e) == hash(parse_regex(src, letters={"a"}))
    assert parse_regex(render_regex(e), letters={"a"}) == e
    assert free_names(e) == frozenset()


def test_undeclared_letter_rejected():
    with pytest.raises(ParseError):
        parse_regex("#n c", letters={"a", "b"})


@pytest.mark.parametrize("parse, src, message, pos", [
    (parse_word, "#m $ a", "unexpected character '$'", 3),
    (parse_word, "a\n?", "unexpected character '?'", 2),
    (parse_word, "#m <#n", "unexpected end of input", 6),
    (parse_word, "<#n. #n", "unexpected end of input", 7),
    (parse_word, "< a . #m >", "expected 'name', found 'a'", 2),
    (parse_word, "<#n #n >", "expected '.', found '#n'", 4),
    (parse_word, "#m > a", "unexpected '>'", 3),
    (parse_word, "a + b", "unexpected '+' in word", 2),
    (parse_word, "# n", "unexpected character '#'", 0),  # a bare `#` is no name
    (parse_word, "a > $", "unexpected character '$'", 4),  # lexing fails before parsing
    (parse_word, "<#n. #n > >", "unexpected '>'", 10),
    (parse_word, "< #n . a", "unexpected end of input", 8),
    (parse_regex, "#m $", "unexpected character '$'", 3),
    (parse_regex, "> $", "unexpected character '$'", 2),  # lexing fails before parsing
    (parse_regex, "<#n", "unexpected end of input", 3),
    (parse_regex, "< a . #m >", "expected 'name', found 'a'", 2),
    (parse_regex, "a > b", "unexpected '>'", 2),
    (parse_regex, "a + ", "unexpected end of input", 4),
    (parse_regex, "c*", "undeclared letter 'c'", 0),
    # in a file, a position counts from its start, declarations included
    (parse_nre, "letters a b;\nc* #n", "undeclared letter 'c'", 13),
    (parse_nre, "letters a, b;\na", "declared letter 'a,' is not an identifier", 8),
    # the `.hds` format would read such a letter back as the move
    *[(parse_nre, f"letters a {kw};\n{kw}", f"declared letter {kw!r} is a move keyword", 10)
      for kw in ("eps", "push", "pop", "open", "close")],
    (parse_nre, "letters a b\nc* #n", "letter declaration without ';'", 0),
    (parse_nre, "letters a;\nletters b\na b", "letter declaration without ';'", 11),
])
def test_parse_errors_name_the_fault_and_its_position(parse, src, message, pos):
    args = (src, {"a", "b"}) if parse is parse_regex else (src,)
    with pytest.raises(ParseError) as err:
        parse(*args)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_parse_nre_declarations():
    e, letters = parse_nre("letters a b;\n#n a b")
    assert letters == {"a", "b"}
    assert e == rx.Cat(rx.Cat(rx.Atom(n), rx.Atom(a)), rx.Atom(b))
    # `letters` may be a letter: once declared, it starts the expression
    assert parse_nre("letters letters; letters") == (rx.Atom(Letter("letters")), {"letters"})


def test_free_names():
    e = parse_regex("#n <#m. #m #k >", letters=set())
    assert free_names(e) == {n, k}


# The free names of each node, as the enumeration once computed them: a
# new frozenset per node.  The referees for `_scopes`, which gives the
# same free names, and the same binders whose name occurs in their body,
# in one linear pass.

def referee_free_names(e):
    out = []  # the free names of each node; a parent takes its operands' sets over
    for kind, sym, i, j in e:
        if kind is rx.ATOM and type(sym) is Name:
            s = {sym}
        elif kind is rx.SUM or kind is rx.CAT:
            s = out[i]  # the left one, which grows along the parser's chains
            s |= out[j]
        elif kind is rx.BINDER:
            s = out[i]
            s.discard(sym)
        elif kind is rx.STAR:
            s = out[i]
        else:
            s = set()
        out.append(s)
    return frozenset(out[-1])


def referee_free_names_by_node(e):
    """The free names of each node of `e`, by index."""
    out = []
    for kind, sym, i, j in e:
        if kind is rx.ATOM:
            s = frozenset((sym,)) if type(sym) is Name else frozenset()
        elif kind is rx.SUM or kind is rx.CAT:
            s = out[i] | out[j]
        elif kind is rx.BINDER:
            s = out[i] - {sym}
        elif kind is rx.STAR:
            s = out[i]
        else:
            s = frozenset()
        out.append(s)
    return out


@pytest.mark.parametrize("seed", [0, 3])
def test_scopes_agree_with_the_per_node_referees(seed):
    from nomlang.oracle import random_regex

    rng = random.Random(seed)
    pool = [n, Name("~0"), m]  # the campaigns' reserved-name pool
    seen = set()
    for _ in range(2000):
        e = random_regex(rng, pool, LETTERS, 5)
        free, binding = rx._scopes(e)
        by_node = referee_free_names_by_node(e)
        assert free == referee_free_names(e) == by_node[-1] == free_names(e)
        binders = {p for p, (kind, sym, i, _) in enumerate(e) if kind is rx.BINDER}
        want = {p for p in binders if e[p][1] in by_node[e[p][2]]}
        assert binding == want
        seen.update("binds" if p in want else "binds nothing" for p in binders)
    assert seen == {"binds", "binds nothing"}


def test_an_s_slice_of_many_free_names_takes_linear_memory():
    # finding the binders whose name occurs in their body kept every
    # node's free names apart: 206 MB on this sum, which grows with the
    # square of its distinct names
    import tracemalloc

    src = " + ".join(f"#x{i}" for i in range(3000))
    e = parse_regex(src, letters=set())
    tracemalloc.start()
    try:
        words = enumerate_slice(e, "S", 1).words
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 3000
    assert peak < 10 * 2**20


# -- bounded enumeration -----------------------------------------------------

def test_slice_atoms():
    assert words_of("1") == {canon("^")}
    assert words_of("0") == frozenset()
    assert words_of("#n") == {canon("#n")}
    assert words_of("a") == {canon("a")}


def test_slice_sum_cat():
    assert words_of("#n + a") == {canon("#n"), canon("a")}
    assert words_of("#n a") == {canon("#n a")}


def test_slice_star_lengths():
    got = words_of("a*", bound=3)
    assert got == {canon("^"), canon("a"), canon("a a"), canon("a a a")}


def test_slice_binder_tokens():
    # a binder costs two tokens, so at bound 2 the body must be empty
    assert words_of("<#n. #n >", bound=2) == frozenset()
    assert words_of("<#n. #n >", bound=3) == {canon("<#n. #n >")}


def test_slice_binder_alpha_identified():
    assert words_of("<#n. #n >") == words_of("<#m. #m >")


def test_slice_star_of_binder():
    got = words_of("<#n. #n >*", bound=6)
    assert canon("^") in got
    assert canon("<#n. #n >") in got
    assert canon("<#n. #n > <#m. #m >") in got
    assert len(got) == 3


def test_slice_respects_bound():
    for w in words_of("( #n + <#m. #m > )*", bound=5):
        assert token_length(w) <= 5


def test_slice_monotone_in_bound():
    small = words_of("( #n a )*", bound=4)
    big = words_of("( #n a )*", bound=8)
    assert small <= big


def test_member():
    e = parse_regex("<#n. #n #m >", letters=set())
    assert member(e, parse_word("<#k. #k #m >"))
    assert not member(e, parse_word("<#k. #m #k >"))
    assert not member(e, parse_word("<#k. #k #k >"))


@pytest.mark.parametrize("sort", "MGLS")
def test_member_agrees_with_the_slice(sort):
    e = parse_regex("( <#n. #n #m > + a + #m )*", letters={"a"})
    inside = enumerate_slice(e, sort, 6).words
    other = enumerate_slice(parse_regex("( <#n. #n a > + #n )*", letters={"a"}), sort, 6).words
    assert inside - other and other - inside
    for w in inside | other:
        assert member(e, w, sort) == (w in inside)


def test_member_on_a_long_word_decodes_nothing():
    # the candidate's key is looked up among keys; no slice word is decoded
    import time

    from nomlang.monoids import GWord

    w = GWord((a,) * 1500)
    e = parse_regex("a*", letters={"a"})
    t0 = time.perf_counter()
    assert member(e, w, "G")
    assert time.perf_counter() - t0 < 0.25
    assert not member(e, GWord((a,) * 1499 + (b,)), "G")


def test_slice_with_free_reserved_name_decodes_canonically():
    # the binder must skip ~0, which occurs free
    from nomlang.monoids import GWord, LWord, SWord
    from nomlang.words import TOpen

    t0, t1 = Name("~0"), Name("~1")
    e = rx.Cat(rx.Binder(n, rx.Atom(n)), rx.Atom(t0))
    want = {
        "M": alpha_canonical(parse_word("<#n. #n > #~0")),
        "G": GWord((TOpen(t1), t1, t0)),
        "L": LWord((t1,), (t1, t0)),
        "S": SWord(frozenset({t1}), (t1, t0)),
    }
    for sort, w in want.items():
        assert enumerate_slice(e, sort, 4).words == {w}
    assert want["M"].tokens[0].name is t1


@pytest.mark.parametrize("sort", "GLS")
def test_enumeration_interns_no_names(sort):
    # bound names are numbers in a key, so nothing is renamed apart; the
    # decoder names binders from the reserved sequence, interned up front
    from nomlang.names import binder_names

    e = parse_regex("( <#n. #n #m > + a + #m )*", letters={"a"})
    binder_names(12, ())
    before = len(Name._registry)
    assert len(enumerate_slice(e, sort, 12).words) == 12640
    assert len(Name._registry) == before


def test_slices_commute_with_the_quotient_maps():
    # G is the image of M, L the image of G; a vacuous binder costs two
    # tokens in L but none in S, so S holds the image of L and may hold more
    from nomlang.monoids import canon_g, canon_l, canon_s, quot_gl, quot_ls, quot_mg
    from nomlang.oracle import random_regex

    rng = random.Random(6)
    for _ in range(100):
        e = random_regex(rng, NAMES, LETTERS, 4)
        slices = {s: enumerate_slice(e, s, 6).words for s in "MGLS"}
        assert slices["G"] == {canon_g(quot_mg(w)) for w in slices["M"]}
        assert slices["L"] == {canon_l(quot_gl(w)) for w in slices["G"]}
        assert slices["S"] >= {canon_s(quot_ls(w)) for w in slices["L"]}


# -- sort-dependent semantics ------------------------------------------------

def test_binder_scope_differs_by_sort():
    # in the unordered-binder sort a vacuous binder disappears,
    # so <#n. a > denotes the same word as a
    got_s = words_of("<#n. a >", bound=4, sort="S")
    also_s = words_of("a", bound=4, sort="S")
    assert got_s == also_s
    # in the raw sort the binder stays visible
    got_m = words_of("<#n. a >", bound=4, sort="M")
    assert got_m != words_of("a", bound=4, sort="M")


def test_prefix_sort_extrudes_binders():
    # in the prefix sort every binder floats to the front, so
    # #m <#n. #n > and <#n. #m #n > denote the same language
    lhs = words_of("#m <#n. #n >", bound=4, sort="L")
    rhs = words_of("<#n. #m #n >", bound=4, sort="L")
    assert lhs == rhs


def test_permute_regex():
    from nomlang.names import Permutation

    pi = Permutation.transposition(n, m)
    e = parse_regex("#n <#m. #m #n >", letters=set())
    assert rx.permute_regex(pi, e) == parse_regex("#m <#n. #n #m >", letters=set())


def test_permute_regex_is_equivariant():
    from nomlang.names import Permutation
    from nomlang.oracle import random_regex
    from nomlang.words import permute

    rng = random.Random(7)
    exprs = [random_regex(rng, NAMES, LETTERS, 4) for _ in range(300)]
    # every node kind occurs, letters among the atoms
    kinds = {kind for e in exprs for kind, _, _, _ in e}
    assert kinds == {rx.UNIT, rx.EMPTY, rx.ATOM, rx.SUM, rx.CAT, rx.STAR, rx.BINDER}
    assert any(kind is rx.ATOM and sym in LETTERS for e in exprs for kind, sym, _, _ in e)
    for x, y in ((n, m), (n, k), (m, k)):
        pi = Permutation.transposition(x, y)
        for e in exprs:
            want = {permute(pi, w) for w in enumerate_slice(e, "M", 6).words}
            assert enumerate_slice(rx.permute_regex(pi, e), "M", 6).words == want


# -- the enumeration it replaced ---------------------------------------------
#
# Before each product enumerated an operand only as far as the other left
# room for, both operands went to the full bound.  Verbatim but for the
# names and for `reference_enum`, which walks the expression's array.

def _reference_single(v, ops, bound):
    n = ops.tok_len(v)
    return {n: {v}} if n <= bound else {}


def _reference_concat_slices(a, b, ops, bound):
    out = {}
    concat = ops.concat
    for na, xs in a.items():
        for nb, ys in b.items():
            if na + nb > bound:
                continue
            bucket = out.setdefault(na + nb, set())
            bucket.update([concat(x, y) for x in xs for y in ys])
    return out


def reference_enum(e, ops, bound):
    # every node to the full bound, so one loop over the array makes the
    # slice of each node from its operands'
    out = []
    for kind, sym, i, j in e:
        if kind is rx.EMPTY:
            got = {}
        elif kind is rx.UNIT:
            got = _reference_single(ops.unit, ops, bound)
        elif kind is rx.ATOM:
            got = _reference_single(ops.atom(sym), ops, bound)
        elif kind is rx.SUM:
            got = out[i]
            for n, ws in out[j].items():
                if n in got:
                    got[n] |= ws
                else:
                    got[n] = ws
        elif kind is rx.CAT:
            got = _reference_concat_slices(out[i], out[j], ops, bound)
        elif kind is rx.BINDER:
            got = {}
            for ws in out[i].values():
                for w in ws:
                    v = ops.bind(sym, w)
                    n = ops.tok_len(v)
                    if n <= bound:
                        got.setdefault(n, set()).add(v)
        else:
            assert kind is rx.STAR
            base = out[i]
            acc = _reference_single(ops.unit, ops, bound)
            frontier = {n: set(ws) for n, ws in acc.items()}
            while frontier:
                fresh = {}
                for n, ws in _reference_concat_slices(frontier, base, ops, bound).items():
                    have = acc.get(n)
                    if have is None:
                        fresh[n] = acc[n] = ws
                        continue
                    ws -= have
                    if ws:
                        fresh[n] = ws
                        have |= ws
                # a fresh set may be acc's own bucket: it is only read before acc grows
                frontier = fresh
            got = acc
        out.append(got)
    return out[-1]


def _key_sort(sort):
    from nomlang.monoids import SORTS

    return SORTS[sort].keyed


@pytest.mark.parametrize("seed", [0, 3])
def test_budgeted_enumeration_gives_the_reference_buckets(seed):
    from nomlang.oracle import random_regex

    rng = random.Random(seed)
    pool = [n, Name("~0"), m]  # a free reserved name, as the campaign draws it
    exprs = [random_regex(rng, pool, LETTERS, 4) for _ in range(1000)]
    for sort in "MGLS":
        keys = _key_sort(sort)
        for e in exprs:
            assert rx._enum(e, keys, 7) == reference_enum(e, keys, 7), render_regex(e)


@pytest.mark.parametrize("src", [
    "0 ( a + #n )*", "( a + #n )* 0", "a 0 b", "0*", "( 0 + 1 ) a", "( #n* )*", "( ( a + 1 ) #n* )*",
    "<#n. 0 >", "<#n. 0 > a", "<#n. a >", "<#n. a > <#m. #m >* #n", "( <#n. a > + b )* #n",
    "<#n. <#m. b > #n >*", "( a b b )* ( a + <#n. #n #n > )", "<#n. <#m. ( a + #n + #m )* > >",
    "<#n. ( a + #n )* > <#m. #m >*", "<#n. <#n. #n a > #n + b >", "<#n. #n* <#m. ( #m + #n )* > >*",
])
@pytest.mark.parametrize("sort", "MGLS")
def test_budgeted_enumeration_on_hand_picked_products(src, sort):
    # zero on either side of a product, stars of the unit and of stars,
    # an empty binder body, binders that are vacuous (free in S), nested
    # binders over a star, whose bodies are cut to the bound, and, in S,
    # bodies taken in two parts, with a binder of the same name or of
    # another name inside the part without the name
    e = parse_regex(src, letters={"a", "b"})
    keys = _key_sort(sort)
    for bound in range(9):
        assert rx._enum(e, keys, bound) == reference_enum(e, keys, bound)


def _counting(sort):
    """The key sort of `sort` with its `concat` and `bind` calls counted."""
    from collections import Counter
    from dataclasses import replace

    calls = Counter()
    keys = _key_sort(sort)

    def counted(op):
        f = getattr(keys, op)

        def call(*args):
            calls[op] += 1
            return f(*args)
        return call

    return replace(keys, concat=counted("concat"), bind=counted("bind")), calls


@pytest.mark.parametrize("src", ["( a + b )* 0", "0 ( a + b )*"])
def test_a_product_with_no_word_makes_nothing(src):
    # the reference made 2 ** 25 - 2 products here
    ops, calls = _counting("M")
    assert rx._enum(parse_regex(src, letters={"a", "b"}), ops, 24) == {}
    assert not calls


def test_a_product_enumerates_its_right_operand_only_as_far_as_the_left_slice_leaves_room():
    # the binder's word has three tokens, its lower bound (the name's one
    # and binding's two), so the star goes to five: 60 products make its
    # 63 words and 63 put the binder before them (to seven, the star alone
    # would make 252)
    e = parse_regex("<#n. #n > ( a + b )*", letters={"a", "b"})
    ops, calls = _counting("M")
    slice_ = rx._enum(e, ops, 8)
    assert {k: len(ws) for k, ws in slice_.items()} == {k: 2 ** (k - 3) for k in range(3, 9)}
    assert calls == {"bind": 1, "concat": 60 + 63}


def test_a_product_enumerates_its_operand_only_as_far_as_it_is_used():
    # six names after the star leave it two tokens: 4 products make its
    # slice of 7 words, and each of the six names is put after 7 words
    e = parse_regex("( a + b )* #n #n #n #n #n #n", letters={"a", "b"})
    ops, calls = _counting("M")
    slice_ = rx._enum(e, ops, 8)
    assert calls == {"concat": 4 + 6 * 7}
    assert {k: len(ws) for k, ws in slice_.items()} == {6: 1, 7: 2, 8: 4}
    ref, ref_calls = _counting("M")
    assert reference_enum(e, ref, 8) == slice_
    # the reference took the star to length 8 and put each name after
    # every word up to one token short of the bound
    assert ref_calls == {"concat": 2 ** 9 - 2 + sum(2 ** (9 - i) - 1 for i in range(1, 7))}


@pytest.mark.parametrize("sort, concats, binds", [
    ("M", 124, 127), ("G", 124, 127), ("L", 124, 127), ("S", 508, 0),
])
def test_a_binder_enumerates_its_body_only_as_far_as_binding_leaves_room(sort, concats, binds):
    # binding adds an open and a close in M, G and L, so the star goes to
    # six: 124 products make its 127 words, each bound once; in S a binder
    # of an absent name leaves every word as it is, so the star goes to
    # eight and nothing is bound
    e = parse_regex("<#n. ( a + b )* >", letters={"a", "b"})
    ops, calls = _counting(sort)
    assert rx._enum(e, ops, 8) == reference_enum(e, _key_sort(sort), 8)
    assert (calls["concat"], calls["bind"]) == (concats, binds)


@pytest.mark.parametrize("sort", "MGL")
def test_a_binder_whose_lower_bound_is_past_the_bound_makes_nothing(sort):
    # a binder's word has an open and a close, so its body is not entered
    ops, calls = _counting(sort)
    assert rx._enum(parse_regex("<#n. ( a + b )* >", letters={"a", "b"}), ops, 1) == {}
    assert not calls


def test_nested_binders_enumerate_their_bodies_only_as_far_as_binding_leaves_room():
    # the star goes to nine, the inner binder to eleven: the star's 29,524
    # words take 29,520 products, and each is bound twice (with every body
    # enumerated to the full bound, 2,391,480 products and 2,657,204 binds)
    e = parse_regex("<#n. <#m. ( a + #n + #m )* > >", letters={"a"})
    ops, calls = _counting("M")
    keys = rx._enum(e, ops, 13)
    assert sum(map(len, keys.values())) == 29524
    assert calls == {"concat": 29520, "bind": 59048}


def test_an_s_binder_takes_its_body_in_two_parts():
    # binding adds two tokens in S only where the name occurs: the body
    # goes to eleven, to be bound, and its words without #n, kept as they
    # are, to thirteen (with the body to thirteen, 2,391,480 products and
    # 2,669,492 binds); the inner binder is split only outside that part
    e = parse_regex("<#n. <#m. ( a + #n + #m )* > >", letters={"a"})
    ops, calls = _counting("S")
    keys = rx._enum(e, ops, 13)
    assert sum(map(len, keys.values())) == 17841
    assert calls == {"concat": 49992, "bind": 78503}


def test_s_binders_do_not_split_inside_a_part_without_their_name():
    # twelve nested binders: each splits once along the part with its
    # name, so the products grow as the square of the nesting (66), not
    # as a power of two (2,047 if every part split again)
    names = "abcdefghijkl"
    src = "".join(f"<#{x}. " for x in names) + " ".join(f"#{x}" for x in names) + " >" * len(names)
    ops, calls = _counting("S")
    keys = rx._enum(parse_regex(src, letters=set()), ops, 40)
    assert sum(map(len, keys.values())) == 1
    assert calls == {"concat": 66, "bind": 12}


@pytest.mark.parametrize("sort", "MS")
def test_drain_yields_every_key_once_and_empties_every_bucket(sort):
    from nomlang.monoids import SORTS

    e = parse_regex("( <#n. #n #m > + a + #m )*", letters={"a"})
    buckets = rx._enum(e, SORTS[sort].keyed, 9)
    sets = list(buckets.values())
    want = [key for ws in sets for key in ws]
    assert len(want) == len(set(want)) == 1351
    got = list(rx._drain(buckets))
    assert sorted(got, key=repr) == sorted(want, key=repr)
    assert all(not ws for ws in sets)
    # and a hand-made dict of buckets, one of them empty
    buckets = {0: set(), 1: {(a,), (b,)}, 3: {(a, b, a)}}
    sets = list(buckets.values())
    got = list(rx._drain(buckets))
    assert len(got) == 3 and set(got) == {(a,), (b,), (a, b, a)}
    assert all(not ws for ws in sets)
