"""`parse_word` and `parse_regex` against the parsers they replaced: a word
parser that lexed token by token, one that cut every text with `findall`,
and a recursive-descent expression parser."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nomlang import regex as rx
from nomlang.names import Letter, Name
from nomlang.oracle import random_regex
from nomlang.syntax import (
    _WORD_RE, ParseError, _expect, _lex, _word_fault, _word_token, parse_regex, parse_word,
    render_regex,
)
from nomlang.words import TCLOSE, MWord, TOpen, parse_tokens


def reference_parse_word(text: str) -> MWord:
    """The word parser before words were lexed by one `findall`, verbatim.

    `_lex` and `_expect` are unchanged; expressions still parse with them.
    """
    end = len(text)
    toks = iter(_lex(text))
    out = []
    depth = 0  # open binders
    for kind, tok, pos in toks:
        if kind == "name":
            out.append(Name(tok[1:]))
        elif kind == "ident":
            out.append(Letter(tok))
        elif kind == "<":
            n = _expect(next(toks, None), "name", end)[1]
            _expect(next(toks, None), ".", end)
            out.append(TOpen(Name(n[1:])))
            depth += 1
        elif kind == ">" and depth:
            out.append(TCLOSE)
            depth -= 1
        elif kind == ">":
            raise ParseError(f"unexpected {tok!r}", pos)
        elif kind != "^":
            raise ParseError(f"unexpected {tok!r} in word", pos)
    if depth:
        raise ParseError("unexpected end of input", end)
    return MWord(tuple(out))


def outcome(parse, text):
    """The word, or the message and position of the parse error."""
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.pos


def assert_same(text):
    assert outcome(parse_word, text) == outcome(reference_parse_word, text)


OPENS = ["< #n .", "<#n.", "<\t#~0\n.", "<#a$1 .", "<  #m."]
ATOMS = ["#n", "#~0", "#a$1", "a", "ENCR", "^"]
FRAGMENTS = (["<", "#n", "#~0", "#a$1", ".", ">", "a", "ENCR", "^", "+", "0", "2", "$", "#", "é",
              " ", "\t", "\n"] + OPENS)
SPACE = st.sampled_from([" ", "\t", "\n", "  ", " \n "])


@st.composite
def well_formed(draw, depth=3):
    """A word, its pieces spelled with any white space between them."""
    pieces = []
    for _ in range(draw(st.integers(0, 4))):
        if depth and draw(st.booleans()):
            pieces += [draw(st.sampled_from(OPENS)), draw(well_formed(depth - 1)), ">"]
        else:
            pieces.append(draw(st.sampled_from(ATOMS)))
    return draw(SPACE).join(pieces)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=12))
def test_fragments_parse_as_before(fragments):
    assert_same("".join(fragments))


@settings(max_examples=200, deadline=None)
@given(well_formed(), st.data())
def test_well_formed_words_and_one_fault_parse_as_before(text, data):
    assert_same(text)
    at = data.draw(st.integers(0, len(text)))
    assert_same(text[:at] + data.draw(st.sampled_from(FRAGMENTS)) + text[at:])
    assert_same(text[:at] + text[at + 1:])


def findall_parse_word(text: str) -> MWord:
    """The word parser before it cut texts with `str.split`, verbatim but
    for its name: one `findall` cuts every text."""
    pieces = _WORD_RE.findall(text)
    table = {piece: _word_token(piece) for piece in set(pieces)}
    if None in table.values():
        _word_fault(text)
    try:
        return parse_tokens(tuple(map(table.__getitem__, pieces)))
    except ValueError:
        _word_fault(text)


# whole tokens, which the split keeps, and pieces that send a text to
# `findall`: a spaced open, `^`, tokens written together, faults
PIECES = ["<#n.", "<#~0.", "#n", "#m", "#a$1", "a", "ENCR", ">", "< #n .", "<\u3000#n\t.", "^",
          "#n#m", "a>", "<#n.#n>", "<", ".", "#", "+", "0", "é", "a^b"]
# no separator, ASCII white space and white space beyond ASCII
SEPARATORS = ["", " ", "\t", "\n", "  ", "\xa0", "\x1c", "\x85", "\u3000", " \u2028 "]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SEPARATORS), st.sampled_from(PIECES)), max_size=14),
       st.sampled_from(SEPARATORS))
def test_the_split_parses_as_findall_did(spaced, last):
    text = "".join(sep + piece for sep, piece in spaced) + last
    assert outcome(parse_word, text) == outcome(findall_parse_word, text)


NS_BLOCK = "<#n. ENCR #n A FOR B <#m. ENCR #n #m FOR A ENCR #m FOR B > >"


@pytest.mark.parametrize("sep", [" ", "\n", "\t^ "])
def test_long_words_parse_as_before(sep):
    text = sep.join([NS_BLOCK] * 64)
    assert_same(text)
    assert len(parse_word(text).tokens) == 64 * 18
    for fault in ("$", ">", "<#k", "+", "> <#k."):
        assert_same(text + sep + fault)
        assert_same(fault + sep + text)



def reference_parse_regex(text: str, letters: frozenset[str] | set[str]) -> rx.Regex:
    """The recursive-descent expression parser, verbatim but for its name.

    It recursed about four frames per level of parentheses, binders and
    stars; `parse_regex` reads the same tokens in one loop.
    """
    cur = _Cursor(_lex(text), len(text))
    e = _sum(cur, frozenset(letters))
    t = cur.peek()
    if t is not None:
        raise ParseError(f"unexpected {t[1]!r}", t[2])
    return e


class _Cursor:
    def __init__(self, toks: list[tuple[str, str, int]], length: int):
        self.toks = toks
        self.i = 0
        self.length = length

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, str, int]:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return t

    def expect(self, kind: str) -> tuple[str, str, int]:
        return _expect(self.next(), kind, self.length)


def _sum(cur: _Cursor, letters: frozenset[str]) -> rx.Regex:
    e = _cat(cur, letters)
    while True:
        t = cur.peek()
        if t is None or t[0] != "+":
            return e
        cur.next()
        e = rx.Sum(e, _cat(cur, letters))


_ATOM_STARTERS = {"name", "ident", "digit", "(", "<"}


def _cat(cur: _Cursor, letters: frozenset[str]) -> rx.Regex:
    e = _post(cur, letters)
    while True:
        t = cur.peek()
        if t is None or t[0] not in _ATOM_STARTERS:
            return e
        e = rx.Cat(e, _post(cur, letters))


def _post(cur: _Cursor, letters: frozenset[str]) -> rx.Regex:
    e = _atom(cur, letters)
    while True:
        t = cur.peek()
        if t is None or t[0] != "*":
            return e
        cur.next()
        e = rx.Star(e)


def _atom(cur: _Cursor, letters: frozenset[str]) -> rx.Regex:
    kind, tok, pos = cur.next()
    if kind == "digit":
        return rx.ONE if tok == "1" else rx.ZERO
    if kind == "name":
        return rx.Atom(Name(tok[1:]))
    if kind == "ident":
        if tok not in letters:
            raise ParseError(f"undeclared letter {tok!r}", pos)
        return rx.Atom(Letter(tok))
    if kind == "(":
        e = _sum(cur, letters)
        cur.expect(")")
        return e
    if kind == "<":
        n = cur.expect("name")[1]
        cur.expect(".")
        e = _sum(cur, letters)
        cur.expect(">")
        return rx.Binder(Name(n[1:]), e)
    raise ParseError(f"unexpected {tok!r} in expression", pos)


LETTERS = {"a", "b"}


def regex_outcome(parse, text):
    """The tree's repr, or the message and position of the parse error."""
    try:
        return repr(parse(text, LETTERS))
    except ParseError as err:
        return str(err), err.pos


def assert_same_regex(text):
    assert regex_outcome(parse_regex, text) == regex_outcome(reference_parse_regex, text)


# brackets, binders, operators, digits, letters (`c` undeclared), names,
# punctuation an expression has no use for, bad characters and white space
REGEX_FRAGMENTS = ["(", ")", "<", "<#n.", "< #m .", ">", ".", "+", "*", "0", "1", "a", "b", "c",
                   "#n", "#~0", "^", ";", "$", "é", " ", "\n", "2"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(REGEX_FRAGMENTS), max_size=16))
def test_expression_fragments_parse_as_before(fragments):
    assert_same_regex("".join(fragments))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 6), st.data())
def test_rendered_expressions_and_one_fault_parse_as_before(seed, depth, data):
    e = random_regex(random.Random(seed), [Name("n"), Name("m")], [Letter("a"), Letter("b")], depth)
    text = render_regex(e)
    assert_same_regex(text)
    assert render_regex(parse_regex(text, LETTERS)) == text
    at = data.draw(st.integers(0, len(text)))
    assert_same_regex(text[:at] + data.draw(st.sampled_from(REGEX_FRAGMENTS)) + text[at:])
    assert_same_regex(text[:at] + text[at + 1:])
