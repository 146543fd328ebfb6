"""`parse_word` against the word parser it replaced, which lexed token by token."""

import pytest
from hypothesis import given, settings, strategies as st

from nomlang.names import Letter, Name
from nomlang.syntax import ParseError, _expect, _lex, parse_word
from nomlang.words import TCLOSE, MWord, TOpen


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


NS_BLOCK = "<#n. ENCR #n A FOR B <#m. ENCR #n #m FOR A ENCR #m FOR B > >"


@pytest.mark.parametrize("sep", [" ", "\n", "\t^ "])
def test_long_words_parse_as_before(sep):
    text = sep.join([NS_BLOCK] * 64)
    assert_same(text)
    assert len(parse_word(text).tokens) == 64 * 18
    for fault in ("$", ">", "<#k", "+", "> <#k."):
        assert_same(text + sep + fault)
        assert_same(fault + sep + text)

