"""Concrete syntax for words and regular expressions.

Words: letters are bare identifiers, names are identifiers prefixed
with ``#``, a binder is written ``<#n. ... >``, juxtaposition is
concatenation and ``^`` is the empty word, e.g. ``<#n. #m #n >``.

A word is lexed by one pattern, whose `findall` returns the text's
pieces in C: a whole binder open ``<#n.``, a name, a letter or ``>``,
with white space and ``^`` skipped.  Each distinct piece becomes its
interned token once per call, and `words.parse_tokens` checks that the
binders balance.  Only an ill-formed word is lexed again, token by
token with positions, by the lexer that expressions use, so that its
first fault is reported where it is; a bad character comes before any
other fault.

Regular expressions reuse the word syntax and add ``1``, ``0``, ``+``
(sum, lowest precedence), ``*`` (iteration, highest) and parentheses.
Expression files (extension ``.nre``) start with a letter declaration
such as ``letters a b ENCR;`` followed by the expression.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .names import Letter, Name
from . import regex as rx
from .words import TCLOSE, MWord, TOpen, Tok, parse_tokens


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""
    \s+
  | (?P<name>\#[A-Za-z0-9_~$]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<digit>[01])
  | (?P<punct><|>|\.|\^|\+|\*|\(|\)|;)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(text: str) -> list[tuple[str, str, int]]:
    """The tokens of `text` as (kind, text, position) triples.

    The kind is "name", "ident", "digit" or the punctuation itself.  The
    whole text is lexed before any parsing, so a bad character is
    reported wherever it is.
    """
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # white space
            continue
        tok = m.group()
        if kind == "punct":
            kind = tok
        elif kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", m.start())
        out.append((kind, tok, m.start()))
    return out


def _expect(t: tuple[str, str, int] | None, kind: str, end: int) -> tuple[str, str, int]:
    """`t`, the next token (None past the last), if it is of `kind`."""
    if t is None:
        raise ParseError("unexpected end of input", end)
    if t[0] != kind:
        raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
    return t


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


# ---------------------------------------------------------------------------
# Words

# The pieces of a word: a whole binder open (white space allowed inside),
# a name, a letter, or any other character but white space and `^`, which
# `findall` skips.  A well-formed word's pieces are opens, names, letters
# and `>`; any other piece is a fault.
_WORD_RE = re.compile(r"<\s*#[A-Za-z0-9_~$]+\s*\.|#[A-Za-z0-9_~$]+|[A-Za-z_][A-Za-z0-9_]*|[^\s^]")


def _word_token(piece: str) -> Tok | None:
    """The token a piece of a word stands for; None for a fault."""
    if len(piece) > 1:  # an open, a name or a letter
        if piece[0] == "<":
            return TOpen(Name(piece[1:-1].strip()[1:]))
        if piece[0] == "#":
            return Name(piece[1:])
        return Letter(piece)
    if piece == ">":
        return TCLOSE
    return Letter(piece) if piece.isascii() and piece.isidentifier() else None


def parse_word(text: str) -> MWord:
    """The word `text` spells.

    One `findall` cuts the text into its pieces in C, and a table local
    to the call makes each distinct piece a token once.  `parse_tokens`
    makes the word of the token row, checking that its binders balance.
    Only an ill-formed word is lexed again, with positions, to report
    its fault (`_word_fault`).
    """
    pieces = _WORD_RE.findall(text)
    table = {piece: _word_token(piece) for piece in set(pieces)}
    if None in table.values():
        _word_fault(text)
    try:
        return parse_tokens(tuple(map(table.__getitem__, pieces)))
    except ValueError:
        _word_fault(text)


def _word_fault(text: str) -> NoReturn:
    """Raise the `ParseError` of an ill-formed word: its first fault, where it is."""
    end = len(text)
    toks = iter(_lex(text))  # a bad character is reported before any other fault
    depth = 0
    for kind, tok, pos in toks:
        if kind == "<":
            _expect(next(toks, None), "name", end)
            _expect(next(toks, None), ".", end)
            depth += 1
        elif kind == ">" and depth:
            depth -= 1
        elif kind == ">":
            raise ParseError(f"unexpected {tok!r}", pos)
        elif kind not in ("name", "ident", "^"):
            raise ParseError(f"unexpected {tok!r} in word", pos)
    # the one fault left: a binder still open at the end
    raise ParseError("unexpected end of input", end)


def render_word(w: MWord) -> str:
    """The concrete syntax of `w`; `MWord.__repr__` writes it in one loop."""
    return repr(w)


# ---------------------------------------------------------------------------
# Regular expressions

def parse_regex(text: str, letters: frozenset[str] | set[str]) -> rx.Regex:
    cur = _Cursor(_lex(text), len(text))
    e = _sum(cur, frozenset(letters))
    t = cur.peek()
    if t is not None:
        raise ParseError(f"unexpected {t[1]!r}", t[2])
    return e


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
        return rx.NameLit(Name(tok[1:]))
    if kind == "ident":
        if tok not in letters:
            raise ParseError(f"undeclared letter {tok!r}", pos)
        return rx.LetterLit(Letter(tok))
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


def render_regex(e: rx.Regex) -> str:
    def prec(e) -> int:
        if isinstance(e, rx.Sum):
            return 0
        if isinstance(e, rx.Cat):
            return 1
        return 2

    def go(e, level: int) -> str:
        if isinstance(e, rx.One):
            return "1"
        if isinstance(e, rx.Zero):
            return "0"
        if isinstance(e, rx.NameLit):
            return f"#{e.name.label}"
        if isinstance(e, rx.LetterLit):
            return e.letter.symbol
        if isinstance(e, rx.Binder):
            return f"<#{e.name.label}. {go(e.body, 0)} >"
        if isinstance(e, rx.Star):
            return go(e.body, 2) + "*"
        if isinstance(e, rx.Sum):
            s = f"{go(e.left, 0)} + {go(e.right, 0)}"
        else:
            assert isinstance(e, rx.Cat)
            s = f"{go(e.left, 1)} {go(e.right, 1)}"
        return f"( {s} )" if prec(e) < level else s

    return go(e, 0)


# ---------------------------------------------------------------------------
# Expression files

def parse_nre(text: str) -> tuple[rx.Regex, frozenset[str]]:
    """Parse an expression file: letter declarations, then the expression."""
    letters: set[str] = set()
    rest = text
    while True:
        m = re.match(r"\s*letters\b([^;]*);", rest)
        if m is None:
            break
        letters.update(m.group(1).split())
        rest = rest[m.end():]
    return parse_regex(rest, frozenset(letters)), frozenset(letters)
