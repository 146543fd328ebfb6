"""Concrete syntax for words and regular expressions.

Words: letters are bare identifiers, names are identifiers prefixed
with ``#``, a binder is written ``<#n. ... >``, juxtaposition is
concatenation and ``^`` is the empty word, e.g. ``<#n. #m #n >``.

Regular expressions reuse the word syntax and add ``1``, ``0``, ``+``
(sum, lowest precedence), ``*`` (iteration, highest) and parentheses.
Expression files (extension ``.nre``) start with a letter declaration
such as ``letters a b ENCR;`` followed by the expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .names import Letter, Name
from . import regex as rx
from .words import TCLOSE, MWord, TOpen


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>\#[A-Za-z0-9_~$]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<digit>[01])
  | (?P<punct><|>|\.|\^|\+|\*|\(|\)|;)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # "name" | "ident" | "digit" | punctuation itself
    text: str
    pos: int


def _lex(text: str) -> list[_Tok]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        i = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        tok = m.group()
        if kind == "punct":
            kind = tok
        out.append(_Tok(kind, tok, m.start()))
    return out


class _Cursor:
    def __init__(self, toks: list[_Tok], length: int):
        self.toks = toks
        self.i = 0
        self.length = length

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.pos)
        return t


# ---------------------------------------------------------------------------
# Words

def parse_word(text: str) -> MWord:
    cur = _Cursor(_lex(text), len(text))
    out = []
    depth = 0  # open binders
    while cur.peek() is not None or depth:
        t = cur.next()  # past the end with a binder open: "unexpected end of input"
        if t.kind == "name":
            out.append(Name(t.text[1:]))
        elif t.kind == "ident":
            out.append(Letter(t.text))
        elif t.kind == "<":
            n = cur.expect("name")
            cur.expect(".")
            out.append(TOpen(Name(n.text[1:])))
            depth += 1
        elif t.kind == ">" and depth:
            out.append(TCLOSE)
            depth -= 1
        elif t.kind == ">":
            raise ParseError(f"unexpected {t.text!r}", t.pos)
        elif t.kind != "^":
            raise ParseError(f"unexpected {t.text!r} in word", t.pos)
    return MWord(tuple(out))


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
        raise ParseError(f"unexpected {t.text!r}", t.pos)
    return e


def _sum(cur: _Cursor, letters: frozenset[str]) -> rx.Regex:
    e = _cat(cur, letters)
    while True:
        t = cur.peek()
        if t is None or t.kind != "+":
            return e
        cur.next()
        e = rx.Sum(e, _cat(cur, letters))


_ATOM_STARTERS = {"name", "ident", "digit", "(", "<"}


def _cat(cur: _Cursor, letters: frozenset[str]) -> rx.Regex:
    e = _post(cur, letters)
    while True:
        t = cur.peek()
        if t is None or t.kind not in _ATOM_STARTERS:
            return e
        e = rx.Cat(e, _post(cur, letters))


def _post(cur: _Cursor, letters: frozenset[str]) -> rx.Regex:
    e = _atom(cur, letters)
    while True:
        t = cur.peek()
        if t is None or t.kind != "*":
            return e
        cur.next()
        e = rx.Star(e)


def _atom(cur: _Cursor, letters: frozenset[str]) -> rx.Regex:
    t = cur.next()
    if t.kind == "digit":
        return rx.ONE if t.text == "1" else rx.ZERO
    if t.kind == "name":
        return rx.NameLit(Name(t.text[1:]))
    if t.kind == "ident":
        if t.text not in letters:
            raise ParseError(f"undeclared letter {t.text!r}", t.pos)
        return rx.LetterLit(Letter(t.text))
    if t.kind == "(":
        e = _sum(cur, letters)
        cur.expect(")")
        return e
    if t.kind == "<":
        n = cur.expect("name")
        cur.expect(".")
        e = _sum(cur, letters)
        cur.expect(">")
        return rx.Binder(Name(n.text[1:]), e)
    raise ParseError(f"unexpected {t.text!r} in expression", t.pos)


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
