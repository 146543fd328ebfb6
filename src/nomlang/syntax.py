"""Concrete syntax for words and regular expressions.

Words: letters are bare identifiers, names are identifiers prefixed
with ``#``, a binder is written ``<#n. ... >``, juxtaposition is
concatenation and ``^`` is the empty word, e.g. ``<#n. #m #n >``.

A word's pieces are a whole binder open ``<#n.``, a name, a letter or
``>``; white space and ``^`` separate them.  `str.split` cuts the text
at white space in C, and if every piece it gives is one whole piece of
the word pattern, those are the pieces.  Otherwise (a spaced open
``< #n .``, a ``^``, pieces written together as in ``#n#m``, or a
fault) the pattern's `findall` cuts the text, also in C, skipping white
space and ``^``.  Each distinct piece becomes its interned token once
per call, and `words.parse_tokens` checks that the binders balance.
Only an ill-formed word is lexed again, token by token with positions,
by the lexer that expressions use, so that its first fault is reported
where it is; a bad character comes before any other fault.

Regular expressions reuse the word syntax and add ``1``, ``0``, ``+``
(sum, lowest precedence), ``*`` (iteration, highest) and parentheses.
`parse_regex` reads them in one loop over the tokens of `_lex`, not by
recursive descent: a stack holds the groups open around the current
one (parentheses and binders), each with its sum and its last product
so far, and sums and products associate to the left.  Each node joins
the expression's post-order array (`regex.Regex`) as its operand
completes, and `render_regex` writes an expression from a stack too, so
expressions nest without limit.
Expression files (extension ``.nre``) start with a letter declaration
such as ``letters a b ENCR;`` followed by the expression.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .names import Letter, Name
from . import regex as rx
from .hds import MOVES
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

    `str.split` cuts the text at white space, and a table local to the
    call makes each distinct piece a token once.  The split is kept only
    if every distinct piece is one whole token: the pattern matches all
    of it and it stands for a token.  Then `findall` would return the
    same pieces, since no alternative of the pattern starts on white
    space and only an open's can span it.  Otherwise `findall` cuts the
    text and the table is made again.  `parse_tokens` makes the word of
    the token row, checking that its binders balance.  Only an
    ill-formed word is lexed again, with positions, to report its fault
    (`_word_fault`).
    """
    pieces = text.split()
    table = {piece: _WORD_RE.fullmatch(piece) and _word_token(piece) for piece in set(pieces)}
    if None in table.values():  # a piece that is not one whole token
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

_OPERAND_STARTERS = {"name", "ident", "digit", "(", "<"}


def parse_regex(text: str, letters: frozenset[str] | set[str]) -> rx.Regex:
    """The expression `text` spells, its letters among `letters`.

    One loop reads the tokens, with a stack of the groups (parentheses
    and binders) open around the current one.  A group holds its sum so
    far and the product of its last term so far, both folded to the
    left as they come.  The loop alternates between two states: it reads
    an operand, which is an atom or the opening of a group, and then the
    stars after it, the end of its term (`+`) or the end of its group.
    Operands complete in post-order, so each node is appended to the
    expression's array as it completes, and a sum, a term or an operand
    is the index of its root there.
    """
    toks = iter(_lex(text))
    t = next(toks, None)  # the token to read next; None past the last
    end = len(text)
    nodes: list[tuple] = []

    def add(*node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    stack: list[tuple[Name | str | None, int | None, int | None]] = []
    group: Name | str | None = None  # "(", a binder's name, or None at the top
    total = term = None  # the group's sum of the terms before the last, and its last term
    while True:
        if t is None:
            raise ParseError("unexpected end of input", end)
        kind, tok, pos = t
        t = next(toks, None)
        if kind == "(" or kind == "<":
            stack.append((group, total, term))
            group, total, term = kind, None, None
            if kind == "<":
                group = Name(_expect(t, "name", end)[1][1:])
                _expect(next(toks, None), ".", end)
                t = next(toks, None)
            continue
        if kind == "digit":
            e = add(rx.UNIT if tok == "1" else rx.EMPTY, None, None, None)
        elif kind == "name" or kind == "ident" and tok in letters:
            e = add(rx.ATOM, Name(tok[1:]) if kind == "name" else Letter(tok), None, None)
        elif kind == "ident":
            raise ParseError(f"undeclared letter {tok!r}", pos)
        else:
            raise ParseError(f"unexpected {tok!r} in expression", pos)
        while True:  # e is an operand: read its stars, then what ends it
            while t is not None and t[0] == "*":
                e = add(rx.STAR, None, e, None)
                t = next(toks, None)
            term = e if term is None else add(rx.CAT, None, term, e)
            if t is not None and t[0] in _OPERAND_STARTERS:
                break
            if t is not None and t[0] == "+":
                total, term = term if total is None else add(rx.SUM, None, total, term), None
                t = next(toks, None)
                break
            e = term if total is None else add(rx.SUM, None, total, term)
            if group is None:
                if t is not None:
                    raise ParseError(f"unexpected {t[1]!r}", t[2])
                return rx.Regex(nodes)
            _expect(t, ")" if group == "(" else ">", end)
            t = next(toks, None)
            if group != "(":
                e = add(rx.BINDER, group, e, None)
            group, total, term = stack.pop()


def render_regex(e: rx.Regex) -> str:
    """The concrete syntax of `e`, written from the root down.

    A stack holds what is left to write: text, or a node with the
    precedence its place needs (0 in a sum or a binder, 1 in a product,
    2 under a star); only a sum or a product can fall short of it, and
    is then parenthesized.
    """
    out: list[str] = []
    todo: list = [(len(e) - 1, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        p, level = item
        kind, sym, i, j = e[p]
        if kind is rx.BINDER:
            todo += (" >", (i, 0), f"<#{sym.label}. ")
        elif kind is rx.STAR:
            todo += ("*", (i, 2))
        elif kind is rx.SUM or kind is rx.CAT:
            prec = 0 if kind is rx.SUM else 1
            parts = [(j, prec), " + " if prec == 0 else " ", (i, prec)]
            todo += [" )", *parts, "( "] if prec < level else parts
        else:  # an atom, `#label` for a name and the symbol for a letter, or `1` or `0`
            out.append(repr(sym) if kind is rx.ATOM else "1" if kind is rx.UNIT else "0")
    return "".join(out)


# ---------------------------------------------------------------------------
# Expression files

# A letter declaration, its `;` optional here so that a missing one is reported.
_DECLARATION_RE = re.compile(r"\s*(letters)\b([^;]*)(;?)")


def parse_nre(text: str) -> tuple[rx.Regex, frozenset[str]]:
    """Parse an expression file: letter declarations, then the expression.

    Each declared letter must be an identifier and no move keyword of
    the ``.hds`` format (``eps``, ``push``, ``pop``, ``open``, ``close``;
    `hds.MOVES`), so that a compiled automaton can be written and read
    back.  A ``letters`` with no ``;`` after it is a declaration missing
    its ``;``, unless ``letters`` is itself a declared letter: then it
    starts the expression.  The declarations read are blanked out, not
    cut off, so an error's position counts from the start of the file.
    """
    letters: set[str] = set()
    pos = 0
    while (m := _DECLARATION_RE.match(text, pos)) and (m[3] or "letters" not in letters):
        if not m[3]:
            raise ParseError("letter declaration without ';'", m.start(1))
        for w in re.compile(r"\S+").finditer(text, m.start(2), m.end(2)):
            if not (w[0].isascii() and w[0].isidentifier()):
                raise ParseError(f"declared letter {w[0]!r} is not an identifier", w.start())
            if w[0] in {move.keyword for move in MOVES}:  # the `.hds` format reads it as the move
                raise ParseError(f"declared letter {w[0]!r} is a move keyword", w.start())
            letters.add(w[0])
        pos = m.end()
    return parse_regex(" " * pos + text[pos:], frozenset(letters)), frozenset(letters)
