"""Words over names and letters with binders (the most general sort).

A word is a balanced row of tokens over one alphabet: a name or a
letter is its own token, and a binder that binds the free occurrences
of ``n`` in a subword is a matched `TOpen(n)` ... `TCLOSE` pair around
it.  A row is the word modulo the monoid laws: concatenation is row
concatenation and the empty word is the empty row.  Words are compared
up to renaming of bound names; `alpha_canonical` computes the canonical
representative used for hashing and set membership.

Every operation on a word is one loop over its row, so no nesting depth
of binders is too deep for it.

`alpha_key` gives each alpha-class one flat key: the token stream with
every bound occurrence replaced by its de Bruijn index (the number of
binders between it and its own) and binder names dropped.  Its
elements are free `Name`s, `Letter`s, indices (`int`), the sentinel
`KEY_OPEN` and `TCLOSE`, all hashed in C: every token is hash-consed,
so a letter, a name or the close is its own key element.  Indices
make concatenation plain tuple concatenation, `key_bind` binds a name
in a key, the token length of a word is the length of its key, and
`from_key` decodes a key to the canonical word, whose binder names come
from the one table of reserved names (`names.binder_names`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Union

from . import names
from .names import Interned, Letter, Name, Permutation, binder_names


# ---------------------------------------------------------------------------
# Tokens and words

class TOpen(Interned):
    """The open of a binder of `name`: one object per name."""

    __slots__ = ("name",)

    def __repr__(self):
        return f"<#{self.name.label}."


class TClose:
    """The close of a binder; `TCLOSE` is its one object."""

    __slots__ = ()

    def __repr__(self):
        return ">"


Tok = Union[Name, Letter, TOpen, TClose]


TCLOSE = TClose()


@dataclass(frozen=True, slots=True)
class MWord:
    """A balanced row of names, letters, binder opens and closes."""

    tokens: tuple[Tok, ...]

    def __repr__(self):
        # the concrete syntax: `^` spells an empty word or binder body
        out = []
        prev = None
        for t in self.tokens:
            if type(t) is TClose and type(prev) is TOpen:
                out.append("^")
            out.append(repr(t))
            prev = t
        return " ".join(out) or "^"


EPSILON = MWord(())


def concat(*ws: MWord) -> MWord:
    """The rows of the words, one after another."""
    return MWord(tuple(t for w in ws for t in w.tokens))


def bind(n: Name, w: MWord) -> MWord:
    """The word binding the free occurrences of `n` in `w`."""
    return MWord((TOpen(n),) + w.tokens + (TCLOSE,))


def support(w: MWord) -> frozenset[Name]:
    """The free names of `w`."""
    free = set()
    binders: list[Name] = []
    for t in w.tokens:
        if type(t) is TOpen:
            binders.append(t.name)
        elif type(t) is TClose:
            binders.pop()
        elif type(t) is Name and t not in binders:
            free.add(t)
    return frozenset(free)


def all_names(w: MWord) -> frozenset[Name]:
    """Every name occurring in `w`, free or bound, binder positions included."""
    return frozenset(t.name if type(t) is TOpen else t
                     for t in w.tokens if type(t) in (Name, TOpen))


def permute(pi: Permutation, w: MWord) -> MWord:
    """Apply the permutation to every name occurrence, free and bound."""
    out: list[Tok] = []
    for t in w.tokens:
        if type(t) is Name:
            t = pi(t)
        elif type(t) is TOpen:
            t = TOpen(pi(t.name))
        out.append(t)
    return MWord(tuple(out))


# ---------------------------------------------------------------------------
# Canonical keys

class _KeyOpen:
    """A binder's open in a key, which drops the binder's name; `KEY_OPEN`
    is its one object, hashed and compared by identity.  A close is its
    own key element."""

    __slots__ = ()

    def __repr__(self):
        return "<."


KEY_OPEN = _KeyOpen()

Key = tuple  # of Name | Letter | int | KEY_OPEN | TCLOSE


def alpha_key(w: MWord) -> Key:
    """The key of the alpha-class of `w`: equal keys iff alpha-equivalent words."""
    out: list = []
    level: dict[Name, int] = {}  # bound name -> depth of its innermost binder
    shadowed: list = []  # per open binder: its name and the level it hides
    for t in w.tokens:
        if type(t) is TOpen:
            shadowed.append((t.name, level.get(t.name)))
            level[t.name] = len(shadowed) - 1
            out.append(KEY_OPEN)
        elif type(t) is TClose:
            n, at = shadowed.pop()
            if at is None:
                del level[n]
            else:
                level[n] = at
            out.append(TCLOSE)
        else:  # a name or a letter; only a bound name has a level
            at = level.get(t)
            out.append(t if at is None else len(shadowed) - 1 - at)
    return tuple(out)


def key_bind(n: Name, key: Key) -> Key:
    """The key of ``bind(n, w)`` from the key of `w`."""
    out = [KEY_OPEN]
    depth = 0
    for x in key:
        if x is n:
            x = depth
        elif x is KEY_OPEN:
            depth += 1
        elif x is TCLOSE:
            depth -= 1
        out.append(x)
    out.append(TCLOSE)
    return tuple(out)


def from_key(key: Key) -> MWord:
    """The canonical word of a key.

    Binders are named from the reserved sequence in traversal order,
    skipping any reserved name that occurs free (`names.binder_names`).
    A key with no binder is its own row.
    """
    k = len([x for x in key if x is KEY_OPEN])
    if not k:  # about two in three keys a sort_enum pass decodes
        return MWord(key)
    fresh = iter(binder_names(k, key))
    binders: list[Name] = []
    out: list[Tok] = []
    for x in key:
        if type(x) is int:
            x = binders[-1 - x]
        elif x is KEY_OPEN:
            binders.append(next(fresh))
            x = TOpen(binders[-1])
        elif x is TCLOSE:
            binders.pop()
        out.append(x)
    return MWord(tuple(out))


def canonical_row(w: MWord, avoid: Collection[Name] = ()) -> tuple[Tok, ...]:
    """The row of the canonical word of `w`, its binders named apart from
    the names in `avoid` too.

    One loop gives each binder the next reserved name in traversal order,
    as `from_key` does, and keeps free names.  Where a reserved name
    occurs in `w` or in `avoid`, `binder_names` skips it, and the row is
    decoded from the key instead.  That is one test in C against the
    reserved names the table holds, and one more for each name the table
    grows by; it grows only to the word's open count.
    """
    tokens = w.tokens
    reserved_set = names._reserved_set
    if reserved_set.isdisjoint(tokens) and reserved_set.isdisjoint(avoid):
        reserved = names._reserved
        out: list[Tok] = []
        renamed: dict[Name, Name] = {}  # bound name -> its innermost binder's new name
        shadowed: list = []  # per open binder: its name and the new name it hides
        k = 0  # binders so far
        for t in tokens:
            kind = type(t)
            if kind is Name:
                t = renamed.get(t, t)
            elif kind is TOpen:
                if k == len(reserved):
                    reserved = binder_names(k + 1, ())
                    if reserved[k] in tokens or reserved[k] in avoid:
                        break
                shadowed.append((t.name, renamed.get(t.name)))
                renamed[t.name] = new = reserved[k]
                k += 1
                t = TOpen(new)
            elif kind is TClose:
                n, hidden = shadowed.pop()
                if hidden is None:
                    del renamed[n]
                else:
                    renamed[n] = hidden
                t = TCLOSE
            out.append(t)
        else:
            return tuple(out)
    key = alpha_key(w)
    return from_key(key + tuple(avoid)).tokens[:len(key)]


def alpha_canonical(w: MWord) -> MWord:
    """Canonical representative of the alpha-equivalence class of `w`.

    Bound names are renamed to the reserved sequence in traversal order
    (`canonical_row`), skipping any reserved name that occurs free in
    `w`; free names are kept verbatim.  Two words are alpha-equivalent
    iff their canonical forms are equal.
    """
    return MWord(canonical_row(w))


def alpha_equal(w: MWord, v: MWord) -> bool:
    return alpha_key(w) == alpha_key(v)


# ---------------------------------------------------------------------------
# Token streams

def tokenize(w: MWord) -> tuple[Tok, ...]:
    """The token stream of `w`: its row."""
    return w.tokens


def parse_tokens(toks: tuple[Tok, ...]) -> MWord:
    """The word of a token stream.  Rejects unbalanced streams.

    One loop counts the open binders; it tells a close by identity, as
    `TCLOSE` is the one close, and reads any other token's type once.
    """
    depth = 0  # open binders
    for t in toks:
        if t is TCLOSE:
            if not depth:
                raise ValueError("unbalanced token stream: unmatched close")
            depth -= 1
        elif type(t) is TOpen:
            depth += 1
    if depth:
        raise ValueError("unbalanced token stream: unmatched open")
    return MWord(tuple(toks))


def token_length(w: MWord) -> int:
    return len(w.tokens)
