"""Words over names and letters with binders (the most general sort).

A word is a balanced row of tokens over one alphabet: a name or a
letter is its own token, and a binder that binds the free occurrences
of ``n`` in a subword is a matched `TOpen(n)` ... `TCLOSE` pair around
it.  A row is the word modulo the monoid laws: concatenation is row
concatenation and the empty word is the empty row.  Two words are
alpha-equivalent when one is the other with its bound names renamed:
`alpha_key` or `alpha_equal` decides it, and `alpha_canonical` gives
the canonical word of a class.

Every operation on a word is one loop over its row, so no nesting depth
of binders is too deep for it.

Every word value, an `MWord` here and a word of each sort of `monoids`,
is a `Word`: the tuple of its fields, built and hashed in C, and equal
only to a word of its own class.  An `MWord` is the 1-tuple of its row,
so `==` on two `MWord`s compares their spelling.

`alpha_key` gives each alpha-class one flat key: the token stream with
every bound occurrence replaced by its de Bruijn index (the number of
binders between it and its own) and binder names dropped.  Its
elements are free `Name`s, `Letter`s, indices (`int`), the sentinel
`KEY_OPEN` and `TCLOSE`, all hashed in C: every token is hash-consed,
so a letter, a name or the close is its own key element.  Indices
make concatenation plain tuple concatenation, `key_bind` binds a name
in a key, the token length of a word is the length of its key, and
`from_key` decodes a key to the canonical word, whose binder names come
from the one table of reserved names (`names.binder_names`).  Decoding
costs what a key's binders cost: a key with no binder is its row, found
by one C call, and a key with binders is decoded in one pass that reads
each binder's name and open from the reserved names and the table of
their opens beside them.  `key_decoder` makes the decoder for a word
class, so G (`monoids`) decodes into a `GWord` with the same loop.
"""

from __future__ import annotations

import gc
from operator import itemgetter
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
    """The close of a binder; `TCLOSE` is its one object, which copies and
    pickles as itself."""

    __slots__ = ()

    def __repr__(self):
        return ">"

    def __reduce__(self):
        return "TCLOSE"


Tok = Union[Name, Letter, TOpen, TClose]


TCLOSE = TClose()


class Word(tuple):
    """A word value of any sort: the tuple of its fields, so that building
    and hashing one run in C.  A word equals only a word of its own
    class, so an `MWord` and a `GWord` of one binder-free row differ, and
    no word equals the plain tuple of its fields.  A subclass names its
    fields as properties and writes its `__repr__`.

    Decoding the 636 keys of an S slice into a frozenset took 0.40 ms with
    a frozen dataclass, whose `__hash__` is Python code, and 0.21 ms as
    tuples (in-process, collector paused, on a shared 2-vCPU x86-64 VM).
    Code that already guarantees a valid word builds it with
    ``tuple.__new__(cls, fields)``, which runs no Python frame.
    """

    __slots__ = ()

    def __new__(cls, *fields):
        return tuple.__new__(cls, fields)

    def __getnewargs__(self):
        return tuple(self)

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    # the negation of `__eq__`; `tuple.__ne__` would compare as a plain tuple
    __ne__ = object.__ne__


# `_new_word(cls, fields)` builds a word with no check and no Python frame
_new_word = tuple.__new__


class MWord(Word):
    """A balanced row of names, letters, binder opens and closes."""

    __slots__ = ()

    tokens = property(itemgetter(0))

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
    """The free names of `w`: the names of its key, where a free name is
    its own element and a bound one an index."""
    return frozenset([x for x in alpha_key(w) if type(x) is Name])


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
    is its one object, hashed and compared by identity, which copies and
    pickles as itself.  A close is its own key element."""

    __slots__ = ()

    def __repr__(self):
        return "<."

    def __reduce__(self):
        return "KEY_OPEN"


KEY_OPEN = _KeyOpen()

Key = tuple  # of Name | Letter | int | KEY_OPEN | TCLOSE


class collector_paused:
    """A context that pauses the cyclic garbage collector and restores
    its prior state on exit.

    Keys form no cycles: their elements are hash-consed tokens and ints,
    so reference counting frees them.  While a slice builder fills sets
    with hundreds of thousands of keys, the collector would only traverse
    every key built so far, again and again: `enumerate_slice` of
    ``( ( #k + b* ) ( #n + a )* )*`` at bound 9 took 3.3 s with it
    running and 1.2 to 1.4 s with it paused.  The slice builders,
    `member` and `nomlang enumerate` run under this pause.

    It is a class, not a generator-based context manager: leaving a
    generator allocates, and the first allocation after the pause runs
    the deferred collection, which would then traverse the whole slice
    even where the caller drops it at once.
    """

    __slots__ = ("enabled",)

    def __enter__(self):
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self.enabled:
            gc.enable()


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


# The open of each reserved name, beside the names: ``_opens[i]`` is
# ``TOpen(names._reserved[i])``.  `_reserved_opens` grows both together.
# Reading a binder's name and open from the two tables, in place of a
# supply of `binder_names` and a lookup in the `TOpen` registry, took the
# decoding of a key with binders of sort_enum's M slice from 2.17 to
# 1.58 us (best of 21, in-process, on a shared 2-vCPU x86-64 VM).
_opens: tuple[TOpen, ...] = ()


def _reserved_opens(k: int) -> tuple[tuple[Name, ...], tuple[TOpen, ...]]:
    """The reserved names and their opens, both grown to at least `k`."""
    global _opens
    binder_names(k, ())
    reserved = names._reserved
    if len(_opens) < len(reserved):
        _opens += tuple(map(TOpen, reserved[len(_opens):]))
    return reserved, _opens


_KEY_OPENS = frozenset({KEY_OPEN})


def key_decoder(word: type):
    """The decoder of M keys into canonical `word`s: `from_key` makes an
    `MWord`, and G (`monoids`), whose keys are M keys with no closes,
    makes a `GWord`.

    Binders are named from the reserved sequence in traversal order,
    skipping any reserved name that occurs free (`names.binder_names`).
    A key with no binder is its own row.  Any other is decoded in one
    pass, which takes the i-th binder's name and open from the reserved
    names and `_opens`, and grows both as the binders need.
    """

    def decode(key: Key):
        """The canonical word of `key` (`key_decoder`)."""
        # one C call, which hashes each element by identity, finds a key
        # with no binder, as 8,191 of the 12,640 keys of sort_enum's M slice
        # are; decoding one took 0.58 us with a scan for `KEY_OPEN` in
        # Python and 0.49 us with this test (G: 0.75 and 0.48 us)
        if _KEY_OPENS.isdisjoint(key):
            return _new_word(word, (key,))
        reserved, opens = names._reserved, _opens
        if not names._reserved_set.isdisjoint(key):
            reserved = binder_names(len([x for x in key if x is KEY_OPEN]), key)
            opens = tuple(map(TOpen, reserved))
        binders: list[Name] = []
        out: list[Tok] = []
        k = 0  # binders so far
        for x in key:
            if type(x) is int:
                x = binders[-1 - x]
            elif x is KEY_OPEN:
                if k == len(opens):
                    reserved, opens = _reserved_opens(k + 1)
                    if reserved[k] in key:  # a reserved name just made occurs free
                        return decode(key)
                binders.append(reserved[k])
                x = opens[k]
                k += 1
            elif x is TCLOSE:
                binders.pop()
            out.append(x)
        return _new_word(word, (tuple(out),))

    return decode


from_key = key_decoder(MWord)


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
        reserved, opens = names._reserved, _opens
        out: list[Tok] = []
        renamed: dict[Name, Name] = {}  # bound name -> its innermost binder's new name
        shadowed: list = []  # per open binder: its name and the new name it hides
        k = 0  # binders so far
        for t in tokens:
            kind = type(t)
            if kind is Name:
                t = renamed.get(t, t)
            elif kind is TOpen:
                if k == len(opens):
                    reserved, opens = _reserved_opens(k + 1)
                    if reserved[k] in tokens or reserved[k] in avoid:
                        break
                shadowed.append((t.name, renamed.get(t.name)))
                renamed[t.name] = reserved[k]
                t = opens[k]
                k += 1
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
    return _new_word(MWord, (canonical_row(w),))


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
    return _new_word(MWord, (tuple(toks),))


def token_length(w: MWord) -> int:
    return len(w.tokens)
