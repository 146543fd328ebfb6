"""Words over names and letters with binders (the most general sort).

A word is a term built from the empty word, names, letters, binary
concatenation, and a binder ``Bind(n, w)`` that binds the free
occurrences of ``n`` in ``w``.  Words are compared up to the monoid
laws (concatenation is associative with the empty word as unit) and up
to renaming of bound names; `alpha_canonical` computes the canonical
representative used for hashing and set membership.

Words linearize to token streams over one alphabet: a name or a letter
is its own token, and a binder becomes a matched `TOpen(n)`/`TCLOSE`
pair; `tokenize` and `parse_tokens` are mutually inverse up to
alpha-equivalence and monoid normal form.

`alpha_key` gives each alpha-class one flat key: the token stream with
every bound occurrence replaced by its de Bruijn index (the number of
binders between it and its own) and binder names dropped.  Its
elements are free `Name`s, letter symbols (`str`), indices (`int`) and
the sentinels `KEY_OPEN` and `KEY_CLOSE`, all hashed in C.  Indices
make concatenation plain tuple concatenation, `key_bind` binds a name
in a key, the token length of a word is the length of its key, and
`from_key` decodes a key to the canonical word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .names import Letter, Name, Permutation, canonical_supply


class MWord:
    """Base class for word terms."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Empty(MWord):
    def __repr__(self):
        return "^"


@dataclass(frozen=True, slots=True)
class NameAtom(MWord):
    name: Name

    def __repr__(self):
        return f"#{self.name.label}"


@dataclass(frozen=True, slots=True)
class LetterAtom(MWord):
    letter: Letter

    def __repr__(self):
        return self.letter.symbol


@dataclass(frozen=True, slots=True)
class Seq(MWord):
    # Normal form: at least two parts, none of which is Empty or Seq.
    parts: tuple[MWord, ...]

    def __repr__(self):
        return " ".join(map(repr, self.parts))


@dataclass(frozen=True, slots=True)
class Bind(MWord):
    name: Name
    body: MWord

    def __repr__(self):
        return f"<#{self.name.label}. {self.body!r} >"


EPSILON = Empty()


def concat(*ws: MWord) -> MWord:
    """Concatenation in monoid normal form: flat, with empty units erased."""
    parts: list[MWord] = []
    for w in ws:
        if isinstance(w, Empty):
            continue
        if isinstance(w, Seq):
            parts.extend(w.parts)
        else:
            parts.append(w)
    if not parts:
        return EPSILON
    if len(parts) == 1:
        return parts[0]
    return Seq(tuple(parts))


def normalize(w: MWord) -> MWord:
    """Rebuild `w` in monoid normal form (binder bodies included)."""
    if isinstance(w, (Empty, NameAtom, LetterAtom)):
        return w
    if isinstance(w, Bind):
        return Bind(w.name, normalize(w.body))
    return concat(*(normalize(p) for p in w.parts))


def support(w: MWord) -> frozenset[Name]:
    """The free names of `w`."""
    if isinstance(w, NameAtom):
        return frozenset((w.name,))
    if isinstance(w, Seq):
        out: frozenset[Name] = frozenset()
        for p in w.parts:
            out |= support(p)
        return out
    if isinstance(w, Bind):
        return support(w.body) - {w.name}
    return frozenset()


def all_names(w: MWord) -> frozenset[Name]:
    """Every name occurring in `w`, free or bound, binder positions included."""
    if isinstance(w, NameAtom):
        return frozenset((w.name,))
    if isinstance(w, Seq):
        out: frozenset[Name] = frozenset()
        for p in w.parts:
            out |= all_names(p)
        return out
    if isinstance(w, Bind):
        return all_names(w.body) | {w.name}
    return frozenset()


def permute(pi: Permutation, w: MWord) -> MWord:
    """Apply the permutation to every name occurrence, free and bound."""
    if isinstance(w, NameAtom):
        return NameAtom(pi(w.name))
    if isinstance(w, Seq):
        return Seq(tuple(permute(pi, p) for p in w.parts))
    if isinstance(w, Bind):
        return Bind(pi(w.name), permute(pi, w.body))
    return w


# ---------------------------------------------------------------------------
# Canonical keys

class _KeyBracket:
    """A binder bracket in a key; hashed and compared by identity."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return self.text


KEY_OPEN = _KeyBracket("<.")
KEY_CLOSE = _KeyBracket(">")

Key = tuple  # of Name | str | int | KEY_OPEN | KEY_CLOSE


def alpha_key(w: MWord) -> Key:
    """The key of the alpha-class of `w`: equal keys iff alpha-equivalent words."""
    out: list = []

    def go(t: MWord, env: dict[Name, int], depth: int) -> None:
        # env maps a bound name to the depth of its binder
        if isinstance(t, NameAtom):
            level = env.get(t.name)
            out.append(t.name if level is None else depth - 1 - level)
        elif isinstance(t, LetterAtom):
            out.append(t.letter.symbol)
        elif isinstance(t, Seq):
            for p in t.parts:
                go(p, env, depth)
        elif isinstance(t, Bind):
            out.append(KEY_OPEN)
            go(t.body, {**env, t.name: depth}, depth + 1)
            out.append(KEY_CLOSE)

    go(w, {}, 0)
    return tuple(out)


def key_bind(n: Name, key: Key) -> Key:
    """The key of ``Bind(n, w)`` from the key of `w`."""
    if n not in key:
        return (KEY_OPEN,) + key + (KEY_CLOSE,)
    out = [KEY_OPEN]
    depth = 0
    for x in key:
        if x is n:
            x = depth
        elif x is KEY_OPEN:
            depth += 1
        elif x is KEY_CLOSE:
            depth -= 1
        out.append(x)
    out.append(KEY_CLOSE)
    return tuple(out)


def _seq(parts: list[MWord]) -> MWord:
    # `concat` for parts that are already atoms or binders
    if len(parts) > 1:
        return Seq(tuple(parts))
    return parts[0] if parts else EPSILON


def from_key(key: Key) -> MWord:
    """The canonical word of a key.

    Binders are named from the reserved sequence in traversal order,
    skipping any reserved name that occurs free.  Equal atoms within
    the word are one object.
    """
    supply = None
    atoms: dict = {}
    binders: list[Name] = []
    frames: list[list[MWord]] = [[]]
    parts = frames[0]
    for x in key:
        if x is KEY_OPEN:
            if supply is None:
                supply = canonical_supply([y for y in key if isinstance(y, Name)])
            binders.append(next(supply))
            parts = []
            frames.append(parts)
        elif x is KEY_CLOSE:
            body = _seq(frames.pop())
            parts = frames[-1]
            parts.append(Bind(binders.pop(), body))
        else:
            if type(x) is int:
                x = binders[-1 - x]
            a = atoms.get(x)
            if a is None:
                a = atoms[x] = NameAtom(x) if isinstance(x, Name) else LetterAtom(Letter(x))
            parts.append(a)
    return _seq(frames[0])


def alpha_canonical(w: MWord) -> MWord:
    """Canonical representative of the alpha-equivalence class of `w`.

    Bound names are renamed to the reserved sequence in traversal order
    (skipping any reserved name that happens to occur free in `w`);
    free names are kept verbatim.  Two words are alpha-equivalent iff
    their canonical forms are equal.
    """
    return from_key(alpha_key(w))


def alpha_equal(w: MWord, v: MWord) -> bool:
    return alpha_key(w) == alpha_key(v)


# ---------------------------------------------------------------------------
# Token streams

@dataclass(frozen=True, slots=True)
class TOpen:
    name: Name

    def __repr__(self):
        return f"<#{self.name.label}."


@dataclass(frozen=True, slots=True)
class TClose:
    def __repr__(self):
        return ">"


Tok = Union[Name, Letter, TOpen, TClose]


TCLOSE = TClose()


def tokenize(w: MWord) -> tuple[Tok, ...]:
    """Linearize `w`; a binder becomes TOpen(n) ... TCLOSE."""
    out: list[Tok] = []

    def go(t: MWord):
        if isinstance(t, Empty):
            return
        if isinstance(t, NameAtom):
            out.append(t.name)
        elif isinstance(t, LetterAtom):
            out.append(t.letter)
        elif isinstance(t, Seq):
            for p in t.parts:
                go(p)
        else:
            assert isinstance(t, Bind)
            out.append(TOpen(t.name))
            go(t.body)
            out.append(TCLOSE)

    go(w)
    return tuple(out)


def parse_tokens(toks: tuple[Tok, ...]) -> MWord:
    """Inverse of `tokenize`.  Rejects unbalanced streams."""
    frames: list[tuple[Name | None, list[MWord]]] = [(None, [])]
    for t in toks:
        if isinstance(t, Name):
            frames[-1][1].append(NameAtom(t))
        elif isinstance(t, Letter):
            frames[-1][1].append(LetterAtom(t))
        elif isinstance(t, TOpen):
            frames.append((t.name, []))
        else:
            if len(frames) == 1:
                raise ValueError("unbalanced token stream: unmatched close")
            n, parts = frames.pop()
            frames[-1][1].append(Bind(n, concat(*parts)))
    if len(frames) != 1:
        raise ValueError("unbalanced token stream: unmatched open")
    return concat(*frames[0][1])


def token_length(w: MWord) -> int:
    return len(tokenize(w))
