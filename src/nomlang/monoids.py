"""The three restricted word sorts and their monoid structure.

Besides the fully general binder-tree words of `words`, there are three
progressively more rigid sorts:

* g-words: binder scopes always extend to the end of the word, so a
  word is a cons-list of atoms terminated by the empty word or by a
  binder wrapping the rest;
* l-words: a prefix of binders followed by a binder-free body;
* s-words: an unordered set of bound names plus a binder-free body.

Each sort carries concatenation and a binding operation.  The freshness
side conditions of the defining equations are discharged internally by
renaming bound names apart, so all operations are total.  Embeddings
connect the sorts: s -> l -> g -> m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .names import Letter, Name, canonical_supply, fresh_name
from . import words
from .words import (
    Bind, MWord, alpha_canonical, atom, concat, from_key, key_bind, token_length,
)

AtomSym = Union[Name, Letter]


# ---------------------------------------------------------------------------
# g-words

class GWord:
    __slots__ = ()


@dataclass(frozen=True)
class GEmpty(GWord):
    def __repr__(self):
        return "^"


@dataclass(frozen=True)
class GCons(GWord):
    head: AtomSym
    tail: GWord

    def __repr__(self):
        return f"{self.head!r} {self.tail!r}"


@dataclass(frozen=True)
class GBind(GWord):
    name: Name
    tail: GWord

    def __repr__(self):
        return f"<#{self.name.label}. {self.tail!r} >"


GEPSILON = GEmpty()


def gword(*syms: AtomSym) -> GWord:
    out: GWord = GEPSILON
    for s in reversed(syms):
        out = GCons(s, out)
    return out


def support_g(w: GWord) -> frozenset[Name]:
    if isinstance(w, GCons):
        tail = support_g(w.tail)
        if isinstance(w.head, Name):
            return tail | {w.head}
        return tail
    if isinstance(w, GBind):
        return support_g(w.tail) - {w.name}
    return frozenset()


def _rename_free_g(w: GWord, old: Name, new: Name) -> GWord:
    if isinstance(w, GCons):
        head = new if w.head is old else w.head
        return GCons(head, _rename_free_g(w.tail, old, new))
    if isinstance(w, GBind):
        if w.name is old:
            return w
        return GBind(w.name, _rename_free_g(w.tail, old, new))
    return w


def concat_g(w: GWord, v: GWord) -> GWord:
    """Concatenation of g-words; binder scopes are extruded over `v`.

    The bound name of a traversed binder is renamed fresh for `v`
    before its scope is extended.
    """
    if isinstance(w, GEmpty):
        return v
    if isinstance(w, GCons):
        return GCons(w.head, concat_g(w.tail, v))
    assert isinstance(w, GBind)
    n2 = fresh_name(w.name.label)
    return GBind(n2, concat_g(_rename_free_g(w.tail, w.name, n2), v))


def canon_g(w: GWord) -> GWord:
    """Canonical alpha-representative of a g-word."""
    supply = canonical_supply(support_g(w))

    def go(t: GWord, env: dict[Name, Name]) -> GWord:
        if isinstance(t, GCons):
            head = env.get(t.head, t.head) if isinstance(t.head, Name) else t.head
            return GCons(head, go(t.tail, env))
        if isinstance(t, GBind):
            c = next(supply)
            inner = dict(env)
            inner[t.name] = c
            return GBind(c, go(t.tail, inner))
        return t

    return go(w, {})


def tok_len_g(w: GWord) -> int:
    if isinstance(w, GCons):
        return 1 + tok_len_g(w.tail)
    if isinstance(w, GBind):
        return 2 + tok_len_g(w.tail)
    return 0


# ---------------------------------------------------------------------------
# l-words

@dataclass(frozen=True)
class LWord:
    prefix: tuple[Name, ...]
    body: tuple[AtomSym, ...]

    def __repr__(self):
        pre = "".join(f"[{n.label}]" for n in self.prefix)
        return pre + " ".join(map(repr, self.body))


LEPSILON = LWord((), ())


def support_l(x: LWord) -> frozenset[Name]:
    return frozenset(s for s in x.body if isinstance(s, Name)) - set(x.prefix)


def all_names_l(x: LWord) -> frozenset[Name]:
    return frozenset(x.prefix) | frozenset(s for s in x.body if isinstance(s, Name))


def _rename_prefix(x: LWord, new_names: list[Name]) -> LWord:
    """Rename prefix positions to `new_names`, updating bound body occurrences.

    A body occurrence of a prefix name is bound by the rightmost prefix
    position carrying that name.
    """
    assert len(new_names) == len(x.prefix)
    binder_of: dict[Name, Name] = {}
    for old, new in zip(x.prefix, new_names):
        binder_of[old] = new
    body = tuple(
        binder_of.get(s, s) if isinstance(s, Name) else s for s in x.body
    )
    return LWord(tuple(new_names), body)


def _freshen_l(x: LWord, avoid: frozenset[Name]) -> LWord:
    if not (set(x.prefix) & avoid) and len(set(x.prefix)) == len(x.prefix):
        return x
    return _rename_prefix(x, [fresh_name(n.label) for n in x.prefix])


def concat_l(x: LWord, y: LWord) -> LWord:
    """Prefix and body concatenation, after renaming the binders apart."""
    x = _freshen_l(x, all_names_l(y))
    y = _freshen_l(y, all_names_l(x))
    return LWord(x.prefix + y.prefix, x.body + y.body)


def bind_l(n: Name, x: LWord) -> LWord:
    """Extend the binder prefix with `n` (binding its free body occurrences)."""
    if n in x.prefix:
        x = _freshen_l(x, frozenset((n,)))
    return LWord((n,) + x.prefix, x.body)


def canon_l(x: LWord) -> LWord:
    supply = canonical_supply(support_l(x))
    return _rename_prefix(x, [next(supply) for _ in x.prefix])


def tok_len_l(x: LWord) -> int:
    return 2 * len(x.prefix) + len(x.body)


# ---------------------------------------------------------------------------
# s-words

@dataclass(frozen=True)
class SWord:
    bound: frozenset[Name]
    body: tuple[AtomSym, ...]

    def __post_init__(self):
        occurring = {s for s in self.body if isinstance(s, Name)}
        if not self.bound <= occurring:
            raise ValueError("bound names must occur in the body")

    def __repr__(self):
        pre = "".join(f"[{n.label}]" for n in sorted(self.bound))
        return pre + " ".join(map(repr, self.body))


SEPSILON = SWord(frozenset(), ())


def support_s(x: SWord) -> frozenset[Name]:
    return frozenset(s for s in x.body if isinstance(s, Name)) - x.bound


def all_names_s(x: SWord) -> frozenset[Name]:
    return frozenset(s for s in x.body if isinstance(s, Name))


def _rename_bound_s(x: SWord, mapping: dict[Name, Name]) -> SWord:
    body = tuple(mapping.get(s, s) if isinstance(s, Name) else s for s in x.body)
    return SWord(frozenset(mapping.get(n, n) for n in x.bound), body)


def _freshen_s(x: SWord, avoid: frozenset[Name]) -> SWord:
    clashing = x.bound & avoid
    if not clashing:
        return x
    return _rename_bound_s(x, {n: fresh_name(n.label) for n in clashing})


def concat_s(x: SWord, y: SWord) -> SWord:
    x = _freshen_s(x, all_names_s(y))
    y = _freshen_s(y, all_names_s(x))
    return SWord(x.bound | y.bound, x.body + y.body)


def bind_s(n: Name, x: SWord) -> SWord:
    """Add `n` to the bound set; a binder for an unused name is dropped."""
    if n in x.bound:
        x = _freshen_s(x, frozenset((n,)))
    if any(s is n for s in x.body):
        return SWord(x.bound | {n}, x.body)
    return x


def canon_s(x: SWord) -> SWord:
    supply = canonical_supply(support_s(x))
    mapping: dict[Name, Name] = {}
    for s in x.body:
        if isinstance(s, Name) and s in x.bound and s not in mapping:
            mapping[s] = next(supply)
    return _rename_bound_s(x, mapping)


def tok_len_s(x: SWord) -> int:
    return 2 * len(x.bound) + len(x.body)


# ---------------------------------------------------------------------------
# Embeddings s -> l -> g -> m

def embed_sl(x: SWord) -> LWord:
    """Order the bound-name set (ascending id) into a binder prefix."""
    return LWord(tuple(sorted(x.bound)), x.body)


def embed_lg(x: LWord) -> GWord:
    out = gword(*x.body)
    for n in reversed(x.prefix):
        out = GBind(n, out)
    return out


def embed_gm(w: GWord) -> MWord:
    if isinstance(w, GEmpty):
        return words.EPSILON
    if isinstance(w, GCons):
        return concat(atom(w.head), embed_gm(w.tail))
    assert isinstance(w, GBind)
    return Bind(w.name, embed_gm(w.tail))


def embed_lm(x: LWord) -> MWord:
    return embed_gm(embed_lg(x))


def embed_sm(x: SWord) -> MWord:
    return embed_lm(embed_sl(x))


# ---------------------------------------------------------------------------
# Quotients m -> g -> l -> s
#
# The maps that forget structure.  They are monoid homomorphisms, and
# each embedding above is a section of the matching quotient.

def quot_mg(w: MWord) -> GWord:
    """Extend every binder scope to the end of the word."""
    if isinstance(w, words.Empty):
        return GEPSILON
    if isinstance(w, words.NameAtom):
        return GCons(w.name, GEPSILON)
    if isinstance(w, words.LetterAtom):
        return GCons(w.letter, GEPSILON)
    if isinstance(w, words.Seq):
        out = GEPSILON
        for p in reversed(w.parts):
            out = concat_g(quot_mg(p), out)
        return out
    assert isinstance(w, Bind)
    return GBind(w.name, quot_mg(w.body))


def quot_gl(w: GWord) -> LWord:
    """Hoist every binder into the prefix, keeping their order."""
    if isinstance(w, GEmpty):
        return LEPSILON
    if isinstance(w, GCons):
        return concat_l(LWord((), (w.head,)), quot_gl(w.tail))
    assert isinstance(w, GBind)
    return bind_l(w.name, quot_gl(w.tail))


def quot_ls(x: LWord) -> SWord:
    """Forget the order of the binder prefix."""
    w = SWord(frozenset(), x.body)
    for n in reversed(x.prefix):
        w = bind_s(n, w)
    return w


# ---------------------------------------------------------------------------
# Plain-word projection (pool-bounded)

PlainWord = tuple


def _swap_plain(v: PlainWord, a: Name, b: Name) -> PlainWord:
    def sw(s):
        if s is a:
            return b
        if s is b:
            return a
        return s

    return tuple(sw(s) for s in v)


def plain_words_bounded(ws, pool: frozenset[Name]) -> frozenset[PlainWord]:
    """Project words with binders to binder-free plain words.

    A binder contributes the unchanged projections of its body plus
    every renaming of the bound name to a pool name fresh for the
    projected word.  The pool must cover the free names of the input.
    """
    pool = frozenset(pool)
    out: set[PlainWord] = set()
    for w in ws:
        missing = words.support(w) - pool
        if missing:
            raise ValueError(f"pool omits free names: {sorted(n.label for n in missing)}")
        out |= _project(w, pool)
    return frozenset(out)


def _project(w: MWord, pool: frozenset[Name]) -> set[PlainWord]:
    if isinstance(w, words.Empty):
        return {()}
    if isinstance(w, words.NameAtom):
        return {(w.name,)}
    if isinstance(w, words.LetterAtom):
        return {(w.letter,)}
    if isinstance(w, words.Seq):
        acc: set[PlainWord] = {()}
        for p in w.parts:
            part = _project(p, pool)
            acc = {u + v for u in acc for v in part}
        return acc
    assert isinstance(w, words.Bind)
    base = _project(w.body, pool)
    out = set(base)
    for v in base:
        for m in pool:
            if m not in v:
                out.add(_swap_plain(v, w.name, m))
    return out


# ---------------------------------------------------------------------------
# Uniform interface used by the regular-expression semantics

@dataclass(frozen=True)
class SortOps:
    """The operations a sort must provide to interpret regular expressions.

    Token length adds up under `concat` in every sort.  `keyed`, when
    set, is the same sort on canonical keys: its `canon` is the
    identity, its `tok_len` is O(1), and its `to_mword` decodes a key
    to the canonical value of this sort.  `regex.enumerate_slice` then
    runs on the keys and decodes each output word once.
    """

    tag: str
    unit: object
    from_name: Callable
    from_letter: Callable
    concat: Callable
    bind: Callable
    canon: Callable
    tok_len: Callable
    to_mword: Callable
    keyed: Optional["SortOps"] = None


def _identity(x):
    return x


# M-words as alpha keys (see `words`): bound names are de Bruijn
# indices, so concatenation is tuple concatenation, with no renaming.
SORT_M_KEYS = SortOps(
    tag="M",
    unit=(),
    from_name=lambda n: (n,),
    from_letter=lambda s: (s.symbol,),
    concat=tuple.__add__,
    bind=key_bind,
    canon=_identity,
    tok_len=len,
    to_mword=from_key,
)

SORT_M = SortOps(
    tag="M",
    unit=words.EPSILON,
    from_name=words.NameAtom,
    from_letter=words.LetterAtom,
    concat=concat,
    bind=Bind,
    canon=alpha_canonical,
    tok_len=token_length,
    to_mword=_identity,
    keyed=SORT_M_KEYS,
)

SORT_G = SortOps(
    tag="G",
    unit=GEPSILON,
    from_name=lambda n: GCons(n, GEPSILON),
    from_letter=lambda s: GCons(s, GEPSILON),
    concat=concat_g,
    bind=GBind,
    canon=canon_g,
    tok_len=tok_len_g,
    to_mword=embed_gm,
)

SORT_L = SortOps(
    tag="L",
    unit=LEPSILON,
    from_name=lambda n: LWord((), (n,)),
    from_letter=lambda s: LWord((), (s,)),
    concat=concat_l,
    bind=bind_l,
    canon=canon_l,
    tok_len=tok_len_l,
    to_mword=embed_lm,
)

SORT_S = SortOps(
    tag="S",
    unit=SEPSILON,
    from_name=lambda n: SWord(frozenset(), (n,)),
    from_letter=lambda s: SWord(frozenset(), (s,)),
    concat=concat_s,
    bind=bind_s,
    canon=canon_s,
    tok_len=tok_len_s,
    to_mword=embed_sm,
)

SORTS = {"M": SORT_M, "G": SORT_G, "L": SORT_L, "S": SORT_S}
