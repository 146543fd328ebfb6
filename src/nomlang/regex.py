"""Regular expressions over names and letters, with binders.

An atom (`Atom`) is a name or a letter, and stands for the one-symbol
word it spells; the type of its symbol says which it is, and only
`free_names` and the compiler ask.  The other nodes are the unit `One`,
the empty language `Zero`, `Sum`, `Cat`, `Star` and `Binder`.

The denotation of an expression in a chosen word sort is in general an
infinite set; `enumerate_slice` computes its finite window of words up
to a token-length bound.  Every semantic clause is token-length
non-decreasing, so membership can be decided by enumerating up to the
length of the candidate word, and `member` does so on keys, decoding
nothing.

One enumeration serves every sort.  It runs on the sort's nameless
keys (`SortOps.keyed`), which are canonical by construction, so
concatenation and binding need no renaming and no set insert
re-canonicalizes; each output key is decoded once.  It keeps each
partial slice bucketed by token length, which adds up under
concatenation, so a product is built only for pairs whose lengths fit
the bound and is filed without measuring it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .names import Letter, Name, Permutation
from .monoids import SORTS, SortOps


class Regex:
    __slots__ = ()


@dataclass(frozen=True)
class One(Regex):
    pass


@dataclass(frozen=True)
class Zero(Regex):
    pass


@dataclass(frozen=True)
class Atom(Regex):
    """The one-symbol word of a name or a letter."""

    sym: Name | Letter


@dataclass(frozen=True)
class Sum(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Cat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Binder(Regex):
    name: Name
    body: Regex


@dataclass(frozen=True)
class Star(Regex):
    body: Regex


ONE = One()
ZERO = Zero()


def free_names(e: Regex) -> frozenset[Name]:
    if isinstance(e, Atom) and type(e.sym) is Name:
        return frozenset((e.sym,))
    if isinstance(e, (Sum, Cat)):
        return free_names(e.left) | free_names(e.right)
    if isinstance(e, Binder):
        return free_names(e.body) - {e.name}
    if isinstance(e, Star):
        return free_names(e.body)
    return frozenset()


def permute_regex(pi: Permutation, e: Regex) -> Regex:
    if isinstance(e, Atom):  # a permutation fixes every letter
        return Atom(pi(e.sym))
    if isinstance(e, Sum):
        return Sum(permute_regex(pi, e.left), permute_regex(pi, e.right))
    if isinstance(e, Cat):
        return Cat(permute_regex(pi, e.left), permute_regex(pi, e.right))
    if isinstance(e, Binder):
        return Binder(pi(e.name), permute_regex(pi, e.body))
    if isinstance(e, Star):
        return Star(permute_regex(pi, e.body))
    return e


@dataclass(frozen=True)
class LangSlice:
    """The words of a language up to a token length, canonical."""

    words: frozenset


# A slice in the making: {token length: set of keys}, with no empty set.
# Token length adds up under concatenation in every sort, so a product
# pair's bucket is known before it is built, and `tok_len` runs only on
# atoms and binder results.


def _single(v, ops: SortOps, bound: int) -> dict[int, set]:
    n = ops.tok_len(v)
    return {n: {v}} if n <= bound else {}


def _concat_slices(a: dict, b: dict, ops: SortOps, bound: int) -> dict[int, set]:
    out: dict[int, set] = {}
    concat = ops.concat
    for na, xs in a.items():
        for nb, ys in b.items():
            if na + nb > bound:
                continue
            bucket = out.setdefault(na + nb, set())
            bucket.update([concat(x, y) for x in xs for y in ys])
    return out


def _enum(e: Regex, ops: SortOps, bound: int) -> dict[int, set]:
    if isinstance(e, Zero):
        return {}
    if isinstance(e, One):
        return _single(ops.unit, ops, bound)
    if isinstance(e, Atom):
        return _single(ops.atom(e.sym), ops, bound)
    if isinstance(e, Sum):
        out = _enum(e.left, ops, bound)
        for n, ws in _enum(e.right, ops, bound).items():
            if n in out:
                out[n] |= ws
            else:
                out[n] = ws
        return out
    if isinstance(e, Cat):
        return _concat_slices(
            _enum(e.left, ops, bound), _enum(e.right, ops, bound), ops, bound
        )
    if isinstance(e, Binder):
        out = {}
        for ws in _enum(e.body, ops, bound).values():
            for w in ws:
                v = ops.bind(e.name, w)
                n = ops.tok_len(v)
                if n <= bound:
                    out.setdefault(n, set()).add(v)
        return out
    assert isinstance(e, Star)
    base = _enum(e.body, ops, bound)
    acc = _single(ops.unit, ops, bound)
    frontier = {n: set(ws) for n, ws in acc.items()}
    while frontier:
        fresh = {}
        for n, ws in _concat_slices(frontier, base, ops, bound).items():
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
    return acc


def _drain(buckets: dict[int, set]):
    """Every value of the buckets, removed from them as it is yielded."""
    while buckets:
        _, ws = buckets.popitem()
        while ws:
            yield ws.pop()


def _enumerate_keys(e: Regex, ops: SortOps, bound: int):
    """The keys (`ops.keyed`) of the words of `e` with token length at
    most `bound`, each once."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return _drain(_enum(e, ops.keyed, bound))


def enumerate_slice(e: Regex, sort: str | SortOps, bound: int) -> LangSlice:
    """All words of the language of `e` with token length at most `bound`.

    The sort is enumerated on its keys, and each output key is decoded
    once.
    """
    ops = SORTS[sort] if isinstance(sort, str) else sort
    words = map(ops.keyed.to_mword, _enumerate_keys(e, ops, bound))
    return LangSlice(frozenset(words))


def member(e: Regex, w, sort: str | SortOps = "M") -> bool:
    """Decide membership by enumerating keys up to the candidate's token
    length and looking its key up in the bucket of that length."""
    ops = SORTS[sort] if isinstance(sort, str) else sort
    keys = ops.keyed
    key = ops.encode(w)
    n = keys.tok_len(key)
    return key in _enum(e, keys, n).get(n, ())
