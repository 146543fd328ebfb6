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

A product enumerates each operand only as far as the other leaves room
for.  Every node has a lower bound on the token length of its words
(`_shortest`): none for `Zero`, 0 for `One` and `Star`, 1 for an atom,
the least over a sum, the sum over a product, and the body's for a
binder, since binding never shortens a word in any sort.  The left
operand goes up to the bound less the right one's lower bound, the
right one up to the bound less the length of the shortest word in the
left slice, and a product that has an operand with no word, or lower
bounds past the bound, returns at once.  A star drops the unit from its
base, where it would only rebuild words it has.  Keys form no cycles,
so `enumerate_slice` and `member` run under one collector pause
(`words.collector_paused`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .names import Letter, Name, Permutation
from .monoids import SORTS, SortOps
from .words import collector_paused


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
# pair's bucket is known before it is built.  The unit has no token and
# an atom's word one in every sort, so `tok_len` runs only on binder
# results.


def _shortest(e: Regex, memo: dict) -> float:
    """A lower bound on the token length of the words of `e`, `inf` if
    it has none; `memo` holds it by node id for one enumeration."""
    n = memo.get(id(e))
    if n is None:
        t = type(e)
        if t is Atom:
            n = 1
        elif t is Cat:
            n = _shortest(e.left, memo) + _shortest(e.right, memo)
        elif t is Sum:
            n = min(_shortest(e.left, memo), _shortest(e.right, memo))
        elif t is Binder:  # binding never shortens a word in any sort
            n = _shortest(e.body, memo)
        elif t is Zero:
            n = inf
        else:  # One, Star
            n = 0
        memo[id(e)] = n
    return n


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


def _enum(e: Regex, ops: SortOps, bound: int, memo: dict) -> dict[int, set]:
    """The slice of `e` up to `bound` (at least 0); `memo` is `_shortest`'s."""
    t = type(e)
    if t is Cat:
        # each operand only as far as the other leaves room for
        right = _shortest(e.right, memo)
        if _shortest(e.left, memo) + right > bound:
            return {}
        a = _enum(e.left, ops, bound - right, memo)
        if not a:
            return {}
        return _concat_slices(a, _enum(e.right, ops, bound - min(a), memo), ops, bound)
    if t is Atom:
        return {1: {ops.atom(e.sym)}} if bound else {}
    if t is Sum:
        out = _enum(e.left, ops, bound, memo)
        for n, ws in _enum(e.right, ops, bound, memo).items():
            if n in out:
                out[n] |= ws
            else:
                out[n] = ws
        return out
    if t is Binder:
        out = {}
        bind, tok_len, name = ops.bind, ops.tok_len, e.name
        for ws in _enum(e.body, ops, bound, memo).values():
            for w in ws:
                v = bind(name, w)
                n = tok_len(v)
                if n <= bound:
                    out.setdefault(n, set()).add(v)
        return out
    if t is Star:
        base = _enum(e.body, ops, bound, memo)
        base.pop(0, None)  # the unit, the one word of length 0, adds nothing
        acc = {n: set(ws) for n, ws in base.items()}
        acc[0] = {ops.unit}
        frontier = base
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
    if t is One:
        return {0: {ops.unit}}
    assert t is Zero
    return {}


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
    return _drain(_enum(e, ops.keyed, bound, {}))


def enumerate_slice(e: Regex, sort: str | SortOps, bound: int) -> LangSlice:
    """All words of the language of `e` with token length at most `bound`.

    The sort is enumerated on its keys, and each output key is decoded
    once, all under one collector pause.
    """
    ops = SORTS[sort] if isinstance(sort, str) else sort
    with collector_paused():
        words = map(ops.keyed.to_mword, _enumerate_keys(e, ops, bound))
        return LangSlice(frozenset(words))


def member(e: Regex, w, sort: str | SortOps = "M") -> bool:
    """Decide membership by enumerating keys up to the candidate's token
    length and looking its key up in the bucket of that length."""
    ops = SORTS[sort] if isinstance(sort, str) else sort
    keys = ops.keyed
    with collector_paused():
        key = ops.encode(w)
        n = keys.tok_len(key)
        return key in _enum(e, keys, n, {}).get(n, ())
