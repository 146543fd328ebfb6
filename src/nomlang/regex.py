"""Regular expressions over names and letters, with binders.

An expression (`Regex`) is one immutable tuple of nodes in post-order:
children come before their parents and the root is last, so equality
and hashing are those of a flat tuple, and every traversal is one loop
over the array, however deep the expression nests.  A node is a tuple
(kind, symbol, left, right): its kind, the symbol of an atom or the
name of a binder (None for the other kinds), and the indices of its
children, None where it has none.  A sum or a product has two, and a
star or a binder one, its body, in `left`.  An atom (kind `ATOM`) is a
name or a letter, and stands for the one-symbol word it spells; the
type of its symbol says which it is, and only `free_names` and the
compiler ask.  The constructors `Atom`, `Sum`, `Cat`, `Star` and
`Binder`, and the unit `ONE` and the empty language `ZERO`, build the
array that `syntax.parse_regex` gives for the same tree.

The denotation of an expression in a chosen word sort is in general an
infinite set; `enumerate_slice` computes its finite window of words up
to a token-length bound.  Every semantic clause is token-length
non-decreasing, so membership can be decided by enumerating up to the
length of the candidate word, and `member` does so on keys, decoding
nothing.

One enumeration serves every sort.  It runs on the sort's nameless
keys (`SortOps.keyed`, a `monoids.KeySort`), which are canonical by
construction, so concatenation and binding need no renaming and no set
insert re-canonicalizes; each output key is decoded once.  It keeps
each partial slice bucketed by token length, which adds up under
concatenation, so a product is built only for pairs whose lengths fit
the bound and is filed without measuring it.

A product enumerates each operand only as far as the other leaves room
for, and a binder its body only as far as binding leaves room for.
Every node has a lower bound on the token length of its words
(`_shortest`): none for the empty language, 0 for the unit and a star,
1 for an atom, the least over a sum, the sum over a product, and for a
binder the body's plus the fewest tokens binding adds in the sort
(`KeySort.bind_tokens`).  A node whose lower bound is past the bound is
not entered: its slice is empty.  The left operand of a product goes up
to the bound less the right one's lower bound, the right one up to the
bound less the length of the shortest word in the left slice, and a
product with an empty left slice stops there; a binder's body goes up
to the bound less the binding tokens.  In S, where binding adds two
tokens (`BINDER_TOKENS`) to a word in which the name occurs and none to
another, the body of a binder whose name occurs free in it goes up to
the bound less two, and its words without the name (its free atoms of
the name make no word) up to the bound; a binder whose name does not
occur free in its body is its body.  One linear pass (`_scopes`) gives
both the free names of an expression and the binders whose name occurs
free in their body.  A star drops the unit from its base, where it
would only rebuild words it has.  Keys form no cycles, so
`enumerate_slice` and `member` run under one collector pause
(`words.collector_paused`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product, starmap
from math import inf

from .names import Letter, Name, Permutation
from .monoids import SORTS, KeySort, SortOps
from .words import collector_paused

# The tokens binding adds to a word in which the name occurs, in every
# sort: an open and a close.
BINDER_TOKENS = 2

# The kinds of node.
UNIT, EMPTY, ATOM, SUM, CAT, STAR, BINDER = "1", "0", "atom", "+", "cat", "*", "bind"


class Regex(tuple):
    """An expression: its nodes in post-order, the root last."""

    __slots__ = ()


ONE = Regex(((UNIT, None, None, None),))
ZERO = Regex(((EMPTY, None, None, None),))


def Atom(sym: Name | Letter) -> Regex:
    """The one-symbol word of a name or a letter."""
    return Regex(((ATOM, sym, None, None),))


def Star(body: Regex) -> Regex:
    return Regex((*body, (STAR, None, len(body) - 1, None)))


def Binder(name: Name, body: Regex) -> Regex:
    return Regex((*body, (BINDER, name, len(body) - 1, None)))


def _binary(kind: str, left: Regex, right: Regex) -> Regex:
    k = len(left)  # the right operand's nodes move past the left one's
    moved = [(t, s, i if i is None else i + k, j if j is None else j + k) for t, s, i, j in right]
    return Regex((*left, *moved, (kind, None, k - 1, k + len(right) - 1)))


Sum, Cat = partial(_binary, SUM), partial(_binary, CAT)  # Sum(left, right), Cat(left, right)


def _scopes(e: Regex) -> tuple[set[Name], set[int]]:
    """The free names of `e`, and the indices of its binders whose name
    occurs free in their body.

    A parent takes its operands' sets over: a sum or a product its left
    one's, which grows along the parser's chains, and a binder its
    body's, which it tests for its name before it drops the name, so one
    loop over the nodes takes linear time and memory.
    """
    out: list[set[Name]] = []  # the free names of each node, until its parent takes them over
    binding: set[int] = set()
    for p, (kind, sym, i, j) in enumerate(e):
        if kind is ATOM and type(sym) is Name:
            s = {sym}
        elif kind is SUM or kind is CAT:
            s = out[i]
            s |= out[j]
        elif kind is BINDER:
            s = out[i]
            if sym in s:
                binding.add(p)
                s.remove(sym)
        elif kind is STAR:
            s = out[i]
        else:
            s = set()
        out.append(s)
    return out[-1], binding


def free_names(e: Regex) -> frozenset[Name]:
    return frozenset(_scopes(e)[0])


def permute_regex(pi: Permutation, e: Regex) -> Regex:
    # `pi` fixes every letter, and None, the symbol of a node of no atom or binder
    return Regex([(kind, pi(sym), i, j) for kind, sym, i, j in e])


@dataclass(frozen=True)
class LangSlice:
    """The words of a language up to a token length, canonical."""

    words: frozenset


# A slice in the making: {token length: set of keys}, with no empty set.
# Token length adds up under concatenation in every sort, so a product
# pair's bucket is known before it is built.  The unit has no token and
# an atom's word one in every sort, so `tok_len` runs only on binder
# results.


def _shortest(e: Regex, ops: KeySort) -> list[float]:
    """A lower bound on the token length of the words of each node of
    `e` in the sort of `ops`, by index; `inf` for a node with no word."""
    out: list[float] = []
    bind_tokens = ops.bind_tokens
    for kind, _, i, j in e:
        if kind is ATOM:
            n = 1
        elif kind is CAT:
            n = out[i] + out[j]
        elif kind is SUM:  # the least, with no call to `min`, which made the loop 1.7 times as slow
            n = out[i] if out[i] <= out[j] else out[j]
        elif kind is BINDER:  # the body's, plus the fewest tokens binding adds
            n = out[i] + bind_tokens
        elif kind is EMPTY:
            n = inf
        else:  # UNIT, STAR
            n = 0
        out.append(n)
    return out


def _concat_slices(a: dict, b: dict, ops: KeySort, bound: int) -> dict[int, set]:
    out: dict[int, set] = {}
    concat = ops.concat
    for na, xs in a.items():
        for nb, ys in b.items():
            if na + nb > bound:
                continue
            bucket = out.setdefault(na + nb, set())
            bucket.update(starmap(concat, product(xs, ys)))  # in C, in the order of a nested loop
    return out


def _merge(right: dict, out: dict) -> None:
    """Add the buckets of `right` to those of `out`."""
    for n, ws in right.items():
        if n in out:
            out[n] |= ws
        else:
            out[n] = ws


def _enum(e: Regex, ops: KeySort, bound: int) -> dict[int, set]:
    """The slice of `e` up to `bound` (at least 0).

    One loop pops visits (node, bound, stage) off a stack.  A first
    visit (stage 0) enters its node and then, in the same visit, the
    node's left operand and so on down to a leaf, pushing each node's
    later visit and the first visit of a sum's right operand; the leaf
    leaves its slice on `done`.  A later visit takes its operands'
    slices off `done` and leaves its node's.

    Where binding adds fewer tokens to some word than `BINDER_TOKENS`,
    which it adds to a word in which the name occurs (S, where it leaves
    another word as it is), a binder whose name occurs free in its body
    (`_scopes`) takes the body's slice in two parts: up to the bound
    less `BINDER_TOKENS`, to be bound, and
    the words without the name up to the bound, kept as they are; a
    binder whose name does not occur free in its body is its body.  A
    visit's last field is None, or, inside the second part, the names
    whose free atoms make no word there; no binder splits inside it, so
    a node is visited at most once more per binder around it.
    """
    shortest, done, todo = _shortest(e, ops), [], [(len(e) - 1, bound, 0, None)]
    bind_tokens = ops.bind_tokens
    binding = _scopes(e)[1] if bind_tokens < BINDER_TOKENS else None
    while todo:
        p, b, stage, x = todo.pop()
        kind, sym, i, j = e[p]
        if not stage:
            # a node whose lower bound is past the bound is not entered; a
            # product's left operand goes only as far as its right one
            # leaves room for, and a binder's body as far as binding does
            while i is not None and shortest[p] <= b:
                if kind is not BINDER:
                    todo.append((p, b, 1, x))
                    if kind is SUM:
                        todo.append((j, b, 0, x))
                    elif kind is CAT:
                        b -= shortest[j]
                elif binding is None:  # binding adds the same to every word
                    todo.append((p, b, 1, x))
                    b -= bind_tokens
                elif p not in binding:
                    pass  # the binder is its body: binding leaves every word as it is
                elif x is None and shortest[i] + BINDER_TOKENS <= b:
                    # the body in two parts: to be bound, and without the name
                    todo += ((p, b, 2, x), (i, b, 0, frozenset((sym,))))
                    b -= BINDER_TOKENS
                else:
                    todo.append((p, b, 1, x))
                    b -= bind_tokens
                    if x:  # the binder's own name may occur in its body
                        x = x - {sym}
                p = i
                kind, sym, i, j = e[p]
            if kind is ATOM:
                done.append({1: {ops.atom(sym)}} if b and (x is None or sym not in x) else {})
            else:  # the unit, the empty language, or a node not entered
                done.append({0: {ops.unit}} if kind is UNIT else {})
        elif kind is CAT:
            if stage == 1:
                # the right operand goes as far as the left slice leaves
                # room for; an empty left slice is the product's slice too
                if done[-1]:
                    todo += ((p, b, 2, x), (j, b - min(done[-1]), 0, x))
            else:
                right = done.pop()
                done.append(_concat_slices(done.pop(), right, ops, b))
        elif kind is SUM:
            _merge(done.pop(), done[-1])
        elif kind is BINDER:
            # the words of a split body's part without the name stay as they are
            kept = done.pop() if stage == 2 else {}
            out = {}
            bind, tok_len = ops.bind, ops.tok_len
            for ws in done.pop().values():
                for w in ws:
                    v = bind(sym, w)
                    n = tok_len(v)
                    if n <= b:
                        out.setdefault(n, set()).add(v)
            _merge(kept, out)
            done.append(out)
        else:  # STAR
            base = done.pop()
            base.pop(0, None)  # the unit, the one word of length 0, adds nothing
            acc = {n: set(ws) for n, ws in base.items()}
            acc[0] = {ops.unit}
            frontier = base
            while frontier:
                fresh = {}
                for n, ws in _concat_slices(frontier, base, ops, b).items():
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
            done.append(acc)
    return done[0]


def _drain(buckets: dict[int, set]):
    """Every value of the buckets, each once, removed from them as it is
    yielded: each set leaves the dict, and each key its set, so a key
    with binders is freed once its caller has decoded it.

    It stays a generator, a frame resume per key.  Popping each set in C
    instead, ``map(set.pop, ...)`` chained over the buckets, made the
    median crosscheck item 1.1 us (4%) slower, as its slices hold 1 to 7
    keys, and kept every emptied set to the end; sort_enum's `wall_s`
    fell 13.1% without it and 13.5% with it (10 pairs each; in-process,
    on a shared 2-vCPU x86-64 VM).
    """
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
    once, all under one collector pause.
    """
    ops = SORTS[sort] if isinstance(sort, str) else sort
    with collector_paused():
        words = map(ops.keyed.decode, _enumerate_keys(e, ops, bound))
        return LangSlice(frozenset(words))


def member(e: Regex, w, sort: str | SortOps = "M") -> bool:
    """Decide membership by enumerating keys up to the candidate's token
    length and looking its key up in the bucket of that length."""
    ops = SORTS[sort] if isinstance(sort, str) else sort
    keys = ops.keyed
    with collector_paused():
        key = ops.encode(w)
        n = keys.tok_len(key)
        return key in _enum(e, keys, n).get(n, ())
