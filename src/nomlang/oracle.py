"""Independent brute-force cross-checks.

Everything here is deliberately naive: a rewriting-closure decision
procedure for alpha-equivalence, exhaustive balanced-stream
enumeration for automaton languages, an automaton run that keeps every
stack frame, random word/expression generators, and a slice-equivalence
checker.  The naive procedures serve as oracles for the optimized
implementations elsewhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional

from .names import Letter, Name, fresh_name
from .words import (
    MWord,
    TCLOSE,
    TClose,
    TOpen,
    alpha_canonical,
    collector_paused,
    from_key,
    parse_tokens,
    support,
)
from .monoids import SORTS, SortOps
from . import regex as rx
from .regex import enumerate_slice  # unused, as is language_slice; perfbench's tracer patches them
from .syntax import render_regex, render_word
from .hds import (
    ACCEPT, CUTOFF, END, PUSH, REJECT, Hds, NameMap, RunResult, _language_keys,
    accepts_word, language_slice, step,
)


# ---------------------------------------------------------------------------
# Alpha-equivalence by rewriting closure

def _binder_renamings(w: MWord, pool: frozenset[Name]) -> Iterable[MWord]:
    """All words obtained by one capture-avoiding renaming of one binder."""
    toks = w.tokens
    for i, t in enumerate(toks):
        if type(t) is not TOpen:
            continue
        depth, j = 1, i
        while depth:  # j goes to the binder's close
            j += 1
            depth += (type(toks[j]) is TOpen) - (type(toks[j]) is TClose)
        body = toks[i + 1:j]
        free = support(MWord(body))
        for m in pool:
            if m is not t.name and m not in free:
                renamed = _swap_free(body, t.name, m)
                if renamed is not None:
                    yield MWord(toks[:i] + (TOpen(m),) + renamed + toks[j:])


def _swap_free(body: tuple, old: Name, new: Name) -> Optional[tuple]:
    """The row with its free `old` renamed to `new`; None if a binder of `new` captures one."""
    out = []
    binders: list[Name] = []
    for t in body:
        if type(t) is TOpen:
            binders.append(t.name)
        elif type(t) is TClose:
            binders.pop()
        elif t is old and old not in binders:
            if new in binders:
                return None
            t = new
        out.append(t)
    return tuple(out)


def alpha_oracle(w: MWord, v: MWord, pool: frozenset[Name]) -> bool:
    """Decide alpha-equivalence by exhausting single binder renamings.

    `pool` must contain enough names to connect the two words, i.e. the
    names of both plus at least as many spares as either has binders.
    """
    seen = {w}
    frontier = [w]
    while frontier:
        cur = frontier.pop()
        if cur == v:
            return True
        for nxt in _binder_renamings(cur, pool):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return v in seen


# ---------------------------------------------------------------------------
# Brute-force automaton language

def balanced_streams(length: int, pool: frozenset[Name], letters: frozenset[Letter]):
    """All balanced token streams of exactly the given length."""
    atom_toks = sorted(pool) + sorted(letters)
    open_toks = [TOpen(n) for n in sorted(pool)]

    def go(remaining: int, depth: int):
        if remaining == 0:
            if depth == 0:
                yield ()
            return
        for t in atom_toks:
            for rest in go(remaining - 1, depth):
                yield (t,) + rest
        if remaining >= 2 + depth:
            for t in open_toks:
                for rest in go(remaining - 1, depth + 1):
                    yield (t,) + rest
        if depth > 0:
            for rest in go(remaining - 1, depth - 1):
                yield (TCLOSE,) + rest

    yield from go(length, 0)


def brute_slice(h: Hds, bound: int, pool: frozenset[Name]) -> frozenset[MWord]:
    """Accepted words up to the bound, by checking every balanced stream.

    Every stream over the pool and the automaton's letters (a letter no
    transition reads occurs in no accepted word) is parsed to a candidate
    word, and membership is decided by `accepts_word`, once per word,
    since acceptance of a raw stream may depend on which representative
    of the word it spells.  It names the binders apart from the
    automaton's constants (`hds.word_stream`), so an open allocates a
    name fresh for the whole configuration, constants included: on an
    automaton that pushes ``~0`` and reads it inside a binder,
    ``<#~0. #~0 >`` is not listed.
    The pool must be large enough to spell every candidate (at least
    the automaton's free names plus the maximal number of simultaneously
    visible distinct names).  Exponential in the bound; use only at tiny
    sizes as an oracle for `language_slice`.
    """
    letters = h.letters()
    out: set[MWord] = set()
    rejected: set[MWord] = set()
    for length in range(bound + 1):
        for stream in balanced_streams(length, pool, letters):
            w = alpha_canonical(parse_tokens(stream))
            if w in out or w in rejected:
                continue
            if accepts_word(h, w):
                out.add(w)
            else:
                rejected.add(w)
    return frozenset(out)


def naive_run(h: Hds, tokens: tuple, max_depth: Optional[int] = None) -> RunResult:
    """`hds.run` as a depth-first search that drops no frame and renames
    no binder: the referee of its truncation and its renaming.

    The stack starts as the initial name map, and every frame is kept.
    A push transition fires at most once between two consumed tokens,
    which ends non-consuming push loops but may lose runs that push
    twice in a row; stacks deeper than `max_depth` (default: input
    length + state count + 1) are cut, and where a cut was made and no
    run accepts, the outcome is CUTOFF.
    """
    if max_depth is None:
        max_depth = len(tokens) + len(h.states) + 1
    start = ((h.initial, 0, (NameMap.of(h.eta),)), frozenset())
    seen, frontier, cut = {start}, [start], False
    while frontier:
        (state, pos, stk), gap = frontier.pop()  # gap: the pushes since a consume
        if pos == len(tokens) and state in h.finals:
            return RunResult(ACCEPT)
        for t, tok_read, stk2 in step(h, state, stk, tokens[pos] if pos < len(tokens) else END):
            push = t.label is PUSH
            if push and t in gap:
                continue
            if len(stk2) > max_depth:
                cut = True
                continue
            gap2 = frozenset() if tok_read is not None else gap | {t} if push else gap
            node = ((t.target, pos + (tok_read is not None), stk2), gap2)
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return RunResult(CUTOFF if cut else REJECT)


def trace_follows_step(h: Hds, tokens: tuple, trace: list) -> bool:
    """Whether a trace of `hds.run` is a run of `step` on `tokens`: it
    starts at the initial state, each traced move is a `step` successor
    of the one before, and it ends in a final state past the last token."""
    (state, pos, _), t = trace[0]
    if (state, pos, t) != (h.initial, 0, None):
        return False
    for ((state, pos, stk), _), (after, t) in zip(trace, trace[1:]):
        tok = tokens[pos] if pos < len(tokens) else END
        if after not in [(u.target, pos + (read is not None), stk2)
                         for u, read, stk2 in step(h, state, stk, tok) if u is t]:
            return False
    state, pos, _ = trace[-1][0]
    return state in h.finals and pos == len(tokens)


def near_misses(tokens: tuple, names: tuple[Name, ...]) -> list[tuple]:
    """The streams one token away from `tokens`, position by position.

    At each position: a close inserted, an open of ``names[0]`` inserted,
    the token deleted and, for a name, the name swapped (``names[1]``
    for ``names[0]``, ``names[0]`` for any other).  Most are unbalanced:
    an inserted close reads a frame no close of `tokens` reads, and an
    inserted open leaves a frame no close removes, which is where a
    search that drops frames by the opens and closes ahead can go wrong.
    """
    out = []
    for i in range(len(tokens) + 1):
        head, rest = tokens[:i], tokens[i:]
        out.append(head + (TCLOSE,) + rest)
        out.append(head + (TOpen(names[0]),) + rest)
        if rest:
            out.append(head + rest[1:])
            if isinstance(rest[0], Name):
                swap = names[1] if rest[0] is names[0] else names[0]
                out.append(head + (swap,) + rest[1:])
    return out


# ---------------------------------------------------------------------------
# Random generators

def random_mword(
    rng: random.Random,
    pool: list[Name],
    letters: list[Letter],
    size: int,
) -> MWord:
    """A random word of at most `size` atoms and binders, drawn top-down."""
    out = []
    todo: list = [size]  # sizes of the subwords still to draw, and closes
    while todo:
        s = todo.pop()
        if s is TCLOSE:
            out.append(TCLOSE)
            continue
        if s <= 0:
            continue
        roll = rng.random()
        if s == 1 or roll < 0.45:
            if letters and rng.random() < 0.4:
                out.append(rng.choice(letters))
            else:
                out.append(rng.choice(pool))
        elif roll < 0.7:
            k = rng.randint(1, s - 1)
            todo += [s - k, k]
        else:
            out.append(TOpen(rng.choice(pool)))
            todo += [TCLOSE, s - 1]
    return MWord(tuple(out))


def renamed(tokens: tuple, new) -> tuple:
    """The stream with its i-th binder, and the occurrences that binder
    binds, named `new(i, old name)`; free occurrences are kept, so the new
    name may capture them."""
    out, binders = [], []  # (old name, new name) of the binders open, innermost last
    opens = 0
    for t in tokens:
        if type(t) is TOpen:
            nm = new(opens, t.name)
            opens += 1
            binders.append((t.name, nm))
            t = TOpen(nm)
        elif t is TCLOSE:
            binders.pop()
        elif type(t) is Name:
            t = next((nm for old, nm in reversed(binders) if old is t), t)
        out.append(t)
    return tuple(out)


def fresh_binder_variant(w: MWord) -> MWord:
    """The same word with every binder renamed to a globally fresh name.

    Useful for checking that acceptance does not depend on which
    representative of an alpha-class spells the input.
    """
    return MWord(renamed(w.tokens, lambda i, old: fresh_name("f")))


def random_regex(
    rng: random.Random,
    pool: list[Name],
    letters: list[Letter],
    depth: int,
) -> rx.Regex:
    if depth == 0:
        return rng.choice([rx.ONE, rx.ZERO] + [rx.Atom(s) for s in (*pool, *letters)])
    roll = rng.random()
    if roll < 0.15:
        return random_regex(rng, pool, letters, 0)
    sub = partial(random_regex, rng, pool, letters, depth - 1)  # operands are drawn left first
    if roll < 0.40:
        return rx.Sum(sub(), sub())
    if roll < 0.65:
        return rx.Cat(sub(), sub())
    if roll < 0.85:
        return rx.Binder(rng.choice(pool), sub())
    return rx.Star(sub())


# ---------------------------------------------------------------------------
# Axiom instances

@dataclass(frozen=True)
class AxiomInstance:
    axiom: str
    lhs: object
    rhs: object

    def holds(self, ops: SortOps) -> bool:
        return ops.canon(self.lhs) == ops.canon(self.rhs)


def _build(ops: SortOps, rng, pool, letters, size, avoid=frozenset()):
    """A random word of the sort, built from its own constructors."""
    usable = [n for n in pool if n not in avoid]
    w = ops.unit
    for _ in range(size):
        roll = rng.random()
        if roll < 0.45 and usable:
            w = ops.concat(w, ops.atom(rng.choice(usable)))
        elif roll < 0.7 and letters:
            w = ops.concat(w, ops.atom(rng.choice(letters)))
        elif usable:
            w = ops.bind(rng.choice(usable), w)
    return w


def gen_axiom_instances(
    axiom: str,
    sort: str,
    count: int,
    pool: list[Name],
    letters: list[Letter],
    rng: random.Random,
) -> list[AxiomInstance]:
    """Random instances of one of the six binder/concatenation laws.

    Premises (freshness side conditions) are satisfied by construction:
    the word metavariables are built over names excluding the ones the
    premise requires them to avoid.
    """
    ops = SORTS[sort]
    out = []
    for _ in range(count):
        n, m = rng.sample(pool, 2)
        size = rng.randint(0, 4)
        if axiom == "Ax1":  # n#Y |- [n]X . Y = [n](X . Y)
            x = _build(ops, rng, pool, letters, size)
            y = _build(ops, rng, pool, letters, size, avoid={n})
            out.append(AxiomInstance(axiom, ops.concat(ops.bind(n, x), y),
                                     ops.bind(n, ops.concat(x, y))))
        elif axiom == "Ax2":  # |- s.[m]Y = [m](s.Y)
            s = ops.atom(rng.choice(letters))
            y = _build(ops, rng, pool, letters, size)
            out.append(AxiomInstance(axiom, ops.concat(s, ops.bind(m, y)),
                                     ops.bind(m, ops.concat(s, y))))
        elif axiom == "Ax3":  # n#m |- n.[m]Y = [m](n.Y)
            y = _build(ops, rng, pool, letters, size)
            out.append(AxiomInstance(axiom,
                                     ops.concat(ops.atom(n), ops.bind(m, y)),
                                     ops.bind(m, ops.concat(ops.atom(n), y))))
        elif axiom == "Ax4":  # |- [n][m]X = [m][n]X
            x = _build(ops, rng, pool, letters, size)
            out.append(AxiomInstance(axiom, ops.bind(n, ops.bind(m, x)),
                                     ops.bind(m, ops.bind(n, x))))
        elif axiom == "Ax5":  # n#X |- [n]X = X
            x = _build(ops, rng, pool, letters, size, avoid={n})
            out.append(AxiomInstance(axiom, ops.bind(n, x), x))
        elif axiom == "Ax6":  # n#X |- X.[n]Y = [n](X . Y)
            x = _build(ops, rng, pool, letters, size, avoid={n})
            y = _build(ops, rng, pool, letters, size)
            out.append(AxiomInstance(axiom, ops.concat(x, ops.bind(n, y)),
                                     ops.bind(n, ops.concat(x, y))))
        else:
            raise ValueError(f"unknown axiom {axiom!r}")
    return out


# ---------------------------------------------------------------------------
# Slice equivalence

@dataclass
class EquivalenceReport:
    """The verdict of `check_equivalence`; `lines` renders it, with the
    expression and at most ten words of each difference."""

    expression: rx.Regex
    bound: int
    passed: bool
    common: int
    only_regex: list = field(default_factory=list)
    only_automaton: list = field(default_factory=list)
    seconds: float = 0.0

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [
            f"{status} {render_regex(self.expression)} (bound {self.bound}, "
            f"{self.common} words, {self.seconds:.2f}s)"
        ]
        for w in self.only_regex[:10]:
            out.append(f"  only in expression language: {render_word(w)}")
        for w in self.only_automaton[:10]:
            out.append(f"  only in automaton language: {render_word(w)}")
        return out


def check_equivalence(e: rx.Regex, h: Hds, bound: int) -> EquivalenceReport:
    """Compare the expression's and the automaton's languages up to a bound,
    as sets of M keys; only the differences are decoded, and the
    expression is rendered only by the report's `lines`."""
    t0 = time.monotonic()
    # the collector made checks of the star expressions at bound 9 take
    # 1.7 to 2.5 times as long (`collector_paused`)
    with collector_paused():
        k1 = frozenset(rx._enumerate_keys(e, SORTS["M"], bound))
        k2 = frozenset(_language_keys(h, bound))
    only_regex, only_automaton = k1 - k2, k2 - k1
    return EquivalenceReport(
        expression=e,
        bound=bound,
        passed=not only_regex and not only_automaton,
        common=len(k1) - len(only_regex),
        only_regex=sorted(map(from_key, only_regex), key=repr),
        only_automaton=sorted(map(from_key, only_automaton), key=repr),
        seconds=time.monotonic() - t0,
    )
