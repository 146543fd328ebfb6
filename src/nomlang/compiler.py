"""Translation of regular expressions into stack automata.

The translation is structural: a base automaton for the empty
language, and one base case for the unit and an atom, a single move
that reads nothing, the atom's letter, or a local whose initial meaning
is the atom's name; a sum construction giving the entry of the first
automaton a silent move into the initial state of the second;
concatenation linking every final state of the first automaton to the
initial state of the second after extending the first with the
second's initial locals; iteration via a push transition from one
fresh final state, re-establishing the initial name bindings; and name
binding via an allocating open transition and a deallocating close
transition from every final state of the body.  A sum or a
concatenation makes no state, and a binder makes only its open state
and its close state, no joining state; the entry of an automaton is
its initial state, or a fresh state in front of it when a transition
re-enters it (`_Build._entry`).
Every construction takes its new state ids and local names from the
one `_Build` of the compile, so the operands of a construction never
share a state or a local name.

One compile builds one automaton.  `compile_regex` fills one `_Build`:
two mutable tables holding the local names of each state (a set) and
the transitions out of each state, in order, as (label, target, sigma
dict) triples.  A label is what the move reads: the local of a name
move, the letter of a letter move, or one of the `hds.MOVES`.  A
construction works on fragments (`_Frag`: a state list, initial state,
finals and initial meanings) and edits the tables in place; the
`NameMap`s, `Transition`s and the one `Hds` are made at the end.  So
threading a local through an operand costs one dict insert per
transition, the size of what it adds to the output, and no
construction copies the automaton built so far.  `_Build.compile` walks
the expression's post-order array with an explicit stack, so any
nesting compiles.

Three points deserve attention:

* Locals skip the expression's free names and, from the moment a
  binder's body is compiled, the binder's name.  So inside a binder no
  local is its bound name, a pushed frame's global name is never taken
  for a threaded local, and every expression compiles; a node of no
  expression kind raises `TypeError`.

* Concatenation threads each initial local `x` of its right operand
  through every state and transition of its left operand with the
  identity `x>x`, push transitions included.  `push_frame` resolves
  the pushed entry `x>x` to the meaning `x` has when the push fires, so
  the threaded value survives every iteration of a star.

* Binding a name whose initial map has several preimages (which
  arises as soon as the bound name occurs both directly in a
  concatenation and inside a nested binder) maps every preimage to the
  placeholder.  The resulting open map is injective up to repeats of
  the placeholder, which `NameMap.is_injective` allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .names import Name, STAR
from .hds import CLOSE, EPS, OPEN, PUSH, Hds, NameMap, Transition
from . import regex as rx


def _identity(names: Iterable[Name]) -> dict:
    return {x: x for x in names}


# ---------------------------------------------------------------------------
# The compiler

def compile_regex(e: rx.Regex) -> Hds:
    """Translate an expression into an automaton recognizing its language."""
    build = _Build(rx.free_names(e))
    return build.hds(build.compile(e))


@dataclass
class _Frag:
    """A part of the automaton under construction.  `states` lists its
    states in the order the automaton lists them; no other fragment
    holds any of them.  A transition of a fragment targets one of its
    states, so `reentered`, `pushes` and `pushed` follow from the
    constructions and no construction scans its operand for them."""

    states: list[str]
    initial: str
    finals: set[str]
    eta: dict[Name, Name]  # initial meaning of the initial state's locals
    reentered: bool = False  # some transition targets `initial`; `_entry` clears it
    pushes: list[dict] = field(default_factory=list)  # the sigma of each push
    pushed: set[Name] = field(default_factory=set)  # the global names they hold


class _Build:
    """The tables of one compile, and the constructions that edit them.

    The tables name the states: the n-th state made is ``q{n}``.  Local
    names are ``x0``, ``x1``, ... in the order they are made, skipping
    the free names of the expression and the names of the binders met
    so far.  A construction takes its operands' fragments over, edits
    them and the tables in place, and returns the fragment of its
    result.
    """

    def __init__(self, avoid: frozenset[Name]):
        self.avoid = set(avoid)  # the expression's free names, then binder names
        self.next_local = 0
        self.locals: dict[str, set[Name]] = {}
        self.trans: dict[str, list[tuple]] = {}  # (label, target, sigma dict)

    def state(self, locs: Iterable[Name] = ()) -> str:
        q = f"q{len(self.locals)}"
        self.locals[q] = set(locs)
        self.trans[q] = []
        return q

    def local(self) -> Name:
        while True:
            n = Name(f"x{self.next_local}")
            self.next_local += 1
            if n not in self.avoid:
                return n

    def hds(self, f: _Frag) -> Hds:
        return Hds(
            states={q: frozenset(self.locals[q]) for q in f.states},
            initial=f.initial,
            eta=f.eta,
            finals=f.finals,
            trans={
                q: tuple([Transition(label, target, NameMap.of(sigma))
                          for label, target, sigma in self.trans[q]])
                for q in f.states
            },
        )

    def compile(self, e: rx.Regex) -> _Frag:
        """Build the fragment of `e` from new states and locals.

        One loop pops visits off a stack: a node with operands is entered,
        then its operands are built, left first, then it is left, and
        `frags` holds the fragments built and not yet taken over.  So
        states are made in the order of the array, and a binder's name
        joins `avoid` on entry, before its body's atoms take locals.
        """
        frags, todo = [], [(len(e) - 1, False)]  # todo holds visits (node, entered)
        while todo:
            p, entered = todo.pop()
            kind, sym, i, j = e[p]
            if not entered and i is not None:
                if kind is rx.BINDER:
                    self.avoid.add(sym)  # no local of the body is taken for its name
                todo.append((p, True))
                todo += ((i, False),) if j is None else ((j, False), (i, False))
            elif kind is rx.EMPTY:
                q0 = self.state()
                frags.append(_Frag([q0], q0, set(), {}))
            elif kind is rx.UNIT or kind is rx.ATOM:
                q0, qf = self.state(), self.state()
                eta = {}
                label = EPS if kind is rx.UNIT else sym  # a letter is its own label
                if type(label) is Name:  # a name is read through a local that means it
                    label = self.local()
                    self.locals[q0].add(label)
                    eta[label] = sym
                self.trans[q0].append((label, qf, {}))
                frags.append(_Frag([q0, qf], q0, {qf}, eta))
            elif kind is rx.SUM or kind is rx.CAT:
                f2 = frags.pop()
                frags.append((self.sum if kind is rx.SUM else self.concat)(frags.pop(), f2))
            elif kind is rx.STAR or kind is rx.BINDER:
                f = frags.pop()
                frags.append(self.star(f) if kind is rx.STAR else self.bind(sym, f))
            else:
                raise TypeError(f"unknown expression node {kind!r}")
        return frags[0]

    def _join(self, f1: _Frag, f2: _Frag) -> _Frag:
        """`f1` with the states, initial meanings and pushes of `f2` joined in."""
        f1.states += f2.states
        f1.eta |= f2.eta
        f1.pushes += f2.pushes
        f1.pushed |= f2.pushed
        return f1

    def _thread(self, f: _Frag, names: set[Name]) -> None:
        """Add `names` to every state of `f` and `x>x` to every sigma not yet defined on `x`."""
        for q in f.states:
            self.locals[q] |= names
            for _, _, sigma in self.trans[q]:
                for x in names:
                    sigma.setdefault(x, x)

    def _entry(self, f: _Frag) -> str:
        """The initial state of `f`, made one that no transition enters.

        If a transition of `f` re-enters its initial state, a fresh state
        with the same locals goes in front of it, with one silent move into
        it under the identity, and becomes the initial state.  A move added
        to the entry then fires only before `f` has started.
        """
        if f.reentered:
            q0, loc0 = f.initial, self.locals[f.initial]
            f.initial = self.state(loc0)
            self.trans[f.initial].append((EPS, q0, _identity(loc0)))
            f.states.append(f.initial)
            f.reentered = False
        return f.initial

    def sum(self, f1: _Frag, f2: _Frag) -> _Frag:
        """Union: the entry of F1 also moves silently into F2's initial state.

        The entry takes over F2's initial locals, and its move into F2 comes
        after F1's own moves, so a run tries F1 first.  No transition enters
        the entry and no initial state is final, so a run leaves the entry
        once, into F1 or into F2, and the sum makes no state of its own.
        """
        q0, loc2 = self._entry(f1), self.locals[f2.initial]
        self.locals[q0] |= loc2
        self.trans[q0].append((EPS, f2.initial, _identity(loc2)))
        f = self._join(f1, f2)
        f.finals |= f2.finals
        return f

    def concat(self, f1: _Frag, f2: _Frag) -> _Frag:
        """Sequential composition: every final state of F1 feeds F2's initial.

        F2's initial locals are first threaded through F1 so the linking
        silent transitions can hand over their initial meanings.  An F1
        with no final state (the empty language) gets no link.
        """
        loc2 = self.locals[f2.initial]
        if loc2:
            self._thread(f1, loc2)
        for qf1 in f1.finals:
            self.trans[qf1].append((EPS, f2.initial, _identity(loc2)))
        f = self._join(f1, f2)
        f.finals = f2.finals
        return f

    def star(self, f: _Frag) -> _Frag:
        """Iteration: silent skip for the empty word, push transition looping back.

        Every final state of F moves silently into one fresh no-name final
        state, the source of the push and the star's only final state: a
        star that kept F's final states would add them to every star around
        it, one more final per level of nesting.  The skip leaves the entry
        (`_entry`), so it fires only before the body has started.  The
        pushed frame is the initial name map, so each iteration starts from
        the initial meanings while the previous frame is preserved below.
        """
        qf = self.state()
        for q in f.finals:
            self.trans[q].append((EPS, qf, {}))
        f.states.append(qf)
        f.finals = {qf}
        q0 = f.initial
        self.trans[self._entry(f)].append((EPS, qf, {}))
        push = dict(f.eta)
        self.trans[qf].append((PUSH, q0, push))
        f.pushes.append(push)
        f.pushed.update(push.values())
        # the push re-enters q0, which is still initial unless `_entry`
        # put a fresh state in front of it
        f.reentered = f.initial == q0
        return f

    def bind(self, n: Name, f: _Frag) -> _Frag:
        """Name binding: allocate at open, recognize the body, deallocate at close.

        Every initial local denoting `n`, one or several, is sent to the
        placeholder by the open transition, so each picks up the allocated
        name.  Every final state of F closes into the binder's one final
        state, so a binder adds its open state and its close state and no
        other.
        """
        loc0 = frozenset(self.locals[f.initial])
        bound = {x for x in loc0 if f.eta.get(x) is n}
        self._repoint_stale_pushes(f, n, bound)
        q_open, q_close = self.state(loc0 - bound), self.state()
        sigma = {x: (STAR if x in bound else x) for x in loc0}
        self.trans[q_open].append((OPEN, f.initial, sigma))
        for qf in f.finals:
            self.trans[qf].append((CLOSE, q_close, {}))
        f.states += (q_open, q_close)
        f.initial = q_open
        f.reentered = False
        f.finals = {q_close}
        f.eta = {x: v for x, v in f.eta.items() if x not in bound}
        return f

    def _repoint_stale_pushes(self, f: _Frag, n: Name, bound: set[Name]) -> None:
        """Prepare the body of a binder whose push frames mention the bound name.

        A pushed frame recording `n` verbatim would re-install the static
        name instead of the one allocated at the open transition.  The
        fix: thread the initial locals that denote `n` through every state,
        then replace `n` in pushed frames by such a local, which resolves
        to the allocated name at push time.

        No local of the body is `n` itself (`compile` keeps binder names
        from the locals), so `f.pushed`, the global names of the push
        frames, holds `n` exactly when a frame records the bound name.
        A push's frame is its star body's initial meanings, which stay
        initial meanings of every fragment built around it until a
        binder of their name, so `bound` is not empty then.
        """
        if n not in f.pushed:
            return
        anchor = min(bound)
        for sigma in f.pushes:
            for k, v in sigma.items():
                if v is n:
                    sigma[k] = anchor
        f.pushed.discard(n)
        self._thread(f, bound)
