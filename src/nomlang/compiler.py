"""Translation of regular expressions into stack automata.

The translation is structural: base automata for the unit, the empty
language, single names and single letters; a sum construction joining
two automata under a fresh initial state; concatenation linking the
(unique) final state of the first automaton to the initial state of
the second after extending the first with the second's initial locals;
iteration via a push transition re-establishing the initial name
bindings; and name binding via an allocating open transition and a
deallocating close transition.  Every construction takes its new
state ids and local names from one `FreshSupply`, which
`compile_regex` threads through the whole translation, so the operands
of a construction never share a state or a local name.

Two points deserve attention:

* `add_name` threads the new name through every transition with the
  identity, push transitions included.  `push_frame` resolves the
  pushed entry `x>x` to the meaning `x` has when the push fires, so
  the threaded value survives every iteration of a star.

* Binding a name whose initial map has several preimages (which
  arises as soon as the bound name occurs both directly in a
  concatenation and inside a nested binder) maps every preimage to the
  placeholder.  The resulting open transition is injective only in the
  relaxed sense (all collisions are at the placeholder), so the
  automaton is flagged accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .names import Name, STAR
from .hds import (
    BOTTOM,
    Hds,
    L_CLOSE,
    L_EPS,
    L_OPEN,
    L_PUSH,
    NameMap,
    Transition,
    lletter,
    lname,
)
from . import regex as rx


class CompileError(ValueError):
    pass


@dataclass
class FreshSupply:
    """Source of state ids and local names unused so far."""

    avoid: frozenset[Name] = frozenset()
    _state: int = 0
    _local: int = 0

    def state(self) -> str:
        s = f"q{self._state}"
        self._state += 1
        return s

    def local(self) -> Name:
        while True:
            n = Name(f"x{self._local}")
            self._local += 1
            if n not in self.avoid:
                return n


def _identity(names: Iterable[Name]) -> NameMap:
    return NameMap.of({x: x for x in names})


# ---------------------------------------------------------------------------
# Building blocks

def hds_one(supply: FreshSupply) -> Hds:
    q0, qf = supply.state(), supply.state()
    return Hds(
        states={q0: frozenset(), qf: frozenset()},
        initial=q0,
        eta={},
        finals=frozenset({qf}),
        trans={q0: (Transition(L_EPS, qf, BOTTOM),), qf: ()},
    )


def hds_zero(supply: FreshSupply) -> Hds:
    q0 = supply.state()
    return Hds(
        states={q0: frozenset()},
        initial=q0,
        eta={},
        finals=frozenset(),
        trans={q0: ()},
    )


def hds_name(n: Name, supply: FreshSupply) -> Hds:
    q0, qf = supply.state(), supply.state()
    x = supply.local()
    return Hds(
        states={q0: frozenset({x}), qf: frozenset()},
        initial=q0,
        eta={x: n},
        finals=frozenset({qf}),
        trans={q0: (Transition(lname(x), qf, BOTTOM),), qf: ()},
    )


def hds_letter(s, supply: FreshSupply) -> Hds:
    q0, qf = supply.state(), supply.state()
    return Hds(
        states={q0: frozenset(), qf: frozenset()},
        initial=q0,
        eta={},
        finals=frozenset({qf}),
        trans={q0: (Transition(lletter(s), qf, BOTTOM),), qf: ()},
    )


def hds_sum(h1: Hds, h2: Hds, supply: FreshSupply) -> Hds:
    """Union: fresh initial state with silent transitions into both operands."""
    q0 = supply.state()
    loc1 = h1.states[h1.initial]
    loc2 = h2.states[h2.initial]
    states = h1.states | h2.states | {q0: loc1 | loc2}
    trans = h1.trans | h2.trans
    trans[q0] = (
        Transition(L_EPS, h1.initial, _identity(loc1)),
        Transition(L_EPS, h2.initial, _identity(loc2)),
    )
    return Hds(
        states=states,
        initial=q0,
        eta=h1.eta | h2.eta,
        finals=h1.finals | h2.finals,
        trans=trans,
        relaxed_star=h1.relaxed_star or h2.relaxed_star,
    )


def unique_final(h: Hds, supply: FreshSupply) -> Hds:
    """Wrap with a fresh no-name final state (always, even if already unique)."""
    qf = supply.state()
    states = h.states | {qf: frozenset()}
    trans = h.trans.copy()
    for q in h.finals:
        trans[q] = trans.get(q, ()) + (Transition(L_EPS, qf, BOTTOM),)
    trans[qf] = ()
    return Hds(states, h.initial, h.eta.copy(), frozenset({qf}), trans, h.relaxed_star)


def add_name(h: Hds, x: Name) -> Hds:
    """Extend every state with local name `x`, threaded with the identity.

    `x` carries no initial meaning (the initial map stays undefined on
    it), so the language is unchanged.  In pushed frames the identity
    entry resolves to the name's current meaning, so a caller that
    later gives `x` an initial meaning keeps it across iterations.
    `x` must not be a local name of `h` yet.
    """
    if any(x in locs for locs in h.states.values()):
        raise ValueError(f"{x.label} is already a local name")
    states = {q: locs | {x} for q, locs in h.states.items()}
    trans: dict[str, tuple[Transition, ...]] = {}
    for q, ts in h.trans.items():
        new_ts = []
        for t in ts:
            sigma = t.sigma.as_dict()
            sigma[x] = x
            new_ts.append(Transition(t.label, t.target, NameMap.of(sigma)))
        trans[q] = tuple(new_ts)
    return Hds(states, h.initial, h.eta.copy(), h.finals, trans, h.relaxed_star)


def hds_concat(h1: Hds, h2: Hds, supply: FreshSupply) -> Hds:
    """Sequential composition: H1's final feeds H2's initial.

    H2's initial locals are first added throughout H1 so the linking
    silent transition can hand over their initial meanings.
    """
    if len(h1.finals) != 1:
        h1 = unique_final(h1, supply)
    (qf1,) = h1.finals
    loc2 = h2.states[h2.initial]
    for x in sorted(loc2):
        h1 = add_name(h1, x)
    states = h1.states | h2.states
    trans = h1.trans | h2.trans
    trans[qf1] = h1.trans[qf1] + (Transition(L_EPS, h2.initial, _identity(loc2)),)
    return Hds(
        states=states,
        initial=h1.initial,
        eta=h1.eta | h2.eta,
        finals=h2.finals,
        trans=trans,
        relaxed_star=h1.relaxed_star or h2.relaxed_star,
    )


def hds_star(h: Hds, supply: FreshSupply) -> Hds:
    """Iteration: silent skip for the empty word, push transition looping back.

    The pushed frame is the initial name map, so each iteration starts
    from the initial meanings while the previous frame is preserved
    below.
    """
    h = unique_final(h, supply)
    (qf,) = h.finals
    states = h.states.copy()
    trans = h.trans.copy()
    q0 = h.initial
    initial = q0
    # The empty-word skip must fire only before the body has started.
    # If the body can re-enter its initial state (an inner loop targets
    # it), hang the skip on a fresh state in front of it instead.
    if any(t.target == q0 for _, t in h.transitions()):
        initial = supply.state()
        loc0 = h.states[q0]
        states[initial] = loc0
        trans[initial] = (Transition(L_EPS, q0, _identity(loc0)),)
    trans[initial] = trans.get(initial, ()) + (Transition(L_EPS, qf, BOTTOM),)
    trans[qf] = (Transition(L_PUSH, q0, NameMap.of(h.eta)),)
    return Hds(states, initial, h.eta.copy(), h.finals, trans, h.relaxed_star)


def hds_bind(n: Name, h: Hds, supply: FreshSupply) -> Hds:
    """Name binding: allocate at open, recognize the body, deallocate at close.

    Every initial local denoting `n` is sent to the placeholder by the
    open transition, so it picks up the allocated name.  With several
    such locals the open map is injective only up to placeholder
    collisions and the automaton is flagged as relaxed.
    """
    h = unique_final(h, supply)
    (qf,) = h.finals
    loc0 = h.states[h.initial]
    bound = frozenset(x for x in loc0 if h.eta.get(x) is n)
    h = _repoint_stale_pushes(h, n, bound)
    q_open, q_close = supply.state(), supply.state()
    sigma = NameMap.of({x: (STAR if x in bound else x) for x in loc0})
    states = h.states | {q_open: loc0 - bound, q_close: frozenset()}
    trans = h.trans.copy()
    trans[q_open] = (Transition(L_OPEN, h.initial, sigma),)
    trans[qf] = trans[qf] + (Transition(L_CLOSE, q_close, BOTTOM),)
    trans[q_close] = ()
    eta = {x: v for x, v in h.eta.items() if x not in bound}
    return Hds(
        states=states,
        initial=q_open,
        eta=eta,
        finals=frozenset({q_close}),
        trans=trans,
        relaxed_star=h.relaxed_star or len(bound) > 1,
    )


def _repoint_stale_pushes(h: Hds, n: Name, bound: frozenset[Name]) -> Hds:
    """Prepare the body of a binder whose push frames mention the bound name.

    A pushed frame recording `n` verbatim would re-install the static
    name instead of the one allocated at the open transition.  The
    fix: thread the initial locals that denote `n` through every state,
    then replace `n` in pushed frames by such a local, which resolves
    to the allocated name at push time.
    """
    stale = any(
        t.label.kind == "push" and any(v is n for v in t.sigma.values())
        for _, t in h.transitions()
    )
    if not stale:
        return h
    if not bound:
        raise CompileError(
            f"push frame mentions {n.label} but no initial local denotes it"
        )
    states = {q: locs | bound for q, locs in h.states.items()}
    anchor = min(bound)
    trans: dict[str, tuple[Transition, ...]] = {}
    for q, ts in h.trans.items():
        new_ts = []
        for t in ts:
            sigma = t.sigma.as_dict()
            if t.label.kind == "push":
                sigma = {k: (anchor if v is n else v) for k, v in sigma.items()}
            for x in bound:
                sigma.setdefault(x, x)
            new_ts.append(Transition(t.label, t.target, NameMap.of(sigma)))
        trans[q] = tuple(new_ts)
    return Hds(states, h.initial, h.eta.copy(), h.finals, trans, h.relaxed_star)


# ---------------------------------------------------------------------------
# The compiler

def compile_regex(e: rx.Regex) -> Hds:
    """Translate an expression into an automaton recognizing its language."""
    return _compile(e, FreshSupply(avoid=rx.free_names(e)))


def _compile(e: rx.Regex, supply: FreshSupply) -> Hds:
    """Build the automaton of `e` from the states and locals `supply` hands out."""
    if isinstance(e, rx.One):
        return hds_one(supply)
    if isinstance(e, rx.Zero):
        return hds_zero(supply)
    if isinstance(e, rx.NameLit):
        return hds_name(e.name, supply)
    if isinstance(e, rx.LetterLit):
        return hds_letter(e.letter, supply)
    if isinstance(e, rx.Sum):
        return hds_sum(_compile(e.left, supply), _compile(e.right, supply), supply)
    if isinstance(e, rx.Cat):
        return hds_concat(_compile(e.left, supply), _compile(e.right, supply), supply)
    if isinstance(e, rx.Star):
        return hds_star(_compile(e.body, supply), supply)
    if isinstance(e, rx.Binder):
        return hds_bind(e.name, _compile(e.body, supply), supply)
    raise CompileError(f"unknown expression node {type(e).__name__}")
