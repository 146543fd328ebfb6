"""History-dependent automata with a stack of name maps.

States carry finite sets of local names.  A transition relabels the
target's local names through a partial injective map into the source's
locals and may consume a name or letter token, stay silent, push or pop
a stack frame, or allocate/deallocate a bound name at the matching
open/close tokens of the input stream.

`step` is the one definition of the moves: what each of the seven move
kinds reads and what it does to the stack.  Both searches are subset
constructions, and both take a configuration set's successors from
`_closure`, built on `step`: it closes the set under the moves that
read nothing, groups the moves that read a token by that token, and
after each move applies one rule -- keep the frames a close can still
read, cap the stack depth, and kill the name of a binder just closed.
`run` holds, at each input position, the set of configurations the
moves reading the tokens so far lead to, and a memo maps (set, token,
frames kept) to the next set.  `language_slice` walks the tree of
emitted prefixes one length at a time: each prefix holds the set of
configurations that generate it, and the prefixes of one length are
grouped by node -- that set, the open depth and the tokens left -- so
each node's closure and token successors are computed once.  The walk
emits keys (`words.alpha_key`), not tokens, so no word is parsed or
canonicalized, and each accepted word is decoded once.

Both searches name binders one way, after their open depth.  A binder
opened at depth d takes the level name of d, which no input name and
no constant equals, and when it closes that name becomes `DEAD` in
every frame; `DEAD` is not a `Name`, so no name move reads or emits it.
As in history-dependent automata, the allocated name is then fresh for
the whole configuration: the level names of the open binders are below
d, and every other level name is dead.  `language_slice` allocates
these names at its opens.  `run` renames every private binder of its
input -- one whose name is no constant, is opened once and occurs only
inside its scope -- to them before it searches.  A run commutes with
every renaming that fixes the automaton's constants (eta values and
push-sigma values), and a name the rest of the input never holds can be
forgotten, so the renaming changes no verdict.  `word_stream`, on which
`accepts_word` and the CLI decide a word, names every binder apart from
the other binders, the free names and the constants, so every binder
of a word is private; renamed, its blocks of the same shape meet the
same sets, and the memo decides every block after the first.

In an automaton without pop transitions (every compiled one) only a
close move reads below the top of the stack, and it reads one frame
down; an open or a push adds a frame, and only a close removes one.
So if, over any stretch of the tokens still to come, closes outnumber
opens by at most c, the frames at index c + 1 and deeper are never
read: both searches drop them, which changes no verdict and no slice.
`run` computes c from its input; in `language_slice` c is the open
depth, since a word ends with no binder open.  The kept stacks are
then drawn from a finite set at each input position, so non-consuming
push loops end where they reach a stack already seen, and both searches
are exhaustive.  Only with pop transitions can stacks grow without
bound; there the stack depth is capped (input length + state count +
1), and where the cap cut a branch `run` says CUTOFF and
`language_slice` raises `Undecided`.  Name maps are hash-consed, so the
stacks the searches memoize hash and compare by identity, and a move
that leaves the top frame as it is keeps the stack itself.

Each automaton carries one search state, built at its first search
(`_search_state`): its constants, the letters it reads, whether it
pops, `steps_to_final`, `run`'s memo, the slice walk's node graph, and
one table of the configuration sets the two searches keep.  It is
built again when any field the searches read has changed, and it dies
with the automaton.  The memo is shared across calls only where the
depth cap cannot cut, in a pop-free automaton with `max_depth` at least
the frames the call keeps; then a set of words on one automaton decides
each (set, token, frames) step once.  Elsewhere a call takes a memo of
its own.  In a shared search a name token that is no constant and that
no open of the stream binds rejects at once, with no memo entry, since
no frame can hold it; so does a letter no transition reads, and fresh
free names never grow the memo.  `language_slice` keeps its node graph
there unless the automaton pops: a pop-free walk cannot reach the cap,
so a node's successors depend on the node alone, and a slice at any
bound reuses every node an earlier slice expanded.  A pop automaton's
walk keeps a graph of its own per call.
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import chain
from dataclasses import dataclass, field
from types import NoneType
from typing import Iterable, Optional

from .names import Letter, Name, STAR
from .words import (
    KEY_CLOSE, KEY_OPEN, MWord, TClose, TCLOSE, TOpen, Tok, alpha_key, from_key,
)
from .words import alpha_canonical, parse_tokens  # unused; perfbench's tracer patches them here


class NameMap:
    """A finite partial map from names to names-or-star.

    Name maps are hash-consed: one object per `entries` tuple, so
    equality and hashing are identity and a stack of maps hashes in C.
    The table holds its maps weakly, so the frames a search makes are
    freed when the search ends.
    """

    __slots__ = ("entries", "key_row", "identity", "__weakref__")

    _table: "weakref.WeakValueDictionary[tuple, NameMap]" = weakref.WeakValueDictionary()

    def __new__(cls, entries: tuple[tuple[Name, object], ...]) -> "NameMap":
        # entries are sorted by key, as `of` builds them
        m = cls._table.get(entries)
        if m is None:
            m = object.__new__(cls)
            object.__setattr__(m, "entries", entries)
            # computed once per map, so `stack_update` can spot a move that
            # leaves the top frame as it is
            object.__setattr__(m, "key_row", tuple([k for k, _ in entries]))
            object.__setattr__(m, "identity", all(k is v for k, v in entries))
            cls._table[entries] = m
        return m

    def __setattr__(self, key, value):
        raise AttributeError("NameMap is immutable")

    @classmethod
    def of(cls, mapping: dict | None = None) -> "NameMap":
        m = dict(mapping or {})
        return cls(tuple(sorted(m.items(), key=lambda kv: kv[0])))

    def get(self, n: Name, default=None):
        for k, v in self.entries:
            if k is n:
                return v
        return default

    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def domain(self) -> frozenset[Name]:
        return frozenset(self.key_row)

    def values(self):
        return [v for _, v in self.entries]

    def is_injective(self, relaxed_star: bool = False) -> bool:
        seen_names = set()
        star_preimages = 0
        for _, v in self.entries:
            if v is STAR:
                star_preimages += 1
            else:
                if v in seen_names:
                    return False
                seen_names.add(v)
        return relaxed_star or star_preimages <= 1

    def __repr__(self):
        if not self.entries:
            return "_|_"
        return ",".join(
            f"{k.label}>{'*' if v is STAR else v.label}" for k, v in self.entries
        )


BOTTOM = NameMap(())

Stack = tuple  # of NameMap, index 0 is the top


def top(stack: Stack) -> NameMap:
    return stack[0] if stack else BOTTOM


def pop(stack: Stack) -> Stack:
    return stack[1:] if stack else ()


def compose(sigma: NameMap, f: dict) -> NameMap:
    """The map x -> f(sigma(x)), defined where both legs are."""
    # a subsequence of sigma's sorted entries is sorted: no need to sort again
    return NameMap(tuple([(k, f[v]) for k, v in sigma.entries if v in f]))


def stack_update(stack: Stack, sigma: NameMap) -> Stack:
    """Replace the top frame by sigma post-composed with it (star kept fixed)."""
    if not stack:
        return (sigma,)
    if sigma.identity and sigma.key_row == stack[0].key_row:
        return stack
    if not sigma.entries:
        return (BOTTOM,) + stack[1:]
    f = dict(stack[0].entries)
    f[STAR] = STAR
    return (compose(sigma, f),) + stack[1:]


def push_frame(sigma: NameMap, top_frame: NameMap) -> NameMap:
    """The frame a push transition installs.

    A pushed value that is currently bound in the top frame (a local of
    the source state) stands for its current meaning and is resolved;
    any other value is a global name and is pushed as such.
    """
    f = top_frame.as_dict()
    return NameMap(tuple([(k, f.get(v, v)) for k, v in sigma.entries]))


# ---------------------------------------------------------------------------
# Labels and transitions

@dataclass(frozen=True)
class Label:
    kind: str  # "name" | "letter" | "eps" | "push" | "pop" | "open" | "close"
    name: Optional[Name] = None
    letter: Optional[Letter] = None

    def __repr__(self):
        if self.kind == "name":
            return f"#{self.name.label}"
        if self.kind == "letter":
            return self.letter.symbol
        return self.kind


L_EPS = Label("eps")
L_PUSH = Label("push")
L_POP = Label("pop")
L_OPEN = Label("open")
L_CLOSE = Label("close")


def lname(n: Name) -> Label:
    return Label("name", name=n)


def lletter(s: Letter) -> Label:
    return Label("letter", letter=s)


@dataclass(frozen=True)
class Transition:
    label: Label
    target: str
    sigma: NameMap

    def __repr__(self):
        return f"--{self.label!r}[{self.sigma!r}]--> {self.target}"


@dataclass
class Hds:
    """An automaton: named states, initial name bindings, finals, transitions."""

    states: dict[str, frozenset[Name]]  # state id -> local names
    initial: str
    eta: dict[Name, Name]  # initial meaning of the initial state's locals
    finals: frozenset[str]
    trans: dict[str, tuple[Transition, ...]]
    relaxed_star: bool = False  # allow several star preimages in sigma
    # what the searches keep of this automaton between calls (`_search_state`)
    _search: Optional["_SearchState"] = field(default=None, init=False, repr=False,
                                              compare=False)

    def letters(self) -> frozenset[Letter]:
        return frozenset(
            t.label.letter
            for ts in self.trans.values()
            for t in ts
            if t.label.kind == "letter"
        )

    def transitions(self) -> Iterable[tuple[str, Transition]]:
        for q, ts in self.trans.items():
            for t in ts:
                yield q, t


def validate(h: Hds) -> list[str]:
    """Well-formedness violations (empty list means well-formed)."""
    bad: list[str] = []
    if h.initial not in h.states:
        bad.append(f"initial state {h.initial} undeclared")
    for q in h.finals:
        if q not in h.states:
            bad.append(f"final state {q} undeclared")
    init_locals = h.states.get(h.initial, frozenset())
    for x, v in h.eta.items():
        if x not in init_locals:
            bad.append(f"eta binds {x.label} outside the initial state's locals")
        if not isinstance(v, Name):
            bad.append(f"eta value for {x.label} is not a name")
    for q, ts in h.trans.items():
        if q not in h.states:
            bad.append(f"transitions from undeclared state {q}")
            continue
        src = h.states[q]
        for t in ts:
            where = f"{q} {t!r}"
            if t.target not in h.states:
                bad.append(f"{where}: undeclared target")
                continue
            tgt = h.states[t.target]
            if t.label.kind == "name" and t.label.name not in src:
                bad.append(f"{where}: label name not local to source")
            if not t.sigma.domain <= tgt:
                bad.append(f"{where}: sigma domain exceeds target locals")
            for v in t.sigma.values():
                if t.label.kind == "open":
                    if v is not STAR and v not in src:
                        bad.append(f"{where}: open sigma value outside source locals")
                elif t.label.kind == "push":
                    if not isinstance(v, Name):
                        bad.append(f"{where}: push sigma must map into names")
                else:
                    if v is STAR or v not in src:
                        bad.append(f"{where}: sigma value outside source locals")
            # push frames assign global names like eta does, which need
            # not be injective; all other maps must be
            if t.label.kind != "push" and not t.sigma.is_injective(h.relaxed_star):
                bad.append(f"{where}: sigma not injective")
    return bad


# ---------------------------------------------------------------------------
# Moves

Config = tuple  # (state id, Stack) in the searches; (state id, position, Stack) in a trace

END = object()  # the input token past the last one: no consuming move reads it


def step(
    h: Hds, state: str, stk: Stack, tok: Optional[Tok], fresh: Optional[Name] = None
) -> list[tuple[Transition, Optional[Tok], Stack]]:
    """The moves enabled in `state` with stack `stk`: (transition, token read, new stack).

    A name, letter, open or close move reads one token; eps, push and
    pop moves read none (token read None).  A name or a letter is its
    own token.  When running on an input, `tok` is the next input token,
    or END past the last one, and a consuming move is enabled only if it
    reads `tok`: a name move reads the name its label currently denotes,
    a letter move its letter, and an open move binds the name of the
    open token.  When generating (`tok` None), every move is enabled,
    except a name move whose label denotes no name; an open move
    allocates `fresh`.
    """
    out = []
    for t in h.trans.get(state, ()):
        k = t.label.kind
        # a consuming move reads the generated token, or else the input token
        if k == "name":
            v = top(stk).get(t.label.name)
            if isinstance(v, Name) and (tok is None or tok is v):
                out.append((t, v, stack_update(stk, t.sigma)))
        elif k == "letter":
            if tok is None or tok == t.label.letter:
                out.append((t, t.label.letter, stack_update(stk, t.sigma)))
        elif k == "eps":
            out.append((t, None, stack_update(stk, t.sigma)))
        elif k == "push":
            out.append((t, None, (push_frame(t.sigma, top(stk)),) + stk))
        elif k == "pop":
            out.append((t, None, (compose(t.sigma, top(pop(stk)).as_dict()),) + stk[2:]))
        elif k == "open":
            tok_read = TOpen(fresh) if tok is None else tok
            if isinstance(tok_read, TOpen):
                f = top(stk).as_dict()
                f[STAR] = tok_read.name
                out.append((t, tok_read, (compose(t.sigma, f),) + stk))
        else:  # close
            tok_read = TCLOSE if tok is None else tok
            if isinstance(tok_read, TClose):
                frame = compose(t.sigma, top(pop(stk)).as_dict())
                out.append((t, tok_read, (frame,) + stk[2:]))
    return out


ACCEPT = "accept"
REJECT = "reject"
CUTOFF = "cutoff"  # pruning fired on a still-live branch; no accept found


@dataclass
class RunResult:
    outcome: str
    trace: Optional[list] = None  # [(config, transition-or-None), ...]

    @property
    def accepted(self) -> bool:
        return self.outcome == ACCEPT


def initial_config(h: Hds) -> Config:
    return (h.initial, 0, (NameMap.of(h.eta),))


class _LevelClose(TClose):
    """The close of a private binder: after it, its level name is dead."""

    __slots__ = ("name",)


# every level name whose binder has closed; not a `Name`, so no name move
# reads it or emits it
DEAD = STAR

# _levels[d]: the open, the name and the close of a binder at open depth d
_levels: list[tuple[TOpen, Name, _LevelClose]] = []
_level_of: dict[Name, int] = {}  # level name -> its depth


def _level(d: int) -> tuple[TOpen, Name, _LevelClose]:
    while len(_levels) <= d:
        # built outside the registry, so no parsed or interned name equals it
        nm = object.__new__(Name)
        object.__setattr__(nm, "label", f"level{len(_levels)}")
        close = object.__new__(_LevelClose)
        object.__setattr__(close, "name", nm)
        _level_of[nm] = len(_levels)
        _levels.append((TOpen(nm), nm, close))
    return _levels[d]


def _private_binders_by_level(tokens: tuple[Tok, ...], constants: set) -> tuple[Tok, ...]:
    """The stream with each private binder renamed after its open depth.

    A binder is private when its name is no constant of the automaton,
    it is opened once, and the name occurs nowhere outside its scope
    (from its open to its matching close, or to the end of the stream).
    Its open and occurrences take the level name of its open depth, and
    its close a `_LevelClose` of that name; every other token is kept.
    """
    out = list(tokens)
    shared = set(constants)  # names that cannot be private
    scopes: dict = {}  # binder name -> [open index, depth, occurrence indices, close index]
    open_now: list = []  # the scopes of the binders open here, innermost last
    for i, tok in enumerate(tokens):
        kind = type(tok)
        if kind is Name:
            scope = scopes.get(tok)
            if scope is not None and scope[3] is None:
                scope[2].append(i)
            else:
                shared.add(tok)
        elif kind is TOpen:
            if tok.name in scopes:
                shared.add(tok.name)
            scopes[tok.name] = scope = [i, len(open_now), [], None]
            open_now.append(scope)
        elif kind is TClose and open_now:
            open_now.pop()[3] = i
    for nm, (at, depth, uses, close) in scopes.items():
        if nm not in shared:
            out[at], level_name, level_close = _level(depth)
            for j in uses:
                out[j] = level_name
            if close is not None:
                out[close] = level_close
    return tuple(out)


def _forget(stk: Stack, nm: Name) -> Stack:
    """The stack with the value `nm` replaced by DEAD in every frame."""
    return tuple([
        NameMap(tuple([(k, DEAD if v is nm else v) for k, v in f.entries]))
        if nm in f.values() else f
        for f in stk
    ])


def _closure(h: Hds, configs, tok, fresh: Optional[Name], rules: dict, need: dict,
             has_pop: bool, max_depth: int, links: Optional[dict] = None,
             moves: Optional[dict] = None):
    """The closure of `configs` under the moves that read nothing, and
    the configurations the moves out of it reach, per token read.

    `tok` and `fresh` go to `step`.  `rules` maps the type of the token
    a move reads (`NoneType` for none) to (frames, dead name or None,
    budget): a move is dropped if its token has no rule, or if its
    target needs more tokens to finish than the budget (`need`, as
    `steps_to_final` counts them).  Without pop transitions a move's
    stack keeps its top `frames` frames; a stack deeper than `max_depth`
    is cut, and the dead name becomes DEAD in every frame.  Returns
    (closure, reached per token, whether the cap cut a move).  With
    `links`, a configuration the closure adds maps there to the
    (configuration, transition) it came from, and one a token reaches
    does so under (token, configuration).  With `moves`, a configuration
    maps there to `step`'s moves out of it for this `tok` and `fresh`.
    """
    seen = set(configs)
    frontier = list(configs)
    reads: dict = {}
    cut = False
    silent = rules[NoneType]
    while frontier:
        cfg = frontier.pop()
        state, stk = cfg
        if moves is None:
            enabled = step(h, state, stk, tok, fresh)
        else:
            enabled = moves.get(cfg)
            if enabled is None:
                moves[cfg] = enabled = step(h, state, stk, tok, fresh)
        for t, tok_read, stk2 in enabled:
            rule = silent if tok_read is None else rules.get(type(tok_read))
            if rule is None:
                continue
            frames, dead, budget = rule
            if need.get(t.target, budget + 1) > budget:
                continue
            if not has_pop:
                stk2 = stk2[:frames]
            if len(stk2) > max_depth:
                cut = True
                continue
            if dead is not None:
                stk2 = _forget(stk2, dead)
            cfg2 = (t.target, stk2)
            if tok_read is None:
                if cfg2 not in seen:
                    seen.add(cfg2)
                    frontier.append(cfg2)
                    if links is not None:
                        links[cfg2] = (cfg, t)
                continue
            group = reads.get(tok_read)
            if group is None:
                reads[tok_read] = group = set()
            if links is not None and cfg2 not in group:
                links[tok_read, cfg2] = (cfg, t)
            group.add(cfg2)
    return seen, reads, cut


def _constants_and_pops(h: Hds) -> tuple[set, bool]:
    """The automaton's constants (eta and push-sigma values), and whether it pops."""
    constants = set(h.eta.values())
    has_pop = False
    for ts in h.trans.values():
        for t in ts:
            kind = t.label.kind
            if kind == "push":
                constants.update(t.sigma.values())
            elif kind == "pop":
                has_pop = True
    return constants, has_pop


class _SearchState:
    """What the searches keep of one automaton between calls (module
    docstring).  `shape` is what they read of it when this was built;
    `sets` holds one object per configuration set, so `run`'s `memo`
    compares sets by identity and equal ones are stored once; `graph`
    maps a slice node to its row (`_expand`)."""

    __slots__ = ("shape", "constants", "has_pop", "need",
                 "letters", "anywhere", "start", "memo", "sets", "graph")

    def __init__(self, h: Hds, shape: tuple):
        self.shape = shape
        constants, self.has_pop = _constants_and_pops(h)
        self.constants = frozenset(constants)
        self.need = steps_to_final(h)
        self.start = frozenset({(h.initial, initial_config(h)[2])})
        self.sets, self.graph = {self.start: self.start}, {}
        self.memo = None  # `run`'s tables are made at its first call

    def for_run(self, h: Hds) -> "_SearchState":
        if self.memo is None:
            self.letters = h.letters()
            self.anywhere = dict.fromkeys(h.states, 0)  # `run` prunes no state
            self.memo = {}
        return self


def _search_state(h: Hds) -> _SearchState:
    """The automaton's search state, built again if any field the searches
    read has changed since it was built, so no verdict is ever stale."""
    # one flat row of what the searches read: the counts keep its parts apart
    shape = (h.initial, h.finals, len(h.eta), *chain.from_iterable(h.eta.items()),
             len(h.states), *h.states, *chain.from_iterable(h.trans.items()))
    state = h._search
    if state is None or state.shape != shape:
        state = h._search = _SearchState(h, shape)
    return state


def _unreadable(tok, state: _SearchState, opened: set) -> bool:
    """Whether no move can read `tok` in a pop-free search of a stream whose
    opens bind `opened` (or level names): it is a letter no transition
    reads, or a name no frame can hold, since frame values come only from
    eta, push sigma and the opens."""
    if type(tok) is Name:
        return tok not in state.constants and tok not in opened and tok not in _level_of
    return type(tok) is Letter and tok not in state.letters


def run(
    h: Hds,
    tokens: tuple[Tok, ...],
    max_depth: Optional[int] = None,
    want_trace: bool = False,
) -> RunResult:
    """Decide whether `h` accepts the token stream, by a subset construction.

    At each input position the search holds the set of (state, stack)
    configurations that the moves reading the tokens so far lead to.  A
    memo maps (set, token, frames kept after it) to the next set, which
    `_closure` computes: the set's closure under the moves that read
    nothing, then the moves that read the token; past the last token it
    maps the set to the final configurations of its closure.  First every
    private binder takes the name of its open depth, which dies at its
    close: the renaming is one-to-one on the names still to be read and
    fixes the constants, so the verdict stands (module docstring), while
    blocks of the same shape now meet the same sets and are decided once.

    Unless `h` has pop transitions, a stack keeps one frame more than
    the most by which closes outnumber opens over any stretch of the
    rest of the input: no close can read the others, and the search is
    exhaustive.  `max_depth` caps the stack depth (default: input length
    + state count + 1, which only a pop automaton can reach); a branch
    the cap cuts makes the outcome CUTOFF unless a run accepts.

    The memo lives in the automaton's search state (`_search_state`)
    where the cap cannot cut: on a pop-free automaton, with `max_depth`
    at least the most frames the call keeps.  Then an entry depends on
    its key alone, and the calls on one automaton decide each step once;
    on a pop automaton, or under a lower `max_depth`, the memo is the
    call's own.  In a shared search a name token that is no constant and
    that no open of the stream binds, or a letter no transition reads,
    rejects where it is reached, with no memo entry: no move can read
    it, and a set of near-misses leaves the memo as it found it.

    With `want_trace`, an accepting run is walked back through the sets by
    `_closure`'s links, and replayed on the real tokens with whole stacks.
    """
    n = len(tokens)
    if max_depth is None:
        max_depth = n + len(h.states) + 1
    state = _search_state(h).for_run(h)
    has_pop = state.has_pop
    # keep[pos]: 1 + the most by which closes outnumber opens over any
    # stretch of tokens[pos:], the frames a close can read; past the end,
    # and after END, only the top frame
    keep = [1, 1]
    frames = 1
    opened = set()  # the names the input's opens bind
    for tok in reversed(tokens):
        if type(tok) is TOpen:
            opened.add(tok.name)
            frames = max(1, frames - 1)
        elif isinstance(tok, TClose):
            frames += 1
        keep.append(frames)
    keep.reverse()
    stream = (_private_binders_by_level(tokens, state.constants) if opened
              else tuple(tokens)) + (END,)
    shared = not has_pop and max_depth >= max(keep)
    memo, sets = (state.memo, state.sets) if shared else ({}, {})

    def advance(configs, pos, links=None):
        """`_closure` at `pos`; after a `_LevelClose` its level name is dead.
        Returns the next set, and whether the cap cut a move."""
        tok = stream[pos]
        rules = {NoneType: (keep[pos], None, 0),
                 type(tok): (keep[pos + 1], tok.name if type(tok) is _LevelClose else None, 0)}
        closure, reads, cut = _closure(h, configs, tok, None, rules, state.anywhere, has_pop,
                                       max_depth, links)
        if tok is END:
            return frozenset([c for c in closure if c[0] in h.finals]), cut
        return frozenset(reads.get(tok, ())), cut

    configs = state.start
    entries = [configs]
    cut = False
    for pos, tok in enumerate(stream):
        key = (configs, tok, keep[pos + 1])
        hit = memo.get(key)
        if hit is None:
            if shared and _unreadable(tok, state, opened):
                return RunResult(REJECT)
            out, cut_here = advance(configs, pos)
            memo[key] = hit = (sets.setdefault(out, out), cut_here)
        configs, cut_here = hit
        cut = cut or cut_here
        if not configs:
            return RunResult(CUTOFF if cut else REJECT)
        if want_trace:
            entries.append(configs)
    if not want_trace:
        return RunResult(ACCEPT)
    # every configuration of entries[pos] is reachable, so from a final
    # configuration at the end, each position's closure leads back to one
    # configuration of the set before; the trace takes the least final
    # configuration and explores each set in order, so no hash seed
    # changes it
    cfg = min(configs, key=_config_order)
    path: list = []
    for pos in range(n, -1, -1):
        links: dict = {}
        advance(sorted(entries[pos], key=_config_order), pos, links)
        if pos < n:
            cfg, t = links[stream[pos], cfg]
            path.append(t)
        while cfg in links:
            cfg, t = links[cfg]
            path.append(t)
    path.reverse()
    return RunResult(ACCEPT, _replay(h, tokens, initial_config(h), path))


def _config_order(cfg: Config) -> tuple:
    """A configuration's place in an order that no hash seed changes:
    its state, then its frames' labels."""
    state, stk = cfg
    return state, tuple(map(repr, stk))


def _replay(h: Hds, tokens: tuple[Tok, ...], start: Config, path: list) -> list:
    """The run that takes the transitions of `path` from `start`, every frame kept.

    The search drops frames no close can read and renames private
    binders, so its configurations show only the top of the automaton's
    stacks, under other names; the same transitions are enabled on the
    real tokens with the whole stacks, and this rebuilds them.
    """
    state, pos, stk = start
    trace = [(start, None)]
    for t in path:
        tok = tokens[pos] if pos < len(tokens) else END
        tok_read, stk = next((r, s) for u, r, s in step(h, state, stk, tok) if u is t)
        state, pos = t.target, pos + (tok_read is not None)
        trace.append(((state, pos, stk), t))
    return trace


class Undecided(Exception):
    """A search cut a still-live branch at its depth cap, so it has no exact answer."""


def accepts(h: Hds, tokens: tuple[Tok, ...]) -> bool:
    """Whether `h` accepts the stream; raises `Undecided` where `run` says CUTOFF."""
    outcome = run(h, tokens).outcome
    if outcome == CUTOFF:
        raise Undecided("the search reached its depth cap before a verdict")
    return outcome == ACCEPT


def word_stream(h: Hds, w: MWord) -> tuple[Tok, ...]:
    """The stream on which `h` decides the word `w`.

    It is the canonical tokenization of `w`, with every binder named
    apart from the free names of `w` and from the automaton's constants.
    So an open binds a name fresh for the whole configuration, as in
    history-dependent automata, and no name move for a constant reads a
    bound occurrence.
    """
    constants = _search_state(h).constants
    key = alpha_key(w)
    # `from_key` names binders apart from the free names of its key, so
    # the constants, put after the word as free names, are avoided too
    return from_key(key + tuple(constants)).tokens[:len(key)]


def accepts_word(h: Hds, w: MWord) -> bool:
    """Acceptance of a word, decided on `word_stream`."""
    return accepts(h, word_stream(h, w))


# ---------------------------------------------------------------------------
# Bounded language enumeration

_CONSUMING = frozenset(("name", "letter", "open", "close"))


def steps_to_final(h: Hds) -> dict[str, int]:
    """The fewest consuming moves on any path from each state to a final one.

    A 0-1 breadth-first search over the reversed transitions; a state
    with no path to a final state is absent.
    """
    preds: dict[str, list] = {}
    for q, t in h.transitions():
        preds.setdefault(t.target, []).append((q, t.label.kind in _CONSUMING))
    need = {q: 0 for q in h.finals}
    queue = deque(h.finals)
    while queue:
        q = queue.popleft()
        for p, cost in preds.get(q, ()):
            d = need[q] + cost
            if d < need.get(p, d + 1):
                need[p] = d
                if cost:
                    queue.append(p)
                else:
                    queue.appendleft(p)
    return need


_KEY_BRACKETS = {TOpen: KEY_OPEN, TClose: KEY_CLOSE}


def _language_keys(h: Hds, bound: int) -> set:
    """The keys (`words.alpha_key`) of the words of token length at most
    `bound` accepted by `h`.

    Walks the tree of emitted prefixes one length at a time,
    determinizing on the fly as the subset construction does.  A prefix
    node holds the set of (state, stack) configurations that `step`
    reaches while generating that prefix, its open depth and the tokens
    left under the bound.  Binders
    are named as `run` names private ones: an open at depth d allocates
    the level name of d, which no constant and no frame value equals, and
    at the binder's close that name becomes `DEAD` in every frame.  The
    prefixes of one length are grouped by node, and `_expand` makes each
    node's row once: a node is final if its closure has a final state at
    open depth 0, and each token read from it extends all its prefixes by
    the token's key element.  A level name read at depth d is the index
    d - 1 - level, so a final prefix is already the key of its word.  The
    rows live in the automaton's node graph, which its search state
    keeps across calls unless it pops (module docstring); one memo per
    call holds `step`'s moves out of each configuration.

    A configuration is dropped when the tokens left under the bound
    cannot both close its open binders and take its state to a final
    one (`steps_to_final`); a state with no path to a final state is
    always dropped.  Without pop transitions a configuration keeps one
    frame more than its open depth: the rest of an accepted word closes
    those binders and never outnumbers its own opens with its closes.
    So the walk is exhaustive; with pop transitions, stacks deeper than
    the bound + state count + 1 are cut, as `run` cuts them, and a cut
    raises `Undecided`.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    max_depth = bound + len(h.states) + 1
    state = _search_state(h)
    has_pop, need = state.has_pop, state.need
    # a pop-free walk never reaches the cap, so a row holds at every bound
    graph, sets = ({}, {}) if has_pop else (state.graph, state.sets)
    moves: dict = {}  # (token, fresh name) -> {configuration: `step`'s moves}
    out: set = set()
    # node -> its key prefixes of one length; the start node's single
    # configuration is a 1-tuple, as in `_expand`
    nodes = {(tuple(state.start), 0, bound): [()]}
    while nodes:
        grown: dict = {}
        for node, prefixes in nodes.items():
            row = graph.get(node)
            if row is None:
                row = graph[node] = _expand(h, node, need, has_pop, max_depth, moves, sets)
            row = iter(row)  # whether it emits, then (key element, next node) pairs
            if next(row):
                out.update(prefixes)
            for elem, succ in zip(row, row):
                elem = (elem,)
                more = [p + elem for p in prefixes]
                have = grown.get(succ)
                if have is None:
                    grown[succ] = more
                else:
                    have += more
        nodes = grown
    return out


def _expand(h: Hds, node: tuple, need: dict, has_pop: bool, max_depth: int,
            moves: dict, sets: dict) -> tuple:
    """The row of a slice node (configurations, open depth, tokens left):
    whether it emits its prefixes, then the key element and the next node
    of each successor.  Each node's configurations are interned through
    `sets`; a single configuration is held as a 1-tuple, at a quarter of
    a frozenset's size."""
    configs, depth, left = node
    # a move keeps one frame more than the open depth after it, and it
    # must leave tokens enough to take its target to a final state (the
    # budget) and to close the binders still open (the depth tests)
    rules = {NoneType: (depth + 1, None, left)}
    if depth < left:
        rules[Name] = rules[Letter] = (depth + 1, None, left - 1)
    if depth + 1 < left:
        rules[TOpen] = (depth + 2, None, left - 1)
    if depth:
        rules[TClose] = (depth, _level(depth - 1)[1], left - 1)
    tok = None if left else END
    fresh = _level(depth)[1]
    closure, reads, cut = _closure(h, configs, tok, fresh, rules, need, has_pop,
                                   max_depth, moves=moves.setdefault((tok, fresh), {}))
    if cut:
        raise Undecided("the slice reached its depth cap and may miss words")
    row = [depth == 0 and any(q in h.finals for q, _ in closure)]
    for read, group in reads.items():
        # a level name read at depth d is the index d - 1 - level
        level = _level_of.get(read)
        row.append(_KEY_BRACKETS.get(type(read), read) if level is None else depth - 1 - level)
        group = tuple(group) if len(group) == 1 else frozenset(group)
        # a token's rule keeps one frame more than the open depth after it
        row.append((sets.setdefault(group, group), rules[type(read)][0] - 1, left - 1))
    return tuple(row)


def language_slice(h: Hds, bound: int) -> frozenset[MWord]:
    """Canonical words of token length at most `bound` accepted by `h`:
    the keys of `_language_keys`, each decoded once."""
    return frozenset(map(from_key, _language_keys(h, bound)))
