"""History-dependent automata with a stack of name maps.

States carry finite sets of local names.  A transition relabels the
target's local names through a partial injective map into the source's
locals and may consume a name or letter token, stay silent, push or pop
a stack frame, or allocate/deallocate a bound name at the matching
open/close tokens of the input stream.  Its label is what it reads, in
the word's own alphabet: a local `Name` reads the name it denotes, a
`Letter` reads itself, and every other move is one of the five `Move`
keywords `EPS`, `PUSH`, `POP`, `OPEN` and `CLOSE`.

`step` is the one definition of the moves: what each of the seven
kinds of label reads and what it does to the stack.  Every move reads a
frame through the frame's one dict of its entries, `NameMap.table`; an
open copies it and sets the placeholder to the name it allocates.  The
node graph is a subset construction on it.  A node is a configuration
set and a depth (below), and one loop makes its row (`_expand`): it
closes the set under the moves that read nothing, groups the moves that
read a token by that token, and after each move applies one rule --
drop a configuration with no path to a final state, keep the frames a
close can still read, cap the stack depth, and kill the name of a
binder just closed.  The row maps each token read to the successor node
itself, and END to the node, so a walk goes from node to node with one
lookup per token; a node carries the fewest tokens a word needs from
it.  `language_slice` walks the tree of emitted prefixes one length at
a time: each prefix holds the set of configurations that generate it,
and the prefixes of one length are grouped by node, so each node's row
is made once; the walk counts the tokens left under the bound.  It
emits keys (`words.alpha_key`), not tokens, so no word is parsed or
canonicalized, and each accepted word is decoded once.  `run` on a
pop-free automaton, with no depth cap and no trace, reads the same
rows in one forward walk; every other run is one depth-first search
over the input's configurations (below).

The slice and the walk name binders one way.  A binder's level is the
int depth it opens at: its open depth plus the unmatched closes still
to come in the stream (a slice has none).  A node's depth is that sum,
and the node keeps one frame more.  An open reads `KEY_OPEN` and
allocates its level; an int is apart from every name by its type, so
no input name and no constant equals a level.  When the binder closes, its level
becomes `DEAD` in every frame: the placeholder, which no name move
reads.

In an automaton without pop transitions (every compiled one) only a
close move reads below the top of the stack, and it reads one frame
down; an open or a push adds a frame, and only a close removes one.
So if, over any stretch of the tokens still to come, closes outnumber
opens by at most c, the frames at index c + 1 and deeper are never
read, and dropping them changes no verdict and no slice.  Opens and
closes match as calls and returns do in a visibly pushdown automaton,
so c is at most the open depth plus the unmatched closes still to come:
the node's depth.  The kept stacks are then drawn from a finite set at
each node, so non-consuming push loops end where they reach a stack
already seen, and both searches are exhaustive.  Only with pop
transitions can stacks grow without bound; there the stack depth is
capped (input length + state count + 1), and where the cap cut a branch
`run` says CUTOFF and `language_slice` raises `Undecided`.  Name maps
are hash-consed, so the stacks the searches memoize hash and compare by
identity, and a move that leaves the top frame as it is keeps the stack
itself.

The levels are apart for the same reason.  A binder opened at depth d
closes back to depth d, so the binders around it have lower levels, and
an unmatched close leaves a depth no binder reached before.  As in
history-dependent automata, the allocated level is then fresh for the
whole configuration: the levels of the open binders are lower, and every
other level is dead, so a close kills level depth - 1, which only the
close of a binder finds alive.  A run commutes with every renaming that
fixes the automaton's constants (eta values and push-sigma values), and
a name the rest of the input never holds can be forgotten, so naming a
private binder -- one whose name is no constant, is opened once and
occurs only inside its scope -- after its level changes no verdict.
`word_stream`, on which `accepts_word` and the CLI decide a word, names
every binder apart from the other binders, the free names and the
constants, so every binder of a word is private; its blocks of the same
shape meet the same nodes, and every block after the first is a walk
through rows already made.

Each automaton carries one search state, built at its first search
(`Hds._search`): its constants, whether it pops, `steps_to_final`, and
the node graph, which holds one `_Node` per (configuration set, depth),
with its row once it is expanded.  An automaton is immutable, so its
search state never goes stale, and it dies with the automaton.  A row
depends on its node alone unless the depth cap can cut, and a pop-free
search never reaches a cap, so the graph serves both searches on a
pop-free automaton: a slice at any bound reuses every node an earlier
slice or run expanded, and a run on a word of a slice makes no `step`
call.  A pop automaton's slice makes a search state of its own per
call, whose graph carries the slice's depth cap.

On a pop-free automaton `run` walks the stream forward (`_walk`): it
keeps its node, the level of each open binder, and the names no
binder may take -- the constants, every name read and every binder so
far -- and follows the row of its node to the next node at each token
and at the end.  A token no move reads has no entry in the row, so it
rejects at once, and fresh free names grow nothing.  The walk only
decides: a binder that is not private -- named after a constant or a
name already seen, or its name read after its close -- hands the
stream back, and a run with a `max_depth` or a trace never takes the
walk.  Those runs and every run on a pop automaton take the general
path (`_depth_first`): one depth-first search over (state, position,
stack) configurations on the input's own names, which renames nothing,
takes each move from `step`, and keeps for each configuration the one
it came from, so a trace is that chain followed back.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from itertools import chain
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from .names import Interned, Letter, Name, STAR
from .words import (
    KEY_OPEN, MWord, TClose, TCLOSE, TOpen, Tok, canonical_row, collector_paused, from_key,
)
from .words import alpha_canonical, parse_tokens  # unused; perfbench's tracer patches them here


class NameMap:
    """A finite partial map from names to names-or-star.

    Name maps are hash-consed: one object per `entries` tuple, so
    equality and hashing are identity and a stack of maps hashes in C.
    The class's `_table` holds its maps weakly, so the frames a search
    makes are freed when the search ends.

    Every move reads a frame through its `table`, a dict of its entries.
    The table is made the first time a move reads the map, and kept as
    long as the map: the entry of a sum of k names makes k - 1 moves from
    one k-name frame, and `check --bound 1` on 20,000 names took 19.9 s
    with a dict per move and takes 1.4 s so (whole process, shared 2-vCPU
    x86-64 VM); a table made with every map raised `compile`'s peak on
    those names from 81 to 85 MB, where no move reads most of them.
    """

    __slots__ = ("entries", "key_row", "identity", "table", "__weakref__")

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

    def __getattr__(self, attr):
        # called only for an unset slot: `table` is made on its first read
        if attr != "table":
            raise AttributeError(attr)
        table = dict(self.entries)
        object.__setattr__(self, "table", table)
        return table

    def __setattr__(self, key, value):
        raise AttributeError("NameMap is immutable")

    def __reduce__(self):
        # a copy or an unpickled map is the one map of its entries
        return NameMap, (self.entries,)

    @classmethod
    def of(cls, mapping: dict | None = None) -> "NameMap":
        if not mapping:  # about half the maps a compile makes are empty
            return BOTTOM
        # names order by label: sorting on it compares strings in C
        return cls(tuple(sorted(mapping.items(), key=lambda kv: kv[0].label)))

    @property
    def domain(self) -> frozenset[Name]:
        return frozenset(self.key_row)

    def values(self):
        return [v for _, v in self.entries]

    def is_injective(self) -> bool:
        """No two entries share a name; the placeholder `*` may repeat."""
        names = [v for _, v in self.entries if v is not STAR]
        return len(set(names)) == len(names)

    def __repr__(self):
        if not self.entries:
            return "_|_"
        return ",".join(
            f"{k.label}>{v.label if type(v) is Name else repr(v)}" for k, v in self.entries
        )


BOTTOM = NameMap(())

Stack = tuple  # of NameMap, index 0 is the top; never empty


def _below(stack: Stack) -> dict:
    """The table of the frame below the top, which pop and close read, or
    BOTTOM's when there is none."""
    return (stack[1] if len(stack) > 1 else BOTTOM).table


def compose(sigma: NameMap, f: dict) -> NameMap:
    """The map x -> f(sigma(x)), defined where both legs are."""
    # a subsequence of sigma's sorted entries is sorted: no need to sort again
    return NameMap(tuple([(k, f[v]) for k, v in sigma.entries if v in f]))


def stack_update(stack: Stack, sigma: NameMap) -> Stack:
    """Replace the top frame by sigma post-composed with its table."""
    # most moves leave the top frame as it is, and keeping the stack spares
    # the general path (capped, traced and pop-automaton runs) a new frame
    top_frame = stack[0]
    if sigma.identity and sigma.key_row == top_frame.key_row:
        return stack
    return (compose(sigma, top_frame.table),) + stack[1:]


def push_frame(sigma: NameMap, top_frame: NameMap) -> NameMap:
    """The frame a push transition installs.

    A pushed value that is currently bound in the top frame (a local of
    the source state) stands for its current meaning and is resolved;
    any other value is a global name and is pushed as such.
    """
    f = top_frame.table
    return NameMap(tuple([(k, f.get(v, v)) for k, v in sigma.entries]))


# ---------------------------------------------------------------------------
# Labels and transitions

class Move(Interned):
    """The label of a move that reads no name and no letter: one object
    per keyword, which is its repr and its text in the ``.hds`` format."""

    __slots__ = ("keyword",)

    def __repr__(self):
        return self.keyword


EPS, PUSH, POP, OPEN, CLOSE = MOVES = tuple(map(Move, ("eps", "push", "pop", "open", "close")))


@dataclass(frozen=True, slots=True)
class Transition:
    label: Name | Letter | Move  # the local name or letter it reads, or its move
    target: str
    sigma: NameMap

    def __repr__(self):
        return f"--{self.label!r}[{self.sigma!r}]--> {self.target}"


@dataclass(frozen=True)
class Hds:
    """An automaton: named states, initial name bindings, finals,
    transitions.  It is immutable: a changed automaton is made with
    `dataclasses.replace` or the constructor."""

    states: Mapping[str, frozenset[Name]]  # state id -> local names
    initial: str
    eta: Mapping[Name, Name]  # initial meaning of the initial state's locals
    finals: frozenset[str]
    trans: Mapping[str, tuple[Transition, ...]]

    def __init__(self, states, initial, eta, finals, trans):
        # read-only views of copies no caller holds, set in one update: a frozen
        # dataclass's own __init__ sets each field by object.__setattr__, slower
        self.__dict__.update(
            states=MappingProxyType(dict(states)), initial=initial,
            eta=MappingProxyType(dict(eta)), finals=frozenset(finals),
            trans=MappingProxyType(dict(trans)))

    @cached_property
    def _search(self) -> "_SearchState":
        """What the searches keep between calls (module docstring); it is in
        the instance dict, not a field, so `dataclasses.replace` starts anew."""
        return _SearchState(self)

    def letters(self) -> frozenset[Letter]:
        return frozenset(t.label for ts in self.trans.values() for t in ts
                         if type(t.label) is Letter)

    def transitions(self) -> Iterable[tuple[str, Transition]]:
        for q, ts in self.trans.items():
            for t in ts:
                yield q, t


def validate(h: Hds) -> list[str]:
    """Well-formedness violations (empty list means well-formed)."""
    bad: list[str] = []

    def fault(q: str, t: Transition, what: str) -> None:
        # the transition's repr is made only for a faulty one
        bad.append(f"{q} {t!r}: {what}")

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
            if t.target not in h.states:
                fault(q, t, "undeclared target")
                continue
            tgt, label = h.states[t.target], t.label
            if type(label) is Name and label not in src:
                fault(q, t, "label name not local to source")
            elif type(label) not in (Name, Letter) and label not in MOVES:
                fault(q, t, "label is no name, letter or move")
            if not t.sigma.domain <= tgt:
                fault(q, t, "sigma domain exceeds target locals")
            for v in t.sigma.values():
                if label is OPEN:
                    if v is not STAR and v not in src:
                        fault(q, t, "open sigma value outside source locals")
                elif label is PUSH:
                    if not isinstance(v, Name):
                        fault(q, t, "push sigma must map into names")
                else:
                    if v is STAR or v not in src:
                        fault(q, t, "sigma value outside source locals")
            # push frames assign global names like eta does, which need
            # not be injective; all other maps must be
            if label is not PUSH and not t.sigma.is_injective():
                fault(q, t, "sigma not injective")
    return bad


# ---------------------------------------------------------------------------
# Moves

Config = tuple  # (state id, Stack) in a node; (state id, position, Stack) in the general path

END = object()  # the input token past the last one: no consuming move reads it


def step(
    h: Hds, state: str, stk: Stack, tok: Optional[Tok], fresh: Optional[int] = None
) -> list[tuple[Transition, Optional[Tok], Stack]]:
    """The moves enabled in `state` with stack `stk`: (transition, token read, new stack).

    A name, letter, open or close move reads one token; eps, push and
    pop moves read none (token read None).  The label's type or
    identity tells the move: a `Name` label is a local, a `Letter` label
    is its own token, and any other is one of the `MOVES`; a label that
    is none of these enables no move (`validate` reports it).  When
    running on an input, `tok` is the next input token, or END past the
    last one, and a consuming move is enabled only if it reads `tok`: a
    name move reads the name its local currently denotes, a letter move
    its letter, and an open move binds the name of the open token.  When
    generating (`tok` None), every move is enabled, except a name move
    whose local has no value or the placeholder; a name move reads the
    value, and an open move reads `KEY_OPEN` and allocates `fresh`.
    """
    out = []
    for t in h.trans.get(state, ()):
        label = t.label
        kind = type(label)
        # a consuming move reads the generated token, or else the input token
        if kind is Name:
            v = stk[0].table.get(label, STAR)
            if v is not STAR and (tok is None or tok is v):
                out.append((t, v, stack_update(stk, t.sigma)))
        elif kind is Letter:
            if tok is None or tok is label:
                out.append((t, label, stack_update(stk, t.sigma)))
        elif label is EPS:
            out.append((t, None, stack_update(stk, t.sigma)))
        elif label is PUSH:
            out.append((t, None, (push_frame(t.sigma, stk[0]),) + stk))
        elif label is POP:
            out.append((t, None, (compose(t.sigma, _below(stk)),) + stk[2:]))
        elif label is OPEN:
            if tok is None or type(tok) is TOpen:
                f = dict(stk[0].table)
                f[STAR] = fresh if tok is None else tok.name
                out.append((t, KEY_OPEN if tok is None else tok, (compose(t.sigma, f),) + stk))
        elif label is CLOSE:
            tok_read = TCLOSE if tok is None else tok
            if isinstance(tok_read, TClose):
                frame = compose(t.sigma, _below(stk))
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


# every level whose binder has closed: the placeholder, which no name move reads
DEAD = STAR


def _forget(stk: Stack, level: int) -> Stack:
    """The stack with `level` replaced by DEAD in every frame; levels
    compare by value, as an int above 256 is not one shared object."""
    return tuple([NameMap(tuple([(k, DEAD if v == level else v) for k, v in f.entries]))
                  for f in stk])


def _constants_and_pops(h: Hds) -> tuple[frozenset, bool]:
    """The automaton's constants (eta and push-sigma values), and whether
    it pops."""
    constants = set(h.eta.values())
    has_pop = False
    for ts in h.trans.values():
        for t in ts:
            if t.label is PUSH:
                constants.update(t.sigma.values())
            elif t.label is POP:
                has_pop = True
    return frozenset(constants), has_pop


class _Node:
    """A node of the graph: a configuration set, an open depth and `req`,
    the fewest tokens a word needs from the node (to close its binders and
    take one of its states to a final one); and once `_expand` has made
    its row, the row, which maps each token read to the successor node
    itself, and the cut: None, or the fewest tokens a move the depth cap
    cut still needed."""

    __slots__ = ("configs", "depth", "req", "cut", "row")

    def __init__(self, configs: frozenset, depth: int, req: float):
        self.configs, self.depth, self.req = configs, depth, req
        self.cut = self.row = None


class _SearchState:
    """What the searches keep of one automaton between calls (module
    docstring).  `graph` maps (configuration set, open depth) to its one
    `_Node`, and holds the nodes the rows of its expanded nodes lead to,
    expanded or not, so a walk follows rows without a graph lookup.  A
    node's `req` is computed once, when the node is made: its depth, or
    the fewest consuming moves from one of its states to a final one
    (`need`) if more; `inf` if none of its states has a path there.
    `max_depth` caps the stacks of the graph's nodes: no cap on the state
    an automaton keeps, where a pop-free search never reaches one, and
    the slice's cap on the state a pop automaton's slice makes per call."""

    __slots__ = ("constants", "has_pop", "need", "start", "max_depth", "graph")

    def __init__(self, h: Hds, max_depth: float = math.inf):
        self.constants, self.has_pop = _constants_and_pops(h)
        self.need = steps_to_final(h)
        self.start = frozenset({(h.initial, initial_config(h)[2])})
        self.max_depth, self.graph = max_depth, {}

    def node(self, configs: frozenset, depth: int) -> _Node:
        """The graph's one node for (configs, depth), made on first use."""
        node = self.graph.get((configs, depth))
        if node is None:
            need = self.need
            req = max(depth, min([need.get(q, math.inf) for q, _ in configs]))
            node = self.graph[configs, depth] = _Node(configs, depth, req)
        return node


def run(
    h: Hds,
    tokens: tuple[Tok, ...],
    max_depth: Optional[int] = None,
    want_trace: bool = False,
) -> RunResult:
    """Decide whether `h` accepts the token stream.

    On a pop-free automaton, with no `max_depth` and no trace, one
    forward walk over the node graph (`_walk`) decides the stream,
    naming each binder after its level as it reads it.  Every other run,
    and a stream the walk hands back, takes the general path: one
    depth-first search over the input's own names, which renames nothing
    (`_depth_first`).

    Unless `h` has pop transitions, a stack keeps one frame more than
    the most by which closes outnumber opens over any stretch of the
    rest of the input (`_keep`): no close can read the others, and the
    search is exhaustive.  `max_depth` caps the stack depth (default:
    input length + state count + 1, which only a pop automaton can
    reach); a branch the cap cuts makes the outcome CUTOFF unless a run
    accepts.  With `want_trace`, an accepting run carries its trace,
    replayed on the real tokens with whole stacks.
    """
    state = h._search
    if max_depth is None:
        if not (state.has_pop or want_trace):
            result = _walk(h, tokens, 0)
            if result is not None:
                return result
        max_depth = len(tokens) + len(h.states) + 1
    return _depth_first(h, tokens, max_depth, want_trace)


def _depth_first(h: Hds, tokens: tuple[Tok, ...], max_depth: int, want_trace: bool) -> RunResult:
    """`run`'s general path: one depth-first search over the (state,
    position, stack) configurations the input's own tokens lead to.

    It explores the moves `step` lists in their order, drops a move
    whose target has no path to a final state, keeps the frames `_keep`
    gives unless `h` pops, and cuts a stack deeper than `max_depth`.
    One dict maps each configuration reached to the (configuration,
    transition) it came from, and is the search's seen set.  The search
    stops at the first final configuration past the last token; with
    `want_trace` it follows the dict back and replays the moves on whole
    stacks (`_replay`).  The order of the moves alone fixes the trace,
    so no hash seed changes it.
    """
    search = h._search
    need, has_pop, finals = search.need, search.has_pop, h.finals
    keep, last = _keep(tokens), len(tokens)
    start = initial_config(h)
    came = {start: None}
    todo = [start]
    cut = False
    while todo:
        cfg = todo.pop()
        state, pos, stk = cfg
        if pos == last and state in finals:
            break
        for t, tok_read, stk2 in reversed(step(h, state, stk, tokens[pos] if pos < last else END)):
            if t.target not in need:
                continue
            pos2 = pos if tok_read is None else pos + 1
            if not has_pop:
                stk2 = stk2[:keep[pos2]]
            if len(stk2) > max_depth:
                cut = True
                continue
            cfg2 = (t.target, pos2, stk2)
            if cfg2 not in came:
                came[cfg2] = (cfg, t)
                todo.append(cfg2)
    else:
        return RunResult(CUTOFF if cut else REJECT)
    if not want_trace:
        return RunResult(ACCEPT)
    path: list = []
    while came[cfg] is not None:
        cfg, t = came[cfg]
        path.append(t)
    path.reverse()
    return RunResult(ACCEPT, _replay(h, tokens, start, path))


def _keep(tokens: tuple[Tok, ...]) -> list[int]:
    """keep[pos]: 1 + the most by which closes outnumber opens over any
    stretch of tokens[pos:], the frames a close can read; past the end,
    and after END, only the top frame.  keep[0] - 1 is the stream's
    number of unmatched closes."""
    keep = [1, 1]
    frames = 1
    for tok in reversed(tokens):
        if type(tok) is TOpen:
            frames = max(1, frames - 1)
        elif isinstance(tok, TClose):
            frames += 1
        keep.append(frames)
    keep.reverse()
    return keep


def _walk(h: Hds, tokens: tuple[Tok, ...], u: int) -> Optional[RunResult]:
    """`run` on a pop-free automaton in one forward pass over the node
    graph, or None to hand the stream back to the general path.

    The walk starts at the node (start, u), where u is the stream's
    number of unmatched closes (keep[0] - 1), so each node keeps at least
    the frames `_keep` gives.  `run` passes u = 0, and at the first
    unmatched close the walk starts again once with the right u; up to
    there it kept every frame a close had read.  The walk keeps the level
    of each open binder, and the names no binder may take: the
    constants, every name read so far and every binder so far.  It looks
    an open up under `KEY_OPEN`, a bound name under its level and any
    other token under itself, and at each token, END included, goes to
    the node the row of the node it is at maps it to; only a node not yet
    expanded costs more than that lookup.

    It hands the stream back at a binder named after a constant or a
    name already seen, and at a closed binder's name read again.  So
    every binder the walk names is private (module docstring).  Each set
    the walk holds is then the image of the set the automaton's exact
    run reaches there, under truncation and the renaming of binders to
    their levels, and so are the configurations the general path reaches
    there.  One is empty exactly when the other is: a token with no
    entry in its row rejects at once, also ahead of a token that would
    hand the stream back.  A
    pop-free closure's states do not depend on the stack, so a row has
    END at every depth where its closure holds a final state, and the
    walk accepts there.  Its frames never pass the default cap of `run`
    (u + 1, or d + 2 at an open at depth d, is at most the input
    length + 1).
    """
    state = h._search
    # name -> whether it is a closed binder, for every name no binder may take
    seen = dict.fromkeys(state.constants, False)
    # open binder -> its level, innermost last: no name is opened twice,
    # so the dict keeps the open order
    bound: dict = {}
    node = state.node(state.start, u)
    for tok in chain(tokens, (END,)):
        kind = type(tok)
        if kind is Name:
            key = bound.get(tok, tok)
            if key is tok and seen.setdefault(tok, False):
                return None
        elif kind is TOpen:
            nm = tok.name
            if nm in seen:
                return None
            seen[nm] = False
            key, bound[nm] = KEY_OPEN, node.depth
        elif kind is TClose:
            if bound:
                seen[bound.popitem()[0]] = True
            elif not node.depth:
                return _walk(h, tokens, _keep(tokens)[0] - 1)
            key = tok
        else:
            key = tok
        row = node.row
        if row is None:
            row = _expand(h, node, state)
        node = row.get(key)
        if node is None:
            return RunResult(REJECT)
    return RunResult(ACCEPT)


def _replay(h: Hds, tokens: tuple[Tok, ...], start: Config, path: list) -> list:
    """The run that takes the transitions of `path` from `start`, every frame kept.

    The search drops frames no close can read, so its configurations
    show only the top of the automaton's stacks; the same transitions are
    enabled on the real tokens with the whole stacks, and this rebuilds
    them.
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
    return canonical_row(w, h._search.constants)


def accepts_word(h: Hds, w: MWord) -> bool:
    """Acceptance of a word, decided on `word_stream`."""
    return accepts(h, word_stream(h, w))


# ---------------------------------------------------------------------------
# Bounded language enumeration

def steps_to_final(h: Hds) -> dict[str, int]:
    """The fewest consuming moves on any path from each state to a final one.

    A 0-1 breadth-first search over the reversed transitions; a state
    with no path to a final state is absent.
    """
    preds: dict[str, list] = {}
    for q, t in h.transitions():
        preds.setdefault(t.target, []).append((q, t.label not in (EPS, PUSH, POP)))
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


def _language_keys(h: Hds, bound: int) -> Iterator[tuple]:
    """Yield the keys (`words.alpha_key`) of the words of token length at
    most `bound` accepted by `h`, each once.

    Walks the tree of emitted prefixes one length at a time,
    determinizing on the fly as the subset construction does.  A prefix
    node holds the set of (state, stack) configurations that `step`
    reaches while generating that prefix, and its open depth; binders
    take their levels (module docstring).  The prefixes of one length
    are grouped by node, and `_expand` makes each node's row once: a
    node at open depth 0 is final if its row has END (its closure has a
    final state), and each token read from it extends all its prefixes
    by the token's key element -- a level read at depth d is the index
    d - 1 - level, and any other token (an open's `KEY_OPEN` and a close
    too) is its own element -- so a final prefix is already the key of
    its word.  Distinct tokens of a row are distinct key elements, so a
    prefix has one node, and a prefix is yielded when it reaches END at
    open depth 0, so no key is yielded twice.  The rows live in the
    node graph of the automaton's search state, which `run` reads too
    and which it keeps across calls; a pop automaton's slice makes a
    search state of its own, whose graph has the slice's depth cap
    (module docstring).

    The walk counts the tokens left under the bound, and takes a
    successor only if fewer tokens than are left can close its binders
    and take one of its states to a final one (its `req`, from
    `steps_to_final`, which falls by at most one per token, so a
    configuration that cannot finish in time has no descendant that
    can).  Without pop transitions no close reads a dropped frame
    (module docstring), so the walk is exhaustive; with pop
    transitions, that graph cuts stacks deeper than the bound + state
    count + 1, as `run` cuts them, and a cut move
    that could still finish in the tokens left raises `Undecided`, also
    after some keys were yielded.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    state = h._search
    if state.has_pop:  # a row that the cap can cut holds at this bound alone
        state = _SearchState(h, bound + len(h.states) + 1)
    # node -> its key prefixes of one length; nodes hash by identity
    nodes = {state.node(state.start, 0): [()]}
    left = bound
    while nodes:
        grown: dict = {}
        for node, prefixes in nodes.items():
            row = node.row
            if row is None:
                row = _expand(h, node, state)
            if node.cut is not None and node.cut <= left:
                raise Undecided("the slice reached its depth cap and may miss words")
            for read, succ in row.items():
                if read is END:  # a node at open depth 0 emits its prefixes
                    if not node.depth:
                        yield from prefixes
                elif succ.req < left:
                    elem = (node.depth - 1 - read if type(read) is int else read,)
                    more = [p + elem for p in prefixes]
                    have = grown.get(succ)
                    if have is None:
                        grown[succ] = more
                    else:
                        have += more
        nodes = grown
        left -= 1


def _expand(h: Hds, node: _Node, state: _SearchState) -> dict:
    """Make the row of a node (configurations, open depth) of the graph
    of `state` and return it.

    One loop closes the node's configurations under the moves that read
    nothing and groups the configurations the moves that read a token
    reach, as `step` generates them, by that token.  A move is dropped
    if its target has no path to a final state (is absent from `need`),
    or if it is a close read at depth 0.  The open depth after a move is
    one more after an open, one less after a close, and `depth` after
    any other move, and without pop transitions the move's stack keeps
    one frame more than that.  A stack deeper than the state's
    `max_depth` is cut, and the node's `cut` is then the fewest tokens a
    cut move still needed -- the one it read, and enough to reach a final
    state and to close all but one of its frames.  A close kills level
    depth - 1 in every frame.

    The row is a dict from each token read, as `run`'s walk looks it up,
    to the next node itself: the graph's one node for its configurations
    and depth (`_SearchState.node`), unexpanded if it is new.  An open
    allocates the level `depth` and is filed under `KEY_OPEN`; a level is
    filed under itself; a close is filed under `TCLOSE`; any other token
    under itself.  A node whose closure holds a final state maps END to
    itself, at every depth: without pop transitions, which states a
    closure holds does not depend on the stack, so `run` accepts there,
    while `_language_keys` emits only at depth 0.
    """
    depth = node.depth
    need, has_pop, max_depth, finals = state.need, state.has_pop, state.max_depth, h.finals
    seen, frontier = set(node.configs), list(node.configs)
    reads: dict = {}  # token read -> (configurations reached, open depth after it)
    final, cut = False, None
    while frontier:
        q, stk = frontier.pop()
        if q in finals:
            final = True
        for t, tok_read, stk2 in step(h, q, stk, None, depth):
            # the open depth after the move; a move keeps one frame more
            depth2 = depth + (tok_read is KEY_OPEN) - (tok_read is TCLOSE)
            if depth2 < 0 or t.target not in need:
                continue
            if not has_pop:
                stk2 = stk2[:depth2 + 1]
            if len(stk2) > max_depth:
                req = (tok_read is not None) + max(need[t.target], depth2)
                if cut is None or req < cut:
                    cut = req
                continue
            if tok_read is TCLOSE:
                stk2 = _forget(stk2, depth2)
            cfg2 = (t.target, stk2)
            if tok_read is None:
                if cfg2 not in seen:
                    seen.add(cfg2)
                    frontier.append(cfg2)
                continue
            group = reads.get(tok_read)
            if group is None:
                reads[tok_read] = group = (set(), depth2)
            group[0].add(cfg2)
    row = {END: node} if final else {}
    for read, (group, depth2) in reads.items():
        row[read] = state.node(frozenset(group), depth2)
    node.cut, node.row = cut, row
    return row


def language_slice(h: Hds, bound: int) -> frozenset[MWord]:
    """Canonical words of token length at most `bound` accepted by `h`:
    the keys `_language_keys` yields, each decoded as it comes, under
    one collector pause."""
    with collector_paused():
        return frozenset(map(from_key, _language_keys(h, bound)))
