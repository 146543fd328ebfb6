"""History-dependent automata with a stack of name maps.

States carry finite sets of local names.  A transition relabels the
target's local names through a partial injective map into the source's
locals and may consume a name or letter token, stay silent, push or pop
a stack frame, or allocate/deallocate a bound name at the matching
open/close tokens of the input stream.

`step` is the one definition of the moves: what each of the seven move
kinds reads and what it does to the stack.  `run` takes from it the
moves that read the next input token and searches the nondeterministic
configuration graph with memoization.  `language_slice` takes every
move and walks the tree of emitted prefixes instead: each prefix holds
the set of configurations that generate it, and a memo keyed on that
set (with the open depth, the opens and the tokens left) computes each
set's non-consuming closure and token successors once, as the subset
construction does; each accepted word is canonicalized once.

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
1), and `run` says CUTOFF when the cap cut a branch.  Name maps are
hash-consed, so the stacks the searches memoize hash and compare by
identity, and a move that leaves the top frame as it is keeps the
stack itself.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .names import Letter, Name, STAR
from .words import MWord, TClose, TCLOSE, TOpen, Tok, alpha_canonical, parse_tokens
from .names import canonical_supply

MapValue = Union[Name, type(STAR)]


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

Config = tuple  # (state id, position in input, Stack)

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


def run(
    h: Hds,
    tokens: tuple[Tok, ...],
    max_depth: Optional[int] = None,
    want_trace: bool = False,
) -> RunResult:
    """Search for an accepting run on the token stream.

    Unless `h` has pop transitions, a successor keeps one frame more
    than the most by which closes outnumber opens over any stretch of
    the rest of the input: no close can read the others, and the search
    is exhaustive.  `max_depth` caps the stack depth (default: input
    length + state count + 1, which only a pop automaton can reach); a
    branch the cap cuts makes the outcome CUTOFF unless a run accepts.
    """
    if max_depth is None:
        max_depth = len(tokens) + len(h.states) + 1
    has_pop = any(t.label.kind == "pop" for _, t in h.transitions())
    # keep[pos]: 1 + the most by which closes outnumber opens over any
    # stretch of tokens[pos:], the frames a close can read
    keep = [1] * (len(tokens) + 1)
    for i in range(len(tokens) - 1, -1, -1):
        tok = tokens[i]
        keep[i] = max(1, keep[i + 1] + isinstance(tok, TClose) - isinstance(tok, TOpen))
    start = initial_config(h)
    seen = {start}
    parents: dict = {}
    frontier = [start]
    pruned_live = False
    while frontier:
        node = frontier.pop()
        state, pos, stk = node
        if pos == len(tokens) and state in h.finals:
            trace = None
            if want_trace:
                path = []
                while node in parents:
                    node, t = parents[node]
                    path.append(t)
                path.reverse()
                trace = _replay(h, tokens, start, path)
            return RunResult(ACCEPT, trace)
        tok = tokens[pos] if pos < len(tokens) else END
        for t, tok_read, stk2 in step(h, state, stk, tok):
            pos2 = pos if tok_read is None else pos + 1
            if not has_pop:
                stk2 = stk2[: keep[pos2]]
            if len(stk2) > max_depth:
                pruned_live = True
                continue
            node2 = (t.target, pos2, stk2)
            if node2 in seen:
                continue
            seen.add(node2)
            if want_trace:
                parents[node2] = (node, t)
            frontier.append(node2)
    return RunResult(CUTOFF if pruned_live else REJECT)


def _replay(h: Hds, tokens: tuple[Tok, ...], start: Config, path: list) -> list:
    """The run that takes the transitions of `path` from `start`, every frame kept.

    The search drops frames no close can read, so its configurations
    show only the top of the automaton's stacks; the same transitions
    are enabled on the whole stacks, and this rebuilds them.
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
    """`run` cut a still-live branch at its depth cap and found no accepting run."""


def accepts(h: Hds, tokens: tuple[Tok, ...]) -> bool:
    """Whether `h` accepts the stream; raises `Undecided` where `run` says CUTOFF."""
    outcome = run(h, tokens).outcome
    if outcome == CUTOFF:
        raise Undecided("the search reached its depth cap before a verdict")
    return outcome == ACCEPT


def accepts_word(h: Hds, w: MWord) -> bool:
    """Acceptance of a word, decided on its canonical tokenization."""
    return accepts(h, alpha_canonical(w).tokens)


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


def language_slice(h: Hds, bound: int) -> frozenset[MWord]:
    """Canonical words of token length at most `bound` accepted by `h`.

    Walks the tree of emitted prefixes, determinizing on the fly as the
    subset construction does.  A prefix node holds the set of
    (state, stack) configurations that `step` reaches while generating
    that prefix, its open depth and its number of opens; the i-th open
    move allocates the i-th canonical bound name.  One
    memo per call, keyed on (configuration set, open depth, opens,
    tokens left), holds what a node's set closes to under non-consuming
    moves: whether the closure has a final state at open depth 0, and
    the node each token read from it leads to.  Prefixes that reach the
    same set share that work, and a prefix is never hashed.  A final
    prefix is parsed and canonicalized once: no other prefix spells the
    same token stream.

    A configuration is dropped when the tokens left under the bound
    cannot both close its open binders and take its state to a final
    one (`steps_to_final`); a state with no path to a final state is
    always dropped.  Without pop transitions a configuration keeps one
    frame more than its open depth: the rest of an accepted word closes
    those binders and never outnumbers its own opens with its closes.
    So the walk is exhaustive; with pop transitions, stacks deeper than
    the bound + state count + 1 are dropped, as `run` caps them.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    max_depth = bound + len(h.states) + 1
    need = steps_to_final(h)
    has_pop = any(t.label.kind == "pop" for _, t in h.transitions())
    supply = canonical_supply(h.eta.values())
    fresh: list[Name] = []  # fresh[i] is the name the i-th open allocates
    memo: dict = {}

    def expand(node):
        """(final?, [(token, successor node)]) of a prefix node, memoized."""
        hit = memo.get(node)
        if hit is not None:
            return hit
        configs, depth, opens, left = node
        if left and opens == len(fresh):  # the first node that may open one more binder
            fresh.append(next(supply))
        final = False
        reads: dict[tuple, set] = {}  # (token, open depth) -> configurations after it
        seen = set(configs)
        frontier = list(configs)
        while frontier:
            state, stk = frontier.pop()
            if state in h.finals and depth == 0:
                final = True
            if left:
                moves = step(h, state, stk, None, fresh[opens])
            else:
                moves = step(h, state, stk, END)
            for t, tok_read, stk2 in moves:
                depth2, left2 = depth, left
                if tok_read is not None:
                    left2 = left - 1
                    if tok_read is TCLOSE:
                        if depth == 0:
                            continue
                        depth2 = depth - 1
                    elif isinstance(tok_read, TOpen):
                        depth2 = depth + 1
                if max(need.get(t.target, left2 + 1), depth2) > left2:
                    continue
                if not has_pop:
                    # a word ends with no binder open, so closes can outnumber
                    # opens over the rest of it by the open binders at most
                    stk2 = stk2[: depth2 + 1]
                if len(stk2) > max_depth:
                    continue
                cfg2 = (t.target, stk2)
                if tok_read is not None:
                    reads.setdefault((tok_read, depth2), set()).add(cfg2)
                elif cfg2 not in seen:
                    seen.add(cfg2)
                    frontier.append(cfg2)
        succ = [
            (tok, (frozenset(cfgs), depth2, opens + isinstance(tok, TOpen), left - 1))
            for (tok, depth2), cfgs in reads.items()
        ]
        memo[node] = hit = (final, succ)
        return hit

    out: set[MWord] = set()
    start = frozenset({(h.initial, (NameMap.of(h.eta),))})
    todo = [((), (start, 0, 0, bound))]  # emitted prefix and its node
    while todo:
        prefix, node = todo.pop()
        final, succ = expand(node)
        if final:
            out.add(alpha_canonical(parse_tokens(prefix)))
        todo.extend((prefix + (tok,), node2) for tok, node2 in succ)
    return frozenset(out)
