import gc
import hashlib
import itertools
import os
import random
import time
from dataclasses import FrozenInstanceError, replace

import pytest

from nomlang.names import Letter, Name, STAR
from nomlang.hds import (
    ACCEPT,
    BOTTOM,
    CLOSE,
    CUTOFF,
    END,
    EPS,
    Hds,
    Move,
    NameMap,
    OPEN,
    POP,
    PUSH,
    REJECT,
    Transition,
    Undecided,
    accepts,
    accepts_word,
    compose,
    language_slice,
    push_frame,
    run,
    stack_update,
    step,
    validate,
    word_stream,
)
from nomlang.compiler import compile_regex
from nomlang.words import (
    KEY_OPEN, TCLOSE, MWord, TOpen, alpha_canonical, alpha_key, canonical_row, from_key,
    parse_tokens, tokenize,
)
from nomlang.syntax import parse_nre, parse_regex, parse_word, render_regex, render_word
from nomlang.oracle import (
    brute_slice, naive_run, near_misses, random_mword, random_regex, trace_follows_step,
)
from nomlang.regex import enumerate_slice
from nomlang.hds_format import FormatError, parse, serialize

from conftest import NAMES, LETTERS, junk_below

n, m, k = NAMES
a, b = LETTERS
x, y = Name("x"), Name("y")
NS_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "expressions", "ns_protocol.nre")


def NM(d):
    return NameMap.of(d)


# -- name maps and stacks ----------------------------------------------------

def test_namemap_basics():
    f = NM({x: n, y: m})
    assert f.get(x) is n
    assert f.get(k) is None
    assert f.domain == {x, y}
    assert set(f.values()) == {n, m}
    assert NM({y: m, x: n}) == f  # entry order is canonical
    assert BOTTOM.domain == frozenset()
    assert repr(NM({x: 300, y: STAR})) == "x>300,y>*"  # a frame holding a binder's level


def test_namemaps_are_interned():
    assert NM({x: n}) is NM({x: n})
    assert NameMap(()) is BOTTOM
    with pytest.raises(AttributeError):
        NM({x: n}).entries = ()
    # frames made during a search live in the automaton's search state, and
    # are freed with the automaton
    tokens = tokenize(parse_word("<#n. #n #m > <#n. #n #n #m > #k"))
    gc.collect()
    before = len(NameMap._table)
    h = compile_regex(parse_regex("( <#n. #n ( #m + #n )* > )*", set()))
    assert run(h, tokens).outcome == REJECT
    searched = len(NameMap._table)
    assert run(h, tokens).outcome == REJECT
    assert len(NameMap._table) == searched
    del h
    gc.collect()
    assert len(NameMap._table) == before


def test_namemap_injectivity():
    assert NM({x: n, y: m}).is_injective()
    assert not NM({x: n, y: n}).is_injective()
    # only the placeholder may repeat
    assert NM({x: STAR, y: STAR}).is_injective()


def test_compose_and_stack_update():
    frame = NM({x: n, y: m})
    sigma = NM({y: x})  # new y takes old x's meaning
    assert compose(sigma, frame.as_dict()) == NM({y: n})
    stack = (frame, NM({x: k}))
    assert stack_update(stack, sigma) == (NM({y: n}), NM({x: k}))
    # a move that leaves the top frame as it is keeps the stack itself
    assert stack_update(stack, NM({x: x, y: y})) is stack
    # an empty sigma forgets the top frame's names
    assert stack_update(stack, BOTTOM) == (BOTTOM,) + stack[1:]


def test_push_frame_resolves_through_top():
    top = NM({x: n})
    # a push value that is a local of the current state means "whatever
    # that local currently denotes"; other values are taken literally
    assert push_frame(NM({y: x}), top) == NM({y: n})
    assert push_frame(NM({y: m}), top) == NM({y: m})


# -- moves -------------------------------------------------------------------

def test_step_defines_every_move():
    # one transition of each kind out of q, each to a target named after it
    moves = {
        "name": (x, NM({x: x})),
        "unmapped": (y, NM({x: x})),  # y has no meaning in the top frame
        "letter": (a, BOTTOM),
        "eps": (EPS, NM({y: x})),
        "push": (PUSH, NM({x: x, y: m})),
        "pop": (POP, NM({x: x})),
        "open": (OPEN, NM({y: STAR, x: x})),
        "close": (CLOSE, NM({x: x})),
    }
    h = Hds(
        states={"q": frozenset({x, y}), **{q: frozenset({x, y}) for q in moves}},
        initial="q",
        eta={x: n},
        finals=frozenset(),
        trans={"q": tuple(Transition(lab, q, sig) for q, (lab, sig) in moves.items())},
    )
    below = NM({x: k})
    stk = (NM({x: n}), below)
    c = Name("c")

    def enabled(tok, fresh=None):
        return {t.target: (tok_read, stk2) for t, tok_read, stk2 in step(h, "q", stk, tok, fresh)}

    silent = {
        "eps": (None, (NM({y: n}), below)),
        "push": (None, (NM({x: n, y: m}), NM({x: n}), below)),  # y > m is a global
        "pop": (None, (below,)),
    }
    reads = {
        "name": (n, (NM({x: n}), below)),
        "letter": (a, (BOTTOM, below)),
        "open": (TOpen(c), (NM({x: n, y: c}), NM({x: n}), below)),
        "close": (TCLOSE, (below,)),
    }
    # generating: an open reads KEY_OPEN and allocates `fresh`
    assert enabled(None, fresh=c) == {**silent, **reads, "open": (KEY_OPEN, reads["open"][1])}
    for kind, (tok, _) in reads.items():
        assert enabled(tok) == {**silent, kind: reads[kind]}
    assert enabled(m) == silent
    assert enabled(b) == silent
    assert enabled(END) == silent


# -- hand-built automata -----------------------------------------------------

@pytest.fixture
def push_pop_hds():
    """Push a frame (y=m, x=current x), read #y, pop, read #x."""
    return Hds(
        states={
            "q0": frozenset({x}),
            "q1": frozenset({x, y}),
            "q2": frozenset({x}),
            "q3": frozenset({x}),
            "q4": frozenset(),
        },
        initial="q0",
        eta={x: n},
        finals=frozenset({"q4"}),
        trans={
            "q0": (Transition(PUSH, "q1", NM({y: m, x: x})),),
            "q1": (Transition(y, "q2", NM({x: x})),),
            "q2": (Transition(POP, "q3", NM({x: x})),),
            "q3": (Transition(x, "q4", NM({})),),
            "q4": (),
        },
    )


@pytest.fixture
def open_close_hds():
    """Read one allocation, its name, then #x, then the close bracket."""
    return Hds(
        states={
            "p0": frozenset({x}),
            "p1": frozenset({x, y}),
            "p2": frozenset({x}),
            "p3": frozenset(),
            "p4": frozenset(),
        },
        initial="p0",
        eta={x: n},
        finals=frozenset({"p4"}),
        trans={
            "p0": (Transition(OPEN, "p1", NM({y: STAR, x: x})),),
            "p1": (Transition(y, "p2", NM({x: x})),),
            "p2": (Transition(x, "p3", NM({})),),
            "p3": (Transition(CLOSE, "p4", BOTTOM),),
            "p4": (),
        },
    )


def test_validate_accepts_hand_automata(push_pop_hds, open_close_hds):
    assert validate(push_pop_hds) == []
    assert validate(open_close_hds) == []


def test_validate_flags_problems(push_pop_hds):
    h = push_pop_hds
    bad = Hds(h.states, "nowhere", h.eta, h.finals, h.trans)
    assert any("initial" in p for p in validate(bad))
    bad = Hds(h.states, h.initial, {y: n}, h.finals, h.trans)
    assert any("eta" in p for p in validate(bad))
    bad_trans = dict(h.trans)
    bad_trans["q3"] = (Transition(y, "q4", NM({})),)  # y not local to q3
    bad = Hds(h.states, h.initial, h.eta, h.finals, bad_trans)
    assert any("label name" in p for p in validate(bad))
    bad_trans = dict(h.trans)
    bad_trans["q0"] = (Transition(EPS, "q1", NM({x: x, y: x})),)
    bad = Hds(h.states, h.initial, h.eta, h.finals, bad_trans)
    assert any("injective" in p for p in validate(bad))


# one fault each, made in q0 {x} --#x[x>x]--> q1 {x}: (what is changed, the message)
VALIDATE_FAULTS = {
    "final state": (dict(finals=frozenset({"q1", "qz"})), "final state qz undeclared"),
    "eta value": (dict(eta={x: a}), "eta value for x is not a name"),
    "source": (dict(trans={"qz": ()}), "transitions from undeclared state qz"),
    "target": (dict(trans={"q0": (Transition(x, "qz", BOTTOM),)}), "undeclared target"),
    "sigma domain": (dict(trans={"q0": (Transition(EPS, "q1", NM({y: x})),)}),
                     "sigma domain exceeds target locals"),
    "open value": (dict(trans={"q0": (Transition(OPEN, "q1", NM({x: y})),)}),
                   "open sigma value outside source locals"),
    "push value": (dict(trans={"q0": (Transition(PUSH, "q1", NM({x: STAR})),)}),
                   "push sigma must map into names"),
    "sigma value": (dict(trans={"q0": (Transition(EPS, "q1", NM({x: y})),)}),
                    "sigma value outside source locals"),
}


def _faulty(change) -> Hds:
    h = Hds(states={"q0": frozenset({x}), "q1": frozenset({x})}, initial="q0", eta={x: n},
            finals=frozenset({"q1"}), trans={"q0": (Transition(x, "q1", NM({x: x})),)})
    assert validate(h) == []
    return replace(h, **change)


@pytest.mark.parametrize("change,message", VALIDATE_FAULTS.values(), ids=VALIDATE_FAULTS.keys())
def test_validate_names_each_fault(change, message):
    (fault,) = validate(_faulty(change))
    assert fault.endswith(message)


# `serialize` writes no line for a state without transitions, and no
# letter as an eta value
WRITTEN_FAULTS = [key for key in VALIDATE_FAULTS if key not in ("source", "eta value")]


@pytest.mark.parametrize("key", WRITTEN_FAULTS)
def test_parse_refuses_each_fault_validate_names(key):
    change, message = VALIDATE_FAULTS[key]
    with pytest.raises(FormatError) as refusal:
        parse(serialize(_faulty(change)))
    assert message in str(refusal.value)


# a label that is no local name, no letter and none of the five moves; at
# a misspelled keyword, a transition ran as a close and accepted a close
FOREIGN_LABELS = {"str": "open", "open token": TOpen(n), "close token": TCLOSE,
                  "unknown move": Move("opne"), "none": None}


@pytest.mark.parametrize("label", FOREIGN_LABELS.values(), ids=FOREIGN_LABELS.keys())
def test_validate_rejects_a_foreign_label(label):
    h = Hds({"q0": frozenset(), "q1": frozenset()}, "q0", {}, frozenset({"q1"}),
            {"q0": (Transition(label, "q1", BOTTOM),), "q1": ()})
    assert validate(h) == [f"q0 --{label!r}[_|_]--> q1: label is no name, letter or move"]
    # written as its repr, "open" would read back as the open move
    with pytest.raises(FormatError, match="is no name, letter or move"):
        serialize(h)
    # no move reads or skips with it
    for tokens in [(), (TCLOSE,), (TOpen(n), TCLOSE), (n,)]:
        assert run(h, tokens).outcome == REJECT
        assert naive_run(h, tokens).outcome == REJECT
    assert language_slice(h, 2) == frozenset()


def test_a_letter_and_a_name_of_one_spelling_read_apart():
    # the letter move reads `a`, the name move reads `#a`, its local's meaning
    la, na = Letter("a"), Name("a")
    h = Hds({"q0": frozenset({x}), "q1": frozenset({x}), "q2": frozenset()}, "q0", {x: na},
            frozenset({"q2"}),
            {"q0": (Transition(la, "q1", NM({x: x})), Transition(x, "q2", BOTTOM)),
             "q1": (Transition(x, "q2", BOTTOM),), "q2": ()})
    assert validate(h) == []
    accepted = {(na,), (la, na)}
    for length in range(3):
        for tokens in itertools.product((la, na), repeat=length):
            want = ACCEPT if tokens in accepted else REJECT
            assert run(h, tokens).outcome == naive_run(h, tokens).outcome == want, tokens
    assert language_slice(h, 3) == {MWord(w) for w in accepted}
    assert brute_slice(h, 3, frozenset({na})) == language_slice(h, 3)


def test_push_pop_language(push_pop_hds):
    h = push_pop_hds
    assert accepts(h, (m, n))
    assert not accepts(h, (n, n))
    assert not accepts(h, (m,))
    assert not accepts(h, (m, n, n))
    got = brute_slice(h, 3, frozenset({n, m}))
    assert got == language_slice(h, 3) == {parse_word("#m #n")}


def test_open_close_language(open_close_hds):
    h = open_close_hds
    assert accepts_word(h, parse_word("<#m. #m #n >"))
    assert accepts_word(h, parse_word("<#k. #k #n >"))  # alpha-invariant
    assert not accepts_word(h, parse_word("<#m. #m #m >"))
    assert not accepts_word(h, parse_word("<#m. #n #m >"))
    got = language_slice(h, 4)
    assert {render_word(w) for w in got} == {"<#~0. #~0 #n >"}


def test_letter_transitions():
    h = Hds(
        states={"q0": frozenset(), "q1": frozenset()},
        initial="q0",
        eta={},
        finals=frozenset({"q1"}),
        trans={
            "q0": (Transition(a, "q1", BOTTOM),),
            "q1": (Transition(b, "q0", BOTTOM),),
        },
    )
    assert accepts(h, (a,))
    assert accepts(h, (a, b, a))
    assert not accepts(h, (b,))
    got = brute_slice(h, 3, frozenset({n}))
    assert got == language_slice(h, 3)


def test_junk_frames_below_eta_are_inert(push_pop_hds):
    h = push_pop_hds
    good = (m, n)
    bad = (n, m)
    for junk in ((), (NM({x: k}),), (NM({x: m}), NM({y: n}))):
        assert naive_run(junk_below(h, junk), good).outcome == ACCEPT
        assert naive_run(junk_below(h, junk), bad).outcome == REJECT


def test_push_loop_terminates_without_consuming():
    # the push self-loop ends: with no close ahead only the top frame is
    # kept, so the pushed stack is one the search has already seen
    h = Hds(
        states={"q0": frozenset({x})},
        initial="q0",
        eta={x: n},
        finals=frozenset({"q0"}),
        trans={"q0": (Transition(PUSH, "q0", NM({x: x})),)},
    )
    assert accepts(h, ())
    assert not accepts(h, (m,))


def test_run_trace_reaches_final(push_pop_hds):
    r = run(push_pop_hds, (m, n), want_trace=True)
    assert r.outcome == ACCEPT
    states = [cfg[0] for cfg, _ in r.trace]
    assert states[0] == "q0"
    assert states[-1] == "q4"
    assert r.trace[0][1] is None  # the first entry has no incoming move


def test_trace_shows_the_whole_stacks():
    # the search drops frames no close can read; the trace replays the
    # accepting transitions on the automaton's own stacks
    h = compile_regex(parse_regex("#m <#n. #m #n >*", set()))
    w = parse_word("#m <#n. #m #n > <#n. #m #n >")
    tokens = tokenize(alpha_canonical(w))
    r = run(h, tokens, want_trace=True)
    assert r.outcome == ACCEPT
    (state, pos, stk), _ = r.trace[-1]
    assert state in h.finals and pos == len(tokens)
    # the search keeps one frame at the end; the replay keeps the one below it
    assert stk == (BOTTOM, BOTTOM)
    for (before, _), (after, t) in zip(r.trace, r.trace[1:]):
        state, pos, stk = before
        tok = tokens[pos] if pos < len(tokens) else END
        successors = [
            (u.target, pos + (read is not None), stk2) for u, read, stk2 in step(h, state, stk, tok)
            if u is t
        ]
        assert after in successors


def test_depth_cutoff_reported():
    # the name move does not read #m, and the push on q0 would take the
    # stack past the cap of one frame: a live branch was cut
    h = Hds(
        states={"q0": frozenset({x}), "q1": frozenset({x})},
        initial="q0",
        eta={x: n},
        finals=frozenset({"q1"}),
        trans={
            "q0": (Transition(PUSH, "q0", NM({x: x})),
                   Transition(x, "q1", NM({x: x})),),
            "q1": (),
        },
    )
    r = naive_run(h, (m,), max_depth=1)
    assert r.outcome == CUTOFF


def _double_push_hds(with_pop: bool) -> Hds:
    """A binder whose close reads the frame below the top, over any
    number of pushed #m frames: the name read after the binder is #n
    (eta) with no push, and #m only after two pushes in a row."""
    states = {"qs": frozenset({x}), "q0": frozenset({x, y}),
              "q1": frozenset({x}), "q2": frozenset()}
    trans = {
        "qs": (Transition(OPEN, "q0", NM({x: x, y: STAR})),),
        "q0": (Transition(PUSH, "q0", NM({x: m})),
               Transition(CLOSE, "q1", NM({x: x}))),
        "q1": (Transition(x, "q2", NM({})),),
        "q2": (),
    }
    if with_pop:  # unreachable, but it keeps `run` from dropping frames
        states["q3"] = frozenset()
        trans["q3"] = (Transition(POP, "q3", NM({})),)
    h = Hds(states, "qs", {x: n}, frozenset({"q2"}), trans)
    assert validate(h) == []
    return h


def _binder_then(name):
    return tokenize(alpha_canonical(parse_word(f"<#a. ^ > #{name.label}")))


def test_pushes_in_a_row_are_searched():
    h = _double_push_hds(with_pop=False)
    assert run(h, _binder_then(m)).outcome == ACCEPT
    assert run(h, _binder_then(k)).outcome == REJECT
    got = language_slice(h, 4)
    assert got == brute_slice(h, 4, frozenset({m, n, Name("z")}))
    assert {render_word(w) for w in got} == {"<#~0. ^ > #m", "<#~0. ^ > #n"}
    # with a pop transition every frame is kept, and only the depth cap
    # ends the push loop: a word it rejects is undecided
    h = _double_push_hds(with_pop=True)
    assert run(h, _binder_then(m)).outcome == ACCEPT
    assert run(h, _binder_then(n)).outcome == ACCEPT
    assert run(h, _binder_then(k)).outcome == CUTOFF


def _escape(h: Hds, then_bind: bool = True) -> Hds:
    """`h`, a `_double_push_hds`, with `open[x>*]`: after one push the close
    reads the open's own frame, so the allocated name escapes its binder.
    With `then_bind`, the escaped name is read inside a second binder."""
    trans = h.trans | {"qs": (Transition(OPEN, "q0", NM({x: STAR})),)}
    if not then_bind:
        return replace(h, trans=trans)
    return replace(
        h,
        states=h.states | {"q3": frozenset({x, y}), "q4": frozenset(), "q5": frozenset()},
        finals=frozenset({"q5"}),
        trans=trans | {
            "q1": (Transition(OPEN, "q3", NM({x: x, y: STAR})),),
            "q3": (Transition(x, "q4", BOTTOM),),
            "q4": (Transition(CLOSE, "q5", BOTTOM),),
            "q5": (),
        },
    )


def _escaping_hds(then_bind: bool = False) -> Hds:
    """`_double_push_hds` with the escaping open of `_escape`."""
    h = _escape(_double_push_hds(with_pop=False), then_bind)
    assert validate(h) == []
    return h


def _push_constant_hds() -> Hds:
    """A push frame holds the reserved binder name ~0, then a binder reads it."""
    h = Hds(
        states={"q0": frozenset({x}), "q1": frozenset({x}), "q2": frozenset({x, y}),
                "q3": frozenset(), "q4": frozenset()},
        initial="q0",
        eta={x: m},
        finals=frozenset({"q4"}),
        trans={
            "q0": (Transition(PUSH, "q1", NM({x: Name("~0")})),),
            "q1": (Transition(OPEN, "q2", NM({x: x, y: STAR})),),
            "q2": (Transition(x, "q3", BOTTOM),),
            "q3": (Transition(CLOSE, "q4", BOTTOM),),
            "q4": (),
        },
    )
    assert validate(h) == []
    return h


def _unbalanced_hds() -> Hds:
    """A close with no binder open, then a binder whose body reads it and
    ends in a final state with the binder still open."""
    h = Hds(
        states={"q0": frozenset(), "q1": frozenset(), "q2": frozenset({x}), "q3": frozenset()},
        initial="q0",
        eta={},
        finals=frozenset({"q3"}),
        trans={
            "q0": (Transition(CLOSE, "q1", BOTTOM),),
            "q1": (Transition(OPEN, "q2", NM({x: STAR})),),
            "q2": (Transition(x, "q3", BOTTOM),),
            "q3": (),
        },
    )
    assert validate(h) == []
    return h


POOL = frozenset({m, n, Name("~0"), Name("z")})


@pytest.mark.parametrize("then_bind,bound", [(False, 4), (True, 6)])
def test_slice_keeps_allocated_names_inside_their_binders(then_bind, bound):
    # a close that reads the open's own frame makes the allocated name a
    # value below the binder; at the close it dies, so no later name move
    # emits it, as `run` rejects `<#~1. ^ > #~0`
    h = _escaping_hds(then_bind)
    assert language_slice(h, bound) == brute_slice(h, bound, POOL)


def test_slice_allocates_a_name_apart_from_the_push_constants():
    h = _push_constant_hds()
    got = language_slice(h, 4)
    assert {render_word(w) for w in got} == {"<#~1. #~0 >"}
    assert all(run(h, tokenize(w)).outcome == ACCEPT for w in got)
    # the slice allocates a name no frame holds, and so does `brute_slice`:
    # the binder may not take the name of the push constant ~0
    assert brute_slice(h, 4, POOL) == got


def test_accepts_word_names_binders_apart_from_the_constants():
    # `<#~0. #~0 >` is `<#a. #a >`, which the free #~0 of the expression
    # cannot read
    h = compile_regex(parse_regex("<#n. #~0 >", set()))
    assert not accepts_word(h, parse_word("<#~0. #~0 >"))
    assert accepts_word(h, parse_word("<#a. #~0 >"))
    # on the push constant ~0 the word-level verdicts are the slice's,
    # and `brute_slice` decides by them
    h = _push_constant_hds()
    got = language_slice(h, 4)
    candidates = brute_slice(h, 4, POOL)
    assert candidates == got
    assert {w for w in candidates if accepts_word(h, w)} == got


def test_brute_slice_names_binders_apart_from_the_constants():
    # a binder named ~0 cannot capture the free #~0 of the expression
    h = compile_regex(parse_regex("<#n. #~0 >", set()))
    got = brute_slice(h, 3, POOL)
    assert got == language_slice(h, 3)
    assert {render_word(w) for w in got} == {"<#~1. #~0 >"}
    # nor the constant ~0 of a random expression over it: raw canonical
    # streams let it capture ~0 on 10 of these 150
    rng = random.Random(5)
    pool = frozenset(map(Name, ("n", "~0", "m", "z", "~1")))
    for _ in range(150):
        e = random_regex(rng, [n, Name("~0"), m], [a], 3)
        h = compile_regex(e)
        assert brute_slice(h, 4, pool) == language_slice(h, 4), render_regex(e)


def _raw(text):
    return tokenize(parse_word(text))  # the word's own binder names, not canonical ones


RAW_AUTOMATA = {
    "session": lambda: compile_regex(parse_regex("#m <#n. #m #n >*", set())),
    "free": lambda: compile_regex(parse_regex("( #n + <#n. #n > )*", set())),
    "push ~0": _push_constant_hds,
    "escape": _escaping_hds,
    "escape, bind": lambda: _escaping_hds(then_bind=True),
    "unbalanced": _unbalanced_hds,
}

RAW_STREAMS = [
    # a binder name reused
    ("session", _raw("#m <#n. #m #n > <#n. #m #n >"), ACCEPT),
    ("session", _raw("#m <#n. #m #n > <#n. #m #m >"), REJECT),
    # a binder named after an eta value
    ("session", _raw("#m <#m. #m #m >"), ACCEPT),
    ("session", _raw("#m <#m. #m #n >"), REJECT),
    # a binder name that also occurs free
    ("free", _raw("#n <#n. #n > #n"), ACCEPT),
    ("free", _raw("#n <#n. #n > #k"), REJECT),
    # an unmatched open and an unmatched close
    ("session", (m, TOpen(n), m, n), REJECT),
    ("session", (m, TOpen(n), m, n, TCLOSE, TCLOSE), REJECT),
    ("session", (m, TCLOSE, TOpen(n), m, n, TCLOSE), REJECT),
    ("escape", (TOpen(k), TCLOSE, TCLOSE, k), REJECT),
    # a push constant that is a reserved binder name
    ("push ~0", _raw("<#~0. #~0 >"), ACCEPT),
    ("push ~0", _raw("<#~1. #~0 >"), ACCEPT),
    ("push ~0", _raw("<#n. #~0 >"), ACCEPT),
    # an allocated name that escapes its binder
    ("escape", _raw("<#~1. ^ > #~0"), REJECT),
    ("escape", _raw("<#n. ^ > #n"), ACCEPT),
    ("escape", _raw("<#k. ^ > #k"), ACCEPT),
    ("escape", _raw("<#k. ^ > #z"), REJECT),
    # ... and is read inside a later binder, of the same open depth
    ("escape, bind", _raw("<#k. ^ > <#z. #k >"), ACCEPT),
    ("escape, bind", _raw("<#k. ^ > <#z. #z >"), REJECT),
    ("escape, bind", _raw("<#k. ^ > <#k. #k >"), ACCEPT),
    # a private binder with unmatched closes after it, so that more frames
    # are kept at its open than its open depth needs (verdicts of `naive_run`)
    ("escape", (TOpen(Name("z")), TCLOSE, TCLOSE, n), REJECT),
    ("escape", (TOpen(Name("z")), TCLOSE, n, TCLOSE), REJECT),
    ("escape, bind", (TOpen(k), TCLOSE, TOpen(Name("z")), k, TCLOSE, TCLOSE), REJECT),
    ("escape, bind", (TOpen(Name("z")), TCLOSE, TOpen(k), n, TCLOSE, TCLOSE), REJECT),
    # an unmatched close, then a binder still open where the run accepts
    ("unbalanced", (TCLOSE, TOpen(n), n), ACCEPT),
    ("unbalanced", (TCLOSE, TOpen(n), m), REJECT),
    ("unbalanced", (TCLOSE, TOpen(n), n, TCLOSE), REJECT),
    ("unbalanced", (TOpen(n), n), REJECT),
]


@pytest.mark.parametrize("automaton,tokens,outcome", RAW_STREAMS)
def test_raw_streams_keep_their_verdicts(automaton, tokens, outcome):
    # a raw stream may reuse binder names, name a binder after a constant,
    # use it outside its scope or leave it unmatched: no renaming that
    # `run` makes may change what the automaton does on it
    h = RAW_AUTOMATA[automaton]()
    assert run(h, tokens).outcome == outcome
    r = run(h, tokens, want_trace=True)
    assert r.outcome == outcome
    if outcome == ACCEPT:
        _assert_trace_follows_step(h, tokens, r.trace)


def _assert_trace_follows_step(h, tokens, trace):
    """Each traced move is a `step` successor of the one before, on `tokens`."""
    assert trace_follows_step(h, tokens, trace)


def test_a_doctored_trace_does_not_follow_step():
    h = compile_regex(parse_regex("#m <#n. #m #n >*", letters=set()))
    tokens = word_stream(h, parse_word("#m <#n. #m #n > <#n. #m #n >"))
    trace = run(h, tokens, want_trace=True).trace
    assert trace_follows_step(h, tokens, trace)
    (cfg, _), (cfg1, _) = trace[0], trace[1]
    assert cfg1[0] != h.initial
    wrong_start = [((cfg1[0],) + cfg[1:], None)] + trace[1:]
    i = next(i for i in range(1, len(trace) - 1) if trace[i][1] is not trace[i + 1][1])
    (c1, t1), (c2, t2) = trace[i], trace[i + 1]
    swapped = trace[:i] + [(c1, t2), (c2, t1)] + trace[i + 2:]
    for doctored in (wrong_start, swapped, trace[:-1]):
        assert not trace_follows_step(h, tokens, doctored)


def test_accepts_raises_where_the_search_is_cut():
    h = _double_push_hds(with_pop=True)
    assert accepts(h, _binder_then(m))
    with pytest.raises(Undecided):
        accepts(h, _binder_then(k))
    with pytest.raises(Undecided):
        accepts_word(h, parse_word("<#a. ^ > #k"))


def test_slice_raises_where_the_search_is_cut(tmp_path, capsys):
    # a pop automaton whose push loop only the depth cap ends, before any
    # word is read: the slice cannot say that #n is all there is
    from nomlang import hds_format
    from nomlang.cli import main

    states = {"q0": frozenset({x}), "q1": frozenset({x}), "q2": frozenset()}
    trans = {
        "q0": (Transition(PUSH, "q0", NM({x: x})),
               Transition(x, "q1", NM({x: x}))),
        "q1": (Transition(POP, "q2", NM({})),),
        "q2": (),
    }
    h = Hds(states, "q0", {x: n}, frozenset({"q2"}), trans)
    assert validate(h) == []
    # a pop automaton keeps no node graph between calls, so each one raises
    for bound in (3, 3, 2, 4):
        with pytest.raises(Undecided):
            language_slice(h, bound)
    with pytest.raises(Undecided):
        brute_slice(h, 3, frozenset({n}))
    path = tmp_path / "loop.hds"
    path.write_text(hds_format.serialize(h))
    assert main(["enumerate", str(path), "--bound", "3"]) == 3
    assert capsys.readouterr().out.startswith("UNDECIDED")


def _pop_hds(trans: dict, finals: set) -> Hds:
    """A hand-built automaton with no locals and an unreachable pop loop,
    so the searches keep whole stacks and cap their depth."""
    trans = dict(trans, qp=(Transition(POP, "qp", NM({})),))
    states = dict.fromkeys(set(trans) | {t.target for ts in trans.values() for t in ts},
                           frozenset())
    h = Hds(states, "q0", {}, frozenset(finals), trans)
    assert validate(h) == []
    return h


def test_slice_raises_only_where_a_cut_branch_could_finish_in_time():
    # the push loop on q1 reaches the cap before any token is read, and
    # from q1 a word needs three more letters: below bound 3 the cut
    # branch could not have finished, so the slice is exact
    h = _pop_hds({
        "q0": (Transition(a, "qf", NM({})), Transition(EPS, "q1", NM({}))),
        "q1": (Transition(PUSH, "q1", NM({})), Transition(a, "q2", NM({}))),
        "q2": (Transition(a, "q3", NM({})),),
        "q3": (Transition(a, "q4", NM({})),),
    }, {"qf", "q4"})
    for bound in (1, 2):
        assert language_slice(h, bound) == {parse_word("a")}
    for bound in (3, 4):
        with pytest.raises(Undecided):
            language_slice(h, bound)


def test_a_cut_branch_that_cannot_finish_is_no_cutoff():
    # the push loop on qd reaches the cap, but qd has no path to a final
    # state: the branch is dropped, so the verdicts are exact
    h = _pop_hds({
        "q0": (Transition(a, "qf", NM({})), Transition(EPS, "qd", NM({}))),
        "qd": (Transition(PUSH, "qd", NM({})),),
    }, {"qf"})
    assert run(h, (a,)).outcome == ACCEPT
    assert run(h, (a, a)).outcome == REJECT
    assert run(h, ()).outcome == REJECT
    assert language_slice(h, 3) == {parse_word("a")}


# -- dead-frame truncation -----------------------------------------------------

def _words_and_near_misses(h, bound):
    """Token streams of a few slice words, each with all its one-token
    near-misses: inserted closes and opens, deletions and name swaps."""
    out = []
    for w in sorted(language_slice(h, bound), key=repr)[:4]:
        t = tokenize(w)
        out.append(t)
        out += near_misses(t, (n, m))
    return out


def test_truncation_is_exact_on_random_automata():
    # only close moves read below the top, one frame down, so dropping the
    # frames no remaining close token can reach never changes a verdict
    rng = random.Random(4)
    checked = 0
    for _ in range(100):
        h = compile_regex(random_regex(rng, NAMES, LETTERS, 4))
        for t in _words_and_near_misses(h, 6):
            full = run(h, t).outcome
            assert full in (ACCEPT, REJECT)
            assert naive_run(h, t).outcome == full
            capped = run(h, t, max_depth=3).outcome
            assert capped in (CUTOFF, full)
            checked += 1
    assert checked > 500


HAND_BUILT = {
    **RAW_AUTOMATA,
    "double push": lambda: _double_push_hds(with_pop=False),
    "double push, pop": lambda: _double_push_hds(with_pop=True),
}


@pytest.mark.parametrize("automaton", sorted(HAND_BUILT))
def test_run_agrees_with_the_naive_run_on_hand_built_automata(automaton):
    # random streams with opens, closes and names inserted: unmatched
    # brackets, binders that are not private, and private ones under
    # unmatched closes, at the default cap and at one that can cut.
    # `naive_run` fires a push at most once between two tokens, so it
    # misses runs that push twice in a row; where `run` alone accepts, its
    # trace must be a run of `step`
    rng = random.Random(7)
    h = HAND_BUILT[automaton]()
    base = [s for label, s, _ in RAW_STREAMS if label == automaton]
    base += [_binder_then(nm) for nm in (m, n, k)]
    try:
        base += [tokenize(w) for w in sorted(language_slice(HAND_BUILT[automaton](), 6), key=repr)]
    except Undecided:
        pass
    pool = [m, n, k, Name("~0"), Name("z")]
    compared = 0
    for _ in range(400):
        t = list(rng.choice(base))
        for _ in range(rng.randint(1, 3)):
            tok = rng.choice([TCLOSE, TCLOSE, TOpen(rng.choice(pool)), rng.choice(pool)])
            t.insert(rng.randint(0, len(t)), tok)
        t = tuple(t)
        for cap in (None, 2):
            got, want = run(h, t, max_depth=cap).outcome, naive_run(h, t, max_depth=cap).outcome
            if CUTOFF in (got, want):
                continue
            compared += 1
            if got != want:
                assert (got, want) == (ACCEPT, REJECT), t
                _assert_trace_follows_step(h, t, run(h, t, max_depth=cap, want_trace=True).trace)
    assert compared > 200


def test_truncation_keeps_the_top_frame_before_an_unclosed_open():
    # no close follows the open, so no frame below the top is live, but
    # the top is: the open reads eta's meaning of y from it
    h = Hds(
        states={"q0": frozenset({y}), "q1": frozenset({y}),
                "q2": frozenset({x, y}), "q3": frozenset()},
        initial="q0",
        eta={y: m},
        finals=frozenset({"q3"}),
        trans={
            "q0": (Transition(a, "q1", NM({y: y})),),
            "q1": (Transition(OPEN, "q2", NM({x: STAR, y: y})),),
            "q2": (Transition(y, "q3", NM({})),),
            "q3": (),
        },
    )
    assert validate(h) == []
    for t, outcome in (((a, TOpen(n), m), ACCEPT), ((a, TOpen(n), n), REJECT)):
        assert run(h, t).outcome == naive_run(h, t).outcome == outcome


def test_binder_star_reject_is_fast():
    h = compile_regex(parse_regex("( <#n. #n ( #m + #n )* > )*", set()))
    w = parse_word(" ".join(["<#n. #n #m #n #m >"] * 12) + " #k")
    t0 = time.perf_counter()
    assert run(h, tokenize(alpha_canonical(w))).outcome == REJECT
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("k", [40, 200])
def test_binder_star_is_linear(k):
    # no close reads a frame deeper than the closes ahead can outnumber the
    # opens ahead, so dropping those frames keeps the iterations from
    # multiplying the configurations
    h = compile_regex(parse_regex("( <#n. #n ( #m + #n )* > )*", set()))
    blocks = " ".join(["<#n. #n #m #n #m >"] * k)
    for text, outcome in ((blocks + " #k", REJECT), (blocks, ACCEPT)):
        tokens = tokenize(alpha_canonical(parse_word(text)))
        t0 = time.perf_counter()
        assert run(h, tokens).outcome == outcome
        assert time.perf_counter() - t0 < 1.0, (k, outcome)


def _nesting_hds():
    """Binders nested to any depth, the innermost reading its own name:
    ``<. <. ... <y. #y > ... > >``.  The innermost binder's frame is
    below a push at its close, so after it `w` denotes the closed binder,
    and the move on `w` is enabled only if the close did not kill it."""
    w = Name("w")
    return Hds(
        states={"q0": frozenset(), "q1": frozenset({y}), "q2": frozenset({y}),
                "q3": frozenset({y}), "q4": frozenset({w}), "q5": frozenset()},
        initial="q0", eta={}, finals=frozenset({"q5"}),
        trans={"q0": (Transition(OPEN, "q0", BOTTOM), Transition(OPEN, "q1", NM({y: STAR}))),
               "q1": (Transition(y, "q2", NM({y: y})),),
               "q2": (Transition(PUSH, "q3", NM({y: y})),),
               "q3": (Transition(CLOSE, "q4", NM({w: y})),),
               "q4": (Transition(w, "q5", BOTTOM), Transition(EPS, "q5", BOTTOM)),
               "q5": (Transition(CLOSE, "q5", BOTTOM),)},
    )


def _nested(depth, inner):
    """`depth` binders nested, with the canonical names, around the name
    of binder `inner`."""
    binders = [Name(f"~{i}") for i in range(depth)]
    return MWord(tuple(map(TOpen, binders)) + (binders[inner],) + (TCLOSE,) * depth)


@pytest.mark.parametrize("make,inner", [
    (_nesting_hds, -1),
    (lambda: compile_regex(parse_regex(
        " ".join(f"<#n{i}." for i in range(300)) + " #n0" + " >" * 300, set())), 0),
])
def test_binders_nested_past_the_cached_small_ints(make, inner):
    # a binder's level is its int depth; levels above 256 are not one
    # shared object, so a close must kill its level by value
    h = make()
    assert validate(h) == []
    deepest = _nested(300, inner)
    words = {_nested(d, inner) for d in range(1, 301)} if inner < 0 else {deepest}
    assert language_slice(h, 601) == words
    assert accepts_word(h, deepest)
    assert not accepts_word(h, _nested(300, 1))
    tokens = tokenize(deepest)
    streams = [tokens] + near_misses(tokens, (n, Name("~1")))[::50]
    for t in streams:
        assert run(h, t).outcome == naive_run(h, t).outcome
    assert run(h, tokens).outcome == ACCEPT


def test_search_keeps_one_frame_more_than_the_open_depth(monkeypatch):
    from nomlang import hds

    with open(NS_FILE) as f:
        e = parse_nre(f.read())[0]
    block = "<#n. ENCR #n A FOR B <#m. ENCR #n #m FOR A ENCR #m FOR B > >"
    tokens = tokenize(alpha_canonical(parse_word(" ".join([block] * 64))))
    depth = max(itertools.accumulate(
        isinstance(t, TOpen) - (t is TCLOSE) for t in tokens))
    seen = []
    monkeypatch.setattr(hds, "step", lambda h, q, stk, *rest: seen.append(len(stk))
                        or step(h, q, stk, *rest))
    assert run(compile_regex(e), tokens).outcome == ACCEPT
    assert depth == 2 and len(tokens) == 1152
    # a close reads one frame below the top, and in a balanced word the
    # closes ahead never outnumber the opens ahead by more than the open
    # depth; one frame per close left would be up to 129 frames here
    assert max(seen) <= depth + 1
    # the slice keeps one frame more than its open depth, and a word of at
    # most 24 tokens holds one block, whose open depth is 2; it slices a
    # fresh compile, since the run has expanded every node this slice needs
    seen.clear()
    assert alpha_canonical(parse_word(block)) in language_slice(compile_regex(e), 24)
    assert max(seen) <= depth + 1


def _ns_tokens(k):
    block = "<#n. ENCR #n A FOR B <#m. ENCR #n #m FOR A ENCR #m FOR B > >"
    return tokenize(alpha_canonical(parse_word(" ".join([block] * k))))


def test_search_work_does_not_grow_with_the_blocks(monkeypatch):
    # every block's binders are private, so they take the names of their
    # levels, and the names die at their closes: each block after the
    # first meets the configuration sets of the one before; each count is
    # taken on a fresh automaton, whose memo is empty
    from nomlang import hds

    with open(NS_FILE) as f:
        e = parse_nre(f.read())[0]
    calls = []
    monkeypatch.setattr(hds, "step", lambda *args: calls.append(1) or step(*args))
    counts = []
    for blocks in (8, 64):
        calls.clear()
        assert run(compile_regex(e), _ns_tokens(blocks)).outcome == ACCEPT
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_trace_where_binders_share_a_level():
    with open(NS_FILE) as f:
        h = compile_regex(parse_nre(f.read())[0])
    tokens = _ns_tokens(3)
    r = run(h, tokens, want_trace=True)
    assert r.outcome == ACCEPT
    _assert_trace_follows_step(h, tokens, r.trace)
    # the trace shows the word's own binder names
    shown = {v for (_, _, stk), _ in r.trace for f in stk for v in f.values()}
    binders = {t.name for t in tokens if isinstance(t, TOpen)}
    assert binders <= shown <= binders | set(h.eta.values())


def test_slice_drops_states_that_cannot_finish_in_time(monkeypatch):
    # the 0 makes every word impossible: no state before it reaches a final one
    from nomlang import hds

    h = compile_regex(parse_regex("( b + #n + a )* <#k. 0 #k > ( <#n. #n > + #k + #m )",
                                  {"a", "b"}))
    assert h.initial not in hds.steps_to_final(h)
    calls = []
    monkeypatch.setattr(hds, "step", lambda *args: calls.append(args) or step(*args))
    assert language_slice(h, 6) == frozenset()
    assert len(calls) == 1  # the start node only


@pytest.mark.parametrize("text", ["( <#n. #n #m > + a + #m )*",
                                  "( <#n. #n ( #m + #n )* > )*"])
def test_slice_work_grows_by_a_constant_per_bound(monkeypatch, text):
    # an open allocates the name of its depth, not of its rank among the
    # opens, so prefixes with the same configurations at the same depth
    # share a memo entry however many binders they have closed; each count
    # is taken on a fresh automaton, whose node graph is empty
    from nomlang import hds

    e = parse_regex(text, {"a"})
    calls = []
    monkeypatch.setattr(hds, "step", lambda *args: calls.append(1) or step(*args))
    counts = []
    for bound in (9, 10, 13, 14):
        calls.clear()
        language_slice(compile_regex(e), bound)
        counts.append(len(calls))
    assert counts[1] - counts[0] == counts[3] - counts[2]


def test_slice_allocates_no_names_beyond_its_opens():
    # the bound must not decide how many names are interned: none are,
    # since binders take int levels, which are no names
    h = compile_regex(parse_regex("a", {"a"}))
    before = len(Name._registry)
    assert language_slice(h, 200_000) == {parse_word("a")}
    assert len(Name._registry) == before


def test_steps_to_final_counts_consuming_moves():
    from nomlang.hds import steps_to_final

    h = compile_regex(parse_regex("<#n. #n a >", {"a"}))
    need = steps_to_final(h)
    assert need[h.initial] == 4  # open, name, letter, close
    assert all(need[q] == 0 for q in h.finals)


STAR_EXPRS = ("( ( #k + b* ) ( #n + a )* )*", "( #k* + b* + #n + #m )*")


def test_star_slices_at_bound_seven_are_fast():
    for text in STAR_EXPRS:
        e = parse_regex(text, {"a", "b"})
        h = compile_regex(e)
        t0 = time.perf_counter()
        got = language_slice(h, 7)
        assert time.perf_counter() - t0 < 3.0, text
        assert got == enumerate_slice(e, "M", 7).words, text


def test_slice_decodes_each_word_once(monkeypatch):
    # the walk emits keys: it decodes each accepted word once, and never
    # parses or canonicalizes one, whether `hds` imports the parser and
    # the canonicalizers or reaches them through `words`
    from nomlang import hds, words

    decoded, other = [], []
    monkeypatch.setattr(hds, "from_key", lambda key: decoded.append(key) or from_key(key))
    for fn in (alpha_canonical, canonical_row, parse_tokens):
        def spy(*args, fn=fn):
            other.append(fn.__name__)
            return fn(*args)
        for module in (hds, words):
            monkeypatch.setattr(module, fn.__name__, spy, raising=False)
    cases = [(compile_regex(parse_regex(text, {"a", "b"})), 5) for text in STAR_EXPRS]
    rng = random.Random(11)
    cases += [(compile_regex(random_regex(rng, NAMES, LETTERS, 4)), 6) for _ in range(50)]
    for h, bound in cases:
        decoded.clear()
        words = language_slice(h, bound)
        assert len(decoded) == len(set(decoded)) == len(words)
        assert other == []


def test_slice_keys_are_the_expression_keys():
    # the walk's keys against an independent referee: the keys of the
    # expression's own enumeration, on automata with a free ~0 as well
    from nomlang.hds import _language_keys

    corpus = os.path.dirname(NS_FILE)
    exprs = []
    for fname in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, fname), encoding="utf-8") as f:
            exprs.append(parse_nre(f.read())[0])
    assert len(exprs) == 5
    exprs += [parse_regex(text, {"a", "b"}) for text in STAR_EXPRS]
    rng = random.Random(0)
    exprs += [random_regex(rng, NAMES + [Name("~0")], LETTERS, 4) for _ in range(300)]
    for e in exprs:
        want = {alpha_key(w) for w in enumerate_slice(e, "M", 6).words}
        assert set(_language_keys(compile_regex(e), 6)) == want


PINNED_SLICES = "a0bf6995b56a423f29efe849f38015fccba31f2d57f2c49ce9f686804e308434"


def test_slices_are_pinned():
    # the slice keys of the corpus, at the bounds `check_corpus.py` uses,
    # and of random compiled automata at bound 7: a change to the search
    # must leave every slice as it is
    from nomlang.hds import _language_keys

    cases = []
    corpus = os.path.dirname(NS_FILE)
    for fname in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, fname), encoding="utf-8") as f:
            cases.append((parse_nre(f.read())[0], 18 if "ns_protocol" in fname else 8))
    assert len(cases) == 5
    rng = random.Random(24)
    cases += [(random_regex(rng, NAMES, LETTERS, 4), 7) for _ in range(1500)]
    digest = hashlib.sha256()
    for e, bound in cases:
        keys = sorted(map(repr, _language_keys(compile_regex(e), bound)))
        digest.update("\n".join(keys).encode() + b"\0")
    assert digest.hexdigest() == PINNED_SLICES


PINNED_VERDICTS = "f6f590fc7738dc4ebebbcfcf11899c4891bd326c9658456d1ff232a915312c3b"


def test_verdicts_are_pinned():
    # `run`'s verdicts, with the default cap and with one that can cut, on a
    # few slice words of the corpus and of random compiled automata and on
    # their near-misses: a change to the search must leave every verdict
    # as it is
    corpus = os.path.dirname(NS_FILE)
    exprs = []
    for fname in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, fname), encoding="utf-8") as f:
            exprs.append(parse_nre(f.read())[0])
    assert len(exprs) == 5
    rng = random.Random(25)
    exprs += [random_regex(rng, NAMES, LETTERS, 4) for _ in range(300)]
    digest = hashlib.sha256()
    checked = 0
    for e in exprs:
        h = compile_regex(e)
        for w in sorted(language_slice(compile_regex(e), 6), key=repr)[:5]:
            t = tokenize(w)
            for s in [t] + near_misses(t, (n, m)):
                digest.update(f"{run(h, s).outcome} {run(h, s, max_depth=1).outcome}\n".encode())
                checked += 1
    assert checked > 1000
    assert digest.hexdigest() == PINNED_VERDICTS


def test_slice_keys_of_hand_built_automata_decode_to_their_slices():
    from nomlang.hds import _language_keys

    keys = set(_language_keys(_push_constant_hds(), 4))
    assert keys == {alpha_key(parse_word("<#a. #~0 >"))}
    assert {render_word(from_key(key)) for key in keys} == {"<#~1. #~0 >"}
    for then_bind, bound in [(False, 4), (True, 6)]:
        h = _escaping_hds(then_bind)
        assert set(map(from_key, _language_keys(h, bound))) == brute_slice(h, bound, POOL)


def test_slice_keys_come_once_each():
    # a row maps distinct tokens to distinct key elements, so a prefix has
    # one node and the walk yields no key twice: on the corpus at the
    # bounds `check_corpus.py` uses, on random compiled automata, and on
    # the push/pop loop of acceptance criterion 3
    from nomlang.hds import _language_keys

    cases = []
    corpus = os.path.dirname(NS_FILE)
    for fname in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, fname), encoding="utf-8") as f:
            e = parse_nre(f.read())[0]
        cases.append((compile_regex(e), 18 if "ns_protocol" in fname else 8))
    assert len(cases) == 5
    rng = random.Random(30)
    cases += [(compile_regex(random_regex(rng, NAMES, LETTERS, 4)), 7) for _ in range(200)]
    NM = NameMap.of
    loop = Hds(
        states={q: frozenset({x}) for q in ("q0", "q1", "q2", "q3")},
        initial="q0",
        eta={x: n},
        finals=frozenset({"q1"}),
        trans={
            "q0": (Transition(x, "q1", NM({x: x})),),
            "q1": (Transition(PUSH, "q2", NM({x: x})),),
            "q2": (Transition(x, "q3", NM({x: x})),),
            "q3": (Transition(POP, "q1", NM({x: x})),),
        },
    )
    cases.append((loop, 6))
    total = 0
    for h, bound in cases:
        keys = list(_language_keys(h, bound))
        assert len(keys) == len(set(keys))
        total += len(keys)
    assert len(keys) == 6  # the loop: #n once to six times
    assert total > 5_000


# -- the search state kept across calls ---------------------------------------

def _session_hds():
    return compile_regex(parse_regex("#m <#n. #m #n >*", set()))


def _verdicts(h, streams, **kw):
    return [run(h, t, **kw).outcome for t in streams]


def _state_streams(h, bound):
    """Slice words and their near-misses, with a name and a letter that the
    automaton cannot read put at the end of each word."""
    out = _words_and_near_misses(h, bound)
    for w in sorted(language_slice(h, bound), key=repr)[:4]:
        out += [tokenize(w) + (Name("zz"),), tokenize(w) + (Letter("c"),)]
    return out


@pytest.mark.parametrize("make", [_session_hds, lambda: _double_push_hds(with_pop=True)])
def test_a_low_max_depth_does_not_share_the_memo(make):
    # a cap that can cut makes a memo entry depend on more than its key, so
    # such a run takes a memo of its own, in either order
    h = make()
    streams = [_binder_then(nm) for nm in (m, n, k)]
    streams += [t for s in streams for t in near_misses(s, (m, n))]
    streams += [tokenize(w) for w in language_slice(_session_hds(), 9)]
    want_low = _verdicts(make(), streams, max_depth=1)
    want = _verdicts(make(), streams)
    assert CUTOFF in want_low and want_low != want
    assert _verdicts(h, streams) == want
    assert _verdicts(h, streams, max_depth=1) == want_low
    h = make()
    assert _verdicts(h, streams, max_depth=1) == want_low
    assert _verdicts(h, streams) == want


def test_near_misses_with_fresh_names_leave_the_memo_as_it_was():
    # a name that no frame can hold has no entry in the row of the node
    # where it is reached, so it rejects there, and fresh free names cannot
    # grow the node graph or the table of sets
    h = _session_hds()
    block = "<#n. #m #n >"
    sizes = set()
    for i in range(1000):
        w = parse_word(f"#m {block} {block} <#n. #m #fresh{i} > {block}")
        assert not accepts_word(h, w)
        sizes.add((len(h._search.graph), len(h._search.sets)))
    assert len(sizes) == 1
    assert not accepts_word(h, parse_word(f"#m {block} c"))
    assert (len(h._search.graph), len(h._search.sets)) in sizes
    assert accepts_word(h, parse_word(f"#m {block} {block}"))


def test_a_repeated_word_makes_no_step_calls(monkeypatch):
    from nomlang import hds

    with open(NS_FILE) as f:
        h = compile_regex(parse_nre(f.read())[0])
    calls = []
    monkeypatch.setattr(hds, "step", lambda *args: calls.append(1) or step(*args))
    counts = []
    for _ in range(2):
        calls.clear()
        assert run(h, _ns_tokens(3)).outcome == ACCEPT
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == 0


def test_a_repeated_slice_makes_no_step_calls(monkeypatch):
    # the node graph lives in the automaton's search state, so a second
    # slice at the same bound walks it without expanding a node
    from nomlang import hds

    with open(NS_FILE) as f:
        h = compile_regex(parse_nre(f.read())[0])
    calls = []
    monkeypatch.setattr(hds, "step", lambda *args: calls.append(1) or step(*args))
    slices, counts = [], []
    for _ in range(2):
        calls.clear()
        slices.append(language_slice(h, 18))
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == 0
    assert slices[0] == slices[1] and len(slices[0]) > 0


def test_runs_and_slices_share_one_node_graph(monkeypatch):
    # `run` steps through the slice's nodes: after a slice its words make
    # no `step` call, and runs on them leave a later slice less to expand
    from nomlang import hds

    with open(NS_FILE) as f:
        e = parse_nre(f.read())[0]
    calls = []
    monkeypatch.setattr(hds, "step", lambda *args: calls.append(1) or step(*args))
    h = compile_regex(e)
    streams = [tokenize(w) for w in language_slice(h, 18)]
    assert len(streams) > 1
    calls.clear()
    assert _verdicts(h, streams) == [ACCEPT] * len(streams)
    assert calls == []
    counts = []
    for runs_first in (False, True):
        h = compile_regex(e)
        if runs_first:
            assert _verdicts(h, streams) == [ACCEPT] * len(streams)
        calls.clear()
        assert len(language_slice(h, 18)) == len(streams)
        counts.append(len(calls))
    assert counts[0] > counts[1]


def test_unmatched_closes_step_through_the_node_graph(monkeypatch):
    # a private binder takes the level of the frames kept at its open, so
    # every close kills the level of the frames kept at it, less two, as
    # the row does: a close that no open matches reads the row too, and
    # these runs pass no token to `_closure`
    from nomlang import hds

    h = _session_hds()
    word = tokenize(alpha_canonical(parse_word("#m" + " <#n. #m #n >" * 4)))
    depths = itertools.accumulate((isinstance(t, TOpen) - (t is TCLOSE) for t in word), initial=0)
    streams = [word[:i] + (TCLOSE,) + word[i:] for i, d in enumerate(depths) if d == 0]
    assert len(streams) == 6
    closure, toks = hds._closure, []
    monkeypatch.setattr(hds, "_closure", lambda h, configs, tok, *rest:
                        toks.append(tok) or closure(h, configs, tok, *rest))
    assert _verdicts(h, streams) == [REJECT] * len(streams)
    assert toks and all(tok is None for tok in toks)


def test_a_node_reached_again_is_expanded_once(monkeypatch):
    # a node is a configuration set and an open depth, with no tokens
    # left: a one-state self-loop is one node at every bound, so a slice
    # at a higher bound expands nothing the first slice did not
    from nomlang import hds

    h = Hds({"q": frozenset()}, "q", {}, frozenset({"q"}),
            {"q": (Transition(a, "q", NM({})),)})
    assert validate(h) == []
    assert len(language_slice(h, 3)) == 4 and len(language_slice(h, 2)) == 3
    assert len(h._search.graph) == 1
    calls = []
    monkeypatch.setattr(hds, "step", lambda *args: calls.append(1) or step(*args))
    assert len(language_slice(h, 7)) == 8
    assert calls == []


def test_a_slice_expands_no_node_it_cannot_close_in_time():
    # q0 opens any number of binders and needs one letter to finish: a
    # word of at most 5 tokens closes what it opens, so no expanded node
    # is deeper than 2, though `steps_to_final` alone would allow it
    h = Hds({"q0": frozenset(), "qf": frozenset()}, "q0", {}, frozenset({"qf"}),
            {"q0": (Transition(OPEN, "q0", NM({})), Transition(a, "qf", NM({}))),
             "qf": (Transition(CLOSE, "qf", NM({})),)})
    assert validate(h) == []
    assert {render_word(w) for w in language_slice(h, 5)} == {
        "a", "<#~0. a >", "<#~0. <#~1. a > >"}
    assert max(depth for _, depth in h._search.graph) == 2


def _read_a(h):
    return replace(h, trans=h.trans | {"q1": (Transition(a, "q2", BOTTOM),)})


def _eta_n(h):
    return replace(h, eta=h.eta | {next(iter(h.eta)): n})


def _no_finals(h):
    return replace(h, finals=frozenset())


@pytest.mark.parametrize("make,change,bound", [
    (lambda: _double_push_hds(with_pop=False), _read_a, 4),
    (lambda: _double_push_hds(with_pop=False), _escape, 6),
    (_session_hds, _eta_n, 9),
    (_session_hds, _no_finals, 9),
])
def test_a_changed_automaton_gets_fresh_slices(make, change, bound):
    # after a search every change in place raises and leaves the slices and
    # verdicts as they were; an automaton made from it by `replace` gets
    # those of the same automaton built fresh
    h, fresh = make(), change(make())
    streams = _state_streams(h, bound) + _state_streams(fresh, bound)
    before = language_slice(h, bound), _verdicts(h, streams)
    with pytest.raises(TypeError):
        h.trans["q1"] = ()
    with pytest.raises(AttributeError):
        h.states.update({"q9": frozenset()})
    with pytest.raises(TypeError):
        h.eta[next(iter(h.eta))] = n
    with pytest.raises(FrozenInstanceError):
        h.finals = frozenset()
    assert (language_slice(h, bound), _verdicts(h, streams)) == before
    changed = change(h)
    assert validate(changed) == []
    assert changed == fresh and repr(changed) == repr(fresh)  # the state is in neither
    want = language_slice(fresh, bound), _verdicts(fresh, streams)
    assert want[0] != before[0] and want[1] != before[1] and ACCEPT in before[1]
    assert (language_slice(changed, bound), _verdicts(changed, streams)) == want


def test_a_changed_automaton_gets_fresh_verdicts():
    # the escaping automaton derived by `replace` after a search gets the
    # verdicts of the one built fresh, and the searched one keeps its own
    fresh = _escaping_hds(then_bind=True)
    streams = [tokenize(w) for w in brute_slice(fresh, 6, POOL)]
    streams += [t for s in streams for t in near_misses(s, (m, n))]
    assert len(streams) > 30
    h = _double_push_hds(with_pop=False)
    before = _verdicts(h, streams)
    changed = _escape(h)
    assert changed == fresh and repr(changed) == repr(fresh)  # the state is in neither
    assert _verdicts(changed, streams) == _verdicts(_escaping_hds(then_bind=True), streams)
    assert ACCEPT in _verdicts(changed, streams)
    assert _verdicts(h, streams) == before != _verdicts(changed, streams)
    # eta replaced, then the finals emptied, each after a run
    h = _session_hds()
    assert run(h, (m,)).outcome == ACCEPT
    h = _eta_n(h)
    assert run(h, (m,)).outcome == REJECT
    assert run(h, (n,)).outcome == ACCEPT
    h = _no_finals(h)
    assert run(h, (n,)).outcome == REJECT


def test_a_pop_automaton_keeps_no_node_graph(push_pop_hds):
    # its walk can reach the cap, so each call keeps a graph of its own
    h = push_pop_hds
    assert language_slice(h, 3) == language_slice(h, 3) == {parse_word("#m #n")}
    assert h._search.graph == {} and len(h._search.sets) == 1


def test_slices_and_verdicts_do_not_depend_on_the_calls_before():
    # slices at several bounds and word verdicts, interleaved on one
    # automaton, against the same calls each on a fresh compilation
    rng = random.Random(23)
    prev = frozenset()
    checked = 0
    for _ in range(200):
        e = random_regex(rng, NAMES, LETTERS, 4)
        h = compile_regex(e)
        words = sorted(language_slice(compile_regex(e), 6), key=repr)[:3]
        words += sorted(prev, key=repr)[:3]
        for bound, w in itertools.zip_longest((5, 6, 4), words):
            if bound is not None:
                got = language_slice(h, bound)
                assert got == language_slice(compile_regex(e), bound)
                checked += 1
            if w is not None:
                assert accepts_word(h, w) == accepts_word(compile_regex(e), w)
                misses = near_misses(tokenize(w), (n, m))
                assert _verdicts(h, misses) == _verdicts(compile_regex(e), misses)
                checked += 1 + len(misses)
        prev = got
    assert checked > 1000


def test_a_searched_automaton_dies_with_its_last_reference():
    import weakref

    h = _session_hds()
    assert accepts_word(h, parse_word("#m <#n. #m #n >"))
    assert len(language_slice(h, 9)) == 3
    ref = weakref.ref(h)
    del h
    assert ref() is None  # the search state holds no cycle back to it


def test_accepts_word_reads_the_automaton_once(monkeypatch):
    from nomlang import hds

    calls = []
    scan = hds._constants_and_pops
    monkeypatch.setattr(hds, "_constants_and_pops", lambda h: calls.append(1) or scan(h))
    h = _session_hds()
    for i in range(100):
        assert accepts_word(h, parse_word("#m" + " <#n. #m #n >" * (i % 5)))
    assert len(calls) == 1


def test_verdicts_do_not_depend_on_the_order_of_calls():
    rng = random.Random(19)
    checked = 0
    for _ in range(300):
        e = random_regex(rng, NAMES, LETTERS, 4)
        h = compile_regex(e)
        streams = _state_streams(h, 5)
        in_order = _verdicts(h, streams)
        h = compile_regex(e)
        assert _verdicts(h, streams[::-1])[::-1] == in_order
        assert [run(compile_regex(e), t).outcome for t in streams] == in_order
        checked += len(streams)
    assert checked > 10_000


# -- the forward walk ---------------------------------------------------------

WALK_STREAMS = [
    # (automaton, stream, the walk's answer: None where it hands the stream
    # back to the general path)
    ("session", _raw("#m <#n. #m #n > <#n. #m #n >"), None),  # a binder reused
    ("session", _raw("#m <#m. #m #m >"), None),  # a binder named after eta's #m
    ("push ~0", _raw("<#~0. #~0 >"), None),  # ... after the push constant ~0
    ("free", _raw("#n <#n. #n >"), None),  # a free name reused as a binder
    ("session", _raw("#m <#n. #m #n > #n"), None),  # a binder's name read after its close
    ("session", (m, TCLOSE, TOpen(n), m, n, TCLOSE), REJECT),  # an unmatched close
    ("session", (m, TOpen(n), m, n), REJECT),  # an unclosed open
    # a token no row reads rejects before the token that would hand back
    ("session", (m, k, TOpen(m), m, m, TCLOSE), REJECT),
    ("session", (m, TOpen(n), m, k, TCLOSE, n), REJECT),
    ("session", (m, TOpen(n), m, n, TCLOSE, a, TCLOSE), REJECT),
    ("session", (m, TOpen(n), m, a), REJECT),
    ("free", (a, n, TOpen(n), n, TCLOSE), REJECT),
    # balanced streams with every binder private
    ("session", _raw("#m <#n. #m #n > <#k. #m #k >"), ACCEPT),
    ("escape", _raw("<#~1. ^ > #~0"), REJECT),
    ("push ~0", _raw("<#n. #~0 >"), ACCEPT),
    # unmatched closes and unclosed opens, walked again from the depth of
    # the unmatched closes
    ("unbalanced", (TCLOSE, TOpen(n), n), ACCEPT),
    ("unbalanced", (TCLOSE, TOpen(n), m), REJECT),
    ("escape", (TOpen(k), TCLOSE, TCLOSE, k), REJECT),
    ("escape, bind", (TOpen(Name("z")), TCLOSE, TOpen(k), n, TCLOSE, TCLOSE), REJECT),
]


def _general_path(monkeypatch):
    """Make every `run` take the general path, until the patch is undone."""
    from nomlang import hds

    monkeypatch.setattr(hds, "_walk", lambda *args: None)


@pytest.mark.parametrize("automaton,tokens,outcome", WALK_STREAMS)
def test_the_walk_hands_back_what_it_cannot_decide(automaton, tokens, outcome, monkeypatch):
    from nomlang import hds

    h = RAW_AUTOMATA[automaton]()
    got = hds._walk(h, tokens, 0)
    assert (got and got.outcome) == outcome
    mine = run(h, tokens).outcome
    _general_path(monkeypatch)
    want = run(RAW_AUTOMATA[automaton](), tokens).outcome
    assert mine == want
    if outcome is not None:
        assert outcome == want


def test_a_capped_or_traced_run_takes_the_general_path(monkeypatch):
    # the walk only decides: a run with a cap, or with a trace, is the
    # general path's, which keeps the frames `_keep` gives and cuts where
    # they pass the cap
    from nomlang import hds

    h = RAW_AUTOMATA["session"]()
    word = _raw("#m <#n. #m #n >")  # its open needs 2 frames
    late = word + (TCLOSE,)  # 2 frames from the start, 3 at its open
    walks = []
    walk = hds._walk
    monkeypatch.setattr(hds, "_walk", lambda *args: walks.append(args) or walk(*args))
    verdicts = [run(h, t, max_depth=cap).outcome for t in (word, late) for cap in (1, 2, 3)]
    assert verdicts == [CUTOFF, ACCEPT, ACCEPT, CUTOFF, CUTOFF, REJECT]
    assert [run(h, t, want_trace=True).outcome for t in (word, late)] == [ACCEPT, REJECT]
    assert walks == []
    assert [run(h, t).outcome for t in (word, late)] == [ACCEPT, REJECT] and walks
    _general_path(monkeypatch)
    h = RAW_AUTOMATA["session"]()
    assert [run(h, t, max_depth=cap).outcome for t in (word, late) for cap in (1, 2, 3)] == verdicts


def test_a_trace_is_recorded_in_one_forward_pass(monkeypatch):
    # `run` keeps each position's links as it goes, so a traced run calls
    # `_closure` once per token and once at the end, and `_trace` none
    from nomlang import hds

    with open(NS_FILE) as f:
        ns = compile_regex(parse_nre(f.read())[0])
    calls = []
    closure = hds._closure
    monkeypatch.setattr(hds, "_closure", lambda *args: calls.append(1) or closure(*args))
    for h, tokens in ((ns, _ns_tokens(4)),
                      (RAW_AUTOMATA["session"](), _raw("#m <#n. #m #n > <#n. #m #n >"))):
        calls.clear()
        r = run(h, tokens, want_trace=True)
        assert r.outcome == ACCEPT
        assert len(calls) == len(tokens) + 1
        _assert_trace_follows_step(h, tokens, r.trace)


def _binder_not_private(tokens, constants) -> bool:
    """Whether a binder of the stream is named after a constant or a name
    read or bound before it, or its name is read after its close."""
    before, closed, opened = set(constants), set(), []
    for t in tokens:
        if type(t) is TOpen:
            if t.name in before:
                return True
            before.add(t.name)
            opened.append(t.name)
        elif t is TCLOSE:
            if opened:
                closed.add(opened.pop())
        elif type(t) is Name:
            if t in closed:
                return True
            before.add(t)
    return False


def test_the_walk_agrees_with_the_general_path(monkeypatch):
    # every stream, at the default cap and at caps 1, 2 and its length + 1,
    # whether the walk decides it, rejects it before a token it cannot take,
    # or hands it back, against the general path and, where it decides,
    # the referee `naive_run`; the walk takes no capped run, and hands back
    # only a stream with a binder that is not private
    from nomlang import hds

    rng = random.Random(26)
    makers = [RAW_AUTOMATA[name] for name in sorted(RAW_AUTOMATA)]
    exprs = [random_regex(rng, NAMES, LETTERS, 4) for _ in range(40)]
    makers += [lambda e=e: compile_regex(e) for e in exprs]
    walk = hds._walk
    pool = [m, n, k, Name("~0"), Name("z")]
    checked = refereed = handed_back = walked = 0
    for make in makers:
        h = make()
        streams = [s for _, s, _ in WALK_STREAMS] + [_binder_then(nm) for nm in (m, n, k)]
        for w in sorted(language_slice(make(), 6), key=repr)[:5]:
            t = tokenize(w)
            streams += [t] + near_misses(t, (n, m)) + near_misses(t, (Name("~0"), k))
        for _ in range(10):
            w = random_mword(rng, pool, LETTERS, rng.randint(1, 8))
            streams += [tokenize(w), tokenize(alpha_canonical(w))]
        runs = [(s, cap) for s in streams for cap in (None, 1, 2, len(s) + 1)]
        decided, got = [], []
        monkeypatch.setattr(hds, "_walk", lambda *args: decided.append(walk(*args)) or decided[-1])
        for s, cap in runs:
            decided.clear()
            got.append(run(h, s, max_depth=cap).outcome)
            if cap is not None:
                assert not decided  # a capped run takes the general path
            elif decided[-1] is not None:
                walked += 1
            else:
                handed_back += 1
                assert _binder_not_private(s, h._search.constants), s
        _general_path(monkeypatch)
        general = make()
        assert [run(general, s, max_depth=cap).outcome for s, cap in runs] == got
        for (s, cap), outcome in zip(runs, got):
            full = naive_run(general, s, max_depth=len(s) + 1 if cap is None else cap).outcome
            if full == CUTOFF:
                continue
            refereed += 1
            if outcome != full:
                # `naive_run` fires a push at most once between two tokens
                assert (outcome, full) == (ACCEPT, REJECT), (s, cap)
                _assert_trace_follows_step(h, s, run(h, s, max_depth=cap, want_trace=True).trace)
        checked += len(runs)
    assert checked > 20_000 and refereed > 10_000
    assert handed_back > 500 and walked > 4000


def test_a_balanced_word_is_decided_without_renaming(monkeypatch):
    # the walk names binders as it reads them: a balanced word, and the
    # same word after a leading close, walked again from the node of one
    # unmatched close, read rows only and pass no token to `_closure`
    from nomlang import hds

    with open(NS_FILE) as f:
        h = compile_regex(parse_nre(f.read())[0])
    walks, toks = [], []
    walk, closure = hds._walk, hds._closure
    monkeypatch.setattr(hds, "_walk", lambda *args: walks.append(args[2]) or walk(*args))
    monkeypatch.setattr(hds, "_closure", lambda h, configs, tok, *rest:
                        toks.append(tok) or closure(h, configs, tok, *rest))
    t = _ns_tokens(4)
    assert run(h, t).outcome == ACCEPT
    assert walks == [0]
    assert run(h, (TCLOSE,) + t).outcome == REJECT
    assert walks == [0, 0, 1]
    assert toks and all(tok is None for tok in toks)


def test_a_late_fault_is_decided_by_the_walk(monkeypatch):
    # an open after a long balanced word, or a close before or after it:
    # the walk decides each, so no `_closure` call reads a token
    from nomlang import hds

    with open(NS_FILE) as f:
        h = compile_regex(parse_nre(f.read())[0])
    word = _ns_tokens(64)
    assert run(h, word).outcome == ACCEPT
    toks = []
    closure = hds._closure
    monkeypatch.setattr(hds, "_closure", lambda h, configs, tok, *rest:
                        toks.append(tok) or closure(h, configs, tok, *rest))
    for tokens in (word + (TOpen(Name("z")),), (TCLOSE,) + word, word + (TCLOSE,)):
        assert run(h, tokens).outcome == REJECT
    assert toks and all(tok is None for tok in toks)
