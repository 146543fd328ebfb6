import glob
import os
import random
import re
import subprocess
import sys

import pytest

import nomlang
from nomlang.names import Name
from nomlang.cli import main
from nomlang.compiler import compile_regex
from nomlang.oracle import random_regex
from nomlang.syntax import parse_nre, parse_regex
from nomlang.hds import EPS, Hds, NameMap, Transition, language_slice, validate
from nomlang import hds_format
from nomlang.hds_format import FormatError, parse, serialize, to_dot

from conftest import NAMES, LETTERS, repeats_star

EXPR_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "expressions")

SOURCES = [
    "1",
    "#n + a",
    "( #n a )*",
    "<#n. #n a >",
    "#m <#n. #m #n >*",
    "<#n. #n <#m. #n #m > >*",
]


@pytest.mark.parametrize("src", SOURCES)
def test_serialize_parse_roundtrip(src):
    h = compile_regex(parse_regex(src, letters={s.symbol for s in LETTERS}))
    h2 = parse(serialize(h))
    assert validate(h2) == []
    assert h2.states == h.states
    assert h2.initial == h.initial
    assert h2.eta == h.eta
    assert h2.finals == h.finals
    for q in h.states:
        assert set(h2.trans.get(q, ())) == set(h.trans.get(q, ()))
    assert language_slice(h2, 6) == language_slice(h, 6)


def _corpus_and_random_automata():
    for path in sorted(glob.glob(os.path.join(EXPR_DIR, "*.nre"))):
        with open(path) as f:
            yield compile_regex(parse_nre(f.read())[0])
    rng = random.Random(20261020)
    for _ in range(200):
        yield compile_regex(random_regex(rng, NAMES, LETTERS, 3))


def test_parse_returns_each_label_as_the_same_object():
    # a local, a letter or a move: the label `parse` reads is that very object
    for h in _corpus_and_random_automata():
        h2 = parse(serialize(h))
        for q, ts in h.trans.items():
            assert len(h2.trans[q]) == len(ts)
            assert all(t.label is t2.label for t, t2 in zip(ts, h2.trans[q]))


def test_parse_tolerates_comments_and_blank_lines():
    text = serialize(compile_regex(parse_regex("#n", letters=set())))
    noisy = "// header\n\n" + text.replace("trans", "// about to list moves\ntrans")
    assert parse(noisy).states == parse(text).states


def test_parse_rejects_garbage():
    with pytest.raises(FormatError):
        parse("this is not an automaton")
    with pytest.raises(FormatError):
        parse("states\n  q0\ninitial q1\nfinals\ntrans\n")  # undeclared initial


def test_parse_rejects_bad_transition_line():
    good = serialize(compile_regex(parse_regex("#n", letters=set())))
    with pytest.raises(FormatError):
        parse(good + "  q0 --??[]--> q1\n")
    with pytest.raises(FormatError):
        parse(good + "  q0 --eps[x]--> q1\n")  # malformed name map


# parsing kept the last of each repeated entry without a word, so these
# read as `q0 {y}`, `x=#n`, `x>y`, finals `{q0}` and initial `q1` with
# both bindings
REPEATED = "states\n  q0 x\n  q1 x y\ninitial q0 x=#m\nfinals q1\ntrans\n  q0 --eps[x>x]--> q1\n"


# (what REPEATED becomes, the refusal)
PARSE_REFUSALS = {
    "initial without state": (("initial q0 x=#m", "initial"), "initial line needs a state id"),
    "initial binding": (("x=#m", "x"), "bad initial binding 'x'"),
    "transition line": (("--eps[x>x]-->", "-> "), "bad transition line"),
    "no initial": (("initial q0 x=#m\n", ""), "missing initial line"),
    "undeclared source": (("  q0 --eps", "  qz --eps"), "transitions from undeclared state qz"),
}


@pytest.mark.parametrize("edit,message", PARSE_REFUSALS.values(), ids=PARSE_REFUSALS.keys())
def test_parse_names_each_refusal(edit, message):
    with pytest.raises(FormatError, match=message):
        parse(REPEATED.replace(*edit))


def test_parse_rejects_a_repeated_state():
    assert validate(parse(REPEATED)) == []
    with pytest.raises(FormatError, match="'q0 y'"):
        parse(REPEATED.replace("  q1 x y", "  q0 y\n  q1 x y"))


def test_parse_rejects_a_repeated_initial_binding():
    with pytest.raises(FormatError, match="'initial q0 x=#m x=#n'"):
        parse(REPEATED.replace("x=#m", "x=#m x=#n"))


def test_parse_rejects_a_repeated_name_map_key():
    with pytest.raises(FormatError, match=r"'q0 --eps\[x>x,x>y\]--> q1'"):
        parse(REPEATED.replace("[x>x]", "[x>x,x>y]"))


def test_parse_rejects_a_repeated_finals_line():
    with pytest.raises(FormatError, match="'finals q0'"):
        parse(REPEATED.replace("finals q1\n", "finals q1\nfinals q0\n"))


def test_parse_rejects_a_repeated_initial_line():
    with pytest.raises(FormatError, match="'initial q1 y=#n'"):
        parse(REPEATED.replace("finals q1", "initial q1 y=#n\nfinals q1"))


def test_a_state_named_after_a_keyword_round_trips():
    # `initial` and `finals` are the first word of their lines: a state id
    # that only begins with one is read as a state
    x = Name("x")
    h = Hds(
        states={"finals2": frozenset({x}), "initially": frozenset(), "done": frozenset()},
        initial="finals2", eta={x: Name("m")}, finals=frozenset({"done"}),
        trans={"finals2": (Transition(x, "initially", NameMap.of({})),),
               "initially": (Transition(EPS, "done", NameMap.of({})),), "done": ()},
    )
    assert validate(h) == []
    text = serialize(h)
    assert parse(text) == h
    assert serialize(parse(text)) == text


@pytest.mark.parametrize("bad", [
    "states", "initial", "finals", "trans", "relaxed", "", "a b", "a\tb", "//x",
])
def test_serialize_rejects_a_state_id_parse_cannot_read_back(bad):
    # `trans`, `states`, `relaxed` and `//x` would parse back as another
    # automaton with no error; `initial`, `finals` and `a b` would not parse
    for q0, q1 in [(bad, "q1"), ("q0", bad)]:
        h = Hds(states={q0: frozenset(), q1: frozenset()}, initial=q0, eta={},
                finals=frozenset({q1}), trans={q0: (Transition(EPS, q1, NameMap.of({})),), q1: ()})
        with pytest.raises(FormatError, match=re.escape(f"state id {bad!r}")):
            serialize(h)


@pytest.mark.parametrize("kw", ["eps", "push", "pop", "open", "close"])
def test_serialize_rejects_a_letter_named_after_a_move_keyword(kw):
    # the letter was written as the keyword: `letters eps push; eps push`
    # read back as an automaton that rejects `eps push` and accepts `^`
    e, _ = parse_nre(f"letters {kw} a; {kw} a")
    with pytest.raises(FormatError, match=re.escape(f"letter {kw!r}")):
        serialize(compile_regex(e))


@pytest.mark.parametrize("bad", ["x>y", "*", "x=#y", "a b", "a,b"])
def test_serialize_rejects_a_local_parse_cannot_read_back(bad):
    # `x>y`, `*` and `x=#y` parsed back as another automaton with no
    # error; `a b` and `a,b` did not parse
    x = Name(bad)
    h = Hds(states={"q0": frozenset({x}), "q1": frozenset({x})}, initial="q0",
            eta={x: Name("m")}, finals=frozenset({"q1"}),
            trans={"q0": (Transition(x, "q1", NameMap.of({x: x})),), "q1": ()})
    assert validate(h) == []
    with pytest.raises(FormatError, match=re.escape(f"local {bad!r}")):
        serialize(h)


@pytest.mark.parametrize("role", ["local", "eta name", "label name", "map entry"])
def test_serialize_names_the_role_of_a_name_it_cannot_write(role):
    x, bad = Name("x"), Name("x>y")

    def pick(r):
        return bad if r == role else x

    h = Hds(states={"q0": frozenset({pick("local")}), "q1": frozenset({x})}, initial="q0",
            eta={x: pick("eta name")}, finals=frozenset({"q1"}),
            trans={"q0": (Transition(pick("label name"), "q1",
                                     NameMap.of({x: pick("map entry")})),), "q1": ()})
    with pytest.raises(FormatError, match=re.escape(f"{role} 'x>y'")):
        serialize(h)


def test_compiled_automata_read_back_as_themselves():
    # no compiled automaton is refused: the corpus, and random
    # expressions with a free `~0`
    corpus = os.path.join(os.path.dirname(__file__), "..", "expressions")
    exprs = []
    for fname in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, fname), encoding="utf-8") as f:
            exprs.append(parse_nre(f.read())[0])
    rng = random.Random(30)
    exprs += [random_regex(rng, NAMES + [Name("~0")], LETTERS, 4) for _ in range(200)]
    for e in exprs:
        h = compile_regex(e)
        assert parse(serialize(h)) == h


def test_serialize_writes_no_relaxed_line():
    # a repeated placeholder is read off the open map itself
    seen = set()
    for h in _corpus_and_random_automata():
        assert "relaxed" not in serialize(h).splitlines()
        seen.add(repeats_star(h))
    assert seen == {True, False}


def test_parse_reads_a_repeated_placeholder_with_or_without_the_relaxed_line(tmp_path):
    h = compile_regex(parse_regex("<#n. #n <#m. #n #m > >*", letters=set()))
    assert repeats_star(h)
    text = serialize(h)
    assert parse(text) == h
    assert parse(text + "relaxed\n") == h  # as older files end
    path = tmp_path / "bare.hds"
    path.write_text(text)
    assert main(["dot", str(path)]) == 0


def test_parse_rejects_an_empty_name():
    for old, new, line in [
        ("x=#m", "x=#", "'initial q0 x=#'"),
        ("--eps[", "--#[", r"'q0 --#\[x>x\]--> q1'"),
        ("[x>x]", "[x>]", r"'q0 --eps\[x>\]--> q1'"),
    ]:
        with pytest.raises(FormatError, match=f"empty name in line {line}"):
            parse(REPEATED.replace(old, new))


def test_to_dot_mentions_every_state_and_label():
    h = compile_regex(parse_regex("#m <#n. #m #n >*", letters=set()))
    dot = to_dot(h)
    assert dot.startswith("digraph")
    for q in h.states:
        assert q in dot
    assert "doublecircle" in dot
    for kind in ("open", "close", "push"):
        assert kind in dot


def test_to_dot_escapes_the_state_in_its_label():
    x = Name("x")
    h = Hds(states={'q"0': frozenset({x}), 'q"1': frozenset()}, initial='q"0', eta={},
            finals=frozenset({'q"1'}), trans={'q"0': (Transition(EPS, 'q"1', NameMap.of({})),)})
    dot = to_dot(h)
    assert '"q\\"0" [shape=circle, label="q\\"0\\n{x}"];' in dot
    assert '"q\\"1" [shape=doublecircle, label="q\\"1"];' in dot


# Compile and serialize the NS-protocol corpus expression in a new
# process, after interning x12 ... x0 first when asked: local names
# x0, x1, ... then get their interning order reversed.
_SERIALIZE_NS_PROTOCOL = """
import sys
from nomlang.names import Name
from nomlang.compiler import compile_regex
from nomlang.hds_format import serialize
from nomlang.syntax import parse_nre
if sys.argv[2] == "reversed":
    for i in range(12, -1, -1):
        Name(f"x{i}")
with open(sys.argv[1], encoding="utf-8") as f:
    e, _ = parse_nre(f.read())
sys.stdout.write(serialize(compile_regex(e)))
"""


def _serialize_ns_protocol(history):
    src = os.path.dirname(os.path.dirname(nomlang.__file__))
    path = os.path.join(os.path.dirname(__file__), "..", "expressions", "ns_protocol.nre")
    done = subprocess.run(
        [sys.executable, "-c", _SERIALIZE_NS_PROTOCOL, path, history],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


def test_output_does_not_depend_on_interning_history():
    later, earlier = Name("order_test_9"), Name("order_test_1")  # interned in reverse
    assert sorted([later, earlier]) == [earlier, later]
    fresh = _serialize_ns_protocol("fresh")
    assert fresh.startswith("states")
    assert _serialize_ns_protocol("reversed") == fresh


UNWRITABLE = "states\n  q0 {local}\n  q1\ninitial q0 {eta}\nfinals q1\ntrans\n  q0 --{label}[{sigma}]--> q1\n"


@pytest.mark.parametrize("fields, refused", [
    (dict(local="a,b"), "local 'a,b'"),
    (dict(local="*"), "local '*'"),  # a name map cannot tell it from the placeholder
    (dict(local="a>b", label="#a>b"), "local 'a>b'"),
    (dict(eta="x=#y=#z"), "eta name 'y=#z'"),
    (dict(sigma="x>y>z"), "map entry 'y>z'"),
], ids=["local with a comma", "local star", "local and label name with >", "eta value with =#",
        "map value with >"])
def test_parse_rejects_an_identifier_serialize_cannot_write(fields, refused):
    # each of these loaded, and `serialize` then refused the automaton
    text = UNWRITABLE.format(**dict(dict(local="x", eta="", label="eps", sigma=""), **fields))
    with pytest.raises(FormatError, match=re.escape(refused)):
        parse(text)
