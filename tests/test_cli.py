import hashlib
import io
import itertools
import os
import subprocess
import sys

import pytest

from nomlang.cli import main

EXPR = "letters a;\n#m <#n. #m #n >*\n"


@pytest.fixture
def expr_file(tmp_path):
    p = tmp_path / "expr.nre"
    p.write_text(EXPR)
    return str(p)


@pytest.fixture
def hds_file(tmp_path, expr_file):
    out = tmp_path / "expr.hds"
    assert main(["compile", expr_file, str(out)]) == 0
    return str(out)


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _stdout_per_hash_seed(script, seeds):
    """The standard output of `script`, run in a fresh interpreter per hash seed."""
    outs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(ROOT, "src"))
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, check=True).stdout)
    return outs


def test_compile_writes_parseable_automaton(hds_file):
    from nomlang import hds_format
    from nomlang.hds import validate

    with open(hds_file) as f:
        h = hds_format.parse(f.read())
    assert validate(h) == []


def test_compile_reports_size(expr_file, capsys):
    assert main(["compile", expr_file]) == 0
    captured = capsys.readouterr()
    assert "states" in captured.err
    assert "trans" in captured.out  # the automaton itself goes to stdout


def test_accept_exit_codes(hds_file):
    assert main(["accept", hds_file, "#m <#n. #m #n >"]) == 0
    assert main(["accept", hds_file, "#m <#n. #n #n >"]) == 1


def test_accept_undecided_exit_code(hds_file, capsys):
    # the open needs a second frame, which a depth budget of 1 forbids
    assert main(["accept", hds_file, "#m <#n. #m #n >", "--fuel", "1"]) == 3
    assert capsys.readouterr().out.startswith("UNDECIDED")
    with pytest.raises(SystemExit):
        main(["accept", "--help"])
    assert "maximum stack depth" in capsys.readouterr().out


def test_accept_fuel_above_the_open_depth_changes_nothing(tmp_path, hds_file, capsys):
    # on a pop-free automaton a word of open depth d keeps at most d + 1
    # frames, so a budget of d + 1 or more prints what no budget prints
    from nomlang.syntax import parse_word
    from nomlang.words import TCLOSE, TOpen

    expr = tmp_path / "nested.nre"
    expr.write_text("<#n. #n <#m. #n #m > >*\n")
    nested = str(tmp_path / "nested.hds")
    assert main(["compile", str(expr), nested]) == 0
    cases = [(hds_file, text) for text in (
        "#m", "#m <#n. #m #n >", "#m <#n. #n #n >", "#m <#n. #m #n > <#k. #m #k >", "#m #m")]
    cases += [(nested, text) for text in (
        "<#a. #a <#b. #a #b > >", "<#a. #a <#b. #b #a > >", "<#a. #a <#b. #a #b > > <#c. #c <#d. #c #d > >")]
    for automaton, text in cases:
        tokens = parse_word(text).tokens
        depth = max(itertools.accumulate((isinstance(t, TOpen) - (t is TCLOSE) for t in tokens),
                                         initial=0))
        for flags in ([], ["--trace"]):
            capsys.readouterr()
            code = main(["accept", automaton, text] + flags)
            want = capsys.readouterr().out
            for fuel in (depth + 1, depth + 2, len(tokens) + 1):
                assert main(["accept", automaton, text, "--fuel", str(fuel)] + flags) == code
                assert capsys.readouterr().out == want, (text, fuel, flags)


def test_accept_fuel_below_one_is_usage_error(hds_file, capsys):
    # no depth cap below 1 holds the initial frame
    for fuel in ("0", "-3"):
        assert main(["accept", hds_file, "#m <#n. #m #n >", "--fuel", fuel]) == 2
        captured = capsys.readouterr()
        assert "--fuel must be at least 1" in captured.err
        assert captured.out == ""


def test_accept_trace(hds_file, capsys):
    assert main(["accept", hds_file, "--trace", "#m"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("ACCEPT")
    assert "q0" in captured.out
    # frames the search drops as dead are still the automaton's
    assert main(["accept", hds_file, "--trace", "#m <#n. #m #n > <#n. #m #n >"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert " @9 [_|_ :: _|_]  via " in last


def test_accept_trace_does_not_depend_on_the_hash_seed(tmp_path):
    # two final configurations and two ways to reach each: the trace
    # takes the same one in every process
    expr = tmp_path / "aa.nre"
    expr.write_text("letters a;\n( a + a ) ( a + a )\n")
    automaton = str(tmp_path / "aa.hds")
    assert main(["compile", str(expr), automaton]) == 0
    script = (
        "from nomlang.cli import main\n"
        f"main(['accept', {automaton!r}, 'a a', '--trace'])\n"
    )
    outs = _stdout_per_hash_seed(script, ("0", "1", "2", "3"))
    assert len(set(outs)) == 1
    assert outs[0].startswith(b"ACCEPT\n")


PINNED_TRACES = "1ac4e9ca347cdeb17567f5af39645fde0a289f4836581c53cfbd14a7ebc26ba1"


def test_accept_trace_is_pinned(tmp_path, capsys):
    # `accept --trace` on the two shortest slice words of each corpus file,
    # at the bounds `check_corpus.py` uses, and on a word of three blocks
    # of the session and protocol expressions
    from nomlang.compiler import compile_regex
    from nomlang.hds import language_slice
    from nomlang.syntax import parse_nre, render_word

    corpus = os.path.join(ROOT, "expressions")
    blocks = {"session_nonce.nre": "#m" + " <#n. #m #n >" * 3,
              "ns_protocol.nre": " ".join(
                  ["<#~0. ENCR #~0 A FOR B <#~1. ENCR #~0 #~1 FOR A ENCR #~1 FOR B > >"] * 3)}
    digest = hashlib.sha256()
    for fname in sorted(os.listdir(corpus)):
        path = os.path.join(corpus, fname)
        automaton = str(tmp_path / (fname + ".hds"))
        assert main(["compile", path, automaton]) == 0
        with open(path, encoding="utf-8") as f:
            h = compile_regex(parse_nre(f.read())[0])
        slice_ = language_slice(h, 18 if fname == "ns_protocol.nre" else 8)
        texts = [render_word(w) for w in sorted(slice_, key=lambda w: (len(w.tokens), repr(w)))[:2]]
        texts += [blocks[fname]] if fname in blocks else []
        capsys.readouterr()
        for text in texts:
            assert main(["accept", automaton, "--trace", text]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PINNED_TRACES


def test_accept_names_binders_apart_from_the_constants(tmp_path, capsys):
    # the word binds a name of its own, so the free #~0 of the expression
    # cannot read it, however the binder is spelled
    expr = tmp_path / "free0.nre"
    expr.write_text("<#n. #~0 >\n")
    automaton = str(tmp_path / "free0.hds")
    assert main(["compile", str(expr), automaton]) == 0
    capsys.readouterr()
    assert main(["accept", automaton, "<#~0. #~0 >"]) == 1
    assert main(["accept", automaton, "<#a. #~0 >", "--trace"]) == 0
    assert main(["accept", automaton, "<#~0. #~1 >"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "REJECT" and out[1] == "ACCEPT" and out[-1] == "REJECT"


def test_accept_rejects_malformed_word(hds_file, capsys):
    assert main(["accept", hds_file, "<#n. #n"]) == 2
    assert "error" in capsys.readouterr().err


def test_enumerate_expression(expr_file, capsys):
    assert main(["enumerate", expr_file, "--bound", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "#m" in lines
    assert "#m <#~0. #m #~0 >" in lines


def test_enumerate_negative_bound_is_usage_error(expr_file, hds_file, capsys):
    assert main(["enumerate", hds_file, "--bound", "-1"]) == 2
    assert main(["enumerate", expr_file, "--bound", "-1"]) == 2
    assert "bound must be non-negative" in capsys.readouterr().err


def test_enumerate_automaton_matches_expression(expr_file, hds_file, capsys):
    assert main(["enumerate", expr_file, "--bound", "8"]) == 0
    from_expr = capsys.readouterr().out
    assert main(["enumerate", hds_file, "--bound", "8"]) == 0
    from_hds = capsys.readouterr().out
    assert from_expr == from_hds


def test_enumerate_automaton_rejects_other_sorts(hds_file, capsys):
    # an automaton recognizes M-words only; it has no slice in another sort
    assert main(["enumerate", hds_file, "--bound", "8", "--sort", "S"]) == 2
    captured = capsys.readouterr()
    assert "--sort" in captured.err
    assert captured.out == ""


def test_check_passes(expr_file, capsys):
    assert main(["check", expr_file, "--bound", "8"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_dot_output(hds_file, capsys):
    assert main(["dot", hds_file]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.nre"
    p.write_text("letters a;\n#n ++ a\n")
    assert main(["compile", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["compile", "/no/such/file.nre"]) == 2


def test_an_automaton_that_fails_validation_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.hds"  # parses, but its one transition targets an undeclared state
    p.write_text("states\n  q0\n  q1\ninitial q0\nfinals q1\ntrans\n  q0 --eps[]--> q9\n")
    assert main(["accept", str(p), "a"]) == 2
    assert capsys.readouterr().err == "error: q0 --eps[_|_]--> q9: undeclared target\n"


@pytest.mark.parametrize("command", [["dot"], ["enumerate", "--bound", "2"]])
def test_every_command_refuses_an_automaton_that_fails_validation(tmp_path, capsys, command):
    p = tmp_path / "bad.hds"
    p.write_text("states\n  q0\n  q1\ninitial q0\nfinals q1\ntrans\n  q0 --eps[]--> q9\n")
    assert main([command[0], str(p)] + command[1:]) == 2
    assert capsys.readouterr().err == "error: q0 --eps[_|_]--> q9: undeclared target\n"


def test_an_expression_is_read_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("letters a;\na a + #n\n"))
    assert main(["enumerate", "-", "--bound", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["#n", "a a"]


def test_undeclared_letter_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.nre"
    p.write_text("#n a\n")  # letter a never declared
    assert main(["compile", str(p)]) == 2


def test_accept_deeply_nested_word_rejects(tmp_path, capsys):
    # 1,500 nested binders: the word is read in loops, with no recursion
    out = tmp_path / "session.hds"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "expressions", "session_nonce.nre")
    assert main(["compile", src, str(out)]) == 0
    capsys.readouterr()
    depth = 1500
    word = "<#n. " * depth + "#n" + " >" * depth
    assert main(["accept", str(out), word]) == 1
    assert capsys.readouterr().out == "REJECT\n"


def test_enumerate_output_does_not_depend_on_the_hash_seed():
    # tokens hash by identity; no slice may come out in a seed's order
    src = os.path.join(ROOT, "expressions", "ns_protocol.nre")
    script = (
        "from nomlang.cli import main\n"
        "for s in 'MGLS':\n"
        f"    main(['enumerate', {src!r}, '--bound', '40', '--sort', s])\n"
    )
    outs = _stdout_per_hash_seed(script, ("0", "1"))
    assert outs[0] == outs[1]
    # each sort: the empty word, one run of the protocol and two
    assert outs[0].count(b"^\n") == 4
    assert outs[0].count(b"ENCR") == 4 * (3 + 6)


def test_python_dash_m_runs_from_a_checkout():
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "-m", "nomlang", "check", "expressions/session_nonce.nre", "--bound", "8"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS ")


@pytest.mark.parametrize("command", [["compile"], ["check", "--bound", "2"],
                                     ["enumerate", "--bound", "2"]])
@pytest.mark.parametrize("body", [" ".join(["a"] * 1000), "<#n. " * 2000 + "a" + " >" * 2000],
                         ids=["1000-letter concatenation", "2000-deep binders"])
def test_too_deep_an_expression_is_a_usage_error(tmp_path, capsys, command, body):
    # the expression traversals recurse once per tree level, so past the
    # nesting limit the CLI says so in one line, with no traceback
    p = tmp_path / "deep.nre"
    p.write_text("letters a;\n" + body + "\n")
    assert main([command[0], str(p), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expression nested too deeply") and err.count("\n") == 1
    assert "nesting limit" in err


@pytest.mark.parametrize("command", [["compile"], ["check", "--bound", "2"],
                                     ["enumerate", "--bound", "2"]])
@pytest.mark.parametrize("body", ["(" * 5000 + "a" + ")" * 5000, "<#n. " * 500 + "a" + " >" * 500,
                                  "(" * 500 + "a" + ")*" * 500],
                         ids=["5000-deep parentheses", "500-deep binders", "500-deep stars"])
def test_deep_expressions_are_read(tmp_path, command, body):
    # the parser reads in one loop, so parentheses, which add no tree level,
    # nest without limit, and binders and stars up to the traversals' limit
    p = tmp_path / "deep.nre"
    p.write_text("letters a;\n" + body + "\n")
    assert main([command[0], str(p), *command[1:]]) == 0
