"""Command-line interface.

Exit codes: 0 accept/pass, 1 reject/fail, 2 usage or parse error,
3 search budget exhausted before a verdict.

An expression is one flat array that the parser and every traversal
after it walk in a loop, so no nesting is too deep for a command.
`enumerate` sorts its lines and writes them at once, and `check` writes
its report at once.
"""

from __future__ import annotations

import argparse
import sys

from .syntax import parse_nre, parse_word, render_word
from .regex import enumerate_slice
from .monoids import SORTS
from .compiler import compile_regex
from . import hds as automata
from . import hds_format
from .oracle import check_equivalence
from .words import collector_paused

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_FUEL = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def cmd_compile(args) -> int:
    e, _letters = parse_nre(_read(args.input))
    h = compile_regex(e)
    _write(args.output, hds_format.serialize(h))
    n_trans = sum(len(ts) for ts in h.trans.values())
    print(f"{len(h.states)} states, {n_trans} transitions", file=sys.stderr)
    return EXIT_ACCEPT


def cmd_accept(args) -> int:
    if args.fuel is not None and args.fuel < 1:
        raise ValueError("--fuel must be at least 1: the initial frame takes one")
    h = hds_format.parse(_read(args.automaton))
    w = parse_word(args.word)
    tokens = automata.word_stream(h, w)
    result = automata.run(h, tokens, max_depth=args.fuel, want_trace=args.trace)
    if result.outcome == automata.ACCEPT:
        print("ACCEPT")
        if args.trace and result.trace:
            for cfg, t in result.trace:
                state, pos, stack = cfg
                via = f"  via {t!r}" if t is not None else ""
                print(f"  {state} @{pos} [{' :: '.join(map(repr, stack))}]{via}")
        return EXIT_ACCEPT
    if result.outcome == automata.CUTOFF:
        print("UNDECIDED (search budget exhausted; raise --fuel)")
        return EXIT_FUEL
    print("REJECT")
    return EXIT_REJECT


def cmd_enumerate(args) -> int:
    if args.input.endswith(".hds") and args.sort != "M":
        print("error: --sort applies only to expression input", file=sys.stderr)
        return EXIT_USAGE
    # the rendered lines form no cycles either, and the process ends after
    # printing them: with the pause over the rendering too, `enumerate
    # --bound 9` on `( ( #k + b* ) ( #n + a )* )*` and on
    # `( #k* + b* + #n + #m )*` took 2.6 and 2.2 s where it took 2.8 and
    # 2.7 s (medians of seven runs)
    with collector_paused():
        try:
            lines = _slice_lines(args)
        except automata.Undecided:
            print("UNDECIDED (the stack depth cap cut a branch; the slice may miss words)")
            return EXIT_FUEL
    # at once: the 349,525 lines of a bound-9 star slice take 0.04 s so, 0.9 to 1.4 s printed singly
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_ACCEPT


def _slice_lines(args) -> list[str]:
    """The rendered words of the slice `args` names, sorted."""
    if args.input.endswith(".hds"):
        h = hds_format.parse(_read(args.input))
        return sorted(render_word(w) for w in automata.language_slice(h, args.bound))
    e, _letters = parse_nre(_read(args.input))
    ops = SORTS[args.sort]
    return sorted(render_word(ops.to_mword(w)) for w in enumerate_slice(e, ops, args.bound).words)


def cmd_check(args) -> int:
    e, _letters = parse_nre(_read(args.input))
    h = compile_regex(e)
    report = check_equivalence(e, h, args.bound)
    print("\n".join(report.lines()))
    return EXIT_ACCEPT if report.passed else EXIT_REJECT


def cmd_dot(args) -> int:
    h = hds_format.parse(_read(args.automaton))
    sys.stdout.write(hds_format.to_dot(h))
    return EXIT_ACCEPT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nomlang",
        description="Words with binders: expressions, automata, and checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="translate an expression file to an automaton")
    c.add_argument("input", help=".nre expression file (or - for stdin)")
    c.add_argument("output", nargs="?", default="-", help=".hds output (default stdout)")
    c.set_defaults(fn=cmd_compile)

    a = sub.add_parser("accept", help="run an automaton on a word")
    a.add_argument("automaton", help=".hds automaton file")
    a.add_argument("word", help="word in concrete syntax, e.g. '<#n. #m #n >'")
    a.add_argument("--fuel", type=int, default=None,
                   help="maximum stack depth, at least 1 (default: input length + states + 1)")
    a.add_argument("--trace", action="store_true", help="print the accepting run")
    a.set_defaults(fn=cmd_accept)

    e = sub.add_parser("enumerate", help="list a bounded language slice")
    e.add_argument("input", help=".nre expression or .hds automaton file")
    e.add_argument("--bound", type=int, required=True, help="token length bound")
    e.add_argument("--sort", choices=sorted(SORTS), default="M",
                   help="word sort, for expression input only (default M)")
    e.set_defaults(fn=cmd_enumerate)

    k = sub.add_parser("check", help="compare an expression against its compilation")
    k.add_argument("input", help=".nre expression file")
    k.add_argument("--bound", type=int, default=8, help="token length bound")
    k.set_defaults(fn=cmd_check)

    d = sub.add_parser("dot", help="export an automaton as a DOT graph")
    d.add_argument("automaton", help=".hds automaton file")
    d.set_defaults(fn=cmd_dot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # parse and format errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
