#!/usr/bin/env python3
"""Count code lines: lines that hold a token outside docstrings and comments.

Usage, from the root of a checkout:

    python3 scripts/code_lines.py                  # src/nomlang and scripts/
    python3 scripts/code_lines.py src/nomlang/hds.py perfbench

A line counts if some token on it is not a comment, a line break, an
indent, or part of a docstring (the string that opens a module, class or
function body).  So blank lines, comment lines and docstrings do not
count, and a statement spread over several lines counts each of them.
Prints one line per file, then one total per directory argument.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tokenize

_NOT_CODE = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                       tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER))


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The number of code lines in the Python file at `path`."""
    with open(path, "rb") as f:
        source = f.read()
    docs = _docstring_lines(ast.parse(source, path))
    lines: set[int] = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def _python_files(root: str) -> list[str]:
    if not os.path.isdir(root):
        return [root]
    return sorted(os.path.join(d, f) for d, dirs, files in os.walk(root)
                  if "__pycache__" not in d for f in files if f.endswith(".py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=["src/nomlang", "scripts"],
                    help="Python files or directories (default: src/nomlang scripts)")
    args = ap.parse_args(argv)
    totals = []
    for root in args.paths:
        total = 0
        for path in _python_files(root):
            n = code_lines(path)
            total += n
            print(f"{n:6,d}  {path}")
        if os.path.isdir(root):
            totals.append((root, total))
    for root, total in totals:
        print(f"{total:6,d}  {root.rstrip('/')}/ (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
