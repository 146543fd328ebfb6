"""Textual and DOT serialization of automata.

The text format (extension ``.hds``) has four sections::

    states
      q0 x y
      q1
    initial q0 x=#m y=#n
    finals q1
    trans
      q0 --#x[x>y]--> q1
      q0 --eps[]--> q1
      q1 --open[x>*]--> q0

Transition labels are written as their repr: ``#x`` (a local `Name`,
read the name it denotes), a bare identifier (a `Letter`, read itself;
the keywords below are reserved), or the keyword of one of the
`hds.MOVES`: ``eps``, ``push``, ``pop``, ``open``, ``close``.  `parse`
returns each label as that very object.  The name map is a
comma-separated list of ``x>y`` entries, ``x>*`` sending a local to
the allocation placeholder, and ``[]`` for the empty map.  Older files
end with a line ``relaxed`` where an open map sends several locals to
the placeholder; the map itself says so, and `parse` skips the line.
`serialize` raises `FormatError`, naming the identifier and its role,
on one that `parse` would not read back as itself, and `parse` on one
that `serialize` would refuse to write, so one rule governs both
directions: a state id must be one word, not a section keyword and not
starting with ``//`` (a comment); a letter an identifier that is not a
move keyword; and a name (a local, an eta name, a label name or a map
entry) one word without ``,``, ``>``, ``[``, ``]`` or ``=#``, and not
``*``.
`parse` returns only a well-formed automaton: on a text whose automaton
`hds.validate` rejects (an undeclared state, a label that is no local
of its source, a map beyond its target's locals, ...) it raises
`FormatError` naming each fault, so a caller need not validate again.
"""

from __future__ import annotations

import re
from typing import Optional

from .names import Letter, Name, STAR
from .hds import MOVES, Hds, Move, NameMap, Transition, validate

_KEYWORDS = {m.keyword: m for m in MOVES}
_SECTIONS = {"states", "initial", "finals", "trans", "relaxed"}
_LETTER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAME_BREAK_RE = re.compile(r"[,>\[\]]|=#")


class FormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Writing

def _fmt_sigma(sigma: NameMap) -> str:
    # the empty map is written ``[]``, not as its repr ``_|_``
    return repr(sigma) if sigma.entries else ""


def _readable(text: str, role: str) -> str:
    """`text`, if it reads back as itself in `role`, by the rules of the
    module docstring; else `FormatError`."""
    if role == "state id":
        ok = text not in _SECTIONS and not text.startswith("//")
    elif role == "letter":
        ok = text not in _KEYWORDS and _LETTER_RE.fullmatch(text) is not None
    else:  # a name: a local, an eta name, a label name or a map entry
        ok = text != "*" and _NAME_BREAK_RE.search(text) is None
    if not ok or text.split() != [text]:
        raise FormatError(f"{role} {text!r} does not read back as itself")
    return text


def serialize(h: Hds) -> str:
    lines = ["states"]
    for q in sorted(h.states):
        locs = " ".join(_readable(n.label, "local") for n in sorted(h.states[q]))
        lines.append(f"  {_readable(q, 'state id')} {locs}".rstrip())
    eta = " ".join(
        f"{_readable(x.label, 'eta name')}=#{_readable(v.label, 'eta name')}"
        for x, v in sorted(h.eta.items())
    )
    lines.append(f"initial {h.initial} {eta}".rstrip())
    lines.append(("finals " + " ".join(sorted(h.finals))).rstrip())
    lines.append("trans")
    for q in sorted(h.trans):
        for t in h.trans[q]:
            if type(t.label) is Letter:
                _readable(t.label.symbol, "letter")
            elif type(t.label) is Name:
                _readable(t.label.label, "label name")
            elif t.label not in MOVES:
                raise FormatError(f"label {t.label!r} is no name, letter or move")
            for x, v in t.sigma.entries:
                _readable(x.label, "map entry")
                if v is not STAR:
                    _readable(v.label, "map entry")
            lines.append(f"  {q} --{t.label!r}[{_fmt_sigma(t.sigma)}]--> {t.target}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reading

_TRANS_RE = re.compile(r"^(\S+)\s+--(.+?)\[(.*?)\]-->\s+(\S+)$")


def _name(label: str, line: str, role: str) -> Name:
    if not label:
        raise FormatError(f"empty name in line {line!r}")
    return Name(_readable(label, role))


def _parse_sigma(text: str, line: str) -> NameMap:
    entries = {}
    text = text.strip()
    if not text:
        return NameMap.of({})
    for item in text.split(","):
        if ">" not in item:
            raise FormatError(f"bad name-map entry {item!r}")
        src, dst = item.split(">", 1)
        src, dst = _name(src.strip(), line, "map entry"), dst.strip()
        if src in entries:
            raise FormatError(f"repeated name-map key {src.label!r} in line {line!r}")
        entries[src] = STAR if dst == "*" else _name(dst, line, "map entry")
    return NameMap.of(entries)


def _parse_label(text: str, line: str) -> Name | Letter | Move:
    text = text.strip()
    if text.startswith("#"):
        return _name(text[1:], line, "label name")
    if text in _KEYWORDS:
        return _KEYWORDS[text]
    if _LETTER_RE.fullmatch(text):
        return Letter(text)
    raise FormatError(f"bad transition label {text!r}")


def parse(text: str) -> Hds:
    states: dict[str, frozenset[Name]] = {}
    initial = None
    eta: dict[Name, Name] = {}
    finals: Optional[frozenset[str]] = None
    trans: dict[str, list[Transition]] = {}
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line in ("states", "trans", "relaxed"):
            section = line
            continue
        parts = line.split()
        if parts[0] == "initial":
            if len(parts) < 2:
                raise FormatError("initial line needs a state id")
            if initial is not None:
                raise FormatError(f"repeated initial line {line!r}")
            initial = parts[1]
            for binding in parts[2:]:
                if "=#" not in binding:
                    raise FormatError(f"bad initial binding {binding!r}")
                x, v = binding.split("=#", 1)
                x = _name(x, line, "eta name")
                if x in eta:
                    raise FormatError(f"repeated initial binding of {x.label!r} in line {line!r}")
                eta[x] = _name(v, line, "eta name")
            section = None
            continue
        if parts[0] == "finals":
            if finals is not None:
                raise FormatError(f"repeated finals line {line!r}")
            finals = frozenset(_readable(q, "state id") for q in parts[1:])
            section = None
            continue
        if section == "states":
            if parts[0] in states:
                raise FormatError(f"repeated state {parts[0]!r} in line {line!r}")
            states[_readable(parts[0], "state id")] = frozenset(
                Name(_readable(x, "local")) for x in parts[1:])
        elif section == "trans":
            m = _TRANS_RE.match(line)
            if m is None:
                raise FormatError(f"bad transition line {line!r}")
            src, label, sigma, dst = m.groups()
            trans.setdefault(src, []).append(Transition(
                _parse_label(label, line), _readable(dst, "state id"), _parse_sigma(sigma, line)))
        else:
            raise FormatError(f"unexpected line {line!r}")
    if initial is None:
        raise FormatError("missing initial line")
    for q in states:
        trans.setdefault(q, [])
    h = Hds(states, initial, eta, finals or frozenset(), {q: tuple(ts) for q, ts in trans.items()})
    problems = validate(h)
    if problems:
        raise FormatError("; ".join(problems))
    return h


# ---------------------------------------------------------------------------
# DOT export

def to_dot(h: Hds) -> str:
    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph H {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in sorted(h.states):
        locs = ",".join(n.label for n in sorted(h.states[q]))
        shape = "doublecircle" if q in h.finals else "circle"
        label = f"{esc(q)}\\n{{{esc(locs)}}}" if locs else esc(q)
        lines.append(f'  "{esc(q)}" [shape={shape}, label="{label}"];')
    eta = ",".join(f"{x.label}={v.label}" for x, v in sorted(h.eta.items()))
    lines.append(f'  __start -> "{esc(h.initial)}" [label="{esc(eta)}"];')
    for q in sorted(h.trans):
        for t in h.trans[q]:
            sig = _fmt_sigma(t.sigma)
            lines.append(
                f'  "{esc(q)}" -> "{esc(t.target)}" [label="{esc(repr(t.label))}"];'
            )
            if sig:
                # name-map annotation, drawn dashed alongside the move
                lines.append(
                    f'  "{esc(q)}" -> "{esc(t.target)}" '
                    f'[style=dashed, color=gray40, fontcolor=gray40, label="{esc(sig)}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
