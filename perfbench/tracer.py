"""Spans around calls into the nomlang layers, recorded from outside.

Nothing in the package is edited: `Tracer.install` replaces module
attributes with timing wrappers (including the names `hds` looks up
itself, such as `step`, `alpha_canonical` and `parse_tokens`) and
`Tracer.uninstall` puts the originals back.  Sort operations are traced
by handing `enumerate_slice` a wrapped `SortOps`.

Every wrapped call updates an aggregate per name (calls, inclusive time,
self time = duration minus the time covered by wrapped calls inside it)
and a call count per (name, enclosing name).  Coarse calls and benchmark
items also keep a span record -- id, name, parent id, start, end and the
per-name call counts inside it -- in memory until `dump` writes them.
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from nomlang import compiler, hds, hds_format, monoids, oracle, regex, syntax, words
from nomlang.names import Name

# (module, attribute, span name, keeps a span record)
PATCHES = [
    (syntax, "parse_word", "syntax.parse_word", False),
    (syntax, "parse_regex", "syntax.parse_regex", False),
    (words, "alpha_canonical", "words.alpha_canonical", False),
    (hds, "alpha_canonical", "words.alpha_canonical", False),
    (words, "tokenize", "words.tokenize", False),
    (words, "parse_tokens", "words.parse_tokens", False),
    (hds, "parse_tokens", "words.parse_tokens", False),
    (hds, "step", "hds.step", False),
    (hds, "validate", "hds.validate", True),
    (compiler, "compile_regex", "compiler.compile_regex", True),
    (hds_format, "parse", "hds_format.parse", True),
    (oracle, "check_equivalence", "oracle.check_equivalence", True),
]
# The sort's own operations, named after the layer that implements them.
SORT_OP_NAMES = {
    "M": {"concat": "monoids.M.concat", "canon": "words.alpha_canonical",
          "tok_len": "words.token_length"},
    **{s: {op: f"monoids.{s}.{op}" for op in ("concat", "canon", "tok_len")} for s in "GLS"},
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child seconds, span id]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.by_parent: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)  # sizes, outcomes
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.measure_memory = False
        self._saved: list = []
        self._ops = {s: self._traced_ops(s) for s in monoids.SORTS}

    # -- recording -----------------------------------------------------

    def _enter(self, name: str, record: bool) -> list:
        parent = self.stack[-1] if self.stack else None
        span_id = None
        if record:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "name": name,
                "parent": self._span_of(), "start": perf_counter(),
                "counts_in": dict(self.calls),
            })
        frame = [name, 0.0, span_id]
        self.by_parent[(name, parent[0] if parent else "")] += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, dur: float) -> None:
        self.stack.pop()
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        if frame[2] is not None:
            span = self.spans[frame[2]]
            span["name"] = name
            span["end"] = span["start"] + dur
            before = span.pop("counts_in")
            span["counts"] = {k: v - before.get(k, 0) for k, v in self.calls.items()
                              if v != before.get(k, 0)}

    def _span_of(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def wrap(self, name: str, fn, record: bool = False, rename=None, after=None):
        """A wrapper that times `fn`; recursive calls of `fn` are not split out."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][0] == name:  # compile_regex recursing
                return fn(*args, **kwargs)
            span_name = rename(args) if rename else name
            frame = tracer._enter(span_name, record)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                final = span_name
                if after is not None and result is not None:
                    final = after(span_name, args, result) or span_name
                tracer._exit(frame, final, dur)

        return traced

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span (one item)."""
        frame = self._enter(name, True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, perf_counter() - t0)

    def _measured(self, name, fn, *args):
        """Call `fn`, recording its allocation peak when memory is measured."""
        if not self.measure_memory:
            return fn(*args)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args)
        finally:
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self.peak_mb[name] = max(self.peak_mb[name], peak)

    # -- the layers ----------------------------------------------------

    def _traced_ops(self, sort: str) -> monoids.SortOps:
        base = monoids.SORTS[sort]
        names = SORT_OP_NAMES[sort]
        return dataclasses.replace(
            base, **{op: self.wrap(names[op], getattr(base, op)) for op in names}
        )

    def ops(self, sort: str) -> monoids.SortOps:
        return self._ops[sort]

    def _enumerate_slice(self, fn):
        def sort_of(args):
            s = args[1]
            return f"regex.enumerate_slice.{s if isinstance(s, str) else s.tag}"

        def after(name, args, result):
            self.counts[name + ".words"] += len(result.words)
            return None

        def call(e, sort, bound):
            tag = sort if isinstance(sort, str) else sort.tag
            ops = self._ops[tag]
            return self._measured(f"regex.enumerate_slice.{tag}", fn, e, ops, bound)

        return self.wrap("regex.enumerate_slice", call, True, rename=sort_of, after=after)

    def _language_slice(self, fn):
        def after(name, args, result):
            self.counts["hds.language_slice.words"] += len(result)
            return None

        def call(*args):
            return self._measured("hds.language_slice", fn, *args)

        return self.wrap("hds.language_slice", call, True, after=after)

    def _run(self, fn):
        def after(name, args, result):
            self.counts["hds.run.tokens"] += len(args[1])
            return f"hds.run.{result.outcome}"

        return self.wrap("hds.run", fn, True, after=after)

    def _serialize(self, fn):
        def after(name, args, result):
            self.counts["hds_format.bytes"] += len(result.encode())
            return None

        return self.wrap("hds_format.serialize", fn, True, after=after)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        patches = [(mod, attr, self.wrap(name, getattr(mod, attr), rec))
                   for mod, attr, name, rec in PATCHES]
        enum = self._enumerate_slice(regex.enumerate_slice)
        lang = self._language_slice(hds.language_slice)
        patches += [(hds_format, "serialize", self._serialize(hds_format.serialize)),
                    (regex, "enumerate_slice", enum), (oracle, "enumerate_slice", enum),
                    (hds, "language_slice", lang), (oracle, "language_slice", lang),
                    (hds, "run", self._run(hds.run))]
        for mod, attr, wrapper in patches:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls), "total": dict(self.total),
            "self": dict(self.self_s), "counts": dict(self.counts),
            "by_parent": {f"{k[0]}<{k[1]}": v for k, v in self.by_parent.items()},
        }

    def reset(self) -> None:
        for d in (self.calls, self.total, self.self_s, self.by_parent, self.counts):
            d.clear()

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**extra, "spans": self.spans}, f)
            f.write("\n")


def interned() -> int:
    return len(Name._registry)
