"""One workload run in a fresh interpreter; `run.py` starts it.

The worker sets the workload up, then runs its item list in a closed
loop with one client: the next item starts when the previous one has
finished.  A measured run makes a fixed number of passes over the list,
`--seconds` divided by the workload's nominal pass time
(`workloads.PASS_S`), and at least MIN_PASSES.  After every item run,
and after the set-up, it times `probe.probe()`, which measures the
machine's speed and is left out of the wall times.  It prints one JSON
line with the raw timings; `run.py` turns them into metrics.

With `--trace 1` the set-up runs under `tracer.Tracer`; then, after an
untraced warm-up pass over the small items, untraced and traced passes
alternate, as many of each as a measured run makes.  The ratio of their
median wall times is the tracing overhead.  A last pass under `tracemalloc` measures
allocation peaks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from time import perf_counter

import workloads
from probe import probe
from tracer import Tracer, interned

from nomlang import monoids

# Passes a measured run makes even when --seconds is shorter: every item
# runs at least this often, and its time is the best of those runs.
MIN_PASSES = 3

# Probe runs after a set-up; their median is the machine's speed then.
SETUP_PROBES = 41

# A run that is still going after this long marks the items it has not
# reached as failed, so that the process ends well within its 180 s.
RUN_DEADLINE_S = 160.0


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout()


def run_item(item, ops, cap):
    """Run one item; return (seconds, None or why it failed, seconds spent checking)."""
    t0 = perf_counter()
    try:
        if cap:
            signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            result = item.run(ops)
        finally:
            if cap:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        return perf_counter() - t0, "timeout", 0.0
    except Exception as exc:  # a raising item is a failed item, not a crash
        return perf_counter() - t0, f"error: {type(exc).__name__}: {exc}", 0.0
    t1 = perf_counter()
    why = item.check(result)
    return t1 - t0, why, perf_counter() - t1


class Loop:
    """Runs passes over the item list and keeps every sample."""

    def __init__(self, wl, items, started: float):
        self.wl, self.items, self.started = wl, items, started
        self.cap = workloads.ITEM_CAP_S if wl.capped else None
        self.walls: list[float] = []
        self.samples: list[list[float]] = [[] for _ in items]  # per item, per pass
        self.probes: list[list[float]] = [[] for _ in items]  # probe() after each run
        self.failures: list[dict] = []
        self.attempted = 0

    def one_pass(self, ops, around=None) -> float:
        """Run every item once; return the pass wall time less the checking."""
        t0 = perf_counter()
        checking = 0.0
        for item, samples, probes in zip(self.items, self.samples, self.probes):
            self.attempted += 1
            if time.monotonic() - self.started > RUN_DEADLINE_S:
                self.failures.append({"item": item.key, "reason": "run deadline"})
                continue
            if around is None:
                dt, why, check_s = run_item(item, ops, self.cap)
            else:
                dt, why, check_s = around(item, lambda: run_item(item, ops, self.cap))
            checking += check_s
            samples.append(dt)
            t = perf_counter()
            probes.append(probe())
            checking += perf_counter() - t  # kept out of the wall time like the checks
            if why is not None:
                self.failures.append({"item": item.key, "reason": why, "seconds": dt})
        wall = perf_counter() - t0 - checking
        self.walls.append(wall)
        return wall


def pass_count(args) -> int:
    return max(MIN_PASSES, round(args.seconds / workloads.PASS_S[args.workload]))


def automaton_size(wl) -> tuple[int, int]:
    states = sum(len(h.states) for h in wl.automata)
    trans = sum(len(ts) for h in wl.automata for ts in h.trans.values())
    return states, trans


def layer_metrics(setup: dict, passes: dict, npasses: int, peak_mb: dict,
                  names: dict, wl, overhead: float) -> dict:
    """Per-layer metrics: set-up once plus the average traced pass."""

    def get(kind: str, name: str) -> float:
        return setup[kind].get(name, 0) + passes[kind].get(name, 0) / npasses

    def parent_calls(child: str, parent: str) -> float:
        key = f"{child}<{parent}"
        return setup["by_parent"].get(key, 0) + passes["by_parent"].get(key, 0) / npasses

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("syntax.parse_word", "syntax.parse_regex", "words.tokenize",
                 "compiler.compile_regex", "hds.validate", "hds_format.serialize",
                 "hds_format.parse", "hds.language_slice"):
        out[f"{name}.s"] = (get("total", name), "s")
    for name in ("words.alpha_canonical", "words.token_length"):
        out[f"{name}.calls"] = (get("calls", name), "count")
        out[f"{name}.s"] = (get("total", name), "s")
    out["words.parse_tokens.calls"] = (get("calls", "words.parse_tokens"), "count")
    for s in "GLS":
        for op in ("concat", "canon"):
            out[f"monoids.{s}.{op}.calls"] = (get("calls", f"monoids.{s}.{op}"), "count")
            out[f"monoids.{s}.{op}.s"] = (get("total", f"monoids.{s}.{op}"), "s")
        out[f"monoids.{s}.tok_len.s"] = (get("total", f"monoids.{s}.tok_len"), "s")
    for s in "MGLS":
        span = f"regex.enumerate_slice.{s}"
        kept = get("counts", f"{span}.words")
        out[f"{span}.s"] = (get("total", span), "s")
        out[f"{span}.words"] = (kept, "count")
        out[f"regex.{s}.dedup_ratio"] = (ratio(kept, get("calls", f"monoids.{s}.concat")), "ratio")
        out[f"{span}.peak_mb"] = (peak_mb.get(span, 0.0), "MB")
    states, trans = automaton_size(wl)
    out["compiler.states"] = (states, "count")
    out["compiler.transitions"] = (trans, "count")
    slice_words = get("counts", "hds.language_slice.words")
    out["hds.language_slice.words"] = (slice_words, "count")
    out["hds.language_slice.canon_per_word"] = (
        ratio(parent_calls("words.alpha_canonical", "hds.language_slice"), slice_words), "ratio")
    out["hds.language_slice.peak_mb"] = (peak_mb.get("hds.language_slice", 0.0), "MB")
    out["hds.run.accept.s"] = (get("total", "hds.run.accept"), "s")
    out["hds.run.reject.s"] = (get("total", "hds.run.reject"), "s")
    out["hds.run.cutoff"] = (get("calls", "hds.run.cutoff"), "count")
    out["hds.step.calls"] = (get("calls", "hds.step"), "count")
    out["hds.run.steps_per_token"] = (
        ratio(get("calls", "hds.step"), get("counts", "hds.run.tokens")), "ratio")
    out["hds_format.bytes"] = (get("counts", "hds_format.bytes"), "bytes")
    out["oracle.check_equivalence.self_s"] = (get("self", "oracle.check_equivalence"), "s")
    out["names.interned_delta"] = (names["pass"] / npasses, "count")
    for s in "MGLS":
        out[f"names.interned_delta.{s}"] = (names.get(s, 0) / npasses, "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def traced_run(args, started: float) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        wl = workloads.build(args.workload, args.seed)
    finally:
        tracer.uninstall()
    setup = tracer.snapshot()
    tracer.reset()
    items = [i for i in wl.items if i.smoke] if args.smoke else wl.items
    # warm-up over the small items, not counted: the first untraced pass
    # is then no colder than the traced ones
    Loop(wl, [i for i in items if i.smoke], started).one_pass(monoids.SORTS.__getitem__)
    loop = Loop(wl, items, started)

    names = {"pass": 0}

    def around(item, call):
        before = interned()
        with tracer.span(f"item {item.key}"):
            out = call()
        delta = interned() - before
        names["pass"] += delta
        if item.kind == "fixed" and item.sort:
            names[item.sort] = names.get(item.sort, 0) + delta
        return out

    n = pass_count(args)
    untraced, traced = [], []
    for _ in range(n):
        untraced.append(loop.one_pass(monoids.SORTS.__getitem__))
        tracer.install()
        try:
            traced.append(loop.one_pass(tracer.ops, around))
        finally:
            tracer.uninstall()
    passes = tracer.snapshot()
    if args.workload != "membership":  # membership calls neither slice layer
        # allocation peaks of the slice layers; tracemalloc slows every
        # allocation, so this pass is kept out of the times above
        tracer.measure_memory = True
        tracemalloc.start()
        tracer.install()
        try:
            loop.one_pass(tracer.ops)
        finally:
            tracer.uninstall()
            tracemalloc.stop()
    metrics = layer_metrics(setup, passes, n, dict(tracer.peak_mb), names, wl,
                            statistics.median(traced) / statistics.median(untraced))
    os.makedirs(os.path.join(workloads.HERE, "out"), exist_ok=True)
    path = os.path.join(workloads.HERE, "out", f"spans-{args.workload}-seed{args.seed}.json")
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, "traced_passes": n,
                       "setup": setup, "passes": passes})
    return {"layers": metrics, "traced_passes": n, "spans_file": os.path.relpath(path),
            "attempted": loop.attempted, "failures": loop.failures, "items": len(items),
            "wl": wl}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true",
                    help="run only the small items (for the benchmark's self-tests)")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    started = args.spawned

    if args.trace:
        res = traced_run(args, started)
        wl = res.pop("wl")
        out = {**res, "record": wl.record}
    else:
        wl = workloads.build(args.workload, args.seed)
        setup_s = time.monotonic() - started - wl.fixture_load_s
        # the machine's speed just after the set-up, to scale setup_s by
        setup_probe_s = statistics.median(probe() for _ in range(SETUP_PROBES))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe_s}))
            return 0
        items = [i for i in wl.items if i.smoke] if args.smoke else wl.items
        loop = Loop(wl, items, started)
        for _ in range(pass_count(args)):
            loop.one_pass(monoids.SORTS.__getitem__)
        out = {"setup_s": setup_s, "fixture_load_s": wl.fixture_load_s, "walls": loop.walls,
               "setup_probe_s": setup_probe_s, "samples": loop.samples, "probes": loop.probes,
               "attempted": loop.attempted, "failures": loop.failures,
               "items": len(items), "record": wl.record}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["item_cap_s"] = workloads.ITEM_CAP_S if wl.capped else None
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
