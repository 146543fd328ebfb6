#!/usr/bin/env python3
"""The nomlang benchmark: one workload run, printed as metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `crosscheck` (the `nomlang check` job),
`membership` (words against loaded automata, `nomlang accept`) and
`sort_enum` (slices in the sorts M, G, L and S, `nomlang enumerate`).

Each run starts the workload in fresh interpreters, because the name
registry only grows: SETUP_RUNS processes only set up, half before and
half after one more that sets up and measures a fixed number of passes over the item list, which
`--seconds` sets (see worker.py).  With `--trace 0` the last line of the output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics setup_s (median over all the set-ups, less
the time spent reading the fixture of expected answers), and, from each
item's median time over the run's passes: wall_s (their sum, one pass
over the item list), item_p50_ms and item_tail_ms (their median, and the
highest percentile with at least ten items above it), and peak_rss_mb.
With `--trace 1` the metrics are the per-layer numbers of
worker.layer_metrics.  The line before it is a JSON run record: code
version, Python, CPUs, seed, bounds, item counts, the item time cap,
sample counts, the probe's speed, the unscaled pass wall times, the
failed ratio and every failure.

Timing is in-process only (perf_counter, getrusage, tracemalloc): there
is no system-wide tracing and no cache dropping, and the machine may be
shared with other work.  On a shared 2-vCPU VM the same call took from
1 to 1.8 times its best time, in spells of seconds to minutes, and the
median of one item over a 30 s run moved by 20% from run to run.  All
pure-Python code slows down alike in such a spell, so the worker times a
fixed task that uses no nomlang code (probe.py) after every item run and
after the set-up, and every time above is scaled to the speed at which
that task takes probe.REF_S: time * REF_S / (probe time nearby).  A
change to nomlang moves the scaled times as it moves the raw ones; a busy
neighbour moves them far less.  Exit status is 0 when a result was printed,
whether or not every answer was correct; anything else means no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from probe import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("crosscheck", "membership", "sort_enum")
SETUP_RUNS = 6  # set-up-only processes around the measured one
RUN_LIMIT_S = 175.0  # the whole run, set-ups included, ends before this
PROBE_WINDOW = 20  # probes on each side of an item run that give the speed it ran at
TIMING_NOTE = ("in-process timing only (perf_counter, getrusage, tracemalloc); "
               "no system-wide tracing, no cache dropping; the machine may be shared")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "nomlang")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def spawn(root: str, args, extra: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=root, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_setup(res: dict) -> float:
    return res["setup_s"] * REF_S / res["probe_s"]


def item_times(samples: list[list[float]], probes: list[list[float]]) -> list[float]:
    """Each item's median over the passes of its run times, scaled to REF_S.

    The probe after each item run gives the machine's speed; a run is
    scaled by the median of the PROBE_WINDOW probes before and after it,
    in the order the runs were made (pass by pass).
    """
    order = [(i, k) for k in range(max(map(len, samples), default=0))
             for i in range(len(samples)) if k < len(samples[i])]
    flat = [probes[i][k] for i, k in order]
    scaled: list[list[float]] = [[] for _ in samples]
    for j, (i, k) in enumerate(order):
        speed = statistics.median(flat[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1])
        scaled[i].append(samples[i][k] * REF_S / speed)
    return [statistics.median(s) for s in scaled if s]


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values above it, and its value."""
    ordered = sorted(times)
    i = max(0, len(ordered) - 11)
    return 100.0 * (i + 1) / len(ordered), ordered[i]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="run only the small items (for the benchmark's self-tests)")
    args = ap.parse_args()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nomlang", "__init__.py")):
        return fail("no src/nomlang here: run from the root of a nomlang checkout")
    extra = ["--smoke"] if args.smoke else []

    def setup_only(n: int) -> list[float]:
        if args.trace:
            return []
        return [scaled_setup(spawn(root, args, extra + ["--setup-only"], deadline))
                for _ in range(n)]

    try:
        # half the set-ups before the measured process and half after it, so
        # that their median spans the run and not one moment of the machine
        setups = setup_only(SETUP_RUNS // 2)
        res = spawn(root, args, extra, deadline)
        setups += setup_only(SETUP_RUNS - SETUP_RUNS // 2)
    except subprocess.TimeoutExpired:
        return fail(f"run did not finish within {RUN_LIMIT_S:.0f} s")
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        return fail(str(exc))

    failures = res["failures"]
    attempted = res["attempted"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root), "src_sha256": source_digest(root),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "items_per_pass": res["items"],
        "item_cap_s": res["item_cap_s"], "inputs": res["record"],
        "failed_ratio": {"value": len(failures) / attempted, "unit": "ratio",
                         "failed": len(failures), "attempted": attempted},
        "failures": failures[:50], "timing": TIMING_NOTE,
        "client": "closed loop, one client, one thread, fresh interpreter per run",
    }
    if args.trace:
        metrics = res["layers"]
        record["traced_passes"] = res["traced_passes"]
        record["spans_file"] = res["spans_file"]
        record["tracing_overhead"] = metrics["trace.overhead_ratio"]
    else:
        setups.append(scaled_setup({"setup_s": res["setup_s"], "probe_s": res["setup_probe_s"]}))
        times = item_times(res["samples"], res["probes"])
        pct, tail_s = tail(times)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(times), "unit": "s"},
            "item_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        record["samples"] = {"setup_s": len(setups), "items": len(times),
                             "runs_per_item": len(res["walls"])}
        record["probe"] = {"ref_s": REF_S, "median_s": statistics.median(
            x for p in res["probes"] for x in p)}
        record["pass_wall_s"] = res["walls"]  # as measured, unscaled, less the checking
        record["item_tail_percentile"] = round(pct, 3)
        record["setup_runs_s"] = setups
        record["fixture_load_s"] = res["fixture_load_s"]  # left out of setup_s
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
