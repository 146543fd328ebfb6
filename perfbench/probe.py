"""How fast the machine runs at the moment: a fixed task that uses no nomlang code.

On a shared VM the same call can take from 1 to 1.8 times its best time
for tens of seconds at a stretch, and every piece of pure-Python code
slows down alike, so the benchmark times this task between its items
and scales item times by it (see run.py).  The task builds and sorts a
small dict of int tuples, the kind of work the interpreter does inside
nomlang, and runs with the garbage collector off, so that the objects a
workload keeps alive do not change its time.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Median time of probe() on the machine the benchmark was written on
# (2-vCPU x86-64 VM, Python 3.11).  Scaled times read in seconds of a
# machine that runs the probe in this time.
REF_S = 0.0007


def _task() -> list:
    d: dict = {}
    for i in range(1000):
        t = (i % 97, i % 89, i % 13)
        d[t] = d.get(t, 0) + 1
    return sorted(d, key=lambda t: (t[2], t[1], t[0]))


def probe() -> float:
    """Seconds one run of the task takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _task()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
