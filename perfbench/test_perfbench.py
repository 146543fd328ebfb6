"""Self-tests of the benchmark.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from render import digest  # noqa: E402

from nomlang import monoids  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    record, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["failed_ratio"]["value"] == 0
    for key in ("git_sha", "python", "nproc", "seed", "inputs", "item_cap_s", "timing"):
        assert key in record


def test_item_times_are_medians_scaled_by_the_probe_nearby():
    samples = [[0.010, 0.030, 0.012], [0.002, 0.004, 0.006]]
    same_speed = [[run.REF_S] * 3, [run.REF_S] * 3]
    assert run.item_times(samples, same_speed) == pytest.approx([0.012, 0.004])
    half_speed = [[2 * run.REF_S] * 3, [2 * run.REF_S] * 3]
    assert run.item_times(samples, half_speed) == pytest.approx([0.006, 0.002])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_answer_is_counted_as_failed(workload):
    wl = workloads.build(workload, 1)
    items = [i for i in wl.items if i.smoke]
    right = worker.Loop(wl, items, worker.time.monotonic())
    right.one_pass(monoids.SORTS.__getitem__)
    assert right.failures == []
    # expect the opposite of a correct answer for one item
    victim = items[-1]
    good_check = victim.check
    victim.check = lambda result: "expected something else" if good_check(result) is None else None
    wrong = worker.Loop(wl, items, worker.time.monotonic())
    wrong.one_pass(monoids.SORTS.__getitem__)
    assert [f["item"] for f in wrong.failures] == [victim.key]
    assert len(wrong.failures) / wrong.attempted > 0


def test_wrong_fixture_digest_fails_the_item():
    wl = workloads.build("sort_enum", 1)
    item = next(i for i in wl.items if i.kind == "random" and i.sort == "G")
    result = item.run(monoids.SORTS.__getitem__)
    assert item.check(result) is None
    fx = workloads.load_fixture("sort_enum")
    spec = next(s for s in fx["pool"]["items"] if item.key.startswith(s["src"] + " @"))
    bad = dict(spec["sorts"]["G"], digest="0" * 16)
    e = workloads._parse(spec["src"], fx["letters"])
    wrong = workloads._sort_item(item.key, "random", e, "G", fx["pool"]["bound"], bad)
    assert wrong.check(wrong.run(monoids.SORTS.__getitem__)) == "digest differs from fixture"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_change_random_items_but_not_fixed_ones(workload):
    a, b = workloads.build(workload, 1), workloads.build(workload, 2)
    fixed_a = [i.key for i in a.items if i.kind == "fixed"]
    assert fixed_a == [i.key for i in b.items if i.kind == "fixed"]
    assert [i.key for i in a.items if i.kind == "random"] != [
        i.key for i in b.items if i.kind == "random"]


def test_fixed_sort_items_give_identical_digests_across_seeds():
    fx = workloads.load_fixture("sort_enum")["fixed"][0]["sorts"]
    got = []
    for seed in (1, 2):
        wl = workloads.build("sort_enum", seed)
        got.append({i.sort: digest(i.sort, i.run(monoids.SORTS.__getitem__).words)
                    for i in wl.items if i.kind == "fixed"})
    assert got[0] == got[1] == {s: v["digest"] for s, v in fx.items()}


def test_traced_counts_match_published_seed_counts():
    """Counts the ROADMAP published for the seed code, seen through the wrappers.

    One bound-12 enumeration of `( <#n. #n #m > + a + #m )*` interns 4,161
    names in sort G and about 130 in L and S; `language_slice`
    canonicalizes each star-expression word more than once.  A change that
    fixes either defect updates these expectations with it.
    """
    _, sort = smoke("sort_enum", 1)
    m = {k: v["value"] for k, v in sort["metrics"].items()}
    assert m["names.interned_delta.G"] == 4161
    assert 125 <= m["names.interned_delta.L"] <= 135
    assert 125 <= m["names.interned_delta.S"] <= 135
    assert m["regex.enumerate_slice.G.words"] >= 12640
    _, cross = smoke("crosscheck", 1)
    assert cross["metrics"]["hds.language_slice.canon_per_word"]["value"] > 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
