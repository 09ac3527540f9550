"""Tests of the benchmark itself: determinism, the correctness gate and the result line.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import radonum as lib  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NO_TRACE, Trace, layer_metrics, self_times  # noqa: E402

COUNTS = [
    "search.nodes",
    "search.checks",
    "search.cutoffs",
    "checker.valid_calls",
    "checker.witness_calls",
    "formula.calls",
    "construction.calls",
]


# Cheap slices of each workload, so a test pass stays well under a second:
# deep keeps only (60,6), atlas its first items in seeded order, certify the
# formula grid and the first few checker items.
CHEAP = {"deep": slice(2, 3), "atlas": slice(0, 40), "certify": slice(0, 40)}


def cheap(name: str, seed: int) -> workloads.Workload:
    work = workloads.build(lib, name, seed)
    work.items = work.items[CHEAP[name]]
    return work


def one_pass(work: workloads.Workload) -> run.Runner:
    runner = run.Runner(work, run.SpeedProbe())
    runner.passes(0.0, NO_TRACE)
    return runner


def answer_key(answer):
    """An answer with its timings left out, comparable across runs."""
    if isinstance(answer, lib.SearchOutcome):
        return (answer.status, answer.rado_number, answer.certificate, answer.stats.nodes, answer.stats.checks)
    return answer


@pytest.mark.parametrize("name", CHEAP)
def test_same_seed_gives_same_answers_and_counts(name):
    results = []
    for _ in range(2):
        work = cheap(name, seed=7)
        trace = Trace()
        runner = run.Runner(work, run.SpeedProbe())
        passes = runner.passes(0.0, trace)
        assert runner.failures == []
        metrics = layer_metrics(trace.spans, len(passes))
        results.append((
            [item.key for item in work.items],
            [answer_key(a) for a in runner.last_answers],
            {k: metrics[k] for k in COUNTS},
        ))
    assert results[0] == results[1]
    assert sum(results[0][2].values()) > 0


def test_seed_changes_atlas_order_and_certify_perturbations():
    def keys(name, seed):
        return [item.key for item in workloads.build(lib, name, seed).items]

    assert sorted(keys("atlas", 1)) == sorted(keys("atlas", 2)) != keys("atlas", 1)
    assert keys("certify", 1) != keys("certify", 2)
    assert keys("deep", 1) == keys("deep", 2)


def test_workload_sizes_match_their_definition():
    assert len(workloads.build(lib, "atlas", 0).items) == 151
    certify = workloads.build(lib, "certify", 0)
    kinds = [item.kind for item in certify.items]
    assert kinds.count("formula") == 9
    assert kinds.count("valid") == 231
    assert kinds.count("witness") == 231 * (workloads.FLIPS_PER_POINT + 1)


def test_golden_table_covers_every_atlas_point():
    golden = workloads.load_golden()
    points = {(m, a) for a, (lo, hi) in workloads.ATLAS_RANGES.items() for m in range(lo, hi + 1)}
    assert set(golden) == points
    assert golden[(3, 6)]["status"] == "cutoff"


def test_tampered_golden_entry_fails_the_gate(monkeypatch):
    real = workloads.load_golden

    def tampered():
        golden = real()
        golden[(7, 4)] = dict(golden[(7, 4)], rado_number=golden[(7, 4)]["rado_number"] + 1)
        return golden

    monkeypatch.setattr(workloads, "load_golden", tampered)
    work = workloads.build(lib, "atlas", seed=1)
    work.items = [item for item in work.items if item.key in ("atlas m=7 a=4", "atlas m=8 a=4")]
    runner = one_pass(work)
    assert len(runner.failures) == 1 and runner.failures[0].startswith("atlas m=7 a=4")
    assert runner.attempted == 2


@pytest.mark.parametrize("name,kind,corrupt", [
    ("deep", "search", lambda c: c + 1),
    ("certify", "formula", lambda e: (5,)),
    ("certify", "valid", lambda n: n - 1),
    ("certify", "witness", lambda ok: not ok),
])
def test_corrupted_expected_value_fails_the_gate(name, kind, corrupt):
    work = cheap(name, seed=3)
    target = next(item for item in work.items if item.kind == kind)
    target.expect = corrupt(target.expect)
    runner = one_pass(work)
    assert [f.split(":")[0] for f in runner.failures] == [target.key]


def test_raising_item_counts_as_failure():
    work = cheap("certify", seed=3)

    def boom(trace, item_id):
        raise ZeroDivisionError("injected")

    work.items[1].run = boom
    runner = one_pass(work)
    assert len(runner.failures) == 1 and "ZeroDivisionError" in runner.failures[0]


def test_oracle_sample_agrees_and_catches_a_broken_checker():
    work = workloads.build(lib, "certify", seed=5)
    assert all(col.n <= workloads.ORACLE_N_MAX for _, col in work.oracle)
    assert workloads.check_oracle(lib, work) == []

    class Broken:
        def __getattr__(self, name):
            return getattr(lib, name)

        @staticmethod
        def find_mono_solution(col, eq):
            return None

    assert workloads.check_oracle(Broken(), work) != []


def test_self_time_subtracts_direct_children():
    spans = [
        [0, None, "item", 0, 0.0, 10.0, "valid"],
        [1, 0, "construction", 0, 1.0, 2.0, None],
        [2, 0, "checker.find", 0, 3.0, 7.0, "valid"],
    ]
    assert self_times(spans) == [5.0, 1.0, 4.0]
    metrics = layer_metrics(spans, passes=1)
    assert metrics["checker.valid_calls"] == 1
    assert metrics["checker.valid_us_per_call"] == pytest.approx(4e6)
    assert metrics["construction.calls"] == 1
    assert metrics["search.nodes"] == 0 and metrics["search.us_per_node"] == 0.0


def result_line(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    out = result_line(ROOT, "--workload", "certify", "--seed", "2", "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = result_line(tmp_path, "--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "metrics" not in out.stdout
