"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
EXPECTED = json.loads((run.BENCH_DIR / "expected.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_matches_expected_table_traced_and_untraced(workload):
    with run.ReferenceSampler() as sampler:
        _, tasks = run.set_up(workload, 7, sampler)
        tiny = [t for t in tasks if not t.heavy]
        # seconds=0: exactly one pass of the given kind.
        untraced = run.measure(tiny, EXPECTED[workload], 0, False, sampler)
        traced = run.measure(tiny, EXPECTED[workload], 0, True, sampler)
    shutil.rmtree(run.WORK_DIR / workload, ignore_errors=True)
    for out, kind in ((untraced, False), (traced, True)):
        assert out.failures == []
        assert [(p.traced, p.complete) for p in out.passes] == [(kind, True)]
    assert set(untraced.ledger) == {t.id for t in tiny}
    assert traced.ledger == untraced.ledger
    seconds, _ = traced.passes[0].tracer.busy(run.raw)
    assert set(seconds) <= set(run.SPANS)


def test_every_expected_verdict_belongs_to_a_task():
    for workload in WORKLOADS:
        with run.ReferenceSampler() as sampler:
            _, tasks = run.set_up(workload, 7, sampler)
        shutil.rmtree(run.WORK_DIR / workload, ignore_errors=True)
        assert {t.id for t in tasks} == set(EXPECTED[workload])


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "witness", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _run(run.ROOT, "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.END_TO_END if trace == "0" else run.per_layer_units()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _run(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
