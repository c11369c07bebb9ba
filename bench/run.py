#!/usr/bin/env python3
"""Benchmark of hamming-radio: the witness, prove and search workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload witness --seed 1 --seconds 30 --trace 0

One process, one thread.  The run sets the package up SETUP_REPS times (fresh
import plus input generation), then repeats passes over the workload's fixed
task list until --seconds have passed: at least one complete pass, traced
with --trace 1, after which traced and untraced passes alternate.  Every
verdict is compared with expected.json, and every task's exact counts must
repeat from pass to pass.  The last line of standard output is the result
object; the line before it is the full report (run context, raw wall times,
the exact-count ledger, failures).

Times are reference-normalized seconds: each measured interval times
REF_NOMINAL_S over the mean time of the reference_loop() samples taken within
REF_WINDOW_S of it (a sample every REF_EVERY_S seconds, see ReferenceSampler).
On the 2-core VMs this was written on, every pure-Python loop runs up to 1.8x
slower for seconds to minutes at a time while other guests load the host.  The
reference loop is written in the package's own style (tuple zips, generator
sums, set inserts) and slows by about the same factor as the calls it
brackets, so the scaled figures keep what the calls themselves cost.  The
report keeps the raw wall times and the loop's own times, so a slow phase of
the machine can be told apart from a regression.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import NullTracer, Tracer
from workloads import BUILDERS, WORKLOADS, Package

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

SETUP_REPS = 9
REF_NOMINAL_S = 0.004
REF_REPS = 6
REF_EVERY_S = 0.2
REF_WINDOW_S = 1.0
FULL_PASSES = 15
FULL_SHARE = 0.75
FILLER_MAX_S = 0.1
TAIL_BEYOND = 10
OVERHEAD_MIN_SAMPLES = 3

END_TO_END = {"setup_s": "s", "batch_s": "s", "verdict_s_p50": "s", "verdict_s_tail": "s",
              "peak_rss_mb": "MiB"}
SPANS = (
    "documents.parse",
    "verify.check_ordering", "verify.boundary", "verify.all_pairs", "verify.induced_labeling",
    "instructions.recover", "instructions.materialize", "instructions.check_order_generator",
    "bounds.bound_verdict", "bounds.segment",
    "search.generic", "search.reduced", "search.reduced_setup", "search.witness_check",
    "cli.verify", "cli.bound", "cli.search",
)
COUNTS = {
    "documents.bytes_parsed": "bytes",
    "verify.rows_checked": "count",
    "verify.window_pairs": "count",
    "verify.violations_reported": "count",
    "verify.all_pairs_pairs": "count",
    "instructions.cells": "count",
    "bounds.segment_nodes": "count",
    "search.generic_nodes": "count",
    "search.generic_found": "count",
    "search.reduced_nodes": "count",
}
PEAKS = {"search.max_depth": "rows"}
RATES = {
    "bounds.segment_nodes_per_s": ("bounds.segment_nodes", "bounds.segment"),
    "search.generic_nodes_per_s": ("search.generic_nodes", "search.generic"),
    "search.reduced_nodes_per_s": ("search.reduced_nodes", "search.reduced"),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update(COUNTS)
    units.update(PEAKS)
    units.update({name: "1/s" for name in RATES})
    units["trace.overhead_s"] = "s"
    units["env.ref_loop_s"] = "s"
    return units


_REF_ROWS = tuple(tuple((i * 5 + j * (i % 7 + 1)) % 4 + 1 for j in range(6)) for i in range(96))


def reference_loop() -> float:
    """Seconds taken by a fixed loop that calls nothing in the package."""
    start = perf_counter()
    rows = _REF_ROWS
    seen = set()
    hits = 0
    for _ in range(REF_REPS):
        seen.clear()
        for i in range(1, len(rows)):
            row = rows[i]
            for k in range(1, min(4, i) + 1):
                if sum(a == b for a, b in zip(row, rows[i - k])) >= k:
                    hits += 1
            seen.add(row)
    return perf_counter() - start


class ReferenceSampler:
    """Runs reference_loop() every REF_EVERY_S seconds from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so the machine's
    speed is sampled evenly in time, also during a single long call such as
    the 4^11 segment search.  clock() is perf_counter() minus the time spent
    in the handler; every time the benchmark reports is read from it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []  # clock() when each sample started
        self.refs: list[float] = []   # seconds each sample took
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        start, spent = perf_counter(), self.spent
        ref = reference_loop()
        self.times.append(start - spent)
        self.refs.append(ref)
        # Assigned, not added to: a sample the alarm nests inside this one is
        # already part of the elapsed time.
        self.spent = spent + (perf_counter() - start)

    def __enter__(self) -> "ReferenceSampler":
        reference_loop()  # the first call runs slower while the interpreter warms up
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` measured from clock() reading `start`, normalized by the
        samples taken within REF_WINDOW_S of that interval (or the nearest)."""
        lo = bisect_left(self.times, start - REF_WINDOW_S)
        hi = bisect_right(self.times, start + seconds + REF_WINDOW_S)
        window = self.refs[lo:hi] or self.refs[max(0, lo - 1):lo + 1]
        return seconds * REF_NOMINAL_S / statistics.fmean(window)


def raw(start: float, seconds: float) -> float:
    return seconds


class SetupError(Exception):
    pass


def load_package() -> Package:
    """Import the package afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "hamming_radio" or m.startswith("hamming_radio.")]:
        del sys.modules[name]
    hr = importlib.import_module("hamming_radio")
    if Path(hr.__file__).resolve().parent != (SRC / "hamming_radio").resolve():
        raise SetupError(f"imported hamming_radio from {hr.__file__}, not from {SRC}")
    from click.testing import CliRunner

    cli = importlib.import_module("hamming_radio.cli")
    documents = importlib.import_module("hamming_radio.documents")
    return Package(hr, documents, cli.main, CliRunner())


def set_up(workload: str, seed: int, sampler: ReferenceSampler):
    """SETUP_REPS fresh imports plus input builds: (start, seconds) of each,
    and the last build's tasks."""
    reps = []
    for _ in range(SETUP_REPS):
        sampler.sample()
        start = sampler.clock()
        pkg = load_package()
        tasks = BUILDERS[workload](pkg, seed, WORK_DIR / workload)
        reps.append((start, sampler.clock() - start))
    return reps, tasks


@dataclass
class Pass:
    traced: bool
    tracer: object
    complete: bool = False
    task_times: dict[str, tuple[float, float]] = field(default_factory=dict)  # (start, seconds)

    def seconds(self, scale) -> float:
        return sum(scale(start, t) for start, t in self.task_times.values())


@dataclass
class Outcome:
    passes: list[Pass] = field(default_factory=list)
    ledger: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # after set-up and the first complete pass

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def measure(tasks, expected: dict, seconds: float, trace: bool, sampler: ReferenceSampler) -> Outcome:
    """Passes over `tasks` until `seconds` have passed.

    The run always completes one pass, traced if `trace` is set; after it
    traced and untraced passes alternate, so that tracing_overhead() can
    compare the two on the tasks both kinds repeat.  After that a full
    pass starts only while fewer than FULL_PASSES passes are complete and its
    time (from each task's first run) lets it end within the first FULL_SHARE
    of the run.  The rest of the run goes to filler passes, which repeat the
    tasks of at most FILLER_MAX_S that still fit before the deadline: the
    per-task medians of short tasks, which set verdict_s_p50 and
    verdict_s_tail, need more samples than the full passes give (a prove pass
    takes about 20 of the 30 seconds).
    """
    out = Outcome()
    clock = sampler.clock
    deadline = clock() + seconds
    full_until = deadline - (1 - FULL_SHARE) * seconds
    first_time: dict[str, float] = {}
    started = False  # a complete first pass has run
    while True:
        traced = trace and len(out.passes) % 2 == 0
        full = not started or (sum(p.complete for p in out.passes) < FULL_PASSES
                               and clock() + sum(first_time.values()) <= full_until)
        p = Pass(traced, Tracer(clock) if traced else NullTracer(), complete=True)
        for task in tasks:
            if started and (clock() + first_time[task.id] > deadline
                            or not full and first_time[task.id] > FILLER_MAX_S):
                p.complete = False
                continue
            run_task(task, expected[task.id], p, out, clock)
            first_time.setdefault(task.id, p.task_times[task.id][1])
        if p.task_times:
            out.passes.append(p)
        if p.complete and not out.peak_rss_mb:
            out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        started = started or p.complete
        if started and (clock() >= deadline or not p.task_times):
            break
    return out


def run_task(task, expected, p: Pass, out: Outcome, clock) -> None:
    out.attempted += 1
    start = clock()
    try:
        verdict, counts = task.run(p.tracer)
    except Exception as exc:  # a task that raises is a failed verdict; the run goes on
        p.task_times[task.id] = (start, clock() - start)
        out.fail(f"{task.id}: {type(exc).__name__}: {exc}")
        return
    p.task_times[task.id] = (start, clock() - start)
    first = out.ledger.setdefault(task.id, counts)
    if verdict != expected:
        out.fail(f"{task.id}: verdict {verdict}, expected {expected}")
    elif counts != first:
        out.fail(f"{task.id}: counts {counts} differ from the first pass's {first}")


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value with TAIL_BEYOND samples above it, its percentile, and the sample count."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def end_to_end(out: Outcome, setup_reps, scale) -> tuple[dict, dict]:
    """End-to-end metrics with every interval passed through `scale`, and the
    tail's description."""
    untraced = [p for p in out.passes if not p.traced]
    per_task: dict[str, list[float]] = {}
    for p in untraced:
        for task_id, (start, t) in p.task_times.items():
            per_task.setdefault(task_id, []).append(scale(start, t))
    task_medians = [statistics.median(v) for v in per_task.values()]
    tail_value, percentile, samples = tail(task_medians)
    metrics = {
        "setup_s": statistics.median(scale(start, t) for start, t in setup_reps),
        "batch_s": statistics.median(p.seconds(scale) for p in untraced if p.complete),
        "verdict_s_p50": statistics.median(task_medians),
        "verdict_s_tail": tail_value,
        "peak_rss_mb": out.peak_rss_mb,
    }
    about = {"percentile": round(percentile, 2), "samples": samples,
             "sample": "one per task: the median of its times over the run's passes",
             "task_s": dict(zip(per_task, task_medians))}
    return metrics, about


def tracing_overhead(passes, scale) -> tuple[float, int]:
    """Sum, over the tasks run at least OVERHEAD_MIN_SAMPLES times in both
    traced and untraced passes, of the median traced time minus the median
    untraced time; and how many tasks that is.  Tasks run once or twice of a
    kind (the long prove and search tasks) are left out: their run-to-run
    noise is far larger than the tracing overhead."""
    times: dict[bool, dict[str, list[float]]] = {True: {}, False: {}}
    for p in passes:
        for task_id, (start, t) in p.task_times.items():
            times[p.traced].setdefault(task_id, []).append(scale(start, t))
    both = [k for k, v in times[True].items()
            if len(v) >= OVERHEAD_MIN_SAMPLES and len(times[False].get(k, ())) >= OVERHEAD_MIN_SAMPLES]
    overhead = sum(statistics.median(times[True][k]) - statistics.median(times[False][k])
                   for k in both)
    return overhead, len(both)


def per_layer(out: Outcome, sampler: ReferenceSampler) -> dict:
    traced = [p for p in out.passes if p.traced and p.complete]
    rows: dict[str, list[float]] = {name: [] for name in per_layer_units()}
    for p in traced:
        seconds, calls = p.tracer.busy(sampler.scaled)
        for name in SPANS:
            rows[f"{name}_s"].append(seconds.get(name, 0.0))
            rows[f"{name}_calls"].append(calls[name])
        for name in COUNTS:
            rows[name].append(p.tracer.counts[name])
        for name in PEAKS:
            rows[name].append(p.tracer.peaks.get(name, 0))
        for name, (count, span) in RATES.items():
            busy = seconds.get(span, 0.0)
            rows[name].append(p.tracer.counts[count] / busy if busy else 0.0)
    metrics = {name: statistics.median(v) for name, v in rows.items() if v}
    metrics["trace.overhead_s"], _ = tracing_overhead(out.passes, sampler.scaled)
    metrics["env.ref_loop_s"] = statistics.median(sampler.refs)
    return metrics


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_context(args) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "ref_nominal_s": REF_NOMINAL_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hamming_radio" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    context = run_context(args)
    expected = json.loads((BENCH_DIR / "expected.json").read_text())[args.workload]
    try:
        with ReferenceSampler() as sampler:
            setup_reps, tasks = set_up(args.workload, args.seed, sampler)
            missing = [t.id for t in tasks if t.id not in expected]
            if missing:
                raise SetupError(f"expected.json has no verdict for {missing}")
            # Move the set-up's objects out of the collector's reach, so a full
            # collection during a measured call scans what the call made, as in
            # a short-lived CLI process, not the benchmark's own inputs.
            gc.collect()
            gc.freeze()
            out = measure(tasks, expected, args.seconds, bool(args.trace), sampler)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR / args.workload, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "passes": {"untraced": sum(not p.traced and p.complete for p in out.passes),
                   "traced": sum(p.traced and p.complete for p in out.passes),
                   "partial": sum(not p.complete for p in out.passes)},
        "passes_s": [{"raw": p.seconds(raw), "normalized": p.seconds(sampler.scaled),
                      "traced": p.traced, "complete": p.complete} for p in out.passes],
        "setup_raw_s": [t for _, t in setup_reps],
        "ref_loop_s": sampler.refs,
        "failures": out.failures,
        "ledger": out.ledger,
        "labels": {"verify.window_pairs": "computed from the input sizes, not counted by the package"},
    }
    if args.trace:
        metrics = per_layer(out, sampler)
        _, report["trace_overhead_tasks"] = tracing_overhead(out.passes, raw)
        units = per_layer_units()
    else:
        metrics, report["tail"] = end_to_end(out, setup_reps, sampler.scaled)
        report["raw_wall_s"], _ = end_to_end(out, setup_reps, raw)
        units = dict(END_TO_END)
        report["end_to_end"] = {name: {"value": metrics[name], "unit": unit}
                                for name, unit in units.items()}
        report["end_to_end"]["failed_frac"] = {
            "value": out.failed / out.attempted, "unit": "ratio",
            "failed": out.failed, "attempted": out.attempted}
    print(json.dumps(report))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
