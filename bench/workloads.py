"""Inputs and task lists of the three benchmark workloads.

Every random choice comes from the run's seed; the package only ever sees the
generated inputs.  A task returns (verdict, ledger): the verdict is compared
with the expected-verdict table in expected.json, the ledger holds exact counts
(node counts, dead depths, deepest rows, violation counts) that are recorded
and must repeat from pass to pass but are not compared with a table.
Cross-checks between two checkers raise Mismatch inside the task.

Only names exported by hamming_radio/__init__.py are called, plus the CLI and
the document parser the CLI uses (hamming_radio.documents), which the package
does not re-export.

What each workload stresses, and what it bypasses (a change to a bypassed
layer predicts no change on that workload):

  witness  documents (parse), verify (check_ordering, boundary, all-pairs,
           induced labeling), instructions (recover, materialize,
           check_order_generator), cli verify.  Bypasses bounds and search.
  prove    bounds (bound_verdict, segment_extension_search at depth 4),
           cli bound.  Bypasses documents, verify, instructions and search.
  search   search (search_ordering, search_k34_reduced) and cli search.
           Bypasses bounds and instructions.  The searches prune with their
           own inline window loop, not through verify, but every ordering
           they find is re-checked with check_ordering (timed as
           search.witness_check, not verify.check_ordering) and the CLI's
           output goes through documents.parse, so changes to check_ordering
           or to the parser do move this workload's times.

graphs, perms and errors are helpers that no workload calls in bulk; they are
measured through their callers.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("witness", "prove", "search")

# v(i) = M . digits_n(i) mod n, digits little-endian, plus 1 in every coordinate.
# Each matrix gives a valid ordering; build_witness checks that before use.
LINEAR_MATRICES = {
    "3^3": (3, ((2, 0, 2), (2, 0, 0), (2, 2, 1))),
    "5^3": (5, ((4, 2, 1), (3, 3, 3), (2, 0, 0))),
    "7^3": (7, ((6, 4, 2), (6, 5, 1), (4, 5, 0))),
    "5^4": (5, ((4, 3, 1, 4), (4, 0, 3, 1), (2, 0, 1, 4), (3, 4, 1, 3))),
}
GOLDEN = {"3^2": "k3_2.txt", "3^4": "k3_4.txt"}
# Witnesses above this many rows are left out of the tiny pass the tests run.
TINY_MAX_ROWS = 81

# Prove: bound_verdict then the segment search at this depth, for 3^a x 4^b.
SEGMENT_DEPTH = 4
PROVE_CLI_SPECS = ("3^5", "3^3", "4^10", "4^11", "3x4^9", "3^4x4^7")

# Search: every budget is explicit, so no task depends on a default budget.
# Randomized find-first tasks run many restart chains each, and all 3^3 chains
# share one task, because the node count to a first find varies widely with
# the seed (34 to 3,448 nodes on 3^3); pooling keeps a task's cost, and so the
# percentiles across tasks, nearly independent of the run's seed.
TIME_BUDGET_S = "3600"
GENERIC_SPECS = {"3^2": ((3, 2),), "3^3": ((3, 3),), "4^2": ((4, 2),), "5^2": ((5, 2),),
                 "2x3x4": ((2, 1), (3, 1), (4, 1))}
GENERIC_NODE_BUDGET = 100_000
RANDOM_TASKS_PER_SPEC = 3
RANDOM_CHAINS_PER_TASK = 16
RANDOM_CHAINS_3_3 = 30
RANDOM_RESTART_BUDGET = {"3^3": 2000}
RANDOM_RESTART_BUDGET_DEFAULT = 1000
MAX_RESTARTS = 40
UNSOLVED_SPEC = ("4^3", ((4, 3),))
UNSOLVED_NODE_BUDGET = 20_000
UNSOLVED_CLI_NODE_BUDGET = 5_000
REDUCED_NODE_BUDGET = 200_000
REDUCED_SETUP_CALLS = 2
REDUCED_RANDOM_SEARCHES = 3
REDUCED_RANDOM_BUDGET = 50_000

STATUS_RE = re.compile(r"status: (.+) \(nodes (\d+), deepest row (\d+)\)")


class Mismatch(Exception):
    """Two checkers disagree, or the program's output is malformed."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass(frozen=True)
class Package:
    hr: Any          # the hamming_radio package
    documents: Any   # hamming_radio.documents
    cli_main: Any    # hamming_radio.cli.main
    runner: Any      # click.testing.CliRunner


@dataclass(frozen=True)
class Task:
    id: str
    run: Callable[[Any], tuple[dict, dict]]
    heavy: bool = False


# Independent reference for the benchmark's own input preparation.

def has_window_violation(rows, t: int) -> bool:
    """Rows k apart (k < t) sharing k or more coordinates, or a repeated row."""
    if len(set(rows)) != len(rows):
        return True
    return any(
        sum(a == b for a, b in zip(rows[i], rows[i - k])) >= k
        for i in range(len(rows))
        for k in range(1, min(t - 1, i) + 1)
    )


def window_pairs(n_rows: int, t: int) -> int:
    """(row, gap) pairs the window rule examines, computed from the sizes."""
    full = max(0, n_rows - t)  # rows with all t - 1 gaps in range
    return full * (t - 1) + sum(min(t - 1, i - 1) for i in range(2, min(n_rows, t) + 1))


def linear_rows(n: int, matrix) -> list[tuple[int, ...]]:
    t = len(matrix)
    rows = []
    for i in range(n ** t):
        digits = [(i // n ** k) % n for k in range(t)]
        rows.append(tuple(sum(m * d for m, d in zip(row, digits)) % n + 1 for row in matrix))
    return rows


def text_document(spec: str, rows) -> str:
    return f"spec: {spec}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def json_document(spec: str, rows) -> str:
    return json.dumps({"spec": spec, "rows": [list(r) for r in rows]})


def relabel(rows, n: int, rng: random.Random):
    perms = []
    for _ in range(len(rows[0])):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        perms.append(p)
    return [tuple(p[v - 1] for p, v in zip(perms, row)) for row in rows]


def normalize_columns(rows, n: int):
    """Relabel each column so it starts 1, 2, as instruction decoding needs."""
    maps = []
    for c in range(len(rows[0])):
        first, second = rows[0][c], rows[1][c]
        rest = [v for v in range(1, n + 1) if v not in (first, second)]
        maps.append({v: i for i, v in enumerate([first, second] + rest, start=1)})
    return [tuple(m[v] for m, v in zip(maps, row)) for row in rows]


def duplicate_row(rows, rng: random.Random):
    """Copy row i over row j (j >= 3); the copy differs from its new neighbours
    in every column, so each column still decodes into instructions."""
    n_rows = len(rows)
    while True:
        i, j = rng.randrange(n_rows), rng.randrange(2, n_rows)
        neighbours = [rows[j - 1]] + ([rows[j + 1]] if j + 1 < n_rows else [])
        if i != j and all(all(a != b for a, b in zip(rows[i], nb)) for nb in neighbours):
            out = list(rows)
            out[j] = rows[i]
            return out


def shuffle_block(rows, t: int, rng: random.Random):
    """Shuffle a quarter of the rows (from row 3 on) until the window rule breaks."""
    n_rows = len(rows)
    size = max(3, n_rows // 4)
    while True:
        start = rng.randrange(2, n_rows - size + 1)
        block = rows[start:start + size]
        rng.shuffle(block)
        out = rows[:start] + block + rows[start + size:]
        if has_window_violation(out, t):
            return out


def spec_string(factors) -> str:
    return "x".join(f"{n}^{t}" if t > 1 else f"{n}" for n, t in factors)


# witness

def build_witness(pkg: Package, seed: int, workdir: Path) -> list[Task]:
    hr, documents = pkg.hr, pkg.documents
    rng = random.Random(seed)
    bases = []
    for spec, filename in GOLDEN.items():
        text = resources.files("hamming_radio.data").joinpath(filename).read_text(encoding="utf-8")
        n, t = (int(x) for x in spec.split("^"))
        rows = [tuple(int(c) for c in line.split()) for line in text.splitlines()[1:] if line.strip()]
        bases.append((spec, n, t, rows, text))
    for spec, (n, matrix) in LINEAR_MATRICES.items():
        rows = linear_rows(n, matrix)
        bases.append((spec, n, len(matrix), rows, text_document(spec, rows)))
    bases.sort(key=lambda b: len(b[3]))

    tasks: list[Task] = []
    documents_by_input = {}
    for spec, n, t, rows, text in bases:
        if has_window_violation(rows, t):
            raise RuntimeError(f"base witness for {spec} is not a valid ordering")
        gspec = hr.make_graph_spec([(n, t)])
        heavy = len(rows) > TINY_MAX_ROWS
        relabeled = relabel(rows, n, rng)
        duplicated = duplicate_row(relabeled, rng)
        shuffled = shuffle_block(relabeled, t, rng)
        variants = {
            "base": (rows, text),
            "relabeled": (relabeled, json_document(spec, relabeled)),
            "duplicated": (duplicated, text_document(spec, duplicated)),
            "shuffled": (shuffled, json_document(spec, shuffled)),
        }
        for family, (vrows, vtext) in variants.items():
            documents_by_input[spec, family] = vtext
            tasks.append(Task(f"parse:{spec}:{family}",
                              _parse_task(hr, documents, vtext, vrows, spec == "3^4"), heavy))
        for family in ("relabeled", "duplicated"):
            normalized = normalize_columns(variants[family][0], n)
            tasks.append(Task(f"instructions:{spec}:{family}",
                              _instruction_task(hr, gspec, normalized, n), heavy))
        tasks.append(Task(f"confirm:{spec}:relabeled",
                          _confirm_task(hr, hr.Ordering(gspec, tuple(relabeled))), heavy))
        if spec in ("3^4", "5^3"):
            tasks.append(Task(f"confirm:{spec}:shuffled",
                              _confirm_task(hr, hr.Ordering(gspec, tuple(shuffled))), heavy))

    workdir.mkdir(parents=True, exist_ok=True)
    for spec, family, extra in (("3^4", "base", ["--boundary"]), ("5^3", "duplicated", []),
                                ("5^4", "relabeled", [])):
        path = workdir / f"{spec.replace('^', '_')}-{family}.txt"
        path.write_text(documents_by_input[spec, family], encoding="utf-8")
        tasks.append(Task(f"cli.verify:{spec}:{family}", _cli_verify_task(pkg, path, extra),
                          spec == "5^4"))
    return tasks


def _check_ordering(hr, tr, ordering) -> list:
    with tr.span("verify.check_ordering"):
        violations = hr.check_ordering(ordering)
    n_rows, t = len(ordering.rows), ordering.spec.diameter
    tr.count("verify.rows_checked", n_rows)
    tr.count("verify.window_pairs", window_pairs(n_rows, t))
    tr.count("verify.violations_reported", len(violations))
    return violations


def _parse_task(hr, documents, text: str, rows, boundary: bool):
    size = len(text.encode())
    rows = tuple(rows)

    def run(tr):
        with tr.span("documents.parse"):
            ordering = documents.parse_ordering_document(text).to_ordering()
        tr.count("documents.bytes_parsed", size)
        expect(ordering.rows == rows, "parsed rows differ from the generated rows")
        violations = _check_ordering(hr, tr, ordering)
        verdict = {"violations": bool(violations)}
        ledger = {"violations": len(violations)}
        if boundary:
            with tr.span("verify.boundary"):
                boundary_violations = hr.boundary_structure_check(ordering)
            ledger["boundary_violations"] = len(boundary_violations)
            if not violations:
                verdict["boundary_clean"] = not boundary_violations
        return verdict, ledger

    return run


def _instruction_task(hr, gspec, rows, n: int):
    ordering = hr.Ordering(gspec, tuple(rows))
    t = gspec.diameter
    generators = tuple(hr.builtin_generator(hr.GeneratorKind.LRU, n) for _ in range(t))
    columns = [tuple(row[c] for row in rows) for c in range(t)]
    cells = len(rows) * t

    def run(tr):
        with tr.span("instructions.recover"):
            encoded = [hr.recover_instructions(col, gen) for col, gen in zip(columns, generators)]
            og = hr.make_order_generator(gspec, zip(*encoded), generators)
        tr.count("instructions.cells", cells)
        with tr.span("instructions.materialize"):
            decoded = hr.materialize(og)
        expect(decoded.rows == ordering.rows, "decoded instructions do not give back the ordering")
        with tr.span("instructions.check_order_generator"):
            instruction_side = hr.check_order_generator(og)
        window = _check_ordering(hr, tr, ordering)
        expect(instruction_side == window, "instruction-side and window checkers disagree")
        return {"violations": bool(window)}, {"violations": len(window), "cells": cells}

    return run


def _confirm_task(hr, ordering):
    n_rows = len(ordering.rows)

    def run(tr):
        window = _check_ordering(hr, tr, ordering)
        with tr.span("verify.all_pairs"):
            labeling = hr.position_labeling(ordering)
            radio = hr.verify_radio(labeling)
        tr.count("verify.all_pairs_pairs", n_rows * (n_rows - 1) // 2)
        expect((not radio) == (not window), "all-pairs and window checkers disagree on validity")
        with tr.span("verify.induced_labeling"):
            induced = hr.induced_labeling(ordering)
        consecutive = hr.is_consecutive(induced)
        expect(consecutive == (not window), "induced labeling is consecutive but the ordering is not valid")
        if consecutive:
            expect(induced.assignment == labeling.assignment, "induced labeling differs from row numbers")
        verdict = {"valid": not radio, "consecutive": consecutive}
        return verdict, {"all_pairs_violations": len(radio), "window_violations": len(window)}

    return run


def _invoke(pkg: Package, tr, span: str, args: list[str]):
    with tr.span(span):
        return pkg.runner.invoke(pkg.cli_main, args, catch_exceptions=False)


def _cli_verify_task(pkg: Package, path: Path, extra: list[str]):
    args = ["verify", str(path), "--format", "json", *extra]

    def run(tr):
        result = _invoke(pkg, tr, "cli.verify", args)
        report = json.loads(result.stdout)
        expect(report["ok"] == (result.exit_code == 0), "verify exit code contradicts its report")
        ledger = {"violations": len(report["violations"]),
                  "boundary_violations": len(report.get("boundary_violations", []))}
        return {"exit": result.exit_code, "ok": report["ok"]}, ledger

    return run


# prove

def prove_specs() -> list[tuple[tuple[int, int], ...]]:
    """3^a x 4^b for a <= 5, b <= 11, a + b >= 3."""
    return [
        tuple(f for f in ((3, a), (4, b)) if f[1])
        for a in range(6) for b in range(12) if a + b >= 3
    ]


def build_prove(pkg: Package, seed: int, workdir: Path) -> list[Task]:
    """The sweep in a fixed order; it makes no random choice, so the seed is unused."""
    hr = pkg.hr
    tasks = []
    for factors in prove_specs():
        spec = hr.make_graph_spec(list(factors))
        tasks.append(Task(f"prove:{spec_string(factors)}", _prove_task(hr, spec), spec.diameter > 8))
    tasks.append(Task("cli.bound", _cli_bound_task(pkg, PROVE_CLI_SPECS)))
    return tasks


def _prove_task(hr, spec):
    t = spec.diameter

    def run(tr):
        with tr.span("bounds.bound_verdict"):
            bound = hr.bound_verdict(spec)
        with tr.span("bounds.segment"):
            result = hr.segment_extension_search(spec, SEGMENT_DEPTH)
        tr.count("bounds.segment_nodes", result.nodes_explored)
        verdict = {"bound": bound.overall.name, "extensible": result.extensible}
        if result.extensible:
            witness = result.witness or ()
            expect(len(witness) == SEGMENT_DEPTH + 1 and not has_window_violation(witness, t),
                   "segment witness is not a locally valid run of rows")
        else:
            verdict["dead_depth"] = result.dead_depth
        return verdict, {"nodes": result.nodes_explored, "dead_depth": result.dead_depth}

    return run


def _cli_bound_task(pkg: Package, names):
    """One `bound` invocation per spec, pooled into one task: a single CLI call
    takes about a millisecond, too little to time on its own in this sweep."""

    def run(tr):
        verdict = {}
        for name in names:
            result = _invoke(pkg, tr, "cli.bound", ["bound", name, "--format", "json"])
            overall = json.loads(result.stdout)["overall"]
            expect((result.exit_code == 1) == (overall == "NOT_RADIO_GRACEFUL"),
                   f"bound {name}: exit code contradicts the verdict")
            verdict[name] = [result.exit_code, overall]
        return verdict, {}

    return run


# search

def build_search(pkg: Package, seed: int, workdir: Path) -> list[Task]:
    hr = pkg.hr
    rng = random.Random(seed)

    def config(budget: int):
        return hr.SearchConfig(node_budget=budget, time_budget=float(TIME_BUDGET_S))

    def chains(count: int, length: int) -> list[list[int]]:
        return [[rng.randrange(2**31) for _ in range(length)] for _ in range(count)]

    tasks = []
    for name, factors in GENERIC_SPECS.items():
        spec = hr.make_graph_spec(list(factors))
        tasks.append(Task(f"generic:{name}", _generic_task(hr, spec, config(GENERIC_NODE_BUDGET))))
        tasks.append(Task(f"cli.search:{name}:lexicographic",
                          _cli_search_task(pkg, ["search", name], GENERIC_NODE_BUDGET, [[None]])))
        budget = RANDOM_RESTART_BUDGET.get(name, RANDOM_RESTART_BUDGET_DEFAULT)
        if name == "3^3":
            tasks.append(Task(f"cli.search:{name}:randomized", _cli_search_task(
                pkg, ["search", name], budget, chains(RANDOM_CHAINS_3_3, MAX_RESTARTS)), True))
            continue
        for k in range(RANDOM_TASKS_PER_SPEC):
            tasks.append(Task(f"cli.search:{name}:randomized:{k}", _cli_search_task(
                pkg, ["search", name], budget, chains(RANDOM_CHAINS_PER_TASK, MAX_RESTARTS)), k > 0))

    name, factors = UNSOLVED_SPEC
    spec = hr.make_graph_spec(list(factors))
    tasks.append(Task(f"generic:{name}", _generic_task(hr, spec, config(UNSOLVED_NODE_BUDGET)), True))
    tasks.append(Task(f"cli.search:{name}:lexicographic",
                      _cli_search_task(pkg, ["search", name], UNSOLVED_CLI_NODE_BUDGET, [[None]]), True))

    tasks.append(Task("reduced:lexicographic",
                      _reduced_task(hr, config(REDUCED_NODE_BUDGET), "search.reduced"), True))
    for k in range(REDUCED_SETUP_CALLS):
        tasks.append(Task(f"reduced:setup:{k}", _reduced_task(hr, config(1), "search.reduced_setup")))
    for k in range(REDUCED_RANDOM_SEARCHES):
        tasks.append(Task(f"cli.search:reduced:randomized:{k}", _cli_search_task(
            pkg, ["search", "--reduced-k34"], REDUCED_RANDOM_BUDGET, chains(1, 1)), True))
    return tasks


def _check_witness(hr, tr, ordering) -> None:
    with tr.span("search.witness_check"):
        violations = hr.check_ordering(ordering)
    expect(not violations, f"found ordering has {len(violations)} violations")


def _generic_task(hr, spec, config):
    def run(tr):
        with tr.span("search.generic"):
            outcome = hr.search_ordering(spec, config)
        tr.count("search.generic_nodes", outcome.nodes_explored)
        if outcome.status is hr.SearchStatus.FOUND:
            tr.count("search.generic_found")
            expect(outcome.ordering.spec == spec, "found ordering is over another spec")
            _check_witness(hr, tr, outcome.ordering)
        ledger = {"nodes": outcome.nodes_explored, "deepest": outcome.max_depth_reached}
        return {"status": outcome.status.value}, ledger

    return run


def _reduced_task(hr, config, span: str):
    def run(tr):
        with tr.span(span):
            outcome = hr.search_k34_reduced(config)
        if span == "search.reduced":
            tr.count("search.reduced_nodes", outcome.nodes_explored)
            tr.peak("search.max_depth", outcome.max_depth_reached)
        if outcome.status is hr.SearchStatus.FOUND:
            _check_witness(hr, tr, outcome.ordering)
        ledger = {"nodes": outcome.nodes_explored, "deepest": outcome.max_depth_reached}
        return {"status": outcome.status.value}, ledger

    return run


def _cli_search_task(pkg: Package, base: list[str], budget: int, chains: list[list[int | None]]):
    """Each chain runs `search` once per seed until an exit other than 3 (budget
    exceeded); a seed of None runs the lexicographic order."""
    reduced = "--reduced-k34" in base

    def run(tr):
        exits, nodes, deepest, restarts = [], 0, 0, 0
        for chain in chains:
            for seed in chain:
                args = base + ["--node-budget", str(budget), "--time-budget", TIME_BUDGET_S]
                if seed is not None:
                    args += ["--randomize", "--seed", str(seed)]
                result = _invoke(pkg, tr, "cli.search", args)
                status = STATUS_RE.search(result.stderr)
                expect(status is not None, "search printed no status line")
                restarts += 1
                nodes += int(status.group(2))
                deepest = max(deepest, int(status.group(3)))
                if result.exit_code != 3:
                    break
            exits.append(result.exit_code)
            if result.exit_code == 0:
                with tr.span("documents.parse"):
                    ordering = pkg.documents.parse_ordering_document(result.stdout).to_ordering()
                tr.count("documents.bytes_parsed", len(result.stdout.encode()))
                _check_witness(pkg.hr, tr, ordering)
        if reduced:
            tr.peak("search.max_depth", deepest)
        return {"exits": exits}, {"nodes": nodes, "deepest": deepest, "restarts": restarts}

    return run


BUILDERS = {"witness": build_witness, "prove": build_prove, "search": build_search}
