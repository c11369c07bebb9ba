"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Criterion 8 documents a known negative result: the reduced step-vector walk
is correct and deterministic, but the 60 second default budget is far
too small for the size of its search space, so that test fails honestly with
the measured numbers rather than being weakened to pass.
"""

import itertools
import time

import pytest
from click.testing import CliRunner

from hamming_radio.bounds import (
    Gracefulness,
    bound_verdict,
    distinct_column_count,
    segment_extension_search,
)
from hamming_radio.cli import main
from hamming_radio.data import golden_path
from hamming_radio.graphs import make_graph_spec
from hamming_radio.instructions import (
    GeneratorKind,
    build_column,
    builtin_generator,
    check_order_generator,
    enumerate_fixing_runs,
    enumerate_instruction_columns,
    make_order_generator,
    materialize,
    recover_instructions,
    run_fixes_one,
    subscript_string,
)
from hamming_radio.search import (
    SearchConfig,
    SearchStatus,
    search_k34_reduced,
    search_ordering,
)
from hamming_radio.verify import check_ordering

from .oracles import brute_force_radio_graceful, random_value_column, seeded

ALL_KINDS = (
    GeneratorKind.TRANSPOSITION,
    GeneratorKind.LRU,
    GeneratorKind.LTU,
    GeneratorKind.HISTORY_DEPENDENT,
)


def test_criterion_1_golden_verification():
    runner = CliRunner()
    start = time.perf_counter()
    for name in ("k3_2", "k3_4"):
        result = runner.invoke(main, ["verify", str(golden_path(name))])
        assert result.exit_code == 0, result.output
    boundary = runner.invoke(main, ["verify", "--boundary", str(golden_path("k3_4"))])
    assert boundary.exit_code == 0, boundary.output
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: both reference orderings verify clean and the "
        f"81-row file passes --boundary ({elapsed:.2f} s)"
    )


def test_criterion_2_bound_thresholds():
    assert bound_verdict(make_graph_spec([(3, 4)])).overall is not Gracefulness.NOT_RADIO_GRACEFUL
    assert bound_verdict(make_graph_spec([(3, 5)])).overall is Gracefulness.NOT_RADIO_GRACEFUL
    assert bound_verdict(make_graph_spec([(4, 10)])).overall is not Gracefulness.NOT_RADIO_GRACEFUL
    assert bound_verdict(make_graph_spec([(4, 11)])).overall is Gracefulness.NOT_RADIO_GRACEFUL
    mixed = bound_verdict(make_graph_spec([(3, 4), (4, 7)]))
    assert mixed.overall is Gracefulness.NOT_RADIO_GRACEFUL
    assert mixed.factors[1].cumulative_width == 11
    below = bound_verdict(make_graph_spec([(3, 4), (4, 6)]))
    assert below.overall is not Gracefulness.NOT_RADIO_GRACEFUL
    print(
        "PASS criterion 2: rule-out flips exactly at 5 columns (size 3), "
        "11 columns (size 4), and cumulative width 11 for 3^4 x 4^7"
    )


def test_criterion_3_segment_infeasibility():
    start = time.perf_counter()
    k35 = segment_extension_search(make_graph_spec([(3, 5)]), depth=3)
    k35_elapsed = time.perf_counter() - start
    assert not k35.extensible
    assert k35.dead_depth == 3
    assert k35_elapsed < 1.0

    start = time.perf_counter()
    k411 = segment_extension_search(make_graph_spec([(4, 11)]), depth=4)
    k411_elapsed = time.perf_counter() - start
    assert not k411.extensible
    assert k411.dead_depth == 4
    assert k411_elapsed < 300.0

    k34 = segment_extension_search(make_graph_spec([(3, 4)]), depth=5)
    assert k34.extensible
    print(
        f"PASS criterion 3: canonical segments die at depth 3 for 3^5 "
        f"({k35_elapsed:.2f} s) and depth 4 for 4^11 ({k411_elapsed:.1f} s); "
        f"3^4 extends"
    )


def all_specs_up_to(max_vertices):
    """Every factor list with strictly increasing sizes and at most
    max_vertices vertices."""
    found = []

    def extend(prefix, min_size, product):
        for size in range(min_size, max_vertices + 1):
            copies = 1
            while product * size**copies <= max_vertices:
                found.append(prefix + [(size, copies)])
                extend(prefix + [(size, copies)], size + 1, product * size**copies)
                copies += 1

    extend([], 2, 1)
    return found


def test_criterion_4_oracle_agreement():
    start = time.perf_counter()
    specs = all_specs_up_to(9)
    assert len(specs) == 13
    verdicts = {}
    for factors in specs:
        spec = make_graph_spec(factors)
        brute = brute_force_radio_graceful(spec)
        searched = search_ordering(spec)
        assert searched.status in (SearchStatus.FOUND, SearchStatus.EXHAUSTED_NO_SOLUTION)
        assert brute.graceful == (searched.status is SearchStatus.FOUND), factors
        verdicts[tuple(factors)] = brute.graceful
    assert verdicts[(2, 2),] is False
    assert verdicts[(3, 2),] is True
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 4: brute force and search agree on all {len(specs)} "
        f"specs with at most 9 vertices ({elapsed:.1f} s); 2^2 not graceful, "
        f"3^2 graceful"
    )


def test_criterion_5_encoding_bijection():
    total = 0
    for kind in ALL_KINDS:
        for n in (3, 4, 5):
            gen = builtin_generator(kind, n)
            rng = seeded(5000 + 10 * n + len(kind.value))
            for _ in range(1000):
                column = random_value_column(n, 50, rng)
                instructions = recover_instructions(column, gen)
                assert build_column(instructions, gen) == column
                total += 1
    for kind in ALL_KINDS:
        gen = builtin_generator(kind, 3)
        for length in range(2, 9):
            columns = enumerate_instruction_columns(gen, length)
            assert len(columns) == 2 ** (length - 2)
            assert len({build_column(c, gen) for c in columns}) == len(columns)
    print(
        f"PASS criterion 5: encode/decode round-trips on {total} random "
        f"columns (4 kinds, n in 3..5, 50 rows); column counts match "
        f"(n-1)^(rows-2) exhaustively for n=3 up to 8 rows"
    )


def test_criterion_6_fixing_run_fidelity():
    gen3 = builtin_generator(GeneratorKind.LRU, 3)
    runs2 = {subscript_string(r) for r in enumerate_fixing_runs(gen3, 2)}
    assert runs2 == {"f2 f2", "f3 f2"}
    runs3 = {subscript_string(r) for r in enumerate_fixing_runs(gen3, 3)}
    assert runs3 == {"f2 f3 f3", "f3 f3 f3"}

    checked = 0
    for kind in ALL_KINDS:
        gen = builtin_generator(kind, 3)
        for length in range(2, 8):
            for instructions in enumerate_instruction_columns(gen, length):
                values = build_column(instructions, gen)
                for i in range(1, length + 1):
                    for s in range(1, i):
                        repeat = values[i - 1] == values[i - s - 1]
                        assert repeat == run_fixes_one(instructions[i - s : i])
                        checked += 1
    print(
        f"PASS criterion 6: fixing-run sets frozen for the shift-to-front "
        f"family at lengths 2 and 3; repetition at gap s matches trailing-run "
        f"composition on {checked} exhaustive window checks"
    )


def test_criterion_7_instruction_side_check_agrees():
    spec = make_graph_spec([(3, 3)])
    rng = seeded(777)
    kinds = list(ALL_KINDS)
    for _ in range(500):
        generators = tuple(builtin_generator(rng.choice(kinds), 3) for _ in range(3))
        cells_by_column = [
            recover_instructions(random_value_column(3, spec.num_vertices, rng), gen)
            for gen in generators
        ]
        og = make_order_generator(spec, list(zip(*cells_by_column)), generators)
        assert check_order_generator(og) == check_ordering(materialize(og))
    print(
        "PASS criterion 7: instruction-side and vertex-side checks return "
        "identical reports on 500 random 27-row order generators"
    )


def test_criterion_8_reduced_search_within_default_budget():
    config = SearchConfig()  # 60 s wall clock, 50M nodes
    start = time.perf_counter()
    outcome = search_k34_reduced(config)
    elapsed = time.perf_counter() - start
    if outcome.status is SearchStatus.FOUND:
        assert check_ordering(outcome.ordering) == []
        print(
            f"PASS criterion 8: reduced search found a valid 81-row ordering "
            f"in {elapsed:.1f} s ({outcome.nodes_explored} nodes)"
        )
        return
    print(
        f"FAIL criterion 8: reduced search explored {outcome.nodes_explored} "
        f"nodes in {elapsed:.1f} s (deepest row {outcome.max_depth_reached} "
        f"of 81) without completing an ordering"
    )
    pytest.fail(
        "the 60 s default budget is orders of magnitude too small for this "
        f"search space: {outcome.nodes_explored} nodes explored, deepest row "
        f"{outcome.max_depth_reached} of 81; sampling puts the full tree near "
        "3.4e15 nodes with roughly 1e4 completions, so the expected cost to a "
        "first find is around 1e11 nodes (about a day at this rate, checked "
        "over 1.9e9 nodes of randomized restarts without a find); the bundled "
        "81-row ordering, verified by criterion 1, already witnesses the "
        "construction this search targets"
    )


def test_criterion_9_window_count_inequalities(golden_k34):
    n_rows = len(golden_k34.rows)
    t = golden_k34.spec.diameter
    checked = 0
    for i in range(1, n_rows + 1):
        for k in range(0, 4):
            if i + k + 1 > n_rows:
                break
            here = distinct_column_count(golden_k34, i, k)
            wider = distinct_column_count(golden_k34, i, k + 1)
            assert wider >= here - k * (k + 1) // 2
            checked += 1
        if i + 3 <= n_rows:
            # at the forced boundary the 4-row window count hits its cap of
            # t minus the cumulative width, which is 0 here
            assert distinct_column_count(golden_k34, i, 3) == 0
            assert t - golden_k34.spec.cumulative_widths[0] == 0
    print(
        f"PASS criterion 9: window-count step and cap inequalities hold at "
        f"every row of the 81-row ordering ({checked} step checks, 4-row "
        f"windows all hit the forced cap of 0)"
    )
