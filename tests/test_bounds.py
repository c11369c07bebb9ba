import itertools
import tracemalloc

import pytest

from hamming_radio import bounds
from hamming_radio.bounds import (
    BoundaryViolation,
    Gracefulness,
    boundary_structure_check,
    bound_verdict,
    distinct_column_count,
    factor_threshold,
    _candidate_rows,
    _share_need,
    segment_extension_search,
)
from hamming_radio.errors import NotAtBoundaryError, ShapeError, SpecError, TooLargeError
from hamming_radio.graphs import make_graph_spec, shared_coordinates
from hamming_radio.verify import Ordering

from .oracles import (
    oracle_boundary_violations,
    oracle_candidate_rows,
    oracle_column_state,
    oracle_distinct_columns,
    oracle_segment_search,
    oracle_shared,
    random_permutation_rows,
    random_weak_rows,
    seeded,
)


def test_factor_threshold_frozen_values():
    assert factor_threshold(2) == 2
    assert factor_threshold(3) == 5
    assert factor_threshold(4) == 11
    assert factor_threshold(5) == 21


@pytest.mark.parametrize("size", [3.0, True, "3"])
def test_factor_threshold_takes_an_exact_integer(size):
    with pytest.raises(SpecError) as err:
        factor_threshold(size)
    assert str(err.value) == f"factor size must be an integer, got {size!r}"


@pytest.mark.parametrize("size", [1, 0, -3])
def test_factor_threshold_refuses_sizes_below_two(size):
    with pytest.raises(SpecError) as err:
        factor_threshold(size)
    assert str(err.value) == f"complete factor needs size >= 2, got {size}"


def test_factor_threshold_matches_double_sum():
    # closed form 1 + n(n^2-1)/6 must equal one plus the summed window losses
    for n in range(2, 12):
        losses = sum(sum(range(1, a + 1)) for a in range(1, n))
        assert factor_threshold(n) == 1 + losses


@pytest.mark.parametrize(
    "copies,ruled_out",
    [(3, False), (4, False), (5, True), (6, True)],
)
def test_verdict_flip_for_size_three(copies, ruled_out):
    verdict = bound_verdict(make_graph_spec([(3, copies)]))
    assert verdict.factors[0].ruled_out is ruled_out
    assert (verdict.overall is Gracefulness.NOT_RADIO_GRACEFUL) is ruled_out


@pytest.mark.parametrize(
    "copies,ruled_out",
    [(4, False), (10, False), (11, True), (12, True)],
)
def test_verdict_flip_for_size_four(copies, ruled_out):
    verdict = bound_verdict(make_graph_spec([(4, copies)]))
    assert verdict.factors[0].ruled_out is ruled_out
    assert (verdict.overall is Gracefulness.NOT_RADIO_GRACEFUL) is ruled_out


def test_verdict_cumulative_width_across_factors():
    # the second factor's width counts the first factor's columns as well
    ruled = bound_verdict(make_graph_spec([(3, 4), (4, 7)]))
    assert [e.cumulative_width for e in ruled.factors] == [4, 11]
    assert not ruled.factors[0].ruled_out
    assert ruled.factors[1].ruled_out
    assert ruled.overall is Gracefulness.NOT_RADIO_GRACEFUL

    open_case = bound_verdict(make_graph_spec([(3, 4), (4, 6)]))
    assert not any(e.ruled_out for e in open_case.factors)
    assert open_case.overall is Gracefulness.UNKNOWN


@pytest.mark.parametrize("factors", [[(3, 1)], [(3, 3)], [(4, 2)], [(5, 5)]])
def test_verdict_cites_known_single_factor_cases(factors):
    assert bound_verdict(make_graph_spec(factors)).overall is Gracefulness.KNOWN_GRACEFUL_BY_CITATION


def test_verdict_unknown_cases():
    # K_3^4 sits one column past the cited range and one below the threshold
    assert bound_verdict(make_graph_spec([(3, 4)])).overall is Gracefulness.UNKNOWN
    assert bound_verdict(make_graph_spec([(2, 1)])).overall is Gracefulness.UNKNOWN
    assert bound_verdict(make_graph_spec([(2, 1), (3, 1)])).overall is Gracefulness.UNKNOWN


def test_distinct_column_count_matches_oracle():
    spec = make_graph_spec([(2, 2), (3, 2)])
    rng = seeded(211)
    for _ in range(40):
        rows = random_weak_rows(spec, rng)
        ordering = Ordering(spec, rows)
        for row in range(1, len(rows) + 1):
            for depth in range(0, len(rows) - row + 1):
                assert distinct_column_count(ordering, row, depth) == oracle_distinct_columns(
                    rows, row, depth
                )


def test_distinct_column_count_window_errors(golden_k32):
    with pytest.raises(ShapeError):
        distinct_column_count(golden_k32, 1, -1)
    with pytest.raises(ShapeError):
        distinct_column_count(golden_k32, 0, 1)
    with pytest.raises(ShapeError):
        distinct_column_count(golden_k32, 9, 1)


@pytest.mark.parametrize(
    "row,depth,message",
    [
        (1, 1.5, "window depth 1.5 is not an integer"),
        (1.0, 1, "window row 1.0 is not an integer"),
        (True, True, "window row True is not an integer"),
        (1, True, "window depth True is not an integer"),
    ],
)
def test_distinct_column_count_takes_exact_integers(golden_k32, row, depth, message):
    with pytest.raises(ShapeError) as err:
        distinct_column_count(golden_k32, row, depth)
    assert str(err.value) == message


def test_distinct_column_profile(golden_k34):
    counts = [distinct_column_count(golden_k34, 10, depth) for depth in range(4)]
    assert counts[0] == golden_k34.spec.diameter
    # widening the window can only break distinctness
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_boundary_structure_clean_on_golden(golden_k34):
    assert boundary_structure_check(golden_k34) == []


def test_boundary_structure_requires_boundary_spec(golden_k32):
    # 2 columns of a size-3 factor sit below the forced-structure width of 4
    with pytest.raises(NotAtBoundaryError):
        boundary_structure_check(golden_k32)


def test_boundary_structure_flags_broken_rows(golden_k34):
    rows = list(golden_k34.rows)
    rows[10], rows[40] = rows[40], rows[10]
    broken = Ordering(golden_k34.spec, tuple(rows))
    violations = boundary_structure_check(broken)
    assert violations
    for v in violations:
        assert isinstance(v, BoundaryViolation)
        real = shared_coordinates(broken.rows[v.row - 1], broken.rows[v.row + v.gap - 1])
        assert real == v.shared
        assert v.shared != v.gap - 1
        assert str(v).startswith(f"rows {v.row} and {v.row + v.gap}")

    # the full list, in order, against the definition on seeded shuffles
    rng = seeded(131)
    for swaps in (1, 3, 10, 200):
        rows = list(golden_k34.rows)
        for _ in range(swaps):
            a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows[a], rows[b] = rows[b], rows[a]
        got = boundary_structure_check(Ordering(golden_k34.spec, tuple(rows)))
        assert [(v.row, v.gap, v.shared) for v in got] == oracle_boundary_violations(rows, 3)


def test_boundary_structure_matches_oracle_on_random_rows():
    """The full list against the definition on rows far from any valid
    ordering: random 3^4 permutations and rows with repeats, and K_2 and
    2 x 3^4, whose size-2 factor checks gaps up to 2, past K_2's diameter."""
    rng = seeded(137)
    for factors, count in (([(3, 4)], 20), ([(2, 1)], 5), ([(2, 1), (3, 4)], 3)):
        spec = make_graph_spec(factors)
        depth = max(
            f.size
            for f, width in zip(spec.factors, spec.cumulative_widths)
            if width == factor_threshold(f.size) - 1
        )
        for _ in range(count):
            for rows in (random_permutation_rows(spec, rng), random_weak_rows(spec, rng)):
                got = boundary_structure_check(Ordering(spec, rows))
                assert [(v.row, v.gap, v.shared) for v in got] == oracle_boundary_violations(rows, depth)


def test_segment_search_rejects_trivial_depth():
    with pytest.raises(SpecError):
        segment_extension_search(make_graph_spec([(3, 4)]), depth=1)


@pytest.mark.parametrize("depth", [2.5, 3.0, "4"])
def test_segment_search_rejects_a_depth_that_is_not_an_int(monkeypatch, depth):
    # 2.5 rows can never be reached, so the search used to run to the node cap
    monkeypatch.setattr(bounds, "SEGMENT_NODE_CAP", 1_000)
    with pytest.raises(SpecError, match=f"segment depth must be an integer, got {depth!r}$"):
        segment_extension_search(make_graph_spec([(3, 2)]), depth)


def test_segment_search_extends_k3_4():
    result = segment_extension_search(make_graph_spec([(3, 4)]), depth=5)
    assert result.extensible
    assert result.dead_depth is None
    witness = result.witness
    assert len(witness) == 6
    assert witness[0] == (1, 1, 1, 1)
    assert witness[1] == (2, 2, 2, 2)
    t = 4
    for i in range(len(witness)):
        for j in range(i + 1, min(i + t, len(witness))):
            assert shared_coordinates(witness[i], witness[j]) <= (j - i) - 1


def test_segment_search_dead_for_k3_5():
    result = segment_extension_search(make_graph_spec([(3, 5)]), depth=3)
    assert not result.extensible
    assert result.witness is None
    assert result.dead_depth == 3


def test_segment_search_node_cap(monkeypatch):
    monkeypatch.setattr(bounds, "SEGMENT_NODE_CAP", 1)
    with pytest.raises(TooLargeError, match=r"exceeded 1 nodes for 3\^5$"):
        segment_extension_search(make_graph_spec([(3, 5)]), depth=3)


def test_segment_search_cost_does_not_grow_with_column_size():
    # 3 nodes on columns of a million values each: a level's setup used to
    # list every unused value of every column (0.94 s, tens of MiB)
    spec = make_graph_spec([(10**6, 3)])
    tracemalloc.start()
    try:
        result = segment_extension_search(spec, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.extensible
    assert result.nodes_explored == 3
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(
            lambda: bound_verdict("3^4"),
            SpecError,
            "spec '3^4' is not a GraphSpec",
            id="verdict-of-a-string",
        ),
        pytest.param(
            lambda: segment_extension_search(None, 4),
            SpecError,
            "spec None is not a GraphSpec",
            id="segments-of-none",
        ),
        pytest.param(
            lambda: boundary_structure_check("x"),
            ShapeError,
            "ordering 'x' is not an Ordering",
            id="boundary-of-a-string",
        ),
        pytest.param(
            lambda: distinct_column_count("x", 1, 1),
            ShapeError,
            "ordering 'x' is not an Ordering",
            id="columns-of-a-string",
        ),
    ],
)
def test_foreign_arguments_raise_the_layer_errors(call, error, message):
    """Arguments of the wrong type get the layer's own error, not an AttributeError."""
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_segment_search_extensible_proves_nothing():
    # K_2^2 admits arbitrarily long locally valid runs (they revisit vertices),
    # so only the dead outcome carries an impossibility proof
    result = segment_extension_search(make_graph_spec([(2, 2)]), depth=6)
    assert result.extensible


@pytest.mark.parametrize(
    "sizes,prev_rows,expected",
    [
        # equal size and history: tied, so column 2 never drops below column 1
        ((3, 3), [(1, 1), (2, 2)], [(1, 1), (1, 3), (3, 3)]),
        # equal history but different sizes: not interchangeable, not tied
        ((3, 4), [(1, 1), (2, 2)], [(1, 1), (1, 3), (3, 1), (3, 3)]),
        # equal size but different history: not tied
        ((3, 3), [(1, 1), (2, 2), (1, 3)], [(2, 1), (2, 2), (3, 1), (3, 2)]),
    ],
)
def test_candidate_rows_tie_rule(sizes, prev_rows, expected):
    # two columns: only the last row constrains, and it may share nothing
    assert _rows_after(sizes, prev_rows) == expected


def _recent(sizes, prefix):
    """The rows the window rule reads for the row after prefix: the last t - 1."""
    return prefix[max(0, len(prefix) - (len(sizes) - 1)) :]


def _rows_after(sizes, prefix):
    """_candidate_rows after prefix, given the column state from its definition."""
    return list(_candidate_rows(sizes, *oracle_column_state(sizes, prefix), _recent(sizes, prefix)))


def _canonical_prefixes(spec, max_rows, cap):
    """Prefixes of the segment search's tree, breadth first from the pinned
    rows, of at most max_rows rows: the first cap of them."""
    sizes = spec.column_sizes()
    level = [[spec.constant_vertex(1), spec.constant_vertex(2)]]
    out = []
    while level and len(out) < cap:
        out.extend(level[: cap - len(out)])
        if len(level[0]) == max_rows:
            break
        level = [prefix + [row] for prefix in level for row in oracle_candidate_rows(sizes, prefix)]
    return out


# (factors, prefixes checked): every prefix of up to 6 rows, or the first 1,500
BUDGET_PRUNE_CASES = [
    ([(3, 2)], 186),
    ([(3, 3)], 74),
    ([(4, 3)], 1_500),
    ([(2, 2), (3, 2)], 1),
    ([(3, 1), (4, 4)], 1_500),
    ([(2, 1), (3, 2), (5, 2)], 16),
    ([(4, 10)], 25),
    ([(3, 2), (4, 7)], 22),
    ([(3, 4), (4, 2)], 8),
    ([(5, 4)], 1_500),
    ([(2, 5)], 1),
    ([(3, 1), (4, 9)], 29),
    ([(2, 3), (3, 3), (4, 3)], 1),
]


@pytest.mark.parametrize("factors,count", BUDGET_PRUNE_CASES)
def test_candidate_rows_match_unpruned_oracle(factors, count):
    # the share-budget prune cuts only subtrees that yield nothing: the same
    # rows in the same order, at every prefix of the search's tree
    spec = make_graph_spec(factors)
    sizes = spec.column_sizes()
    prefixes = _canonical_prefixes(spec, 6, 1_500)
    assert len(prefixes) == count
    for prefix in prefixes:
        assert _rows_after(sizes, prefix) == list(oracle_candidate_rows(sizes, prefix)), prefix


@pytest.mark.parametrize("factors,count", BUDGET_PRUNE_CASES)
def test_carried_state_matches_definition(factors, count):
    # the state the search carries row by row equals the one recomputed from
    # scratch, at every prefix of its tree and at the empty and one-row prefixes
    spec = make_graph_spec(factors)
    sizes = spec.column_sizes()
    prefixes = _canonical_prefixes(spec, 6, 1_500)
    assert len(prefixes) == count
    for prefix in [[], prefixes[0][:1], *prefixes]:
        state = bounds._empty_state(sizes)
        for row in prefix:
            state = bounds._carry(sizes, state, row)
        assert state == oracle_column_state(sizes, prefix), prefix


def test_share_need_is_the_brute_force_minimum():
    # need[col] is the fewest shares columns col.. spend over every choice of
    # allowed values, and no row the search yields spends fewer
    checked = positive = 0
    for factors in ([(3, 3)], [(4, 3)], [(3, 4)], [(2, 1), (3, 1), (4, 2)], [(3, 2), (4, 2)]):
        spec = make_graph_spec(factors)
        sizes = spec.column_sizes()
        t = len(sizes)
        for prefix in _canonical_prefixes(spec, 5, 300):
            allowed = []
            for col, size in enumerate(sizes):
                used = sorted({row[col] for row in prefix})
                allowed.append(used + [v for v in range(1, size + 1) if v not in used][:1])
            recent = prefix[-(t - 1) :]
            tops, _ = oracle_column_state(sizes, prefix)

            def spent(values, start):
                return sum(prev[col] == v for prev in recent for col, v in enumerate(values, start))

            need = _share_need(sizes, tops, recent)
            assert len(need) == t + 1 and need[t] == 0
            for col in range(t):
                assert need[col] == min(spent(c, col) for c in itertools.product(*allowed[col:]))
            for row in oracle_candidate_rows(sizes, prefix):
                for col in range(t + 1):
                    assert spent(row[col:], col) >= need[col]
            checked += 1
            positive += need[0] > 0
    assert (checked, positive) == (458, 215)


@pytest.mark.parametrize(
    "factors,depth,nodes,extensible",
    [([(4, 11)], 4, 17, False), ([(3, 5)], 3, 2, False), ([(4, 10)], 15, 17, True)],
)
def test_segment_search_node_counts(factors, depth, nodes, extensible):
    # exact counts: a different count is a change in behaviour that needs explaining
    result = segment_extension_search(make_graph_spec(factors), depth)
    assert result.extensible == extensible
    assert result.dead_depth == (None if extensible else depth)
    assert result.nodes_explored == nodes


def test_segment_search_matches_unreduced_oracle():
    # every 2^a x 3^b x 4^c with diameter 2..9, at depths 2..6: 1,080 cases
    for a, b, c in itertools.product(range(10), repeat=3):
        if not 2 <= a + b + c <= 9:
            continue
        spec = make_graph_spec([(s, k) for s, k in ((2, a), (3, b), (4, c)) if k])
        t = spec.diameter
        for depth in range(2, 7):
            extensible, _, dead_depth, oracle_nodes = oracle_segment_search(
                spec.column_sizes(), depth
            )
            result = segment_extension_search(spec, depth)
            case = (spec, depth)
            assert result.extensible == extensible, case
            assert result.dead_depth == dead_depth, case
            assert result.nodes_explored <= oracle_nodes, case
            if not extensible:
                continue
            witness = result.witness
            assert len(witness) == depth + 1, case
            assert witness[0] == (1,) * t and witness[1] == (2,) * t, case
            for i, j in itertools.combinations(range(len(witness)), 2):
                if j - i < t:
                    assert oracle_shared(witness[i], witness[j]) <= j - i - 1, case
