import ast
import dataclasses
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from hamming_radio import search
from hamming_radio.errors import InvalidWitnessError, SpecError, TooLargeError
from hamming_radio.graphs import enumerate_vertices, make_graph_spec
from hamming_radio.instructions import (
    builtin_generator,
    make_order_generator,
    materialize,
    recover_instructions,
)
from hamming_radio.search import (
    SearchConfig,
    SearchStatus,
    _k34_moves,
    search_k34_reduced,
    search_ordering,
)
from hamming_radio.perms import Permutation
from hamming_radio.verify import Ordering, _at_least, check_ordering, is_valid_ordering, permute_column

from . import oracles
from .oracles import (
    brute_force_radio_graceful,
    oracle_depth_first,
    oracle_k34_successors,
    oracle_k34_transitions,
    oracle_k34_walk,
    oracle_search_ordering,
    oracle_unpinned_graceful,
)


def test_config_validation():
    with pytest.raises(SpecError):
        SearchConfig(node_budget=0)
    for budget in (0, float("nan"), float("inf")):
        with pytest.raises(SpecError):
            SearchConfig(time_budget=budget)


NOT_A_SPEC = (SpecError, "spec '3^2' is not a GraphSpec")
NOT_A_CONFIG = (SpecError, "config 'cfg' is not a SearchConfig")


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(lambda: search_ordering("3^2"), *NOT_A_SPEC, id="search-a-string"),
        pytest.param(lambda: brute_force_radio_graceful("3^2"), *NOT_A_SPEC, id="brute-a-string"),
        pytest.param(
            lambda: search_ordering(make_graph_spec([(3, 2)]), "cfg"),
            *NOT_A_CONFIG,
            id="search-with-a-string-config",
        ),
        pytest.param(lambda: search_k34_reduced("cfg"), *NOT_A_CONFIG, id="reduced-with-a-string"),
    ],
)
def test_foreign_arguments_raise_the_layer_errors(call, error, message):
    """Arguments of the wrong type get the layer's own error, not an AttributeError."""
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("budget", [2.5, True, "5"])
def test_node_budget_must_be_an_exact_int(budget):
    # 2.5 and True used to be accepted, and "5" raised a bare TypeError from <
    with pytest.raises(SpecError, match=f"node_budget must be an integer, got {budget!r}$"):
        SearchConfig(node_budget=budget)


@pytest.mark.parametrize("budget", ["5", True, False, None, [1.0]])
def test_time_budget_must_be_a_real_number(budget):
    # "5" raised a bare TypeError from math.isfinite, and True ran as one second
    message = f"time_budget must be a real number, got {re.escape(repr(budget))}$"
    with pytest.raises(SpecError, match=message):
        SearchConfig(time_budget=budget)


@pytest.mark.parametrize("seed", [2.5, "x", [1], True, 3.0])
def test_seed_must_be_none_or_an_exact_int(seed):
    # 2.5, "x", True and 3.0 ran as shuffles, and [1] raised a bare TypeError
    # only once the search started
    message = f"seed must be None or an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(SpecError, match=message):
        SearchConfig(seed=seed)


def test_config_accepts_every_real_budget_and_int_seed():
    for budget, seed in [(60, None), (0.5, 0), (Fraction(1, 2), -3), (1e-9, 2**70)]:
        config = SearchConfig(time_budget=budget, seed=seed)
        assert (config.time_budget, config.seed) == (budget, seed)


def test_search_finds_k3_2():
    outcome = search_ordering(make_graph_spec([(3, 2)]))
    assert outcome.status is SearchStatus.FOUND
    assert is_valid_ordering(outcome.ordering)
    assert outcome.max_depth_reached == 9
    assert outcome.ordering.rows[0] == (1, 1)
    assert outcome.ordering.rows[1] == (2, 2)


def test_found_ordering_is_checked_without_assert(monkeypatch):
    # an explicit check, so it survives python -O
    monkeypatch.setattr("hamming_radio.search.is_valid_ordering", lambda ordering: False)
    with pytest.raises(InvalidWitnessError, match=r"ordering of 3\^2$"):
        search_ordering(make_graph_spec([(3, 2)]))


def test_search_exhausts_k2_2():
    outcome = search_ordering(make_graph_spec([(2, 2)]))
    assert outcome.status is SearchStatus.EXHAUSTED_NO_SOLUTION
    assert outcome.ordering is None


def test_search_vertex_cap():
    with pytest.raises(TooLargeError):
        # 1,594,323 vertices x 39 summed column sizes, past MASK_BIT_CAP
        search_ordering(make_graph_spec([(3, 13)]))


class Admitted(Exception):
    """Raised in place of enumerating the vertices of an admitted spec."""


def _two_cap_refusal(spec):
    """The rule search_ordering had: refuse more than 10^6 vertices, then
    more than 2^25 column-mask bits."""
    n = spec.num_vertices
    return n > 10**6 or n * sum(spec.column_sizes()) > 2**25


def test_one_mask_cap_refuses_what_two_caps_did(monkeypatch):
    def refuse_to_enumerate(spec):
        raise Admitted

    monkeypatch.setattr(search, "enumerate_vertices", refuse_to_enumerate)
    grids = [
        [[(n, c)] for n in (2, 3, 4, 5, 7, 10, 100, 1000, 5792, 5793) for c in range(1, 22)],
        [[(a, i), (b, j)] for a, b in itertools.combinations((2, 3, 4, 5, 7), 2)
         for i, j in itertools.product(range(1, 15), repeat=2)],
        [[(2, i), (b, j), (c, k)] for b, c in itertools.combinations((3, 4, 5, 7), 2)
         for i, j, k in itertools.product(range(1, 10), repeat=3)],
    ]
    for grid in grids:
        sides = set()
        for factors in grid:
            spec = make_graph_spec(factors)
            try:
                search_ordering(spec)
            except TooLargeError as exc:
                assert str(exc) == f"the column masks of {spec} exceed the cap of 33554432 bits"
                refused = True
            except Admitted:
                refused = False
            assert refused == _two_cap_refusal(spec), spec
            n = spec.num_vertices
            sides.add((n > 10**6, n * sum(spec.column_sizes()) > 2**25))
        # admitted, refused by the mask bits alone, refused by both caps
        assert sides == {(False, False), (False, True), (True, True)}, grid[0]


class SyntheticTree:
    """A seeded tree behind _depth_first's (first, step, pop) contract.

    A node has `fewest` to `widest` children, ints drawn by random.Random
    keyed by the seed and the rows on the path; a path `cap` rows long has
    none.  With `lazy` set, levels are generators that draw only when first
    read, as the package's searches hand out.  Counts the steps and pops it
    is given.
    """

    def __init__(self, seed, cap, fewest, widest, lazy=False, root=(0,)):
        self.seed, self.cap, self.lazy = seed, cap, lazy
        self.fewest, self.widest = fewest, widest
        self.rows = list(root)
        self.steps = self.pops = 0

    def _draw(self):
        if len(self.rows) >= self.cap:
            return []
        rng = random.Random(f"{self.seed}/{self.rows}")
        return [rng.randrange(100) for _ in range(rng.randint(self.fewest, self.widest))]

    def children(self):
        if not self.lazy:
            return self._draw()
        return (child for child in self._draw())  # drawn at the first next()

    def step(self, child):
        self.steps += 1
        self.rows.append(child)
        return self.children()

    def pop(self):
        self.pops += 1
        self.rows.pop()


def _driven(tree, target, budget, first=None):
    """search._depth_first on tree, as (status value, nodes, deepest)."""
    first = tree.children() if first is None else first
    status, nodes, deepest, _ = search._depth_first(
        tree.rows, target, first, tree.step, tree.pop, budget, math.inf
    )
    return status.value, nodes, deepest


def _referenced(tree, target, budget, first=None):
    first = tree.children() if first is None else first
    return oracle_depth_first(tree.rows, target, first, tree.step, tree.pop, budget)


# (seed, cap, fewest, widest, target): bushy trees of 2,000-15,000 nodes
# that the target never stops, and deep narrow ones that reach it or die out
TREES = [(seed, 10, 1, 4, 20) for seed in range(3)] + [(seed, 30, 0, 2, 14) for seed in range(8)]


@pytest.mark.parametrize("budget", [1, 2, 1023, 1024, 1025, 10**9])
@pytest.mark.parametrize("lazy", [False, True])
def test_depth_first_matches_reference(budget, lazy):
    """_depth_first and the recursive reference agree on every tree: status,
    nodes, deepest row, the rows left at the stop, and the steps and pops
    they make, one step per node but the one cut off."""
    statuses = set()
    for seed, cap, fewest, widest, target in TREES:
        reference = SyntheticTree(seed, cap, fewest, widest, lazy)
        expected = _referenced(reference, target, budget)
        tree = SyntheticTree(seed, cap, fewest, widest, lazy)
        got = _driven(tree, target, budget)
        assert got == expected, (seed, cap)
        assert tree.rows == reference.rows, (seed, cap)
        assert (tree.steps, tree.pops) == (reference.steps, reference.pops), (seed, cap)
        status, nodes, _ = got
        assert tree.steps == nodes - (status == "budget exceeded")
        assert tree.steps - tree.pops == len(tree.rows) - 1
        if cap == 10:  # thousands of nodes: only the unreachable budget lets them exhaust
            if budget < 10**9:
                assert (status, nodes) == ("budget exceeded", budget + 1)
            else:
                assert status == "exhausted" and nodes > 1025
        statuses.add(status)
    if budget == 10**9:
        assert statuses == {"found", "exhausted"}
    elif budget > 2:
        assert statuses == {"found", "exhausted", "budget exceeded"}


@pytest.mark.parametrize("run", [_driven, _referenced])
def test_depth_first_edge_levels(run):
    """A target already met stops before any node, and an empty root
    exhausts at once; neither steps nor pops."""
    tree = SyntheticTree(0, 9, 1, 4)
    assert run(tree, 1, 10) == ("found", 0, 1)
    assert run(tree, 5, 10, first=[]) == ("exhausted", 0, 1)
    assert (tree.steps, tree.pops, tree.rows) == (0, 0, [0])


@pytest.mark.parametrize(
    "late_from,budget,stop",
    [
        (1, 10**9, 1024),
        (1000, 10**9, 1024),
        (1024, 10**9, 1024),
        (1025, 10**9, 2048),
        (3000, 10**9, 3072),
        (None, 2047, 2048),  # the node past the budget stops the search unread
        (None, 2048, 2049),
    ],
)
def test_depth_first_reads_the_clock_every_1024_nodes(monkeypatch, late_from, budget, stop):
    """The clock is read at the start, at nodes 1024, 2048, ... up to the
    budget, and once more for the elapsed time, nowhere else.  A deadline
    passed from node late_from on stops the search at the first multiple of
    1024 at or after it."""
    tree = SyntheticTree(1, 10, 1, 4)  # 14,310 nodes
    reads = []  # the steps made before each read: k - 1 at node k

    def clock():
        reads.append(tree.steps)
        late = len(reads) > 1 and late_from is not None and tree.steps + 1 >= late_from
        return 100.0 if late else 0.0

    monkeypatch.setattr(search.time, "monotonic", clock)
    status, nodes, _, _ = search._depth_first(
        tree.rows, 20, tree.children(), tree.step, tree.pop, budget, 10.0
    )
    assert (status, nodes) == (SearchStatus.BUDGET_EXCEEDED, stop)
    assert reads == [0, *range(1023, min(stop, budget), 1024), nodes - 1]


def test_search_node_budget_is_exact():
    spec = make_graph_spec([(3, 2)])
    config = SearchConfig(node_budget=5)
    outcome = search_ordering(spec, config)
    assert outcome.status is SearchStatus.BUDGET_EXCEEDED
    # the cutoff fires on the first node past the budget, deterministically
    assert outcome.nodes_explored == 6
    again = search_ordering(spec, config)
    assert (again.status, again.nodes_explored, again.max_depth_reached) == (
        outcome.status,
        outcome.nodes_explored,
        outcome.max_depth_reached,
    )


@pytest.mark.parametrize(
    "factors,config,expected",
    [
        ([(3, 2)], {}, ("found", 18, 9)),
        ([(3, 3)], {}, ("found", 10_220, 27)),
        ([(2, 1), (3, 1), (4, 1)], {}, ("found", 124, 24)),
        ([(4, 2)], {}, ("found", 78, 16)),
        ([(5, 2)], {}, ("found", 1_403, 25)),
        ([(4, 3)], {"node_budget": 20_000}, ("budget exceeded", 20_001, 59)),
        ([(3, 3)], {"seed": 42}, ("found", 170, 27)),
        ([(3, 3)], {"seed": 5}, ("found", 398, 27)),
        # factors None: the reduced 3^4 search
        (None, {"node_budget": 200_000}, ("budget exceeded", 200_001, 76)),
        (None, {"node_budget": 50_000, "seed": 7}, ("budget exceeded", 50_001, 73)),
        # 4,096 vertices: the former per-candidate scan took about 40 s for this row on a 2-core VM
        ([(4, 6)], {"node_budget": 20_000}, ("budget exceeded", 20_001, 3_409)),
        # the mask memo holds fewer positions than N: 85 of 625 and 19 of 1,296
        ([(5, 4)], {"node_budget": 50_000}, ("budget exceeded", 50_001, 523)),
        ([(3, 4), (4, 2)], {"node_budget": 50_000}, ("budget exceeded", 50_001, 221)),
    ],
)
def test_search_counts_are_pinned(factors, config, expected):
    # exact counts: a different count is a change in behaviour that needs explaining
    config = SearchConfig(**config)
    if factors is None:
        outcome = search_k34_reduced(config)
    else:
        outcome = search_ordering(make_graph_spec(factors), config)
    assert (outcome.status.value, outcome.nodes_explored, outcome.max_depth_reached) == expected


# per field: the product, the base config and a value that must change the outcome
FIELD_CASES = {
    "node_budget": ([(3, 2)], {}, 5),
    "time_budget": ([(4, 6)], {"node_budget": 5_000}, 1e-9),  # stops at the 1,024-node check
    "seed": ([(3, 3)], {}, 42),
}


def test_every_config_field_is_read():
    """Changing any one field of SearchConfig changes the outcome, so no
    setting goes unread."""
    assert set(FIELD_CASES) == {field.name for field in dataclasses.fields(SearchConfig)}
    for name, (factors, kwargs, value) in FIELD_CASES.items():
        spec = make_graph_spec(factors)
        base = SearchConfig(**kwargs)
        changed = dataclasses.replace(base, **{name: value})
        a, b = (search_ordering(spec, config) for config in (base, changed))
        assert (a.status, a.nodes_explored, a.max_depth_reached) != (
            b.status,
            b.nodes_explored,
            b.max_depth_reached,
        ), name


def _small_products(max_vertices):
    """Every product of K_2, K_3, K_4 and K_5 powers with at most max_vertices vertices."""
    out = []
    for copies in itertools.product(range(7), range(4), range(4), range(3)):
        factors = [(n, c) for n, c in zip((2, 3, 4, 5), copies) if c]
        if factors and make_graph_spec(factors).num_vertices <= max_vertices:
            out.append(factors)
    return out


ORACLE_SPECS = _small_products(64)


@pytest.mark.parametrize("factors", ORACLE_SPECS, ids=lambda f: "x".join(f"{n}^{c}" for n, c in f))
def test_search_matches_scan_oracle(factors):
    """The bitset kernel visits candidates in the scan's order: the same
    status, node count, deepest row and found ordering under every config."""
    spec = make_graph_spec(factors)
    sizes = spec.column_sizes()
    # budget 50 under every order; budget 1000 under the lexicographic order and one seed
    one_seed = ORACLE_SPECS.index(factors) % 10
    runs = [(50, seed) for seed in (None, *range(10))] + [(1000, None), (1000, one_seed)]
    for budget, seed in runs:
        config = SearchConfig(node_budget=budget, seed=seed)
        outcome = search_ordering(spec, config)
        rows = outcome.ordering.rows if outcome.ordering else None
        got = (outcome.status.value, outcome.nodes_explored, outcome.max_depth_reached, rows)
        assert got == oracle_search_ordering(sizes, budget, seed), (budget, seed)


@pytest.mark.parametrize(
    "factors",
    [
        [(2, 1)], [(2, 2)], [(2, 3)], [(2, 4)], [(3, 2)], [(3, 3)], [(4, 2)], [(5, 2)],
        [(2, 1), (3, 1)], [(2, 1), (3, 2)], [(2, 2), (3, 1)], [(2, 2), (3, 2)], [(2, 1), (4, 1)],
        [(2, 2), (4, 1)], [(3, 1), (4, 1)], [(2, 1), (3, 1), (4, 1)], [(2, 1), (3, 1), (5, 1)],
    ],
    ids=lambda f: "x".join(f"{n}^{c}" for n, c in f),
)
def test_pinning_loses_no_verdict(factors):
    """Pinning rows 1-2 is sound: a scan that pins nothing reaches the same
    verdict, found or exhausted, on products small enough to exhaust."""
    spec = make_graph_spec(factors)
    found = search_ordering(spec).status is SearchStatus.FOUND
    assert found == oracle_unpinned_graceful(spec.column_sizes())


@pytest.mark.parametrize("factors", [[(3, 2)], [(3, 3)], [(4, 2)], [(5, 2)], [(3, 1), (4, 1)]])
def test_found_orderings_start_pinned_and_round_trip(factors):
    """Every search starts all-1, all-2, which is the form the instruction
    layer encodes (row 1 the identity, row 2 f_2), so each found ordering
    decodes back to itself."""
    spec = make_graph_spec(factors)
    t = spec.diameter
    gens = [builtin_generator("lru", size) for size in spec.column_sizes()]
    for seed in (None, *range(5)):
        outcome = search_ordering(spec, SearchConfig(seed=seed))
        assert outcome.status is SearchStatus.FOUND, seed
        rows = outcome.ordering.rows
        assert rows[:2] == ((1,) * t, (2,) * t), seed
        cells_by_column = [
            recover_instructions([row[j] for row in rows], gen) for j, gen in enumerate(gens)
        ]
        og = make_order_generator(spec, list(zip(*cells_by_column)), gens)
        assert materialize(og) == outcome.ordering, seed


@pytest.mark.parametrize("factors,budget", [([(4, 6)], 5_000), ([(4, 7)], 3_000)])
def test_generic_search_memory_is_flat(factors, budget):
    """The window keeps masks for the last t - 1 rows and one spare, the memo
    for at most MASK_BIT_CAP // N^2 positions (2 on 4^6, 1 on 4^7), and no
    suspended level keeps any.  Both runs dive about 3,000 rows deep; a memo
    of every position placed peaks near 12 MiB on 4^6, and an N-bit mask held
    by every suspended level near 9 MiB on 4^7 (16,384 vertices)."""
    tracemalloc.start()
    try:
        outcome = search_ordering(make_graph_spec(factors), SearchConfig(node_budget=budget))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.nodes_explored == budget + 1
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_masks_are_computed_once_per_position(monkeypatch):
    """On 4^3 the memo holds all 64 positions, so no row's masks are computed
    twice, however often a backtrack brings the row back into the window."""
    computed = []

    def counting(first, sames, updates):
        sames = tuple(sames)  # one position's value masks, distinct for every position
        computed.append(sames)
        return _at_least(first, sames, updates)

    monkeypatch.setattr(search, "_at_least", counting)
    outcome = search_ordering(make_graph_spec([(4, 3)]), SearchConfig(node_budget=20_000))
    assert outcome.nodes_explored == 20_001
    assert len(computed) == len(set(computed)) <= 64


def test_randomized_search_reproducible():
    spec = make_graph_spec([(3, 2)])
    config = SearchConfig(seed=42)
    a = search_ordering(spec, config)
    b = search_ordering(spec, config)
    assert a.status is SearchStatus.FOUND
    assert a.ordering.rows == b.ordering.rows
    assert a.nodes_explored == b.nodes_explored


def test_brute_force_small_cases():
    assert brute_force_radio_graceful(make_graph_spec([(3, 1)])).graceful
    result = brute_force_radio_graceful(make_graph_spec([(2, 2)]))
    assert not result.graceful
    assert result.witness is None
    witness = brute_force_radio_graceful(make_graph_spec([(3, 2)])).witness
    assert check_ordering(witness) == []
    with pytest.raises(TooLargeError):
        brute_force_radio_graceful(make_graph_spec([(3, 4)]))


def test_step_successors_match_instructions():
    """All 5,184 transitions (u, v, column) of the move table, read as vertex
    tuples in enumerate_vertices' order, agree with the shift-to-front
    instructions the paper builds K_3^4 from."""
    moves = _k34_moves()
    vertices = list(enumerate_vertices(make_graph_spec([(3, 4)])))
    index = {v: i for i, v in enumerate(vertices)}
    transitions = oracle_k34_transitions()
    assert len(transitions) * 4 == 5_184
    for (u, v), expected in transitions.items():
        # bit j of the step v - u is set where it is -1 (mod 3) in coordinate j
        step = sum(1 << j for j, (a, b) in enumerate(zip(u, v)) if (b - a) % 3 == 2)
        assert tuple(vertices[m[2]] for m in moves[16 * index[v] + step]) == expected, (u, v)


def test_move_table_built_once():
    """The move table is built on the first reduced search and shared by
    every later one."""
    _k34_moves.cache_clear()
    config = SearchConfig(node_budget=10)
    search_k34_reduced(config)
    search_k34_reduced(config)
    assert _k34_moves.cache_info().misses == 1


def test_move_table_matches_instructions():
    """All 81 x 16 x 4 moves (v, d, c) agree with the successors that the
    shift-to-front instructions the paper builds K_3^4 from give, and each
    move's last field is the very entry the walk continues from.  The moves
    share one 1 << w int per row."""
    succ = oracle_k34_successors()
    moves = _k34_moves()
    assert len(moves) == 81 * 16
    assert len({id(m[1]) for entry in moves for m in entry}) == 81
    for v, d in itertools.product(range(81), range(16)):
        entry = moves[16 * v + d]
        assert [m[0] for m in entry] == [0, 1, 2, 3], (v, d)
        for c, (col, bit_w, w, onward, following) in enumerate(entry):
            d2 = d ^ (1 << c)
            assert w == succ[v][d][c], (v, d, c)
            assert bit_w == 1 << w, (v, d, c)
            assert onward == sum(1 << succ[w][d2][c2] for c2 in range(4) if c2 != c), (v, d, c)
            assert bin(onward).count("1") == 3, (v, d, c)
            assert following is moves[16 * w + d2], (v, d, c)


def test_move_table_memory_is_bounded():
    """The table stays below 1 MiB, and so does its build's peak, the
    successor table it is built from included.  One entry per tail row and
    step, with 5-field moves and shared 1 << w ints, traces about 0.7 MiB
    (0.8 MiB at the build's peak) and is what the walk uses.  Two faster
    designs were measured and not taken, because peak_rss_mb is an
    end-to-end metric of the benchmark's search workload: entries
    pre-filtered per last column (80 * v + 5 * d + p) with shared move
    tuples, about 1.36 MiB and +0.8 MiB of peak RSS, and the same with
    6-field tuples per state, 3.64 MiB and +3 MiB of peak RSS."""
    _k34_moves.cache_clear()
    tracemalloc.start()
    try:
        _k34_moves()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _k34_moves.cache_info().misses == 1
    assert peak < 2**20, f"move table traced {peak / 2**20:.2f} MiB"


LEXICOGRAPHIC_ROWS_AT_1000 = [
    0, 40, 26, 63, 4, 44, 18, 67, 8, 36, 22, 71, 30, 73, 14, 60, 37, 77, 15, 55, 41, 78, 10, 59, 42,
    20, 61, 12, 29, 25, 57, 11, 34, 72, 5, 70, 48, 1, 68, 52, 9, 58, 47, 16, 75, 35, 19, 69, 50, 7,
    65, 21,
]
SEED_7_ROWS_AT_1000 = [
    0, 40, 78, 11, 34, 77, 15, 46, 5, 70, 27, 26, 66, 1, 50, 60, 13, 29, 24, 64, 30, 17, 72, 4, 53,
    9, 61, 23, 37, 57, 25, 41, 55, 21, 43, 74, 6, 67, 45, 62, 22, 42, 2, 75, 16, 32, 63, 52, 3, 38,
    76, 33, 10, 80, 39, 7, 65, 51, 58, 20, 69, 49,
]


@pytest.mark.parametrize(
    "config,expected",
    [({}, LEXICOGRAPHIC_ROWS_AT_1000), ({"seed": 7}, SEED_7_ROWS_AT_1000)],
)
def test_reduced_visit_order_is_pinned(monkeypatch, config, expected):
    """The rows (lexicographic vertex indices) on the path when the 1,000-node
    budget runs out.  No count can tell this walk from its column mirror
    image, which gives the same nodes and deepest row; the path can."""
    left = []
    real = search._depth_first

    def recording(rows, *args):
        out = real(rows, *args)
        left.append(list(rows))
        return out

    monkeypatch.setattr(search, "_depth_first", recording)
    outcome = search_k34_reduced(SearchConfig(node_budget=1_000, **config))
    assert (outcome.status, outcome.nodes_explored) == (SearchStatus.BUDGET_EXCEEDED, 1_001)
    assert left == [expected]


@pytest.mark.parametrize("budget", [1_000, 20_000])
@pytest.mark.parametrize("seed", [None, *range(10)])
def test_reduced_walk_matches_used_row_oracle(monkeypatch, seed, budget):
    """The free-row kernel visits what the used-row scan visited: same
    status, node count, deepest row and path left at the cutoff."""
    left = []
    real = search._depth_first

    def recording(rows, *args):
        out = real(rows, *args)
        left.append(tuple(rows))
        return out

    monkeypatch.setattr(search, "_depth_first", recording)
    outcome = search_k34_reduced(SearchConfig(node_budget=budget, seed=seed))
    got = (outcome.status.value, outcome.nodes_explored, outcome.max_depth_reached, left[0])
    assert got == oracle_k34_walk(budget, seed)


def _normalized_at_row_1(ordering):
    """Relabel each column so that rows 1 and 2 read all-1 and all-2."""
    for col, (a, b) in enumerate(zip(ordering.rows[0], ordering.rows[1]), start=1):
        images = [3, 3, 3]
        images[a - 1], images[b - 1] = 1, 2
        ordering = permute_column(ordering, col, Permutation(images))
    return ordering


@pytest.mark.parametrize("reverse", [False, True])
def test_reduced_walk_children_accept_the_golden(monkeypatch, golden_k34, k34_spec, reverse):
    """The bundled ordering, and its reverse, normalized at row 1, is a path of
    the reduced walk: every row from 3 to 81 is among its level's children.
    An exhausted walk is a proof only if no ordering falls outside them."""
    rows = golden_k34.rows[::-1] if reverse else golden_k34.rows
    target = _normalized_at_row_1(Ordering(k34_spec, rows))
    path = [k34_spec.vertex_index(v) for v in target.rows]
    accepted = []

    def replay(rows, n_total, first, step, pop, *budgets):
        assert rows == path[:2]
        level = first
        for w in path[2:]:
            choice = next((c for c in level if c[2] == w), None)
            assert choice is not None, f"row {len(rows) + 1} is not a child"
            level = step(choice)
            accepted.append(w)
        return SearchStatus.FOUND, len(accepted), len(rows), 0.0

    monkeypatch.setattr(search, "_depth_first", replay)
    outcome = search_k34_reduced()
    assert len(accepted) == 79
    assert outcome.status is SearchStatus.FOUND
    assert outcome.ordering == target  # and _finish found it valid


def test_reduced_walk_checks_its_witness_without_assert(monkeypatch, golden_k34, k34_spec):
    """Steered onto the bundled ordering, the reduced walk's FOUND outcome
    goes through the same explicit witness check as the generic search's."""
    path = [k34_spec.vertex_index(v) for v in _normalized_at_row_1(golden_k34).rows]

    def replay(rows, n_total, first, step, pop, *budgets):
        level = first
        for w in path[2:]:
            level = step(next(c for c in level if c[2] == w))
        return SearchStatus.FOUND, len(path) - 2, len(rows), 0.0

    monkeypatch.setattr(search, "_depth_first", replay)
    monkeypatch.setattr(search, "is_valid_ordering", lambda ordering: False)
    with pytest.raises(InvalidWitnessError, match=r"ordering of 3\^4$"):
        search_k34_reduced()


def test_every_witness_is_built_and_checked_in_finish():
    """search.py builds an Ordering and raises InvalidWitnessError in one
    place, _finish, so every search's witness takes the same path."""
    with open(search.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    builds, raises = [], []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "Ordering":
                    builds.append(owner)
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "InvalidWitnessError":
                    raises.append(owner)
    assert builds == ["_finish"]
    assert raises == ["_finish"]


def test_search_imports_no_instruction_layer():
    """The searches work on vertices alone; the instruction layer is only
    the tests' oracle for the reduced walk."""
    with open(search.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "hamming_radio." if node.level else ""
            if node.module:
                imported.add(base + node.module)
            else:  # from . import x
                imported.update(base + alias.name for alias in node.names)
    local = {name.split(".", 1)[1] for name in imported if name.startswith("hamming_radio.")}
    assert local == {"errors", "graphs", "verify"}


def test_oracles_import_no_private_name():
    """The oracles stay apart from the code they check: they take no private
    name from the package and nothing from the searches."""
    with open(oracles.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    taken = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hamming_radio")
        for alias in node.names
    ]
    assert taken
    assert [(module, name) for module, name in taken if name.startswith("_")] == []
    assert [name for module, name in taken if module == "hamming_radio.search"] == []


def test_reduced_search_budget_determinism():
    config = SearchConfig(node_budget=200_000)
    a = search_k34_reduced(config)
    b = search_k34_reduced(config)
    assert a.status is SearchStatus.BUDGET_EXCEEDED
    assert a.nodes_explored == 200_001
    assert (a.nodes_explored, a.max_depth_reached) == (b.nodes_explored, b.max_depth_reached)
    assert 2 < a.max_depth_reached <= 81


def test_reduced_search_randomized_reproducible():
    config = SearchConfig(node_budget=50_000, seed=7)
    a = search_k34_reduced(config)
    b = search_k34_reduced(config)
    assert (a.status, a.nodes_explored, a.max_depth_reached) == (
        b.status,
        b.nodes_explored,
        b.max_depth_reached,
    )


def test_searches_agree_with_brute_force_sample():
    # the full sweep over every spec with at most 9 vertices runs in the
    # acceptance suite; keep a quick three-spec slice here
    for factors in ([(2, 2)], [(3, 1)], [(2, 1), (3, 1)]):
        spec = make_graph_spec(factors)
        brute = brute_force_radio_graceful(spec)
        searched = search_ordering(spec)
        assert brute.graceful == (searched.status is SearchStatus.FOUND)
