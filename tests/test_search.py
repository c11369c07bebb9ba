import itertools
import tracemalloc

import pytest

from hamming_radio.errors import InvalidWitnessError, SpecError, TooLargeError
from hamming_radio.graphs import make_graph_spec
from hamming_radio.search import (
    SearchConfig,
    SearchStatus,
    _k34_successor_table,
    brute_force_radio_graceful,
    search_k34_reduced,
    search_ordering,
)
from hamming_radio.verify import check_ordering, is_valid_ordering

from .oracles import oracle_search_ordering, seeded


def test_config_validation():
    with pytest.raises(SpecError):
        SearchConfig(node_budget=0)
    for budget in (0, float("nan"), float("inf")):
        with pytest.raises(SpecError):
            SearchConfig(time_budget=budget)
    with pytest.raises(SpecError):
        SearchConfig(randomize=True)
    SearchConfig(randomize=True, seed=1)
    with pytest.raises(SpecError):
        search_k34_reduced(SearchConfig(symmetry_fixing=False))


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
    with pytest.raises(InvalidWitnessError):
        search_ordering(make_graph_spec([(3, 2)]))


def test_search_exhausts_k2_2():
    outcome = search_ordering(make_graph_spec([(2, 2)]))
    assert outcome.status is SearchStatus.EXHAUSTED_NO_SOLUTION
    assert outcome.ordering is None


def test_search_without_symmetry_agrees():
    spec = make_graph_spec([(2, 2)])
    free = search_ordering(spec, SearchConfig(symmetry_fixing=False))
    assert free.status is SearchStatus.EXHAUSTED_NO_SOLUTION
    two = make_graph_spec([(2, 1)])
    assert search_ordering(two, SearchConfig(symmetry_fixing=False)).status is SearchStatus.FOUND


def test_search_vertex_cap():
    with pytest.raises(TooLargeError):
        search_ordering(make_graph_spec([(3, 4)]), max_vertices=80)


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
        ([(3, 3)], {"randomize": True, "seed": 42}, ("found", 170, 27)),
        ([(3, 3)], {"randomize": True, "seed": 5}, ("found", 398, 27)),
        # factors None: the reduced 3^4 search
        (None, {"node_budget": 200_000}, ("budget exceeded", 200_001, 76)),
        (None, {"node_budget": 50_000, "randomize": True, "seed": 7}, ("budget exceeded", 50_001, 73)),
        # 4,096 vertices: the former per-candidate scan took about 40 s for this row on a 2-core VM
        ([(4, 6)], {"node_budget": 20_000}, ("budget exceeded", 20_001, 3_409)),
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
    for (budget, seed), symmetry in itertools.product(runs, (True, False)):
        config = SearchConfig(
            node_budget=budget, seed=seed, randomize=seed is not None, symmetry_fixing=symmetry
        )
        outcome = search_ordering(spec, config)
        rows = outcome.ordering.rows if outcome.ordering else None
        got = (outcome.status.value, outcome.nodes_explored, outcome.max_depth_reached, rows)
        assert got == oracle_search_ordering(sizes, budget, seed, symmetry), (budget, seed, symmetry)


@pytest.mark.parametrize("factors,budget", [([(4, 6)], 5_000), ([(4, 7)], 3_000)])
def test_generic_search_memory_is_flat(factors, budget):
    """Masks are kept for the last t - 1 rows and one spare only, never per
    vertex or per suspended level.  Both runs dive about 3,000 rows deep; a
    per-vertex mask cache peaks near 12 MiB on 4^6, and an N-bit mask held by
    every suspended level near 9 MiB on 4^7 (16,384 vertices)."""
    tracemalloc.start()
    try:
        outcome = search_ordering(make_graph_spec(factors), SearchConfig(node_budget=budget))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.nodes_explored == budget + 1
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_randomized_search_reproducible():
    spec = make_graph_spec([(3, 2)])
    config = SearchConfig(randomize=True, seed=42)
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


def test_successor_table_closed_form():
    """Each transition fixes the chosen column and moves every other
    coordinate to the unique value differing from both predecessors."""
    vertices, index, table = _k34_successor_table()
    rng = seeded(401)
    pairs = 0
    while pairs < 200:
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        entry = table[index[u]][index[v]]
        if any(a == b for a, b in zip(u, v)):
            assert entry is None
            continue
        pairs += 1
        for col in range(4):
            w = vertices[entry[col]]
            for j in range(4):
                if j == col:
                    assert w[j] == u[j]
                else:
                    assert w[j] == 6 - u[j] - v[j]


def test_successor_table_built_once():
    _k34_successor_table.cache_clear()
    config = SearchConfig(node_budget=10)
    search_k34_reduced(config)
    search_k34_reduced(config)
    assert _k34_successor_table.cache_info().misses == 1
    vertices, index, table = _k34_successor_table()
    with pytest.raises(TypeError):
        table[0] = None  # shared by every search, so read-only
    with pytest.raises(TypeError):
        index[vertices[0]] = 1


def test_reduced_search_budget_determinism():
    config = SearchConfig(node_budget=200_000)
    a = search_k34_reduced(config)
    b = search_k34_reduced(config)
    assert a.status is SearchStatus.BUDGET_EXCEEDED
    assert a.nodes_explored == 200_001
    assert (a.nodes_explored, a.max_depth_reached) == (b.nodes_explored, b.max_depth_reached)
    assert 2 < a.max_depth_reached <= 81


def test_reduced_search_randomized_reproducible():
    config = SearchConfig(node_budget=50_000, randomize=True, seed=7)
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
