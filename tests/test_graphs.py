import ast
from pathlib import Path

import pytest

from hamming_radio import graphs
from hamming_radio.errors import ShapeError, SpecError
from hamming_radio.graphs import (
    Factor,
    distance,
    enumerate_vertices,
    make_graph_spec,
    shared_coordinates,
)

from .oracles import oracle_distance, oracle_shared, seeded


def test_single_factor_derived_quantities():
    spec = make_graph_spec([(3, 4)])
    assert spec.diameter == 4
    assert spec.num_vertices == 81
    assert spec.cumulative_widths == (4,)
    assert spec.column_sizes() == (3, 3, 3, 3)
    assert spec.factors == (Factor(3, 4),)


def test_product_derived_quantities():
    spec = make_graph_spec([(3, 4), (4, 7)])
    assert spec.diameter == 11
    assert spec.num_vertices == 3**4 * 4**7
    assert spec.cumulative_widths == (4, 11)
    assert spec.column_size(1) == 3
    assert spec.column_size(4) == 3
    assert spec.column_size(5) == 4
    assert spec.column_size(11) == 4
    with pytest.raises(ShapeError):
        spec.column_size(0)
    with pytest.raises(ShapeError):
        spec.column_size(12)


@pytest.mark.parametrize(
    "col,message",
    [
        (1.0, "column 1.0 is not an integer"),
        (True, "column True is not an integer"),
        ("1", "column '1' is not an integer"),
    ],
)
def test_column_size_takes_an_exact_integer(col, message):
    with pytest.raises(ShapeError) as err:
        make_graph_spec([(3, 4), (4, 7)]).column_size(col)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "factors",
    [
        [],
        [(1, 2)],
        [(3, 0)],
        [(3, 1), (3, 2)],
        [(4, 1), (3, 1)],
        [(3.9, 2.5)],
        [Factor(3.5, 2)],
        [(3, True)],
        [(3, 2, 7)],
        [(3,)],
        [3],
    ],
)
def test_bad_specs_rejected(factors):
    with pytest.raises(SpecError):
        make_graph_spec(factors)


def test_vertex_validation():
    spec = make_graph_spec([(2, 1), (3, 1)])
    assert spec.validate_vertex([2, 3]) == (2, 3)
    with pytest.raises(ShapeError):
        spec.validate_vertex((1, 2, 3))
    with pytest.raises(ShapeError):
        spec.validate_vertex((3, 1))  # column 1 only holds 1..2
    with pytest.raises(ShapeError):
        spec.validate_vertex((1, 0))
    with pytest.raises(ShapeError):
        spec.validate_vertex((True, 1))  # a bool is not the coordinate 1
    assert spec.constant_vertex(2) == (2, 2)
    with pytest.raises(ShapeError):
        spec.constant_vertex(3)


@pytest.mark.parametrize(
    "vertex,message",
    [
        ((1, 3, 4), "coordinate 4 outside 1..3 in vertex (1, 3, 4)"),
        ((3, 0, 4), "coordinate 3 outside 1..2 in vertex (3, 0, 4)"),  # the first bad column
        ((1, 2), "vertex (1, 2) has 2 coordinates, expected 3"),
        ((1, 1.5, 1), "coordinate 1.5 is not an integer in vertex (1, 1.5, 1)"),
    ],
)
def test_vertex_validation_messages_are_pinned(vertex, message):
    with pytest.raises(ShapeError) as caught:
        make_graph_spec([(2, 1), (3, 2)]).validate_vertex(vertex)
    assert str(caught.value) == message


def test_distance_and_shared_match_oracle():
    spec = make_graph_spec([(2, 2), (3, 2), (5, 1)])
    rng = seeded(11)
    sizes = spec.column_sizes()
    for _ in range(300):
        u = tuple(rng.randint(1, s) for s in sizes)
        v = tuple(rng.randint(1, s) for s in sizes)
        assert distance(u, v) == oracle_distance(u, v)
        assert shared_coordinates(u, v) == oracle_shared(u, v)
        assert distance(u, v) + shared_coordinates(u, v) == spec.diameter


def test_distance_rejects_length_mismatch():
    with pytest.raises(ShapeError):
        distance((1, 2), (1, 2, 3))
    with pytest.raises(ShapeError):
        shared_coordinates((1,), (1, 1))


def test_enumerate_vertices_lexicographic_and_complete():
    spec = make_graph_spec([(2, 1), (3, 1)])
    vertices = list(enumerate_vertices(spec))
    assert vertices == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]

    big = make_graph_spec([(3, 3)])
    all_v = list(enumerate_vertices(big))
    assert len(all_v) == big.num_vertices
    assert len(set(all_v)) == big.num_vertices
    assert all_v == sorted(all_v)

    for product in (spec, big, make_graph_spec([(2, 2), (3, 1), (5, 2)])):
        vertices = list(enumerate_vertices(product))
        assert [product.vertex_index(v) for v in vertices] == list(range(len(vertices)))
    with pytest.raises(ShapeError):
        spec.vertex_index((3, 1))


def test_vertex_count_is_read_only_in_graphs_and_after_the_search_cap():
    """GraphSpec makes every vertex-count decision (has_vertex_count,
    has_more_vertices_than, num_vertices_text).  Outside graphs.py only
    search_ordering reads num_vertices, once its mask cap has admitted the spec."""
    reads, caps = [], {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "num_vertices":
                reads.append((module, scope, child.lineno))
            if isinstance(child, ast.Attribute) and child.attr == "has_more_vertices_than":
                caps.setdefault((module, scope), child.lineno)
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, module, scope + (child.name,) if named else scope)

    for path in sorted(Path(graphs.__file__).parent.glob("*.py")):
        if path.name != "graphs.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, ())
    assert [(module, scope) for module, scope, _ in reads] == [("search.py", ("search_ordering",))]
    assert all(line > caps[module, scope] for module, scope, line in reads)


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(
            lambda: enumerate_vertices("3^2"),
            SpecError,
            "spec '3^2' is not a GraphSpec",
            id="vertices-of-a-string",
        ),
    ],
)
def test_foreign_arguments_raise_the_layer_errors(call, error, message):
    """Arguments of the wrong type get the layer's own error, not an AttributeError."""
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
