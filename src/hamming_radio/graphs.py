"""Hamming graph model.

A graph is a Cartesian product of complete-graph powers K_n1^t1 x ... x K_nm^tm
with strictly increasing factor sizes n1 < ... < nm.  Vertices are tuples of
1-based coordinates, one per column; column j of a K_n^t factor takes values
in {1..n}.  Distance between vertices is the number of coordinates where they
differ, so the diameter equals the total number of columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import eq
from typing import Iterable, Iterator

from .errors import ShapeError, SpecError

Vertex = tuple[int, ...]


@dataclass(frozen=True)
class Factor:
    size: int    # order of the complete graph K_n
    copies: int  # how many columns this factor contributes


def _as_factor(f) -> Factor:
    """A Factor as given, or one built from a (size, copies) pair."""
    if isinstance(f, Factor):
        return f
    try:
        size, copies = f
    except (TypeError, ValueError):  # not iterable, or not exactly two entries
        raise SpecError(f"factor {f!r} is not a Factor or a (size, copies) pair") from None
    return Factor(size, copies)


@dataclass(frozen=True)
class GraphSpec:
    """Immutable description of a Hamming graph.

    `factors` is a tuple of Factor(size, copies) with strictly increasing
    sizes.  Derived quantities: `diameter` (total column count), `num_vertices`
    (product of size**copies), and `cumulative_widths` (running column counts
    after each factor).
    """

    factors: tuple[Factor, ...]

    def __str__(self) -> str:
        """The spec-string form, e.g. '3^4 x 4^7'."""
        return " x ".join(f"{f.size}^{f.copies}" for f in self.factors)

    def __post_init__(self) -> None:
        factors = tuple(map(_as_factor, self.factors))
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise SpecError("spec needs at least one factor")
        for f in factors:
            if type(f.size) is not int or type(f.copies) is not int:  # not bool, not 3.9
                raise SpecError(f"factor {f.size!r}^{f.copies!r} needs integer size and copies")
            if f.size < 2:
                raise SpecError(f"complete factor needs size >= 2, got {f.size}")
            if f.copies < 1:
                raise SpecError(f"factor K_{f.size} needs at least one copy, got {f.copies}")
        sizes = [f.size for f in factors]
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise SpecError(f"factor sizes must be strictly increasing, got {sizes}")

    @property
    def diameter(self) -> int:
        return sum(f.copies for f in self.factors)

    @property
    def num_vertices(self) -> int:
        return math.prod(f.size ** f.copies for f in self.factors)

    def has_vertex_count(self, n: int) -> bool:
        """num_vertices == n, computing num_vertices only when it is at most n."""
        return not self.has_more_vertices_than(n) and self.num_vertices == n

    def has_more_vertices_than(self, cap: int) -> bool:
        """num_vertices > cap, decided without computing num_vertices, whose
        cost grows faster than its exponents: every factor has size >= 2, so
        no power needs an exponent above cap.bit_length()."""
        n = 1
        for f in self.factors:
            n *= f.size ** min(f.copies, cap.bit_length())
            if n > cap:
                return True
        return False

    @property
    def num_vertices_text(self) -> str:
        """num_vertices for messages; past 30 digits the product of factor
        powers, since str() refuses an integer of more than 4,300 digits."""
        return str(self) if self.has_more_vertices_than(10**30 - 1) else str(self.num_vertices)

    @property
    def cumulative_widths(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(f.copies for f in self.factors))

    def column_size(self, col: int) -> int:
        """Alphabet size of 1-based column `col`."""
        if type(col) is not int:  # not bool, not 1.0
            raise ShapeError(f"column {col!r} is not an integer")
        if col < 1 or col > self.diameter:
            raise ShapeError(f"column {col} out of range 1..{self.diameter}")
        return self.column_sizes()[col - 1]

    def column_sizes(self) -> tuple[int, ...]:
        out: list[int] = []
        for f in self.factors:
            out.extend([f.size] * f.copies)
        return tuple(out)

    def validate_vertex(self, v: Iterable[int]) -> Vertex:
        """v as a tuple; a ShapeError names its first fault, column by column."""
        v = tuple(v)
        if len(v) != self.diameter:
            raise ShapeError(f"vertex {v} has {len(v)} coordinates, expected {self.diameter}")
        for coord, size in zip(v, self.column_sizes()):
            if type(coord) is not int:  # not bool, not a float such as 1.5
                raise ShapeError(f"coordinate {coord!r} is not an integer in vertex {v}")
            if not 1 <= coord <= size:
                raise ShapeError(f"coordinate {coord} outside 1..{size} in vertex {v}")
        return v

    def vertex_index(self, v: Iterable[int]) -> int:
        """The position of v in enumerate_vertices order: the mixed-radix
        number with digits coordinate - 1, column 1 most significant."""
        index = 0
        for size, coord in zip(self.column_sizes(), self.validate_vertex(v)):
            index = index * size + coord - 1
        return index

    def constant_vertex(self, value: int) -> Vertex:
        """The vertex with every coordinate equal to `value` (must fit every column)."""
        return self.validate_vertex((value,) * self.diameter)


def require_spec(spec: object) -> None:
    if not isinstance(spec, GraphSpec):
        raise SpecError(f"spec {spec!r} is not a GraphSpec")


make_graph_spec = GraphSpec  # public name, kept for existing callers


def distance(u: Vertex, v: Vertex) -> int:
    """Number of coordinates where u and v differ."""
    if len(u) != len(v):
        raise ShapeError(f"vertices have different lengths: {len(u)} vs {len(v)}")
    return sum(a != b for a, b in zip(u, v))


def shared_coordinates(u: Vertex, v: Vertex) -> int:
    """Number of coordinates where u and v agree (diameter minus distance)."""
    if len(u) != len(v):
        raise ShapeError(f"vertices have different lengths: {len(u)} vs {len(v)}")
    return sum(map(eq, u, v))


def enumerate_vertices(spec: GraphSpec) -> Iterator[Vertex]:
    """All vertices in lexicographic coordinate order, lazily."""
    require_spec(spec)
    ranges = [range(1, size + 1) for size in spec.column_sizes()]
    return itertools.product(*ranges)
