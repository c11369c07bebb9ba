"""Orderings, labelings and the row-window form of the radio condition.

An ordering lists vertices as rows v^1..v^N.  Labeling row i with the number i
is a consecutive radio labeling exactly when no two rows repeat and, for every
gap k below the diameter, rows i and i-k share at most k-1 coordinates.  All
row and column indices in this module are 1-based to match that convention.
One kernel, _window_shares, counts the coordinates each row shares with the
rows just above it; check_ordering, bounds.boundary_structure_check and the
greedy induced_labeling read only those counts, within t - 1 rows or fewer.
verify_radio works on labels instead, for any labeling, and reads only the
pairs whose labels differ by less than t: every other pair meets the condition.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from operator import eq

from .errors import RepetitionError, ShapeError
from .graphs import GraphSpec, Vertex, require_spec, shared_coordinates
from .perms import Permutation, require_permutation


@dataclass(frozen=True)
class Ordering:
    """A list of exactly N rows, each a valid vertex.  Rows may repeat; the
    checks below report repetition rather than refusing to represent it."""

    spec: GraphSpec
    rows: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        require_spec(self.spec)
        n = len(self.rows)
        if not self.spec.has_vertex_count(n):
            raise ShapeError(f"ordering has {n} rows, spec needs {self.spec.num_vertices_text}")
        object.__setattr__(self, "rows", tuple(self.spec.validate_vertex(r) for r in self.rows))


def require_ordering(ordering: object) -> None:
    if not isinstance(ordering, Ordering):
        raise ShapeError(f"ordering {ordering!r} is not an Ordering")


@dataclass(frozen=True)
class Labeling:
    """Assignment of positive integer labels to vertices."""

    spec: GraphSpec
    assignment: dict[Vertex, int]

    def __post_init__(self) -> None:
        require_spec(self.spec)
        if not isinstance(self.assignment, Mapping):
            raise ShapeError(f"assignment {self.assignment!r} is not a mapping of vertices to labels")
        clean = {}
        for v, label in self.assignment.items():
            v = self.spec.validate_vertex(v)
            if type(label) is not int or label < 1:  # not bool, not a float such as 1.9
                raise ShapeError(f"label {label!r} for {v} is not a positive integer")
            clean[v] = label
        object.__setattr__(self, "assignment", clean)

    @property
    def is_total(self) -> bool:
        return self.spec.has_vertex_count(len(self.assignment))


def require_labeling(labeling: object) -> None:
    if not isinstance(labeling, Labeling):
        raise ShapeError(f"labeling {labeling!r} is not a Labeling")


@dataclass(frozen=True, order=True)
class RadioViolation:
    """Rows `row` and `row - gap` agree on `shared` coordinates; the radio
    condition allows at most gap - 1."""

    row: int
    gap: int
    shared: int

    def __str__(self) -> str:
        return (
            f"rows {self.row - self.gap} and {self.row} (gap {self.gap}) share "
            f"{self.shared} coordinates, at most {self.gap - 1} allowed"
        )


@dataclass(frozen=True, order=True)
class RepetitionViolation:
    row_a: int
    row_b: int

    def __str__(self) -> str:
        return f"rows {self.row_a} and {self.row_b} are the same vertex"


def repetition_violations(rows: tuple[Vertex, ...]) -> list[RepetitionViolation]:
    """Every pair of row indices holding the same vertex."""
    seen: dict[Vertex, list[int]] = {}
    for i, v in enumerate(rows, start=1):
        seen.setdefault(v, []).append(i)
    return [
        RepetitionViolation(a, b)
        for positions in seen.values()
        for a, b in itertools.combinations(positions, 2)
    ]


def _window_shares(rows: tuple[Vertex, ...], depth: int):
    """Yield each row i >= 2 and its shares with rows i-1, ..., i-min(depth, i-1)."""
    for i in range(1, len(rows)):
        v = rows[i]
        yield i + 1, [sum(map(eq, v, rows[i - k])) for k in range(1, min(depth, i) + 1)]


def check_ordering(ordering: Ordering) -> list:
    """All violations of the row-window radio condition, plus repeated row pairs.

    Empty result means the ordering induces a consecutive radio labeling
    (row number = label).
    """
    require_ordering(ordering)
    return [
        RadioViolation(row=i, gap=k, shared=shared)
        for i, shares in _window_shares(ordering.rows, ordering.spec.diameter - 1)
        for k, shared in enumerate(shares, start=1)
        if shared >= k
    ] + repetition_violations(ordering.rows)


def is_valid_ordering(ordering: Ordering) -> bool:
    """True iff check_ordering finds no violation."""
    return not check_ordering(ordering)


def induced_labeling(ordering: Ordering) -> Labeling:
    """Greedy labeling: row 1 gets 1, each later row gets the least label above
    the previous one that keeps every earlier pair radio-compatible.

    Pairs need |f(u) - f(v)| >= t + 1 - d(u, v) = shared + 1, so row i takes
    max(label_{i-1} + 1, label_{i-k} + shared + 1 over k).  Labels rise by at
    least 1 per row and distinct rows share at most t - 1 coordinates, so for
    k >= t that bound is at most label_{i-k} + t <= label_{i-1} + 1: the
    window to depth t - 1 is exact.
    """
    require_ordering(ordering)
    rows = ordering.rows
    if len(set(rows)) != len(rows):
        dup = rows[repetition_violations(rows)[0].row_a - 1]
        raise RepetitionError(f"vertex {dup} appears more than once")
    labels = [1]
    for _, shares in _window_shares(rows, ordering.spec.diameter - 1):
        label = labels[-1] + 1
        for k, shared in enumerate(shares, start=1):
            label = max(label, labels[-k] + shared + 1)
        labels.append(label)
    return Labeling(ordering.spec, dict(zip(rows, labels)))


def position_labeling(ordering: Ordering) -> Labeling:
    """Label each row by its row number.  Needs pairwise-distinct rows."""
    require_ordering(ordering)
    rows = ordering.rows
    if len(set(rows)) != len(rows):
        raise RepetitionError("ordering repeats a vertex; row numbers do not form a labeling")
    return Labeling(ordering.spec, {v: i for i, v in enumerate(rows, start=1)})


def is_consecutive(labeling: Labeling) -> bool:
    """True iff the labels are exactly 1..N with every vertex labeled."""
    require_labeling(labeling)
    n = len(labeling.assignment)
    return labeling.is_total and sorted(labeling.assignment.values()) == list(range(1, n + 1))


def verify_radio(labeling: Labeling) -> list[RadioViolation]:
    """Independent all-pairs check of |f(u) - f(v)| >= diameter + 1 - d(u, v).

    It reads pairs of labels, not a window of rows, so it also covers
    labelings that are not consecutive and stays apart from _window_shares
    as its cross-check.  With the items sorted by label, it compares each
    item only with the later ones whose label exceeds its own by less than
    the diameter t.  That is exact: distinct vertices share at most t - 1
    coordinates, so a label gap of t or more always meets the condition.
    Equal labels (gap 0) are always compared.  Violations are reported
    against the larger label: gap = label difference, shared = shared
    coordinate count.
    """
    require_labeling(labeling)
    items = sorted(labeling.assignment.items(), key=lambda kv: kv[1])
    t = labeling.spec.diameter
    out: list[RadioViolation] = []
    for i, (u, fu) in enumerate(items):
        j = i + 1
        while j < len(items) and items[j][1] - fu < t:
            v, fv = items[j]
            shared = shared_coordinates(u, v)
            if fv - fu < shared + 1:
                out.append(RadioViolation(row=fv, gap=fv - fu, shared=shared))
            j += 1
    return out


def permute_column(ordering: Ordering, col: int, sigma: Permutation) -> Ordering:
    """Relabel the values of one 1-based column through sigma.

    This preserves every shared-coordinate count, so it maps valid orderings
    to valid orderings.
    """
    require_ordering(ordering)
    size = ordering.spec.column_size(col)
    require_permutation(sigma)
    if sigma.n != size:
        raise ShapeError(f"column {col} takes values 1..{size}, permutation is on 1..{sigma.n}")
    new_rows = tuple(
        row[: col - 1] + (sigma(row[col - 1]),) + row[col:] for row in ordering.rows
    )
    return Ordering(ordering.spec, new_rows)
