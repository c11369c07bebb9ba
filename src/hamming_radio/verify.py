"""Orderings, labelings and the row-window form of the radio condition.

An ordering lists vertices as rows v^1..v^N.  Labeling row i with the number i
is a consecutive radio labeling exactly when no two rows repeat and, for every
gap k below the diameter, rows i and i-k share at most k-1 coordinates.  All
row and column indices in this module are 1-based to match that convention.
One kernel, _window_masks, compares all rows at one gap at a time: it packs
each column into one int, a fixed-width field per row, and reads from an XOR
of the column with itself shifted by the gap which rows agree with the row
that far back, as in the shift-and string matching of Baeza-Yates and Gonnet
(CACM 1992).  check_ordering and bounds.boundary_structure_check read its
masks, and the greedy induced_labeling reads only check_ordering's window
violations.  verify_radio works on labels instead, for any labeling, and
reads only the pairs whose labels differ by less than t: every other pair
meets the condition.
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter
from collections.abc import Callable, Iterator, Mapping
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
    """Every pair of row indices holding the same vertex, by the vertex's
    first row, then by row."""
    if len(set(rows)) == len(rows):
        return []
    repeated = {v for v, count in Counter(rows).items() if count > 1}
    seen: dict[Vertex, list[int]] = {}
    for i, v in enumerate(rows, start=1):
        if v in repeated:
            seen.setdefault(v, []).append(i)
    return [
        RepetitionViolation(a, b)
        for positions in seen.values()
        for a, b in itertools.combinations(positions, 2)
    ]


# field width in bits -> the struct code of a little-endian unsigned field
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _window_masks(ordering: Ordering, depth: int) -> Iterator[tuple[int, list[int], Callable]]:
    """Yield (gap, at_least, rows_in) for each gap 1..min(depth, N - 1).

    at_least[m], for m <= gap, is a mask of the rows i > gap sharing m or
    more coordinates with row i - gap, and rows_in(mask) lists the 1-based
    rows in a mask in increasing order.  Each column is packed with the
    fewest of 8, 16, 32 or 64 bits per row that hold the largest column
    size, one width for all columns so that their masks line up, and memory
    is O(N t) fields whatever the sizes.  For each column,
    the packed column XOR itself shifted by the gap has a zero field exactly
    where a row agrees with the row gap back; adding 0x7F..F to each field's
    low bits carries into its top bit unless the field is zero, so `same`,
    the rows that agree, costs a few whole-int operations.  The rows before
    the gap meet a shifted-in 0, never a value, so they agree nowhere.
    Columns then raise the counts as in search._at_least:
    at_least[m] |= at_least[m - 1] & same.
    """
    rows = ordering.rows
    n = len(rows)
    top = max(f.size for f in ordering.spec.factors)
    width = min(w for w in _FIELD_CODES if top >> w == 0)
    step = width // 8
    high = int.from_bytes((bytes(step - 1) + b"\x80") * n, "little")  # each field's top bit
    low = high - int.from_bytes((b"\x01" + bytes(step - 1)) * n, "little")  # the bits below it
    # each column as one int, row 1 in the lowest field
    layout = f"<{n}{_FIELD_CODES[width]}"
    columns = [int.from_bytes(struct.pack(layout, *column), "little") for column in zip(*rows)]

    def rows_in(mask: int) -> list[int]:
        if not mask:
            return []
        flags = mask.to_bytes(n * step, "little")[step - 1 :: step]  # 0x80 or 0 per row
        out = []
        i = flags.find(0x80)
        while i >= 0:
            out.append(i + 1)
            i = flags.find(0x80, i + 1)
        return out

    for gap in range(1, min(depth, n - 1) + 1):
        shift = gap * width
        at_least = [high >> shift << shift] + [0] * gap
        for j, column in enumerate(columns):
            moved = column ^ (column << shift)
            same = high & ~(((moved & low) + low) | moved)
            for m in range(min(j + 1, gap), 0, -1):
                at_least[m] |= at_least[m - 1] & same
        yield gap, at_least, rows_in


def _window_violations(ordering: Ordering) -> list[tuple[int, int, int]]:
    """(row, gap, shared) of every window violation, by row then gap; only the
    rows the kernel flags have their shared coordinates counted."""
    rows = ordering.rows
    found = sorted(
        (i, gap)
        for gap, at_least, rows_in in _window_masks(ordering, ordering.spec.diameter - 1)
        for i in rows_in(at_least[gap])
    )
    return [(i, gap, sum(map(eq, rows[i - 1], rows[i - 1 - gap]))) for i, gap in found]


def check_ordering(ordering: Ordering) -> list:
    """All violations of the row-window radio condition, by row then gap,
    then repeated row pairs.

    Empty result means the ordering induces a consecutive radio labeling
    (row number = label).
    """
    require_ordering(ordering)
    return [
        RadioViolation(row, gap, shared) for row, gap, shared in _window_violations(ordering)
    ] + repetition_violations(ordering.rows)


def is_valid_ordering(ordering: Ordering) -> bool:
    """True iff check_ordering finds no violation."""
    return not check_ordering(ordering)


def induced_labeling(ordering: Ordering) -> Labeling:
    """Greedy labeling: row 1 gets 1, each later row gets the least label above
    the previous one that keeps every earlier pair radio-compatible.

    Pairs need |f(u) - f(v)| >= t + 1 - d(u, v) = shared + 1, so row i takes
    max(label_{i-1} + 1, label_{i-k} + shared + 1 over k).  Labels rise by at
    least 1 per row, so label_{i-1} - label_{i-k} >= k - 1, and the row k
    back can lift row i above label_{i-1} + 1 only when it shares k or more
    coordinates: only check_ordering's window violations bind.  For k >= t
    that never happens, as distinct rows share at most t - 1 coordinates, so
    the window to depth t - 1 is exact.
    """
    require_ordering(ordering)
    rows = ordering.rows
    if len(set(rows)) != len(rows):
        dup = rows[repetition_violations(rows)[0].row_a - 1]
        raise RepetitionError(f"vertex {dup} appears more than once")
    binding: dict[int, list[tuple[int, int]]] = {}
    for row, gap, shared in _window_violations(ordering):
        binding.setdefault(row, []).append((gap, shared))
    labels = [0]  # labels[i] is row i's label
    for i in range(1, len(rows) + 1):
        label = labels[-1] + 1
        for gap, shared in binding.get(i, ()):
            label = max(label, labels[i - gap] + shared + 1)
        labels.append(label)
    return Labeling(ordering.spec, dict(zip(rows, labels[1:])))


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
    labelings that are not consecutive and stays apart from _window_masks
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
