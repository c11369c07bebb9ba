"""Orderings, labelings and the row-window form of the radio condition.

An ordering lists vertices as rows v^1..v^N.  Labeling row i with the number i
is a consecutive radio labeling exactly when no two rows repeat and, for every
gap k below the diameter, rows i and i-k share at most k-1 coordinates.  All
row and column indices in this module are 1-based to match that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RepetitionError, ShapeError
from .graphs import GraphSpec, Vertex, shared_coordinates
from .perms import Permutation


@dataclass(frozen=True)
class Ordering:
    """A list of exactly N rows, each a valid vertex.  Rows may repeat; the
    checks below report repetition rather than refusing to represent it."""

    spec: GraphSpec
    rows: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.spec.validate_vertex(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.spec.num_vertices:
            raise ShapeError(
                f"ordering has {len(rows)} rows, spec needs {self.spec.num_vertices}"
            )

    def row(self, i: int) -> Vertex:
        """1-based row access."""
        if not 1 <= i <= len(self.rows):
            raise ShapeError(f"row {i} out of range 1..{len(self.rows)}")
        return self.rows[i - 1]


@dataclass(frozen=True)
class Labeling:
    """Assignment of positive integer labels to vertices."""

    spec: GraphSpec
    assignment: dict[Vertex, int]

    def __post_init__(self) -> None:
        clean = {}
        for v, label in self.assignment.items():
            v = self.spec.validate_vertex(v)
            if label < 1:
                raise ShapeError(f"label {label} for {v} is not a positive integer")
            clean[v] = int(label)
        object.__setattr__(self, "assignment", clean)

    @property
    def is_total(self) -> bool:
        return len(self.assignment) == self.spec.num_vertices


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


@dataclass(frozen=True, order=True)
class NonConsecutiveViolation:
    first_gap: int

    def __str__(self) -> str:
        return f"label {self.first_gap} is never used"


def repetition_violations(rows: tuple[Vertex, ...]) -> list[RepetitionViolation]:
    """Every pair of row indices holding the same vertex."""
    seen: dict[Vertex, list[int]] = {}
    for i, v in enumerate(rows, start=1):
        seen.setdefault(v, []).append(i)
    out: list[RepetitionViolation] = []
    for positions in seen.values():
        for a_idx in range(len(positions)):
            for b_idx in range(a_idx + 1, len(positions)):
                out.append(RepetitionViolation(positions[a_idx], positions[b_idx]))
    return out


def check_ordering(ordering: Ordering) -> list:
    """All violations of the row-window radio condition, plus repeated row pairs.

    Empty result means the ordering induces a consecutive radio labeling
    (row number = label).
    """
    t = ordering.spec.diameter
    rows = ordering.rows
    out: list = []
    for i in range(2, len(rows) + 1):
        for k in range(1, min(t - 1, i - 1) + 1):
            shared = shared_coordinates(rows[i - 1], rows[i - k - 1])
            if shared >= k:
                out.append(RadioViolation(row=i, gap=k, shared=shared))
    out.extend(repetition_violations(rows))
    return out


def is_valid_ordering(ordering: Ordering) -> bool:
    """True iff check_ordering finds no violation."""
    return not check_ordering(ordering)


def _minimal_label(lower: int, intervals: list[tuple[int, int]]) -> int:
    """Smallest x >= lower avoiding every open interval (lo, hi)."""
    x = lower
    for lo, hi in sorted(intervals):
        if lo < x < hi:
            x = hi
    return x


def induced_labeling(ordering: Ordering) -> Labeling:
    """Greedy labeling: row 1 gets 1, each later row gets the least label above
    the previous one that keeps every earlier pair radio-compatible."""
    rows = ordering.rows
    if len(set(rows)) != len(rows):
        dup = next(v for v in rows if rows.count(v) > 1)
        raise RepetitionError(f"vertex {dup} appears more than once")
    labels: list[int] = []
    for i, v in enumerate(rows):
        if i == 0:
            labels.append(1)
            continue
        intervals = []
        for j in range(i):
            # |x - f(v^j)| >= t + 1 - d(v, v^j), and t + 1 - d = shared + 1
            margin = shared_coordinates(v, rows[j]) + 1
            intervals.append((labels[j] - margin, labels[j] + margin))
        labels.append(_minimal_label(labels[-1] + 1, intervals))
    return Labeling(ordering.spec, dict(zip(rows, labels)))


def position_labeling(ordering: Ordering) -> Labeling:
    """Label each row by its row number.  Needs pairwise-distinct rows."""
    rows = ordering.rows
    if len(set(rows)) != len(rows):
        raise RepetitionError("ordering repeats a vertex; row numbers do not form a labeling")
    return Labeling(ordering.spec, {v: i for i, v in enumerate(rows, start=1)})


def is_consecutive(labeling: Labeling) -> bool:
    """True iff the labels are exactly 1..N with every vertex labeled."""
    n = labeling.spec.num_vertices
    values = sorted(labeling.assignment.values())
    return len(labeling.assignment) == n and values == list(range(1, n + 1))


def verify_radio(labeling: Labeling) -> list[RadioViolation]:
    """Independent all-pairs check of |f(u) - f(v)| >= diameter + 1 - d(u, v).

    Violations are reported against the larger label: gap = label difference,
    shared = shared coordinate count.
    """
    t = labeling.spec.diameter
    items = sorted(labeling.assignment.items(), key=lambda kv: kv[1])
    out: list[RadioViolation] = []
    for a in range(len(items)):
        u, fu = items[a]
        for b in range(a + 1, len(items)):
            v, fv = items[b]
            shared = shared_coordinates(u, v)
            if fv - fu < shared + 1:
                out.append(RadioViolation(row=fv, gap=fv - fu, shared=shared))
    return out


def check_labeling(labeling: Labeling) -> list:
    """Radio violations plus a marker for the first missing label, if any."""
    out: list = list(verify_radio(labeling))
    if not is_consecutive(labeling):
        used = set(labeling.assignment.values())
        gap = 1
        while gap in used:
            gap += 1
        out.append(NonConsecutiveViolation(first_gap=gap))
    return out


def permute_column(ordering: Ordering, col: int, sigma: Permutation) -> Ordering:
    """Relabel the values of one 1-based column through sigma.

    This preserves every shared-coordinate count, so it maps valid orderings
    to valid orderings.
    """
    size = ordering.spec.column_size(col)
    if sigma.n != size:
        raise ShapeError(f"column {col} takes values 1..{size}, permutation is on 1..{sigma.n}")
    new_rows = tuple(
        row[: col - 1] + (sigma(row[col - 1]),) + row[col:] for row in ordering.rows
    )
    return Ordering(ordering.spec, new_rows)
