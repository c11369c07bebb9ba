"""Counting arguments that rule Hamming graphs out of radio gracefulness.

The key quantity counts, for a window of consecutive rows, how many columns
hold pairwise-distinct values.  Summing the forced losses of that count over a
factor of size n shows that once the factor's cumulative column count reaches
1 + n(n^2 - 1)/6, no consecutive radio labeling can exist.  At exactly
n(n^2 - 1)/6 columns the ordering is forced into a rigid shared-coordinate
pattern, and short exhaustive searches over canonical row segments can finish
the argument for specific graphs.  That search carries each column's top value
and tie flag down the rows, so no level's setup grows with column size or with
the number of rows placed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import eq

from .errors import NotAtBoundaryError, ShapeError, SpecError, TooLargeError
from .graphs import GraphSpec, Vertex, require_spec
from .search import SearchStatus, _depth_first
from .verify import Ordering, _window_masks, require_ordering

SEGMENT_NODE_CAP = 5_000_000  # most nodes segment_extension_search explores


def distinct_column_count(ordering: Ordering, row: int, depth: int) -> int:
    """Number of columns whose entries in rows row..row+depth are pairwise distinct."""
    require_ordering(ordering)
    rows = ordering.rows
    for name, value in (("row", row), ("depth", depth)):
        if type(value) is not int:  # not bool, not 1.5
            raise ShapeError(f"window {name} {value!r} is not an integer")
    if depth < 0:
        raise ShapeError(f"window depth must be >= 0, got {depth}")
    if row < 1 or row + depth > len(rows):
        raise ShapeError(f"window rows {row}..{row + depth} outside 1..{len(rows)}")
    return sum(len(set(values)) == len(values) for values in zip(*rows[row - 1 : row + depth]))


def factor_threshold(size: int) -> int:
    """Cumulative column count at which a factor of this size forbids gracefulness."""
    if type(size) is not int:  # not bool, not 3.0
        raise SpecError(f"factor size must be an integer, got {size!r}")
    if size < 2:
        raise SpecError(f"complete factor needs size >= 2, got {size}")
    return 1 + size * (size * size - 1) // 6


class Gracefulness(Enum):
    NOT_RADIO_GRACEFUL = "not radio graceful"
    UNKNOWN = "unknown"
    KNOWN_GRACEFUL_BY_CITATION = "known radio graceful (prior work)"


@dataclass(frozen=True)
class FactorBound:
    size: int
    cumulative_width: int
    threshold: int

    @property
    def ruled_out(self) -> bool:
        return self.cumulative_width >= self.threshold


@dataclass(frozen=True)
class BoundVerdict:
    spec: GraphSpec
    factors: tuple[FactorBound, ...]
    overall: Gracefulness


def bound_verdict(spec: GraphSpec) -> BoundVerdict:
    """Apply the cumulative-width threshold to every factor.

    Single factors K_n^t with t <= n and n >= 3 are marked graceful on the
    strength of published constructions; everything else not ruled out stays
    unknown.
    """
    require_spec(spec)
    entries = tuple(
        FactorBound(size=f.size, cumulative_width=width, threshold=factor_threshold(f.size))
        for f, width in zip(spec.factors, spec.cumulative_widths)
    )
    if any(e.ruled_out for e in entries):
        overall = Gracefulness.NOT_RADIO_GRACEFUL
    elif (
        len(spec.factors) == 1
        and spec.factors[0].size >= 3
        and 1 <= spec.factors[0].copies <= spec.factors[0].size
    ):
        overall = Gracefulness.KNOWN_GRACEFUL_BY_CITATION
    else:
        overall = Gracefulness.UNKNOWN
    return BoundVerdict(spec=spec, factors=entries, overall=overall)


@dataclass(frozen=True, order=True)
class BoundaryViolation:
    """Rows `row` and `row + gap` share `shared` coordinates where exactly
    gap - 1 is forced."""

    row: int
    gap: int
    shared: int

    def __str__(self) -> str:
        return (
            f"rows {self.row} and {self.row + self.gap} share {self.shared} "
            f"coordinates, boundary structure forces exactly {self.gap - 1}"
        )


def boundary_structure_check(ordering: Ordering) -> list[BoundaryViolation]:
    """Check the rigid structure forced at the threshold boundary.

    Applies when some factor of size n has cumulative width exactly
    n(n^2 - 1)/6; then every pair of rows at gap j <= n must share exactly
    j - 1 coordinates.  Raises NotAtBoundaryError when no factor qualifies.
    verify's window kernel gives, for each gap g up to the largest such n,
    the rows sharing g or more coordinates with the row g back and those
    sharing g - 1 or more; the rows in the first mask or outside the second
    are the violations, and only their shared coordinates are counted.
    Violations are sorted by their earlier row, then gap.
    """
    require_ordering(ordering)
    spec = ordering.spec
    boundary_sizes = [
        f.size
        for f, width in zip(spec.factors, spec.cumulative_widths)
        if width == factor_threshold(f.size) - 1
    ]
    if not boundary_sizes:
        raise NotAtBoundaryError(
            "no factor sits at its forced-structure boundary; nothing to check"
        )
    rows = ordering.rows
    return sorted(
        BoundaryViolation(i - gap, gap, sum(map(eq, rows[i - 1], rows[i - 1 - gap])))
        for gap, at_least, rows_in in _window_masks(ordering, max(boundary_sizes))
        for i in rows_in(at_least[gap] | (at_least[0] & ~at_least[gap - 1]))
    )


@dataclass(frozen=True)
class SegmentSearchResult:
    """Outcome of the canonical consecutive-segment search.

    extensible: a locally valid run of depth+1 consecutive rows exists
    (witness holds one).  Otherwise dead_depth d records that no canonical
    segment reaches row offset d: every valid ordering would need one, so the
    graph has no consecutive radio labeling.
    """

    extensible: bool
    witness: tuple[Vertex, ...] | None
    dead_depth: int | None
    nodes_explored: int


def _share_need(sizes, tops, recent) -> list[int]:
    """need[col]: the fewest shares with `recent` that columns col.. spend,
    whatever values from 1..tops[col] they take; the last entry is 0.

    A column's fewest is the minimum, over its values, of how many recent
    rows hold that value in it; need is its suffix sum.  A column whose top
    is below its size, or above len(recent), offers a value no recent row
    holds (its top, or one left over as each row holds one), so it adds 0.
    """
    need = [0]
    for col in range(len(tops) - 1, -1, -1):
        fewest = 0
        if tops[col] == sizes[col] <= len(recent):
            held = [prev[col] for prev in recent]
            fewest = min(map(held.count, range(1, sizes[col] + 1)))
        need.append(need[-1] + fewest)
    return need[::-1]


def _empty_state(sizes):
    """The column state of no rows: tops 1, tied where the left neighbour has the same size."""
    return (1,) * len(sizes), (False, *map(eq, sizes[1:], sizes))


def _carry(sizes, state, row):
    """The column state once canonical `row` follows the rows `state` describes, in O(t).

    A column's top, its largest value so far plus 1 capped at its size, rises
    only when the row takes it.  A column stays tied while each row puts the
    same value in it and in its left neighbour.
    """
    tops, tied = state
    return (
        tuple(top + (v == top < size) for top, v, size in zip(tops, row, sizes)),
        (False, *(tie and v == w for tie, v, w in zip(tied[1:], row[1:], row))),
    )


def _candidate_rows(sizes, tops, tied, recent):
    """Yield canonical next rows that keep the window rule with `recent`,
    the last t - 1 rows placed (all of them while fewer are placed).

    The row g back may share at most g - 1 coordinates with the new row (t
    columns).  Column col takes a value in 1..tops[col], a tied column none
    below its left neighbour's (_carry).  A column-by-column DFS prunes a row
    that shares too much before it is whole, so verify's kernel cannot serve.

    The DFS also prunes on the total share budget, sum(left).  Each recent
    row that holds a column's value spends one share, no share may go below
    zero, and columns c.. spend at least need[c] shares whatever values they
    take (_share_need).  So a partial row through column c-1 whose remaining
    budget is below need[c] has no completion, and its subtree is cut.  The
    tie floor only removes values, which cannot lower a column's minimum, so
    need stays a lower bound.  The rows and their order are the plain DFS's.
    """
    t = len(sizes)
    # shares the new row may still take with each recent row, oldest first
    left = list(range(len(recent) - 1, -1, -1))
    need = _share_need(sizes, tops, recent)
    row: list[int] = []

    def extend(col: int, budget: int):
        if col == t:
            yield tuple(row)
            return
        for value in range(row[col - 1] if tied[col] else 1, tops[col] + 1):
            bumped = []
            ok = True
            for p, prev in enumerate(recent):
                if prev[col] == value:
                    left[p] -= 1
                    bumped.append(p)
                    if left[p] < 0:
                        ok = False
                        break
            if ok and budget - len(bumped) >= need[col + 1]:
                row.append(value)
                yield from extend(col + 1, budget - len(bumped))
                row.pop()
            for p in bumped:
                left[p] += 1

    yield from extend(0, sum(left))


def segment_extension_search(spec: GraphSpec, depth: int) -> SegmentSearchResult:
    """Search for depth+1 locally valid consecutive rows, up to value and
    column symmetry.

    Locally valid means rows at gap g < diameter share at most g - 1
    coordinates.  Rows 1 and 2 are pinned to the all-1 and all-2 vertices
    (always possible by per-column relabeling) and later rows are canonicalized
    by first-appearance values.  Columns are reduced by a tie rule: column c is
    tied to column c-1 when both have the same size and hold equal values in
    every row placed so far, and a tied column never takes a value below the
    one just placed in column c-1.

    The tie rule loses no segment length.  Take any locally valid segment with
    canonical values and sort its columns lexicographically within each
    factor.  Permuting columns of equal size changes no shared-coordinate
    count and keeps each column's values canonical, so the result is still
    valid and canonical, and it satisfies the tie rule at every row.  Tied
    columns stay contiguous from the pinned rows on, so comparing with column
    c-1 is enough.  Hence the reduced search reaches exactly the segment
    lengths the unreduced one does: an empty search is a genuine impossibility
    proof, and dead_depth is the same as without the reduction.

    Each level carries each column's top value and tie flag, derived from its
    parent's and its row in O(t) (_carry), so its setup depends neither on
    column size nor on the rows placed.  Its rows are built column by column
    under a share-budget bound (_candidate_rows) that cuts only partial rows
    with no completion: nodes_explored and dead_depth are the unbounded DFS's.
    """
    require_spec(spec)
    if type(depth) is not int:  # not bool, not 2.5, not '4'
        raise SpecError(f"segment depth must be an integer, got {depth!r}")
    if depth < 2:
        raise SpecError(f"segment depth must be at least 2, got {depth}")
    sizes = spec.column_sizes()
    keep = len(sizes) - 1  # rows further back constrain nothing
    rows: list[Vertex] = []
    states = [_empty_state(sizes)]  # states[i]: the column state of rows[:i]

    def place(row):
        rows.append(row)
        states.append(_carry(sizes, states[-1], row))
        return _candidate_rows(sizes, *states[-1], rows[max(0, len(rows) - keep) :])

    def pop():
        rows.pop()
        states.pop()

    place(spec.constant_vertex(1))
    first = place(spec.constant_vertex(2))
    status, nodes, deepest, _ = _depth_first(rows, depth + 1, first, place, pop, SEGMENT_NODE_CAP, math.inf)
    if status is SearchStatus.BUDGET_EXCEEDED:
        raise TooLargeError(f"segment search exceeded {SEGMENT_NODE_CAP} nodes for {spec}")
    found = status is SearchStatus.FOUND
    return SegmentSearchResult(found, tuple(rows) if found else None, None if found else deepest, nodes)
