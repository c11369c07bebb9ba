"""Backtracking searches for consecutive radio labelings.

search_ordering runs a depth-first search over rows, pruning with the
shared-coordinate window rule, so an exhausted symmetry-fixed search is a
proof that no consecutive radio labeling exists.  search_k34_reduced walks the
much smaller instruction-side state space for K_3^4, where each row of the
instruction matrix is determined by the column receiving its single f_2.
"""

from __future__ import annotations

import functools
import math
import random
import time
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Any

from .errors import InvalidWitnessError, SpecError, TooLargeError
from .graphs import GraphSpec, Vertex, enumerate_vertices, make_graph_spec, shared_coordinates
from .instructions import GeneratorKind, builtin_generator
from .perms import act, identity
from .verify import Ordering, is_valid_ordering

DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class SearchConfig:
    node_budget: int = 50_000_000
    time_budget: float = 60.0
    seed: int | None = None
    symmetry_fixing: bool = True
    randomize: bool = False

    def __post_init__(self) -> None:
        if self.node_budget < 1:
            raise SpecError("node_budget must be positive")
        if not (math.isfinite(self.time_budget) and self.time_budget > 0):
            raise SpecError(f"time_budget must be positive and finite, got {self.time_budget}")
        if self.randomize and self.seed is None:
            raise SpecError("randomized candidate order needs a seed")


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NO_SOLUTION = "exhausted"
    BUDGET_EXCEEDED = "budget exceeded"


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    ordering: Ordering | None
    nodes_explored: int
    max_depth_reached: int


def _finish(status: SearchStatus, ordering: Ordering | None, nodes: int, depth: int) -> SearchOutcome:
    if ordering is not None and not is_valid_ordering(ordering):
        raise InvalidWitnessError(f"search produced an invalid ordering of {ordering.spec}")
    return SearchOutcome(status, ordering, nodes, depth)


def _depth_first(
    rows: list,
    target: int,
    children: Callable[[], Iterable],
    push: Callable[[Any], object],
    pop: Callable[[], object],
    node_budget: int,
    deadline: float,
) -> tuple[SearchStatus, int, int]:
    """The depth-first loop behind every search in the package.

    children() gives the candidates for the row after the current `rows`,
    push(child) places one and pop() takes the last placed row back off; no
    child may be None, which marks an exhausted level.  Each child taken
    counts as a node.  Stops with FOUND once `rows` holds target rows, with
    BUDGET_EXCEEDED on the first node past node_budget or, checked every 1024
    nodes, past the time.monotonic() deadline, and otherwise with
    EXHAUSTED_NO_SOLUTION.  Returns the status, the node count and the deepest
    row count reached.
    """
    nodes = 0
    max_depth = len(rows)
    stack = [iter(children())]
    while stack:
        if len(rows) == target:
            return SearchStatus.FOUND, nodes, max_depth
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            if stack:  # the root level placed no row of its own
                pop()
            continue
        nodes += 1
        if nodes > node_budget or (nodes % 1024 == 0 and time.monotonic() > deadline):
            return SearchStatus.BUDGET_EXCEEDED, nodes, max_depth
        push(child)
        if len(rows) > max_depth:
            max_depth = len(rows)
        stack.append(iter(children()))
    return SearchStatus.EXHAUSTED_NO_SOLUTION, nodes, max_depth


def search_ordering(
    spec: GraphSpec,
    config: SearchConfig | None = None,
    max_vertices: int = DEFAULT_ENUMERATION_CAP,
) -> SearchOutcome:
    """Depth-first search for a full valid ordering of the given graph.

    With symmetry_fixing the first two rows are pinned to the all-1 and all-2
    vertices, which loses no solutions up to per-column relabeling, so an
    EXHAUSTED_NO_SOLUTION outcome proves the graph is not radio graceful.
    The exploration order is fully determined by config and seed; node-budget
    cutoffs reproduce outcome and node count exactly, wall-clock cutoffs land
    wherever the clock does.
    """
    config = config or SearchConfig()
    n_total = spec.num_vertices
    if n_total > max_vertices:
        raise TooLargeError(f"{n_total} vertices exceed the enumeration cap {max_vertices}")
    candidates = list(enumerate_vertices(spec))
    if config.randomize:
        random.Random(config.seed).shuffle(candidates)
    t = spec.diameter

    rows: list[Vertex] = []
    used: set[Vertex] = set()

    def admissible(v: Vertex) -> bool:
        """check_ordering's window rule for v against the rows placed so far;
        this hot incremental form keeps its own loop."""
        if v in used:
            return False
        for k in range(1, min(t - 1, len(rows)) + 1):
            if shared_coordinates(v, rows[-k]) >= k:
                return False
        return True

    def push(v: Vertex) -> None:
        rows.append(v)
        used.add(v)

    def pop() -> None:
        used.discard(rows.pop())

    if config.symmetry_fixing and n_total >= 2:
        push(spec.constant_vertex(1))
        push(spec.constant_vertex(2))

    deadline = time.monotonic() + config.time_budget
    # filter is lazy, so each candidate is tested against the rows of its own level
    status, nodes, max_depth = _depth_first(
        rows, n_total, lambda: filter(admissible, candidates), push, pop, config.node_budget, deadline
    )
    ordering = Ordering(spec, tuple(rows)) if status is SearchStatus.FOUND else None
    return _finish(status, ordering, nodes, max_depth)


@dataclass(frozen=True)
class BruteForceResult:
    graceful: bool
    witness: Ordering | None


def brute_force_radio_graceful(spec: GraphSpec, max_vertices: int = 9) -> BruteForceResult:
    """Ground-truth oracle: try every ordering with the first two rows pinned,
    checking each with the verifier."""
    import itertools

    from .verify import check_ordering

    n_total = spec.num_vertices
    if n_total > max_vertices:
        raise TooLargeError(f"{n_total} vertices exceed the brute-force cap {max_vertices}")
    first = spec.constant_vertex(1)
    second = spec.constant_vertex(2)
    rest = [v for v in enumerate_vertices(spec) if v not in (first, second)]
    for perm in itertools.permutations(rest):
        ordering = Ordering(spec, (first, second) + perm)
        if not check_ordering(ordering):
            return BruteForceResult(True, ordering)
    return BruteForceResult(False, None)


@functools.cache
def _k34_successor_table() -> tuple[
    tuple[Vertex, ...], Mapping[Vertex, int], tuple[tuple[tuple[int, ...] | None, ...], ...]
]:
    """Transition table for the reduced K_3^4 walk, built once per process.

    A state is the last two rows (u, v); they differ in every coordinate, so
    each column's shift-to-front arrangement is exactly (v_j, u_j, other).
    Placing f_2 in column c and f_3 elsewhere advances every arrangement and
    the new row reads off the fronts.  Entries are indices into the vertex
    list; pairs that share a coordinate never occur and stay None.  Every
    search shares the result, so it is returned read-only.
    """
    spec = make_graph_spec([(3, 4)])
    gen = builtin_generator(GeneratorKind.LRU, 3)
    iset = gen.sets(identity(3))
    f2, f3 = iset.by_subscript(2), iset.by_subscript(3)
    vertices = tuple(enumerate_vertices(spec))
    index = {v: i for i, v in enumerate(vertices)}
    table: list[list[tuple[int, ...] | None]] = [[None] * len(vertices) for _ in vertices]
    for u in vertices:
        for v in vertices:
            if any(a == b for a, b in zip(u, v)):
                continue
            arrs = [(v[j], u[j], next(x for x in (1, 2, 3) if x not in (u[j], v[j])))
                    for j in range(4)]
            row = []
            for c in range(4):
                nxt = [act(f2 if j == c else f3, arrs[j])[0] for j in range(4)]
                row.append(index[tuple(nxt)])
            table[index[u]][index[v]] = tuple(row)
    return vertices, MappingProxyType(index), tuple(map(tuple, table))


def search_k34_reduced(config: SearchConfig | None = None) -> SearchOutcome:
    """Search K_3^4 on the instruction side.

    Every column uses the cyclic shift-to-front family over {1,2,3}.  After
    the all-f_2 second row, each instruction row must contain exactly one f_2,
    in a different column from the row above; any such matrix satisfies the
    radio condition, so only vertex repetition needs backtracking.  Children
    whose own continuations are all used already are skipped unless they
    complete the walk; that loses no solutions.  The exploration order is
    fully determined by config and seed, so runs cut off by the node budget
    reproduce outcome and node count exactly; a wall-clock cutoff lands
    wherever the clock does.
    """
    config = config or SearchConfig()
    if not config.symmetry_fixing:
        raise SpecError(
            "the reduced K_3^4 search always pins rows 1-2; symmetry_fixing=False is unsupported"
        )
    spec = make_graph_spec([(3, 4)])
    vertices, index, table = _k34_successor_table()
    n_total = spec.num_vertices

    rng = random.Random(config.seed)

    first = index[spec.constant_vertex(1)]
    second = index[spec.constant_vertex(2)]
    rows: list[int] = [first, second]
    used = (1 << first) | (1 << second)
    prev_col = -1  # column of the last row's f_2; -1 for the all-f_2 row 2

    def column_choices() -> list[tuple[int, int]]:
        entry = table[rows[-2]][rows[-1]]
        tail = rows[-1]
        interior = len(rows) < n_total - 1
        out = []
        for col in range(4):
            if col == prev_col:
                continue
            w = entry[col]
            if (used >> w) & 1:
                continue
            if interior:
                onward = table[tail][w]
                blocked = True
                for c2 in range(4):
                    if c2 != col and not (used >> onward[c2]) & 1:
                        blocked = False
                        break
                if blocked:
                    continue  # placing w would strand the walk one row later
            out.append((col, w))
        if config.randomize:
            rng.shuffle(out)
        return out

    def push(choice: tuple[int, int]) -> None:
        nonlocal used, prev_col
        prev_col, w = choice
        rows.append(w)
        used |= 1 << w

    def pop() -> None:
        nonlocal used
        used &= ~(1 << rows.pop())

    deadline = time.monotonic() + config.time_budget
    status, nodes, max_depth = _depth_first(
        rows, n_total, column_choices, push, pop, config.node_budget, deadline
    )
    ordering = None
    if status is SearchStatus.FOUND:
        ordering = Ordering(spec, tuple(vertices[i] for i in rows))
    return _finish(status, ordering, nodes, max_depth)
