"""Backtracking searches for consecutive radio labelings.

search_ordering runs a depth-first search over rows from the pinned rows
all-1 and all-2, pruning with the shared-coordinate window rule, so an
exhausted search is a proof that no consecutive radio labeling exists.  It
applies the rule to all candidates at once as bitsets: per-column value
masks, built in one pass over the candidate list, give each recent row the
set of candidates sharing k or more coordinates with it, and a level's
children are the bits left over.  It shares verify._at_least, the count
behind the window kernel, but not the kernel's packed columns, as all
candidates meet one row at once.
A row's masks are computed once per search, in a memo of at most
MASK_BIT_CAP bits that holds every position when N <= 322; apart from it
only the last rows' masks are kept, so memory does not grow with depth.
search_k34_reduced searches K_3^4 as a walk over step vectors in Z_3^4: each
step is +-1 in every coordinate and negates one coordinate of the step
before it, so a row is three choices at most and only repetition needs
backtracking.
"""

from __future__ import annotations

import functools
import math
import numbers
import random
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Any

from .errors import InvalidWitnessError, SpecError, TooLargeError
from .graphs import GraphSpec, Vertex, enumerate_vertices, require_spec
from .verify import Ordering, _at_least, _updates, is_valid_ordering

MASK_BIT_CAP = 1 << 25  # most column-mask bits (N x summed sizes) search_ordering builds


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and order of a search.  seed None keeps candidate order; an
    int shuffles it with random.Random(seed)."""

    node_budget: int = 50_000_000
    time_budget: float = 60.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if type(self.node_budget) is not int:  # not bool, not 2.5, not '5'
            raise SpecError(f"node_budget must be an integer, got {self.node_budget!r}")
        if self.node_budget < 1:
            raise SpecError("node_budget must be positive")
        if isinstance(self.time_budget, bool) or not isinstance(self.time_budget, numbers.Real):
            raise SpecError(f"time_budget must be a real number, got {self.time_budget!r}")
        if not (math.isfinite(self.time_budget) and self.time_budget > 0):
            raise SpecError(f"time_budget must be positive and finite, got {self.time_budget}")
        if self.seed is not None and type(self.seed) is not int:
            raise SpecError(f"seed must be None or an integer, got {self.seed!r}")


def _config(config: SearchConfig | None) -> SearchConfig:
    if config is not None and not isinstance(config, SearchConfig):
        raise SpecError(f"config {config!r} is not a SearchConfig")
    return config or SearchConfig()


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
    elapsed_s: float  # wall time of the depth-first loop alone


def _finish(
    spec: GraphSpec, found: Iterable[Vertex], status: SearchStatus, nodes: int, depth: int, elapsed: float
) -> SearchOutcome:
    """The one way every search ends.  found, the rows as vertices, is read
    only when status is FOUND; it becomes the outcome's Ordering of spec,
    which must pass is_valid_ordering or raise InvalidWitnessError, an
    explicit check that survives python -O.  Other outcomes carry no ordering."""
    ordering = None
    if status is SearchStatus.FOUND:
        ordering = Ordering(spec, tuple(found))
        if not is_valid_ordering(ordering):
            raise InvalidWitnessError(f"search produced an invalid ordering of {spec}")
    return SearchOutcome(status, ordering, nodes, depth, elapsed)


def _depth_first(
    rows: list,
    target: int,
    first: Iterable,
    step: Callable[[Any], Iterable],
    pop: Callable[[], object],
    node_budget: int,
    time_budget: float,
) -> tuple[SearchStatus, int, int, float]:
    """The depth-first loop behind every search in the package.

    first is the children of the root level, the candidates for the row
    after the current `rows`.  step(child) places one child and returns the
    children of the level below it; pop() takes the last placed row back
    off.  Each child taken counts as a node.  Stops with FOUND right after
    the step that makes `rows` hold target rows (at once, with 0 nodes, if it
    holds them already), with BUDGET_EXCEEDED on the first node past
    node_budget or, read at every 1024th node, more than time_budget seconds
    after the start, and otherwise with EXHAUSTED_NO_SOLUTION.  Returns the
    status, the node count, the deepest row count reached and the seconds
    the loop took.
    """
    start = time.monotonic()
    deadline = start + time_budget
    nodes = 0
    depth = max_depth = len(rows)
    if depth == target:
        return SearchStatus.FOUND, nodes, max_depth, time.monotonic() - start
    # the next node that needs a look: the first past the budget or the next clock reading
    check = min(node_budget + 1, 1024)
    stack = []  # the suspended levels above the current one
    level = iter(first)
    while True:
        for child in level:
            nodes += 1
            if nodes == check:
                if nodes > node_budget or time.monotonic() > deadline:
                    return SearchStatus.BUDGET_EXCEEDED, nodes, max_depth, time.monotonic() - start
                check = min(node_budget + 1, nodes + 1024)
            stack.append(level)
            level = iter(step(child))
            depth += 1
            if depth > max_depth:  # a row count reached for the first time, so maybe target
                max_depth = depth
                if depth == target:
                    return SearchStatus.FOUND, nodes, max_depth, time.monotonic() - start
            break
        else:
            if not stack:  # the root level placed no row of its own
                return SearchStatus.EXHAUSTED_NO_SOLUTION, nodes, max_depth, time.monotonic() - start
            pop()
            depth -= 1
            level = stack.pop()


def _column_masks(candidates: list[Vertex], sizes: tuple[int, ...]) -> list[list[int]]:
    """masks[j][a] has bit i set when candidates[i] has value a in column j.

    Each column is written out as one character per candidate, last candidate
    first, and translated to a binary numeral per value, so every mask takes
    linear time to build.  chr() caps values at 0x10FFFF; a column with more
    values alone makes N x summed sizes exceed 2^40, far past MASK_BIT_CAP.
    """
    masks = []
    for j, size in enumerate(sizes):
        column = "".join(map(chr, map(itemgetter(j), reversed(candidates))))
        masks.append(
            [0] + [int(column.translate("0" * a + "1" + "0" * (size - a)), 2) for a in range(1, size + 1)]
        )
    return masks


def search_ordering(spec: GraphSpec, config: SearchConfig | None = None) -> SearchOutcome:
    """Depth-first search for a full valid ordering of the given graph.

    The first two rows are always the all-1 and all-2 vertices.  That loses
    no solution.  Relabeling the values of one column by a permutation
    changes no shared-coordinate count, so it keeps an ordering valid.  The
    first two rows of a valid ordering share no coordinate, so each column
    has a relabeling that sends its row-1 value to 1 and its row-2 value to
    2, and applying them all gives a valid ordering that starts all-1,
    all-2.  So an EXHAUSTED_NO_SOLUTION outcome proves the graph is not
    radio graceful.

    The exploration order is fully determined by config and seed; node-budget
    cutoffs reproduce outcome and node count exactly, wall-clock cutoffs land
    wherever the clock does.

    Candidate sets are bitsets over positions in the candidate list.  For
    each recent row the window keeps at_least[k], the candidates sharing k or
    more coordinates with that row, so a level's admissible set is every
    position neither used nor in at_least[k] of the row k back, for k < t.
    Its children are the set bits in increasing position, which is candidate
    order, so the visit order is the plain scan's.  A row's masks depend
    only on its position, so they are computed once per search and kept in
    an LRU memo of MASK_BIT_CAP // N^2 positions: an entry is t + 1 <= N
    masks of N bits, so the memo holds at most MASK_BIT_CAP bits, and every
    position when N <= 322.  Memory stays flat: the window holds the last
    t - 1 rows plus at most one more, a suspended level keeps only its resume
    position and re-reads the admissible set when it resumes, and a pop that
    leaves fewer than t - 1 rows in the window reads the masks of the one row
    that re-enters it from the memo, computing them again only if the memo
    has dropped them.  The extra row makes a dead end's step and pop read
    no masks back.  The column masks are built outside time_budget, so
    more than MASK_BIT_CAP mask bits raise TooLargeError before N is
    computed.  That refuses every N > 10^6 too: sizes summing to 33 or less
    give N <= 3^11, and 34 x 10^6 > 2^25.
    """
    require_spec(spec)
    config = _config(config)
    if spec.has_more_vertices_than(MASK_BIT_CAP // sum(f.size * f.copies for f in spec.factors)):
        raise TooLargeError(f"the column masks of {spec} exceed the cap of {MASK_BIT_CAP} bits")
    n_total = spec.num_vertices
    candidates = list(enumerate_vertices(spec))
    if config.seed is not None:
        random.Random(config.seed).shuffle(candidates)
    t = spec.diameter
    column_masks = _column_masks(candidates, spec.column_sizes())
    everything = (1 << n_total) - 1
    updates = _updates(t, t - 1)  # at_least[t] stays 0: a row t back constrains nothing

    rows: list[int] = []  # positions in candidates
    window: deque[list[int]] = deque()  # at_least masks of the last rows, oldest first
    used = 0
    free = everything  # admissible positions after the current rows

    # at_least(pos): the masks of candidates[pos], from the memo when it keeps
    # them; the memo hands out one shared list per position, so nothing mutates it
    @functools.lru_cache(maxsize=max(1, MASK_BIT_CAP // n_total**2))
    def at_least(pos: int) -> list[int]:
        return _at_least(everything, map(list.__getitem__, column_masks, candidates[pos]), updates)

    def refresh() -> None:
        nonlocal free
        blocked = used
        k = len(window)
        for masks in window:
            blocked |= masks[k]
            k -= 1
        free = everything ^ blocked

    def children() -> Iterator[int]:
        pos = 0
        while True:
            rest = free >> pos
            if not rest:
                return
            pos += (rest & -rest).bit_length()
            del rest  # so that a suspended level holds no N-bit mask
            yield pos - 1

    def step(pos: int) -> Iterator[int]:
        nonlocal used
        rows.append(pos)
        used |= 1 << pos
        window.append(at_least(pos))
        if len(window) > t:
            window.popleft()
        refresh()
        return children()

    def pop() -> None:
        nonlocal used
        used ^= 1 << rows.pop()
        window.pop()
        if len(window) < t - 1 <= len(rows):
            window.appendleft(at_least(rows[-(t - 1)]))
        refresh()

    step(candidates.index(spec.constant_vertex(1)))
    first = step(candidates.index(spec.constant_vertex(2)))

    outcome = _depth_first(rows, n_total, first, step, pop, config.node_budget, config.time_budget)
    return _finish(spec, map(candidates.__getitem__, rows), *outcome)


_K34 = GraphSpec([(3, 4)])


@functools.cache
def _k34_moves() -> list[list[tuple[int, int, int, int, list]]]:
    """moves[16 * v + d]: the four moves from tail row v after step d.

    Rows are positions in enumerate_vertices(_K34), so graphs alone fixes
    their order.  reach[v][d] is the row v + d, where bit j of d set means
    -1 in coordinate j and clear means +1 (mod 3).  An entry holds one move
    per column c, in column order: (c, bit_w, w, onward, next), with
    w = reach[v][d'] for d' = d ^ (1 << c), the step negating coordinate c,
    and bit_w = 1 << w from one shared list.  onward is the bitset of the
    three rows one move on from w, reach[w][d' ^ (1 << c2)] for c2 != c, and
    next is moves[16 * w + d'] itself, so a walk follows its moves without
    indexing.  About 0.7 MiB, built once per process on the first reduced
    search and shared by every later one, so callers must not mutate it.
    """
    vertices = list(enumerate_vertices(_K34))
    index = {v: i for i, v in enumerate(vertices)}
    reach = [
        [index[tuple((a + (d >> j & 1)) % 3 + 1 for j, a in enumerate(v))] for d in range(16)]
        for v in vertices
    ]
    bits = [1 << w for w in range(len(vertices))]
    moves: list[list] = [[] for _ in range(16 * len(vertices))]
    for v, by_step in enumerate(reach):
        for d in range(16):
            for c in range(4):
                d2 = d ^ (1 << c)
                w = by_step[d2]
                onward = sum(bits[reach[w][d2 ^ (1 << c2)]] for c2 in range(4) if c2 != c)
                moves[16 * v + d].append((c, bits[w], w, onward, moves[16 * w + d2]))
    return moves


def search_k34_reduced(config: SearchConfig | None = None) -> SearchOutcome:
    """Search K_3^4 as a walk over step vectors.

    Read the values as Z_3.  Rows 1-2 are pinned to the all-1 and all-2
    vertices, so the first step is +1 in every coordinate.  K_3^4 is at the
    boundary, where rows at gap j share exactly j - 1 coordinates, so every
    step is a +-1 vector that negates exactly one coordinate of the step
    before it, never the one negated last (else rows three apart would agree
    in three coordinates).  Every such walk satisfies the radio condition, so
    only vertex repetition needs backtracking.  Negating column c is the
    instruction row with its single f_2 in column c.  A state is the tail
    row, the last step and the column negated last.

    The walk reads its moves from _k34_moves(), a table built once per
    process: a state's entry lists the four moves, one per column c, each
    with c, the row w it reaches, that row's bit, the bits of the rows one
    move on from w, and the entry of the state it leads to.  A move thus
    carries the state it leads to, and `free`, the bitset of rows not yet
    placed, is the walk's only state.  step(move) places w, clears its bit
    in `free` and returns the next level's children: the moves of the
    move's entry whose column is not c and whose row is free, in column
    order.  A child w that is not the last row is also skipped when every
    row one move on from it is placed already: the placed set only grows
    along a path, so no completion passes through w, and skipping it loses
    no solutions.  The rows one move on are those three onward rows, since
    negating the column just negated again would break the rule above, so
    one AND with `free` decides it; w is the last row exactly when it is the
    only free row.  Row 2 is placed by the same step, before the driver
    starts, so it counts as no node: its move negates no column (-1, so all
    four columns are open) and leads to the all-2 row's entry after step 0.
    The exploration order is fully determined by config and seed, so runs
    cut off by the node budget reproduce outcome and node count exactly; a
    wall-clock cutoff lands wherever the clock does.
    """
    config = _config(config)
    table = _k34_moves()
    vertices = list(enumerate_vertices(_K34))  # position i holds the vertex of index i
    n_total = len(vertices)
    rng = None if config.seed is None else random.Random(config.seed)
    one, two = (_K34.vertex_index(_K34.constant_vertex(value)) for value in (1, 2))
    rows = [one]
    free = ((1 << n_total) - 1) ^ (1 << one)

    def step(move: tuple[int, int, int, int, list]) -> list[tuple[int, int, int, int, list]]:
        # plain loops, not comprehensions: on Python 3.11 a comprehension is
        # a function call per level, and the row test cuts most moves first
        nonlocal free
        col, bit, w, _, moves = move
        rows.append(w)
        free ^= bit
        out = []
        for m in moves:
            if free & m[1] and m[0] != col and (free & m[3] or free == m[1]):
                out.append(m)
        if rng is not None and len(out) > 1:  # a shorter list would draw no random bits
            rng.shuffle(out)
        return out

    def pop() -> None:
        nonlocal free
        free |= 1 << rows.pop()

    first = step((-1, 1 << two, two, 0, table[16 * two]))  # step 0 is +1 in every coordinate
    outcome = _depth_first(rows, n_total, first, step, pop, config.node_budget, config.time_budget)
    return _finish(_K34, map(vertices.__getitem__, rows), *outcome)
