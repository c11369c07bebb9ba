"""Independent reference implementations used to cross-check the package.

Everything here is written directly from definitions, avoiding the library
code paths under test, so agreement is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from hamming_radio.errors import MembershipError, ShapeError, TooLargeError
from hamming_radio.graphs import enumerate_vertices, require_spec, shared_coordinates
from hamming_radio.instructions import GeneratorKind
from hamming_radio.perms import Permutation, act, identity
from hamming_radio.verify import Ordering, RadioViolation, check_ordering

BRUTE_FORCE_CAP = 9  # most vertices brute_force_radio_graceful permutes


def oracle_distance(u, v):
    assert len(u) == len(v)
    return sum(1 for a, b in zip(u, v) if a != b)


def oracle_shared(u, v):
    assert len(u) == len(v)
    return sum(1 for a, b in zip(u, v) if a == b)


def oracle_pairwise_violations(diameter, labeled):
    """All pairs breaking |f(u) - f(v)| >= diameter + 1 - d(u, v).

    labeled: list of (vertex, label).  Returns (label_low, label_high, shared)
    triples sorted by the higher label then gap.
    """
    out = []
    for (u, fu), (v, fv) in itertools.combinations(labeled, 2):
        if fu == fv:
            continue
        lo, hi = sorted((fu, fv))
        need = diameter + 1 - oracle_distance(u, v)
        if hi - lo < need:
            out.append((lo, hi, oracle_shared(u, v)))
    out.sort(key=lambda x: (x[1], x[1] - x[0]))
    return out


def oracle_verify_radio(labeling):
    """verify_radio's reference: every pair of the label-sorted items, in
    itertools.combinations order, equal labels included."""
    items = sorted(labeling.assignment.items(), key=lambda kv: kv[1])
    out: list[RadioViolation] = []
    for (u, fu), (v, fv) in itertools.combinations(items, 2):
        shared = shared_coordinates(u, v)
        if fv - fu < shared + 1:
            out.append(RadioViolation(row=fv, gap=fv - fu, shared=shared))
    return out


def oracle_boundary_violations(rows, max_gap):
    """(row, gap, shared) for every pair of rows at gap <= max_gap that does
    not share exactly gap - 1 coordinates, by row then gap."""
    return [
        (i, gap, oracle_shared(rows[i - 1], rows[i + gap - 1]))
        for i in range(1, len(rows) + 1)
        for gap in range(1, min(max_gap, len(rows) - i) + 1)
        if oracle_shared(rows[i - 1], rows[i + gap - 1]) != gap - 1
    ]


def oracle_greedy_labels(diameter, rows):
    """Greedy labeling straight from the definition: each row takes the least
    label above the previous row's that keeps every earlier pair compatible."""
    labels = []
    for i, v in enumerate(rows):
        lab = 1 if i == 0 else labels[-1] + 1
        while True:
            ok = True
            for j in range(i):
                need = diameter + 1 - oracle_distance(rows[j], v)
                if abs(lab - labels[j]) < need:
                    ok = False
                    break
            if ok:
                labels.append(lab)
                break
            lab += 1
    return labels


def oracle_distinct_columns(rows, start_row, depth):
    """Columns whose entries in rows start_row..start_row+depth are pairwise distinct."""
    window = rows[start_row - 1 : start_row + depth]
    count = 0
    for col in range(len(window[0])):
        seen = set()
        distinct = True
        for r in window:
            if r[col] in seen:
                distinct = False
                break
            seen.add(r[col])
        if distinct:
            count += 1
    return count


def compose_images(first, then):
    """One-line images of applying `first` then `then` (both image tuples)."""
    return tuple(then[first[i] - 1] for i in range(len(first)))


def oracle_recency_fixing_count(n, length):
    """Fixing-run count for the history-keyed family, from first principles.

    The member with subscript k after a front pulled from slot kprime is the
    transposition (1 k) when k = kprime or kprime = 1, and otherwise the cycle
    1 -> kprime -> k -> 1.  Counts subscript sequences whose composition maps
    1 back to 1, tracking the point directly through dict images.
    """

    def image(kprime, k, point):
        if k == kprime or kprime == 1:
            mapping = {1: k, k: 1}
        else:
            mapping = {1: kprime, kprime: k, k: 1}
        return mapping.get(point, point)

    count = 0
    for subscripts in itertools.product(range(2, n + 1), repeat=length):
        kprime, point = 1, 1
        for k in subscripts:
            point = image(kprime, k, point)
            kprime = k
        if point == 1:
            count += 1
    return count


def oracle_run_fixes_one(image_tuples):
    point = 1
    for images in image_tuples:
        point = images[point - 1]
    return point == 1


def random_weak_rows(spec, rng, n_rows=None):
    """Rows drawn uniformly with replacement (repetitions allowed)."""
    sizes = spec.column_sizes()
    n = n_rows if n_rows is not None else spec.num_vertices
    return tuple(
        tuple(rng.randint(1, s) for s in sizes) for _ in range(n)
    )


def random_permutation_rows(spec, rng):
    """All vertices exactly once in random order."""
    rows = list(enumerate_vertices(spec))
    rng.shuffle(rows)
    return tuple(rows)


def random_value_column(n, length, rng):
    """Column starting 1, 2 with consecutive values distinct."""
    vals = [1, 2]
    while len(vals) < length:
        nxt = rng.randint(1, n)
        while nxt == vals[-1]:
            nxt = rng.randint(1, n)
        vals.append(nxt)
    return tuple(vals[:length])


def seeded(seed):
    return random.Random(seed)


def oracle_segment_search(sizes, depth):
    """Canonical segment search without column reduction, from the definition.

    Rows 1 and 2 are the all-1 and all-2 vertices.  Each later row gives every
    column a value already used in that column or the smallest unused one, and
    shares at most g - 1 coordinates with the row g back, for every gap g below
    the diameter.  Candidates are tried in lexicographic order and each
    accepted row counts as one node.  Returns (extensible, witness, dead_depth,
    nodes) with the meanings of segment_extension_search.
    """
    t = len(sizes)
    rows = [(1,) * t, (2,) * t]
    nodes = 0
    deepest = len(rows)

    def next_rows():
        options = []
        for col in range(t):
            used = sorted({r[col] for r in rows})
            fresh = [v for v in range(1, sizes[col] + 1) if v not in used]
            options.append(used + fresh[:1])
        limits = [(rows[-g], g - 1) for g in range(1, min(len(rows), t - 1) + 1)]

        def build(prefix, shared):
            # shared[i] counts the coordinates prefix shares with limits[i]'s row
            k = len(prefix)
            if k == t:
                yield prefix
                return
            for value in options[k]:
                grown = [s + (prev[k] == value) for s, (prev, _) in zip(shared, limits)]
                if all(s <= limit for s, (_, limit) in zip(grown, limits)):
                    yield from build(prefix + (value,), grown)

        return build((), [0] * len(limits))

    def extend():
        nonlocal nodes, deepest
        if len(rows) == depth + 1:
            return True
        for cand in next_rows():
            nodes += 1
            rows.append(cand)
            deepest = max(deepest, len(rows))
            if extend():
                return True
            rows.pop()
        return False

    if extend():
        return True, tuple(rows), None, nodes
    return False, None, deepest, nodes


def oracle_window_refutation(sizes, max_window):
    """The strict window-sum bound (after Liu & Zhu 2005): the least window
    length L <= max_window whose columns must hold more agreeing pairs than
    its rows may share, or None.

    L rows in a column of m values agree in at least
    p(L, m) = r*C(q+1, 2) + (m-r)*C(q, 2) pairs, q, r = divmod(L, m): the
    values spread evenly.  Rows g apart share at most g - 1 coordinates for
    g < t, and distinct rows at most t - 1, so the L - g pairs at gap g share
    at most (L - g)*min(g - 1, t - 1), A(L, t) in all.  No ordering has L
    consecutive rows once sum_j p(L, m_j) > A(L, t).
    """
    t = len(sizes)
    for window in range(1, max_window + 1):
        forced = 0
        for m in sizes:
            q, r = divmod(window, m)
            forced += r * math.comb(q + 1, 2) + (m - r) * math.comb(q, 2)
        if forced > sum((window - g) * min(g - 1, t - 1) for g in range(1, window)):
            return window
    return None


def oracle_column_state(sizes, prev_rows):
    """The column state bounds._carry keeps, from its definition over prev_rows.

    tops[col] is the largest value in column col plus 1, capped at the
    column's size (1 for no rows).  tied[col] holds when column col has the
    size of column col - 1 and equal values in every row (vacuously for no
    rows); column 0 is never tied.
    """
    tops = tuple(
        min(max((row[col] for row in prev_rows), default=0) + 1, size)
        for col, size in enumerate(sizes)
    )
    tied = tuple(
        col > 0
        and sizes[col] == sizes[col - 1]
        and all(row[col] == row[col - 1] for row in prev_rows)
        for col in range(len(sizes))
    )
    return tops, tied


def oracle_candidate_rows(sizes, prev_rows):
    """bounds._candidate_rows from scratch over prev_rows, without the
    share-budget prune.

    Yields canonical next rows that keep the window rule with prev_rows.

    The row g back may share at most g - 1 coordinates with the new row for
    g < t, the column count; rows t or more back constrain nothing.
    Canonical form: a column may repeat any value already used in it, or
    introduce the smallest unused value.  A column tied to its left neighbour
    (same size, equal values in every previous row) never takes a value below
    the neighbour's.  Column-by-column DFS, pruning as soon as a row shares
    too much, before the row is whole, so verify's window kernel cannot serve.
    """
    t = len(sizes)
    allowed: list[list[int]] = []
    for col in range(t):
        used = sorted({row[col] for row in prev_rows})
        unused = [v for v in range(1, sizes[col] + 1) if v not in used]
        allowed.append(used + unused[:1])
    tied = [
        col > 0
        and sizes[col] == sizes[col - 1]
        and all(row[col] == row[col - 1] for row in prev_rows)
        for col in range(t)
    ]

    recent = prev_rows[max(0, len(prev_rows) - (t - 1)) :]
    # shares the new row may still take with each recent row, oldest first
    left = list(range(len(recent) - 1, -1, -1))
    row: list[int] = []

    def extend(col: int):
        if col == t:
            yield tuple(row)
            return
        for value in allowed[col]:
            if tied[col] and value < row[col - 1]:
                continue
            bumped = []
            ok = True
            for p, prev in enumerate(recent):
                if prev[col] == value:
                    left[p] -= 1
                    bumped.append(p)
                    if left[p] < 0:
                        ok = False
                        break
            if ok:
                row.append(value)
                yield from extend(col + 1)
                row.pop()
            for p in bumped:
                left[p] += 1

    yield from extend(0)


def oracle_k34_transitions():
    """The reduced K_3^4 walk's transitions, decoded with the LRU instructions.

    Maps each pair (u, v) of vertices differing in every coordinate to the
    four rows that can follow them, one per column c = 0..3 taking the single
    f_2.  Each column's shift-to-front arrangement is (v_j, u_j, other), f_2
    goes to column c and f_3 to the rest, and the new row reads off the fronts.
    """
    f2, f3 = oracle_instruction_set(GeneratorKind.LRU, 3, 1)
    vertices = list(itertools.product((1, 2, 3), repeat=4))
    out = {}
    for u, v in itertools.product(vertices, repeat=2):
        if any(a == b for a, b in zip(u, v)):
            continue
        arrs = [(b, a, 6 - a - b) for a, b in zip(u, v)]
        out[u, v] = tuple(
            tuple(act(f2 if j == c else f3, arr)[0] for j, arr in enumerate(arrs)) for c in range(4)
        )
    return out


def oracle_k34_successors():
    """succ[v][d][c]: the row after v when the step into v was d and the next
    step negates coordinate c, read off oracle_k34_transitions.

    Rows are indices in lexicographic vertex order.  Bit j of a step d is set
    where it is -1 (mod 3) in coordinate j; each v has one predecessor u per
    step, so the 1,296 pairs (u, v) fill every (v, d).
    """
    vertices = list(itertools.product((1, 2, 3), repeat=4))
    index = {v: i for i, v in enumerate(vertices)}
    succ = [[None] * 16 for _ in vertices]
    for (u, v), following in oracle_k34_transitions().items():
        step = sum(1 << j for j, (a, b) in enumerate(zip(u, v)) if (b - a) % 3 == 2)
        succ[index[v]][step] = tuple(index[w] for w in following)
    return succ


def oracle_depth_first(rows, target, first, step, pop, node_budget):
    """The contract of search._depth_first, written as a plain recursion.

    first is the root level's children, step(child) places a child and
    returns the next level's children, and pop() takes the last placed row
    back off.  Each child taken is a node; the node past node_budget stops
    the search before it is placed, and so does `rows` reaching target rows
    (at once, with 0 nodes, if it holds them already).  No clock is read.
    Returns (status, nodes, deepest) with status a SearchStatus value and
    deepest the most rows held; `rows` is left as it was when the search
    stopped.
    """
    nodes = 0
    deepest = len(rows)

    def visit(level):
        """The status that stopped the search below level, or None."""
        nonlocal nodes, deepest
        for child in level:
            nodes += 1
            if nodes > node_budget:
                return "budget exceeded"
            below = step(child)
            deepest = max(deepest, len(rows))
            if len(rows) == target:
                return "found"
            stopped = visit(below)
            if stopped is not None:
                return stopped
            pop()
        return None

    if len(rows) == target:
        return "found", 0, deepest
    return visit(first) or "exhausted", nodes, deepest


def oracle_k34_walk(node_budget, seed=None):
    """The reduced K_3^4 walk with a used-row bitset and a per-column scan.

    The kernel search_k34_reduced ran before it kept free rows and reach
    masks: each level scans the columns 0..3 but the one negated last, skips
    a used row, and, below the last row, skips a child none of whose three
    onward rows is unused.  random.Random(seed) shuffles each level's list
    when a seed is given.  Runs on oracle_depth_first (the walk is at most
    81 levels deep) and oracle_k34_successors, so it reads no package table.
    Returns (status, nodes, deepest, rows), with rows the path left
    when the search stopped.
    """
    succ = oracle_k34_successors()
    n_total = 81
    rng = random.Random(seed)

    rows = [0, 40]  # the all-1 and all-2 vertices
    used = (1 << 0) | (1 << 40)

    def column_choices(step, prev_col):
        entry = succ[rows[-1]][step]
        interior = len(rows) < n_total - 1
        out = []
        for col in range(4):
            if col == prev_col:
                continue
            w = entry[col]
            if (used >> w) & 1:
                continue
            new_step = step ^ (1 << col)
            if interior:
                onward = succ[w][new_step]
                for c2 in range(4):
                    if c2 != col and not (used >> onward[c2]) & 1:
                        break
                else:
                    continue  # placing w would strand the walk one row later
            out.append((col, new_step, w))
        if seed is not None:
            rng.shuffle(out)
        return out

    def place(choice):
        nonlocal used
        col, step, w = choice
        rows.append(w)
        used |= 1 << w
        return column_choices(step, col)

    def pop():
        nonlocal used
        used &= ~(1 << rows.pop())

    # step 0 is +1 in every coordinate; -1 before the first negation
    first = column_choices(0, -1)
    status, nodes, deepest = oracle_depth_first(rows, n_total, first, place, pop, node_budget)
    return status, nodes, deepest, tuple(rows)


def oracle_search_ordering(sizes, node_budget, seed=None):
    """The generic ordering search by a plain candidate scan, from the definition.

    Candidates are all vertices in lexicographic order, shuffled by
    random.Random(seed) when a seed is given.  Rows 1 and 2 are the all-1 and
    all-2 vertices.  A candidate is admissible when it is unused and shares at
    most k - 1 coordinates with the row k back, for every k below the
    diameter; each level tries its admissible candidates in list order and
    each accepted row counts as one node.  The search stops on the
    first node past node_budget.  Returns (status, nodes, deepest, rows), with
    rows the found ordering or None.
    """
    t = len(sizes)
    candidates = list(itertools.product(*(range(1, n + 1) for n in sizes)))
    if seed is not None:
        random.Random(seed).shuffle(candidates)
    rows = [(1,) * t, (2,) * t]
    placed = set(rows)
    nodes = 0
    deepest = len(rows)

    def admissible(v):
        return v not in placed and all(
            oracle_shared(v, rows[-k]) < k for k in range(1, min(t - 1, len(rows)) + 1)
        )

    def extend():
        nonlocal nodes, deepest
        if len(rows) == len(candidates):
            return "found"
        for v in [c for c in candidates if admissible(c)]:
            nodes += 1
            if nodes > node_budget:
                return "budget exceeded"
            rows.append(v)
            placed.add(v)
            deepest = max(deepest, len(rows))
            status = extend()
            if status:
                return status
            placed.remove(rows.pop())
        return None

    status = extend() or "exhausted"
    return status, nodes, deepest, tuple(rows) if status == "found" else None


def oracle_unpinned_graceful(sizes):
    """Whether a valid ordering exists, by a plain scan that pins no row.

    The unreduced counterpart of search_ordering: every vertex may open the
    ordering, so an exhausted scan has tried every ordering, not only those
    that start all-1, all-2.
    """
    t = len(sizes)
    candidates = list(itertools.product(*(range(1, n + 1) for n in sizes)))
    rows = []

    def extend():
        if len(rows) == len(candidates):
            return True
        for v in candidates:
            if v in rows or any(
                oracle_shared(v, rows[-k]) >= k for k in range(1, min(t - 1, len(rows)) + 1)
            ):
                continue
            rows.append(v)
            if extend():
                return True
            rows.pop()
        return False

    return extend()


@dataclass(frozen=True)
class BruteForceResult:
    graceful: bool
    witness: Ordering | None


def brute_force_radio_graceful(spec):
    """Ground-truth oracle: try every ordering with the first two rows pinned,
    checking each with the verifier."""
    require_spec(spec)
    if spec.has_more_vertices_than(BRUTE_FORCE_CAP):
        raise TooLargeError(
            f"{spec.num_vertices_text} vertices exceed the brute-force cap {BRUTE_FORCE_CAP}"
        )
    first = spec.constant_vertex(1)
    second = spec.constant_vertex(2)
    rest = [v for v in enumerate_vertices(spec) if v not in (first, second)]
    for perm in itertools.permutations(rest):
        ordering = Ordering(spec, (first, second) + perm)
        if not check_ordering(ordering):
            return BruteForceResult(True, ordering)
    return BruteForceResult(False, None)


# The instruction sets as three whole-set builders, before members were built
# one at a time from a closed form.  Copied verbatim, without their caches.


def _lru_set(n: int) -> tuple[Permutation, ...]:
    out = []
    for k in range(2, n + 1):
        images = list(range(1, n + 1))
        for i in range(1, k):
            images[i - 1] = i + 1
        images[k - 1] = 1
        out.append(Permutation(images))
    return tuple(out)


def _ltu_set(n: int) -> tuple[Permutation, ...]:
    out = []
    for k in range(2, n + 1):
        images = list(range(1, n + 1))
        if k == 2:
            images[0], images[1] = 2, 1
        else:
            images[0], images[1], images[k - 1] = 2, k, 1
        out.append(Permutation(images))
    return tuple(out)


def _recency_set(n: int, kprime: int) -> tuple[Permutation, ...]:
    """Sets keyed by the slot kprime that the previous instruction brought to
    the front (1 after the identity).

    f_k for k != kprime cycles 1 -> kprime -> k -> 1; the remaining member,
    and every member when kprime is 1, is the transposition (1 k).  With
    kprime fixed at 1 this is the transposition kind's set.
    """
    out = []
    for k in range(2, n + 1):
        images = list(range(1, n + 1))
        if k == kprime or kprime == 1:
            images[0], images[k - 1] = k, 1
        else:
            images[0] = kprime
            images[kprime - 1] = k
            images[k - 1] = 1
        out.append(Permutation(images))
    return tuple(out)


def oracle_instruction_set(kind, n, kprime):
    """The set f_2..f_n of `kind` over 1..n after an instruction that brought
    slot kprime to the front; only the history kind reads kprime."""
    kind = GeneratorKind(kind)
    if kind is GeneratorKind.LRU:
        return _lru_set(n)
    if kind is GeneratorKind.LTU:
        return _ltu_set(n)
    if kind is GeneratorKind.TRANSPOSITION:
        return _recency_set(n, 1)
    return _recency_set(n, kprime)


# The instruction layer's decode and encode as they stood before permutations
# cached their gather and instruction sets mapped images to subscripts: an
# inverse permutation built per membership test and a generator expression per
# action.  Copied verbatim, except that they call each other and
# oracle_instruction_set instead of the package's act, `in` and gen.sets.


def oracle_act(sigma, arrangement):
    """Rearrange a tuple: slot p of the result takes the value from slot inverse(p)."""
    if len(arrangement) != sigma.n:
        raise ShapeError(
            f"arrangement of length {len(arrangement)} under permutation of {sigma.n}"
        )
    inv = sigma.inverse().images
    return tuple(arrangement[inv[p] - 1] for p in range(sigma.n))


def oracle_subscript_of(iset, sigma):
    """Recover k with sigma = f_k.  Any member sends its subscript to 1."""
    if sigma.n != iset[0].n:
        raise MembershipError("permutation size does not match this instruction set")
    k = sigma.inverse()(1)
    if k < 2 or iset[k - 2] != sigma:
        raise MembershipError(f"{sigma!r} is not a member of this instruction set")
    return k


def oracle_contains(iset, sigma):
    if not isinstance(sigma, Permutation):
        return False
    try:
        oracle_subscript_of(iset, sigma)
    except MembershipError:
        return False
    return True


def oracle_arrangement_trace(instructions, gen):
    """Arrangements after each instruction, validating column membership."""
    instrs = tuple(instructions)
    n = gen.n
    if len(instrs) < 2:
        raise MembershipError("an instruction column needs at least two rows")
    if instrs[0].n != n or not instrs[0].is_identity():
        raise MembershipError("row 1 of an instruction column must be the identity")
    arr = tuple(range(1, n + 1))
    trace = [arr]
    for pos in range(2, len(instrs) + 1):
        sigma = instrs[pos - 1]
        iset = oracle_instruction_set(gen.kind, n, instrs[pos - 2].inverse()(1))
        if pos == 2:
            if sigma != iset[0]:
                raise MembershipError("row 2 of an instruction column must be f_2")
        elif not oracle_contains(iset, sigma):
            raise MembershipError(
                f"instruction at position {pos} is not offered by the generator"
            )
        arr = oracle_act(sigma, arr)
        trace.append(arr)
    return trace


def oracle_recover_instructions(values, gen):
    """Encode a value column as instructions; inverse of build_column.

    At each position the next value sits in some slot k of the current
    arrangement, and f_k is the unique member moving slot k to the front.
    """
    vals = tuple(int(v) for v in values)
    n = gen.n
    if len(vals) < 2:
        raise MembershipError("a value column needs at least two rows")
    if vals[0] != 1 or vals[1] != 2:
        raise MembershipError(f"value column must start 1, 2; got {vals[:2]}")
    for v in vals:
        if not 1 <= v <= n:
            raise MembershipError(f"value {v} outside 1..{n}")
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise MembershipError("consecutive values in a column must differ")
    arr = tuple(range(1, n + 1))
    out = [identity(n)]
    for pos in range(2, len(vals) + 1):
        target = vals[pos - 1]
        slot = arr.index(target) + 1
        sigma = oracle_instruction_set(gen.kind, n, out[-1].inverse()(1))[slot - 2]
        out.append(sigma)
        arr = oracle_act(sigma, arr)
    return tuple(out)
