"""Instruction columns that generate value columns one permutation at a time.

A length-N value column (first value 1, then 2, consecutive values distinct)
can be encoded as a column of permutations: keep an arrangement of the n
values, apply one permutation per row, and read off the front value.  An
instruction set is the tuple of the n-1 legal permutations f_2..f_n at one
position, in subscript order (f_k is entry k - 2) and normalized so f_k moves
the value in slot k to the front (f_k(k) = 1).  The set offered at a row
depends at most on the instruction one row up, so a generator maps the
previous instruction to the next set, and a column is a walk through those
sets.  A member depends only on its subscript k and on the slot k' that the
previous instruction brought to the front, so each is built alone from a
closed form, _member, and encoding, decoding and parsing ask for only the
member they use; only sets() builds a whole set.  With row 1 fixed to the
identity and row 2 to f_2, encoding and decoding are mutually inverse, and a
value repeats at gap s exactly when the corresponding run of s instructions
composes to something fixing slot 1.

Encoding, decoding and the instruction-side check walk each column through
interned states.  Each distinct arrangement, together with the slot that
names the next set, or for the check each distinct window of points, is
stored once as a small number, and the state after a (state, value) or
(state, instruction) pair is worked out the first time the pair is met, so
most rows cost a few lookups.  A column keeps at most min(N, n!)
arrangements, the same O(N n) as the trace arrangement_trace returns, and
they are freed when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import add, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    MembershipError,
    ShapeError,
    UnsupportedSizeError,
)
from .graphs import GraphSpec, require_spec
from .perms import Permutation, identity, require_permutation
from .verify import Ordering, RadioViolation, _unchecked, repetition_violations

ENUMERATION_CAP = 1 << 20  # most runs or columns an enumeration builds


class GeneratorKind(Enum):
    TRANSPOSITION = "transposition"
    LRU = "lru"
    LTU = "ltu"
    HISTORY_DEPENDENT = "history"


@dataclass(frozen=True)
class InstructionGenerator:
    """One of the four instruction-set families over {1..n}, n >= 3.

    The transposition, lru and ltu kinds offer the same set at every row; the
    history kind reads which slot the previous instruction brought to the
    front.  The set sets() returns holds n(n - 1) images, which may not
    exceed ENUMERATION_CAP; member() builds one member of n images.
    """

    kind: GeneratorKind
    n: int

    def __post_init__(self) -> None:
        try:
            kind = GeneratorKind(self.kind)
        except ValueError as exc:
            raise MembershipError(str(exc)) from None
        object.__setattr__(self, "kind", kind)
        if type(self.n) is not int:  # not bool, not 3.0, not '3'
            raise UnsupportedSizeError(f"instruction machinery needs an integer n, got {self.n!r}")
        if self.n < 3:
            raise UnsupportedSizeError(f"instruction machinery needs n >= 3, got {self.n}")
        if self.n * (self.n - 1) > ENUMERATION_CAP:
            raise UnsupportedSizeError(f"n(n - 1) for n={self.n} exceeds the cap of {ENUMERATION_CAP}")

    def member(self, previous: Permutation, k: int) -> Permutation:
        """f_k of the set offered after the instruction `previous`, built
        alone: sets(previous)[k - 2]."""
        if type(k) is not int or not 2 <= k <= self.n:  # not bool, not 2.0
            raise MembershipError(f"no member f_{k!r} among f_2..f_{self.n}")
        if self.kind is not GeneratorKind.HISTORY_DEPENDENT:
            return _member(self.kind, self.n, 1, k)
        if not isinstance(previous, Permutation):
            raise MembershipError(f"previous instruction {previous!r} is not a Permutation")
        if previous.n != self.n:
            raise MembershipError("previous instruction permutes a different 1..n")
        return _member(self.kind, self.n, previous.gather()[0] + 1, k)

    def sets(self, previous: Permutation) -> tuple[Permutation, ...]:
        """The set f_2..f_n offered after the instruction `previous`, in
        subscript order, so f_k is entry k - 2; for row 2, `previous` is the
        identity in row 1."""
        return tuple(self.member(previous, k) for k in range(2, self.n + 1))


MEMBER_CACHE = 1024  # most members kept; the least recently used go first


@lru_cache(maxsize=MEMBER_CACHE)
def _member(kind: GeneratorKind, n: int, kprime: int, k: int) -> Permutation:
    """f_k over 1..n after an instruction that brought slot kprime to the
    front (1 after the identity, and always 1 for the kinds other than history).

    lru shifts slots 1..k - 1 down one and brings slot k to the front; ltu
    with k > 2 cycles 1 -> 2 -> k -> 1; history with kprime not 1 or k cycles
    1 -> kprime -> k -> 1.  Every other member is the transposition (1 k).
    """
    images = list(range(1, n + 1))
    if kind is GeneratorKind.LRU:
        images[:k] = [*range(2, k + 1), 1]
    elif kind is GeneratorKind.LTU and k > 2:
        images[0], images[1], images[k - 1] = 2, k, 1
    elif kind is GeneratorKind.HISTORY_DEPENDENT and kprime not in (1, k):
        images[0], images[kprime - 1], images[k - 1] = kprime, k, 1
    else:
        images[0], images[k - 1] = k, 1
    return Permutation(images)


builtin_generator = InstructionGenerator  # public name, kept for existing callers


def _require_generator(gen: object) -> None:
    if not isinstance(gen, InstructionGenerator):
        raise MembershipError(f"generator {gen!r} is not an InstructionGenerator")


class _ColumnStates:
    """A column walk's states: an arrangement and the slot k' that the last
    instruction brought to the front, which names the next set (kept at 1 by
    the kinds whose set never changes).  kprimes[state] is that slot, so
    _member(kind, n, kprimes[state], k) is the state's f_k, and moves[state]
    maps the caller's key to the next state."""

    def __init__(self, gen: InstructionGenerator) -> None:
        self.follows = gen.kind is GeneratorKind.HISTORY_DEPENDENT
        start = tuple(range(1, gen.n + 1))  # state 0
        self.numbers: dict[tuple[tuple[int, ...], int], int] = {(start, 1): 0}
        self.arrangements = [start]
        self.kprimes = [1]
        self.moves: list[dict] = [{}]

    def after(self, state: int, member: Permutation) -> int:
        gather = member.gather()
        arr = tuple(map(self.arrangements[state].__getitem__, gather))
        kprime = gather[0] + 1 if self.follows else 1
        nxt = self.numbers.setdefault((arr, kprime), len(self.arrangements))
        if nxt == len(self.arrangements):
            self.arrangements.append(arr)
            self.kprimes.append(kprime)
            self.moves.append({})
        return nxt


def arrangement_trace(
    instructions: Sequence[Permutation], gen: InstructionGenerator
) -> list[tuple[int, ...]]:
    """Arrangements after each instruction, validating column membership.
    An instruction object is checked the first time its state meets it."""
    _require_generator(gen)
    instrs = tuple(instructions)
    n = gen.n
    if len(instrs) < 2:
        raise MembershipError("an instruction column needs at least two rows")
    if instrs[0] != identity(n):
        raise MembershipError("row 1 of an instruction column must be the identity")
    if instrs[1] != _member(gen.kind, n, 1, 2):
        raise MembershipError("row 2 of an instruction column must be f_2")
    walk = _ColumnStates(gen)
    arrangements, moves = walk.arrangements, walk.moves
    state = walk.after(0, instrs[1])
    trace = [arrangements[0], arrangements[state]]
    for sigma in instrs[2:]:
        nxt = moves[state].get(id(sigma))  # instrs keeps every object alive, so ids stay unique
        if nxt is None:
            # gather[0] is sigma^-1(1) - 1.  Every member f_k sends k to 1, so sigma
            # can only be f_k for k = gather[0] + 1.
            gather = sigma.gather() if isinstance(sigma, Permutation) else ()
            if (
                len(gather) != n
                or gather[0] == 0
                or _member(gen.kind, n, walk.kprimes[state], gather[0] + 1).images != sigma.images
            ):
                raise MembershipError(
                    f"instruction at position {len(trace) + 1} is not offered by the generator"
                )
            nxt = moves[state][id(sigma)] = walk.after(state, sigma)
        state = nxt
        trace.append(arrangements[state])
    return trace


def build_column(
    instructions: Sequence[Permutation], gen: InstructionGenerator
) -> tuple[int, ...]:
    """Decode an instruction column into its value column (front of each arrangement)."""
    return tuple(map(itemgetter(0), arrangement_trace(instructions, gen)))


def recover_instructions(
    values: Sequence[int], gen: InstructionGenerator
) -> tuple[Permutation, ...]:
    """Encode a value column as instructions; inverse of build_column.

    At each position the next value sits in some slot k of the current
    arrangement, and f_k is the unique member moving slot k to the front.
    """
    _require_generator(gen)
    vals = tuple(values)
    for v in vals:
        if type(v) is not int:  # not bool, not 2.9, not '2'
            raise MembershipError(f"value {v!r} is not an integer")
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
    walk = _ColumnStates(gen)
    moves = walk.moves
    state = 0
    out: list[Permutation] = [identity(n)]
    for target in vals[1:]:
        hit = moves[state].get(target)
        if hit is None:
            # The front of the arrangement is the previous value, which differs
            # from target (checked above), so slot >= 2 names a member f_slot.
            slot = walk.arrangements[state].index(target) + 1
            sigma = _member(gen.kind, n, walk.kprimes[state], slot)
            hit = moves[state][target] = (sigma, walk.after(state, sigma))
        sigma, state = hit
        out.append(sigma)
    return tuple(out)


def run_fixes_one(run: Iterable[Permutation]) -> bool:
    """Does applying the run left to right bring slot 1's value back to the front?"""
    point = 1
    for sigma in run:
        require_permutation(sigma)
        point = sigma(point)
    return point == 1


def _walks(
    gen: InstructionGenerator, previous: Permutation, length: int
) -> Iterator[tuple[Permutation, ...]]:
    """Every legal run of `length` instructions following `previous`, depth
    first in the order of each instruction set."""
    if length == 0:
        yield ()
        return
    for k in range(2, gen.n + 1):
        sigma = gen.member(previous, k)
        for rest in _walks(gen, sigma, length - 1):
            yield (sigma,) + rest


def _refuse_past_cap(gen: InstructionGenerator, length: int, what: str) -> None:
    """Refuse more than ENUMERATION_CAP walks of `length` instructions.  They
    are counted as the (n-1)**length vertices of K_{n-1}^length, so no huge
    power is computed and a count past 30 digits is written as one, e.g. 2^20000."""
    if length > 0:
        walks = GraphSpec([(gen.n - 1, length)])
        if walks.has_more_vertices_than(ENUMERATION_CAP):
            raise BudgetExceededError(
                f"{walks.num_vertices_text} {what} exceed the cap of {ENUMERATION_CAP}"
            )


def enumerate_fixing_runs(
    gen: InstructionGenerator, length: int
) -> frozenset[tuple[Permutation, ...]]:
    """All legal runs of `length` instructions starting at row 2 whose
    composition fixes 1.  A value column repeats at gap s exactly where its
    trailing run of s instructions lands in this set.

    Every member f_k sends only k to 1, so a run fixes 1 exactly when its
    last member is f_p, where p is the point its first length - 1 members
    send 1 to.  So the (n-1)**(length-1) prefixes are walked and each whose
    p is not 1 is closed by its one f_p; the cap still counts the
    (n-1)**length candidate runs."""
    _require_generator(gen)
    if type(length) is not int:  # not bool, not 2.0, not '2'
        raise ShapeError(f"run length must be an integer, got {length!r}")
    if length < 1:
        raise ShapeError(f"run length must be >= 1, got {length}")
    _refuse_past_cap(gen, length, "candidate runs")
    start = identity(gen.n)
    runs = set()
    for prefix in _walks(gen, start, length - 1):
        point = 1
        for sigma in prefix:
            point = sigma.images[point - 1]
        if point != 1:
            runs.add(prefix + (gen.member((start, *prefix)[-1], point),))
    return frozenset(runs)


def enumerate_instruction_columns(
    gen: InstructionGenerator, length: int
) -> list[tuple[Permutation, ...]]:
    """Every legal instruction column of the given length, (n-1)**(length-2) total."""
    _require_generator(gen)
    if type(length) is not int:  # not bool, not 3.0, not '3'
        raise ShapeError(f"column length must be an integer, got {length!r}")
    if length < 2:
        raise ShapeError(f"column length must be >= 2, got {length}")
    _refuse_past_cap(gen, length - 2, "columns")
    head = (identity(gen.n), gen.member(identity(gen.n), 2))
    return [head + walk for walk in _walks(gen, head[1], length - 2)]


def subscript_string(run: Iterable[Permutation]) -> str:
    """Readable form of a run, e.g. 'f2 f3 f3'.  Members always send their
    subscript to 1, so the subscript is recoverable from the permutation."""
    names = []
    for sigma in run:
        require_permutation(sigma)
        names.append(f"f{sigma.gather()[0] + 1}")
    return " ".join(names)


@dataclass(frozen=True)
class OrderGenerator:
    """An N x t matrix of instructions, one column per graph column, plus each
    column's generator family (one generator alone serves every column).  It is
    decoded and checked once, when built: build_column's errors raise here."""

    spec: GraphSpec
    cells: tuple[tuple[Permutation, ...], ...]
    generators: tuple[InstructionGenerator, ...]
    ordering: Ordering = field(init=False, repr=False, compare=False)  # the decoded matrix

    def __post_init__(self) -> None:
        require_spec(self.spec)
        cells = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        t, n = self.spec.diameter, len(cells)
        if not self.spec.has_vertex_count(n):
            raise ShapeError(
                f"order generator has {n} rows, spec needs {self.spec.num_vertices_text}"
            )
        for row in cells:
            if len(row) != t:
                raise ShapeError(f"each instruction row needs {t} entries, got {len(row)}")
        gens = self.generators
        gens = (gens,) * t if isinstance(gens, InstructionGenerator) else tuple(gens)
        object.__setattr__(self, "generators", gens)
        if len(gens) != t:
            raise ShapeError(f"need one generator per column ({t}), got {len(gens)}")
        for col, gen in enumerate(gens, start=1):
            if not isinstance(gen, InstructionGenerator):
                raise ShapeError(f"column {col} generator {gen!r} is not an InstructionGenerator")
            if gen.n != self.spec.column_size(col):
                raise ShapeError(
                    f"column {col} takes values 1..{self.spec.column_size(col)}, "
                    f"generator is over 1..{gen.n}"
                )
        columns = [build_column(col, gen) for col, gen in zip(zip(*cells), gens)]
        # decoded columns hold values 1..n of their size, so the rows need no check
        ordering = _unchecked(Ordering, spec=self.spec, rows=tuple(zip(*columns)))
        object.__setattr__(self, "ordering", ordering)


make_order_generator = OrderGenerator  # public name, kept for existing callers


def _require_order_generator(og: object) -> None:
    if not isinstance(og, OrderGenerator):
        raise MembershipError(f"order generator {og!r} is not an OrderGenerator")


def materialize(og: OrderGenerator) -> Ordering:
    """The decoded ordering, which the OrderGenerator built when it was made."""
    _require_order_generator(og)
    return og.ordering


def check_order_generator(og: OrderGenerator) -> list:
    """Radio-condition check carried out on the instruction side.

    For each row i and gap s below the diameter, counts the columns whose
    trailing run of s instructions fixes 1; each such column is a shared
    coordinate between rows i-s and i, so counts of s or more are violations.
    Summed over the columns, a row's window scores hold each gap's count in
    a field, and adding 2^(width-1) - s to field s sets its top bit exactly
    when the count reaches s.  Repeated rows are found on og.ordering, decoded
    and checked when og was built.  The result matches check_ordering on the
    decoded ordering exactly; the window counts read only instructions, kept
    apart from check_ordering on purpose, as an independent cross-check of it.
    """
    _require_order_generator(og)
    t = og.spec.diameter
    width = t.bit_length() + 1  # a count of up to t columns stays below the top bit
    half = 1 << width - 1
    bias = sum((half - s) << (s - 1) * width for s in range(1, t))
    tops = sum(half << (s - 1) * width for s in range(1, t))
    totals = [0] * (len(og.cells) - 1)
    for column in zip(*og.cells):
        # Interned windows (w_1..w_m), m <= t - 1, where w_s is the point the
        # trailing run of s instructions sends 1 to; a window's score has bit
        # (s - 1) * width set when w_s == 1.
        numbers: dict[tuple[int, ...], int] = {(): 0}
        windows: list[tuple[int, ...]] = [()]
        scores = [0]
        moves: list[dict[tuple[int, ...], int]] = [{}]
        state = 0
        row_scores = []
        for sigma in column[1:]:
            images = sigma.images  # the step's whole input, as decoding og checked each cell
            nxt = moves[state].get(images)
            if nxt is None:
                window = (images[0], *[images[p - 1] for p in windows[state]])[: t - 1]
                nxt = numbers.setdefault(window, len(windows))
                if nxt == len(windows):
                    windows.append(window)
                    scores.append(sum(1 << s * width for s, w in enumerate(window) if w == 1))
                    moves.append({})
                moves[state][images] = nxt
            state = nxt
            row_scores.append(scores[state])
        totals = list(map(add, totals, row_scores))
    out: list = []
    for i, total in enumerate(totals, start=2):
        if (total + bias) & tops:
            for s in range(1, t):
                count = (total >> (s - 1) * width) & (2 * half - 1)
                if count >= s:
                    out.append(RadioViolation(row=i, gap=s, shared=count))
    out.extend(repetition_violations(og.ordering.rows))
    return out
