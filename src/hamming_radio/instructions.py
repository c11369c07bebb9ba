"""Instruction columns that generate value columns one permutation at a time.

A length-N value column (first value 1, then 2, consecutive values distinct)
can be encoded as a column of permutations: keep an arrangement of the n
values, apply one permutation per row, and read off the front value.  An
instruction set is the tuple of the n-1 legal permutations f_2..f_n at one
position, in subscript order (f_k is entry k - 2) and normalized so f_k moves
the value in slot k to the front (f_k(k) = 1).  The set offered at a row
depends at most on the instruction one row up, so a generator maps the
previous instruction to the next set, and a column is a walk through those
sets.  With row 1 fixed to the identity and row 2 to f_2, encoding and
decoding are mutually inverse, and a value repeats at gap s exactly when the
corresponding run of s instructions composes to something fixing slot 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    MembershipError,
    ShapeError,
    UnsupportedSizeError,
)
from .graphs import GraphSpec, make_graph_spec, require_spec
from .perms import Permutation, identity, require_permutation
from .verify import Ordering, RadioViolation, repetition_violations

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
    front.  A set holds n(n - 1) images, which may not exceed ENUMERATION_CAP.
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

    def sets(self, previous: Permutation) -> tuple[Permutation, ...]:
        """The set f_2..f_n offered after the instruction `previous`, in
        subscript order, so f_k is entry k - 2; for row 2, `previous` is the
        identity in row 1."""
        if self.kind is GeneratorKind.LRU:
            return _lru_set(self.n)
        if self.kind is GeneratorKind.LTU:
            return _ltu_set(self.n)
        if self.kind is GeneratorKind.TRANSPOSITION:
            return _recency_set(self.n, 1)
        if not isinstance(previous, Permutation):
            raise MembershipError(f"previous instruction {previous!r} is not a Permutation")
        if previous.n != self.n:
            raise MembershipError("previous instruction permutes a different 1..n")
        return _recency_set(self.n, previous.inverse()(1))


@lru_cache(maxsize=None)
def _lru_set(n: int) -> tuple[Permutation, ...]:
    out = []
    for k in range(2, n + 1):
        images = list(range(1, n + 1))
        for i in range(1, k):
            images[i - 1] = i + 1
        images[k - 1] = 1
        out.append(Permutation(images))
    return tuple(out)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


def builtin_generator(kind: GeneratorKind | str, n: int) -> InstructionGenerator:
    """One of the four built-in generator families over {1..n}, n >= 3."""
    return InstructionGenerator(kind, n)


def _require_generator(gen: object) -> None:
    if not isinstance(gen, InstructionGenerator):
        raise MembershipError(f"generator {gen!r} is not an InstructionGenerator")


def _fixed_set(gen: InstructionGenerator) -> tuple[Permutation, ...] | None:
    """The set every row offers, read once per column; None for the history
    kind, whose set follows the previous instruction."""
    if gen.kind is GeneratorKind.HISTORY_DEPENDENT:
        return None
    return gen.sets(identity(gen.n))


def arrangement_trace(
    instructions: Sequence[Permutation], gen: InstructionGenerator
) -> list[tuple[int, ...]]:
    """Arrangements after each instruction, validating column membership."""
    _require_generator(gen)
    instrs = tuple(instructions)
    n = gen.n
    if len(instrs) < 2:
        raise MembershipError("an instruction column needs at least two rows")
    if instrs[0] != identity(n):
        raise MembershipError("row 1 of an instruction column must be the identity")
    if instrs[1] != gen.sets(instrs[0])[0]:
        raise MembershipError("row 2 of an instruction column must be f_2")
    fixed = _fixed_set(gen)
    arr = tuple(range(1, n + 1))
    trace = [arr]
    for pos, (previous, sigma) in enumerate(zip(instrs, instrs[1:]), start=2):
        # gather[0] is sigma^-1(1) - 1.  Every member f_k sends k to 1, so sigma
        # can only be f_k for k = gather[0] + 1, entry gather[0] - 1 of the set.
        gather = sigma.gather() if isinstance(sigma, Permutation) else ()
        if pos > 2 and (
            len(gather) != n
            or gather[0] == 0
            or (fixed or gen.sets(previous))[gather[0] - 1].images != sigma.images
        ):
            raise MembershipError(
                f"instruction at position {pos} is not offered by the generator"
            )
        # membership fixed sigma's size at n, so act's length check cannot fire
        arr = tuple(map(arr.__getitem__, gather))
        trace.append(arr)
    return trace


def build_column(
    instructions: Sequence[Permutation], gen: InstructionGenerator
) -> tuple[int, ...]:
    """Decode an instruction column into its value column (front of each arrangement)."""
    return tuple(arr[0] for arr in arrangement_trace(instructions, gen))


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
    fixed = _fixed_set(gen)
    arr = tuple(range(1, n + 1))
    sigma = identity(n)
    out: list[Permutation] = [sigma]
    for target in vals[1:]:
        # The front of arr is the previous value, which differs from target
        # (checked above), so slot >= 2 names a member f_slot.
        slot = arr.index(target) + 1
        sigma = (fixed or gen.sets(sigma))[slot - 2]
        out.append(sigma)
        arr = tuple(map(arr.__getitem__, sigma.gather()))
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
    for sigma in gen.sets(previous):
        for rest in _walks(gen, sigma, length - 1):
            yield (sigma,) + rest


def _refuse_past_cap(gen: InstructionGenerator, length: int, what: str) -> None:
    """Refuse more than ENUMERATION_CAP walks of `length` instructions.  They
    are counted as the (n-1)**length vertices of K_{n-1}^length, so no huge
    power is computed and a count past 30 digits is written as one, e.g. 2^20000."""
    if length > 0:
        walks = make_graph_spec([(gen.n - 1, length)])
        if walks.has_more_vertices_than(ENUMERATION_CAP):
            raise BudgetExceededError(
                f"{walks.num_vertices_text} {what} exceed the cap of {ENUMERATION_CAP}"
            )


def enumerate_fixing_runs(
    gen: InstructionGenerator, length: int
) -> frozenset[tuple[Permutation, ...]]:
    """All legal runs of `length` instructions starting at row 2 whose
    composition fixes 1.  A value column repeats at gap s exactly where its
    trailing run of s instructions lands in this set."""
    _require_generator(gen)
    if type(length) is not int:  # not bool, not 2.0, not '2'
        raise ShapeError(f"run length must be an integer, got {length!r}")
    if length < 1:
        raise ShapeError(f"run length must be >= 1, got {length}")
    _refuse_past_cap(gen, length, "candidate runs")
    return frozenset(filter(run_fixes_one, _walks(gen, identity(gen.n), length)))


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
    head = (identity(gen.n), gen.sets(identity(gen.n))[0])
    return [head + walk for walk in _walks(gen, head[1], length - 2)]


def subscript_string(run: Iterable[Permutation]) -> str:
    """Readable form of a run, e.g. 'f2 f3 f3'.  Members always send their
    subscript to 1, so the subscript is recoverable from the permutation."""
    names = []
    for sigma in run:
        require_permutation(sigma)
        names.append(f"f{sigma.inverse()(1)}")
    return " ".join(names)


@dataclass(frozen=True)
class OrderGenerator:
    """An N x t matrix of instructions, one column per graph column, plus the
    generator family each column draws from.  It is decoded and checked once,
    when built: build_column's errors raise here, and `ordering` keeps the result."""

    spec: GraphSpec
    cells: tuple[tuple[Permutation, ...], ...]
    generators: tuple[InstructionGenerator, ...]
    ordering: Ordering = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_spec(self.spec)
        cells = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        t, n = self.spec.diameter, len(cells)
        if not self.spec.has_vertex_count(n):
            raise ShapeError(
                f"order generator has {n} rows, spec needs {self.spec.num_vertices_text}"
            )
        for row in cells:
            if len(row) != t:
                raise ShapeError(f"each instruction row needs {t} entries, got {len(row)}")
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
        object.__setattr__(self, "ordering", Ordering(self.spec, tuple(zip(*columns))))


def make_order_generator(
    spec: GraphSpec,
    cells: Iterable[Iterable[Permutation]],
    generators: InstructionGenerator | Iterable[InstructionGenerator],
) -> OrderGenerator:
    require_spec(spec)
    if isinstance(generators, InstructionGenerator):
        generators = (generators,) * spec.diameter
    return OrderGenerator(spec, cells, generators)


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
    Repeated rows are found on og.ordering, decoded and checked when og was
    built.  The result matches check_ordering on the decoded ordering exactly;
    the window counts are kept apart from check_ordering on purpose, as an
    independent cross-check of it.
    """
    _require_order_generator(og)
    t = og.spec.diameter
    out: list = []
    # windows[j][s - 1] is where the trailing run of s instructions in column
    # j sends point 1, for s up to min(t - 1, rows so far - 1).
    windows: list[list[int]] = [[] for _ in range(t)]
    for i, row in enumerate(og.cells[1:], start=2):
        limit = min(t - 1, i - 1)
        for j, sigma in enumerate(row):
            images = sigma.images  # decoding og checked each cell fits its column
            windows[j] = [images[0], *[images[p - 1] for p in windows[j][: limit - 1]]]
        for s, points in enumerate(zip(*windows), start=1):
            if s > limit:  # only when t == 1: no gap lies below the diameter
                break
            count = points.count(1)
            if count >= s:
                out.append(RadioViolation(row=i, gap=s, shared=count))
    out.extend(repetition_violations(og.ordering.rows))
    return out
