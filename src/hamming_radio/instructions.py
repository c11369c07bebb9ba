"""Instruction columns that generate value columns one permutation at a time.

A length-N value column (first value 1, then 2, consecutive values distinct)
can be encoded as a column of permutations: keep an arrangement of the n
values, apply one permutation per row, and read off the front value.  An
instruction set supplies the n-1 legal permutations f_2..f_n at each position,
normalized so f_k moves the value in slot k to the front (f_k(k) = 1).  The
set offered at a row depends at most on the instruction one row up, so a
generator maps the previous instruction to the next set, and a column is a
walk through those sets.  With row 1 fixed to the identity and row 2 to f_2,
encoding and decoding are mutually inverse, and a value repeats at gap s
exactly when the corresponding run of s instructions composes to something
fixing slot 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    MembershipError,
    ShapeError,
    UnsupportedSizeError,
)
from .graphs import GraphSpec
from .perms import Permutation, act, identity
from .verify import Ordering, RadioViolation, repetition_violations


@dataclass(frozen=True)
class InstructionSet:
    """The permutations f_2..f_n available at one position; f_k(k) = 1."""

    instructions: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        instrs = tuple(self.instructions)
        object.__setattr__(self, "instructions", instrs)
        if not instrs:
            raise MembershipError("instruction set cannot be empty")
        n = instrs[0].n
        if len(instrs) != n - 1:
            raise MembershipError(f"expected {n - 1} instructions for n={n}, got {len(instrs)}")
        for k, sigma in enumerate(instrs, start=2):
            if sigma.n != n:
                raise MembershipError("instructions must all permute the same 1..n")
            if sigma(k) != 1:
                raise MembershipError(f"instruction f_{k} must send {k} to 1, got {sigma(k)}")

    @property
    def n(self) -> int:
        return self.instructions[0].n

    def by_subscript(self, k: int) -> Permutation:
        if not 2 <= k <= self.n:
            raise ShapeError(f"subscript {k} outside 2..{self.n}")
        return self.instructions[k - 2]

    def subscript_of(self, sigma: Permutation) -> int:
        """Recover k with sigma = f_k.  Any member sends its subscript to 1."""
        if sigma.n != self.n:
            raise MembershipError("permutation size does not match this instruction set")
        k = sigma.inverse()(1)
        if k < 2 or self.instructions[k - 2] != sigma:
            raise MembershipError(f"{sigma!r} is not a member of this instruction set")
        return k

    def __contains__(self, sigma: object) -> bool:
        if not isinstance(sigma, Permutation):
            return False
        try:
            self.subscript_of(sigma)
        except MembershipError:
            return False
        return True

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.instructions)


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
    front.
    """

    kind: GeneratorKind
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", GeneratorKind(self.kind))
        if self.n < 3:
            raise UnsupportedSizeError(f"instruction machinery needs n >= 3, got {self.n}")

    def sets(self, previous: Permutation) -> InstructionSet:
        """The set offered after the instruction `previous`; for row 2,
        `previous` is the identity in row 1."""
        if self.kind is GeneratorKind.LRU:
            return _lru_set(self.n)
        if self.kind is GeneratorKind.LTU:
            return _ltu_set(self.n)
        if self.kind is GeneratorKind.TRANSPOSITION:
            return _recency_set(self.n, 1)
        if previous.n != self.n:
            raise MembershipError("previous instruction permutes a different 1..n")
        return _recency_set(self.n, previous.inverse()(1))


@lru_cache(maxsize=None)
def _lru_set(n: int) -> InstructionSet:
    out = []
    for k in range(2, n + 1):
        images = list(range(1, n + 1))
        for i in range(1, k):
            images[i - 1] = i + 1
        images[k - 1] = 1
        out.append(Permutation(images))
    return InstructionSet(tuple(out))


@lru_cache(maxsize=None)
def _ltu_set(n: int) -> InstructionSet:
    out = []
    for k in range(2, n + 1):
        images = list(range(1, n + 1))
        if k == 2:
            images[0], images[1] = 2, 1
        else:
            images[0], images[1], images[k - 1] = 2, k, 1
        out.append(Permutation(images))
    return InstructionSet(tuple(out))


@lru_cache(maxsize=None)
def _recency_set(n: int, kprime: int) -> InstructionSet:
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
    return InstructionSet(tuple(out))


def builtin_generator(kind: GeneratorKind | str, n: int) -> InstructionGenerator:
    """One of the four built-in generator families over {1..n}, n >= 3."""
    return InstructionGenerator(kind, n)


def arrangement_trace(
    instructions: Sequence[Permutation], gen: InstructionGenerator
) -> list[tuple[int, ...]]:
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
        iset = gen.sets(instrs[pos - 2])
        if pos == 2:
            if sigma != iset.by_subscript(2):
                raise MembershipError("row 2 of an instruction column must be f_2")
        elif sigma not in iset:
            raise MembershipError(
                f"instruction at position {pos} is not offered by the generator"
            )
        arr = act(sigma, arr)
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
    out: list[Permutation] = [identity(n)]
    for pos in range(2, len(vals) + 1):
        target = vals[pos - 1]
        slot = arr.index(target) + 1
        sigma = gen.sets(out[-1]).by_subscript(slot)
        out.append(sigma)
        arr = act(sigma, arr)
    return tuple(out)


def run_fixes_one(run: Iterable[Permutation]) -> bool:
    """Does applying the run left to right bring slot 1's value back to the front?"""
    point = 1
    for sigma in run:
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


def enumerate_fixing_runs(
    gen: InstructionGenerator, length: int, max_runs: int = 1 << 20
) -> frozenset[tuple[Permutation, ...]]:
    """All legal runs of `length` instructions starting at row 2 whose
    composition fixes 1.  A value column repeats at gap s exactly where its
    trailing run of s instructions lands in this set."""
    if length < 1:
        raise ShapeError(f"run length must be >= 1, got {length}")
    if (gen.n - 1) ** length > max_runs:
        raise BudgetExceededError(
            f"{(gen.n - 1) ** length} candidate runs exceed the cap of {max_runs}"
        )
    return frozenset(filter(run_fixes_one, _walks(gen, identity(gen.n), length)))


def enumerate_instruction_columns(
    gen: InstructionGenerator, length: int, max_columns: int = 1 << 20
) -> list[tuple[Permutation, ...]]:
    """Every legal instruction column of the given length, (n-1)**(length-2) total."""
    if length < 2:
        raise ShapeError(f"column length must be >= 2, got {length}")
    if (gen.n - 1) ** (length - 2) > max_columns:
        raise BudgetExceededError(
            f"{(gen.n - 1) ** (length - 2)} columns exceed the cap of {max_columns}"
        )
    head = (identity(gen.n), gen.sets(identity(gen.n)).by_subscript(2))
    return [head + walk for walk in _walks(gen, head[1], length - 2)]


def subscript_string(run: Iterable[Permutation]) -> str:
    """Readable form of a run, e.g. 'f2 f3 f3'.  Members always send their
    subscript to 1, so the subscript is recoverable from the permutation."""
    return " ".join(f"f{sigma.inverse()(1)}" for sigma in run)


@dataclass(frozen=True)
class OrderGenerator:
    """An N x t matrix of instructions, one column per graph column, plus the
    generator family each column draws from."""

    spec: GraphSpec
    cells: tuple[tuple[Permutation, ...], ...]
    generators: tuple[InstructionGenerator, ...]

    def __post_init__(self) -> None:
        cells = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        t = self.spec.diameter
        if len(cells) != self.spec.num_vertices:
            raise ShapeError(
                f"order generator has {len(cells)} rows, spec needs {self.spec.num_vertices}"
            )
        for row in cells:
            if len(row) != t:
                raise ShapeError(f"each instruction row needs {t} entries, got {len(row)}")
        if len(gens) != t:
            raise ShapeError(f"need one generator per column ({t}), got {len(gens)}")
        for col, gen in enumerate(gens, start=1):
            if gen.n != self.spec.column_size(col):
                raise ShapeError(
                    f"column {col} takes values 1..{self.spec.column_size(col)}, "
                    f"generator is over 1..{gen.n}"
                )


def make_order_generator(
    spec: GraphSpec,
    cells: Iterable[Iterable[Permutation]],
    generators: InstructionGenerator | Iterable[InstructionGenerator],
) -> OrderGenerator:
    if isinstance(generators, InstructionGenerator):
        generators = (generators,) * spec.diameter
    return OrderGenerator(spec, tuple(tuple(r) for r in cells), tuple(generators))


def materialize(og: OrderGenerator) -> Ordering:
    """Decode every column and assemble the resulting ordering."""
    columns = []
    for j in range(og.spec.diameter):
        col = tuple(row[j] for row in og.cells)
        columns.append(build_column(col, og.generators[j]))
    return Ordering(og.spec, tuple(zip(*columns)))


def check_order_generator(og: OrderGenerator) -> list:
    """Radio-condition check carried out on the instruction side.

    For each row i and gap s below the diameter, counts the columns whose
    trailing run of s instructions fixes 1; each such column is a shared
    coordinate between rows i-s and i, so counts of s or more are violations.
    Repeated rows are found on the decoded ordering, which is materialized
    first.  The result matches check_ordering on the decoded ordering exactly;
    the window counts are kept apart from check_ordering on purpose, as an
    independent cross-check of it.
    """
    ordering = materialize(og)
    t = og.spec.diameter
    n_rows = len(og.cells)
    out: list = []
    windows: list[list[int | None]] = [[None] * (t - 1) for _ in range(t)]
    for i in range(2, n_rows + 1):
        limit = min(t - 1, i - 1)
        for j in range(t):
            sigma = og.cells[i - 1][j]
            prev = windows[j]
            new: list[int | None] = [None] * (t - 1)
            if t > 1:
                new[0] = sigma(1)
                for s in range(2, limit + 1):
                    new[s - 1] = sigma(prev[s - 2])
            windows[j] = new
        for s in range(1, limit + 1):
            count = sum(1 for j in range(t) if windows[j][s - 1] == 1)
            if count >= s:
                out.append(RadioViolation(row=i, gap=s, shared=count))
    out.extend(repetition_violations(ordering.rows))
    return out
