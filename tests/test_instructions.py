import ast
import itertools
import time
import tracemalloc

import pytest

from hamming_radio import instructions
from hamming_radio.errors import (
    BudgetExceededError,
    MembershipError,
    ShapeError,
    SpecError,
    UnsupportedSizeError,
)
from hamming_radio.graphs import GraphSpec, make_graph_spec
from hamming_radio.instructions import (
    GeneratorKind,
    InstructionGenerator,
    OrderGenerator,
    arrangement_trace,
    build_column,
    builtin_generator,
    check_order_generator,
    enumerate_fixing_runs,
    enumerate_instruction_columns,
    make_order_generator,
    materialize,
    recover_instructions,
    run_fixes_one,
    subscript_string,
)
from hamming_radio.perms import Permutation, act, identity
from hamming_radio.verify import Ordering, RadioViolation, check_ordering

from .oracles import (
    oracle_act,
    oracle_arrangement_trace,
    oracle_contains,
    oracle_instruction_set,
    oracle_recency_fixing_count,
    oracle_recover_instructions,
    oracle_run_fixes_one,
    random_value_column,
    seeded,
)

ALL_KINDS = (
    GeneratorKind.TRANSPOSITION,
    GeneratorKind.LRU,
    GeneratorKind.LTU,
    GeneratorKind.HISTORY_DEPENDENT,
)
ROW_1_MESSAGE = "row 1 of an instruction column must be the identity"
LRU3 = builtin_generator(GeneratorKind.LRU, 3)
LRU3_F2, LRU3_F3 = LRU3.sets(identity(3))


def test_instruction_set_lookup():
    iset = builtin_generator(GeneratorKind.LRU, 3).sets(identity(3))
    f2 = iset[0]
    assert f2 in iset
    assert identity(3) not in iset


def test_builtin_sets_frozen_n3():
    # for n = 3 the shift-to-front and shift-top-two families coincide
    trans = builtin_generator(GeneratorKind.TRANSPOSITION, 3).sets(identity(3))
    assert [s.images for s in trans] == [(2, 1, 3), (3, 2, 1)]
    lru = builtin_generator(GeneratorKind.LRU, 3).sets(identity(3))
    assert [s.images for s in lru] == [(2, 1, 3), (2, 3, 1)]
    ltu = builtin_generator(GeneratorKind.LTU, 3).sets(identity(3))
    assert [s.images for s in ltu] == [(2, 1, 3), (2, 3, 1)]


def test_builtin_sets_frozen_n4():
    trans = builtin_generator(GeneratorKind.TRANSPOSITION, 4).sets(identity(4))
    assert [s.images for s in trans] == [(2, 1, 3, 4), (3, 2, 1, 4), (4, 2, 3, 1)]
    lru = builtin_generator(GeneratorKind.LRU, 4).sets(identity(4))
    assert [s.images for s in lru] == [(2, 1, 3, 4), (2, 3, 1, 4), (2, 3, 4, 1)]
    ltu = builtin_generator(GeneratorKind.LTU, 4).sets(identity(4))
    assert [s.images for s in ltu] == [(2, 1, 3, 4), (2, 3, 1, 4), (2, 4, 3, 1)]


def test_history_dependent_sets():
    gen = builtin_generator(GeneratorKind.HISTORY_DEPENDENT, 3)
    # after the identity in row 1 the set degenerates to plain transpositions
    first = gen.sets(identity(3))
    assert [s.images for s in first] == [(2, 1, 3), (3, 2, 1)]
    f2 = first[0]
    after_f2 = gen.sets(f2)
    # previous front value came from slot 2, so f_3 cycles 1 -> 2 -> 3 -> 1
    assert [s.images for s in after_f2] == [(2, 1, 3), (2, 3, 1)]
    f3 = after_f2[1]
    after_f3 = gen.sets(f3)
    # previous front came from slot 3: f_2 cycles 1 -> 3 -> 2 -> 1, f_3 = (13)
    assert [s.images for s in after_f3] == [(3, 1, 2), (3, 2, 1)]


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(
            lambda: arrangement_trace(["id", LRU3_F2], LRU3),
            MembershipError,
            ROW_1_MESSAGE,
            id="trace-row-1-string",
        ),
        pytest.param(
            lambda: builtin_generator("history", 3).sets("f2"),
            MembershipError,
            "previous instruction 'f2' is not a Permutation",
            id="history-after-string",
        ),
        pytest.param(
            lambda: make_order_generator(
                make_graph_spec([(3, 1)]), [(identity(3),), (LRU3_F2,), (LRU3_F3,)], ("lru",)
            ),
            ShapeError,
            "column 1 generator 'lru' is not an InstructionGenerator",
            id="generator-string",
        ),
        pytest.param(
            lambda: InstructionGenerator("lru", 3.0),
            UnsupportedSizeError,
            "instruction machinery needs an integer n, got 3.0",
            id="generator-n-float",
        ),
        pytest.param(
            lambda: InstructionGenerator("lru", "3"),
            UnsupportedSizeError,
            "instruction machinery needs an integer n, got '3'",
            id="generator-n-string",
        ),
        pytest.param(
            lambda: InstructionGenerator("lru", True),
            UnsupportedSizeError,
            "instruction machinery needs an integer n, got True",
            id="generator-n-bool",
        ),
        pytest.param(
            lambda: enumerate_fixing_runs(LRU3, 2.0),
            ShapeError,
            "run length must be an integer, got 2.0",
            id="run-length-float",
        ),
        pytest.param(
            lambda: enumerate_fixing_runs(LRU3, True),
            ShapeError,
            "run length must be an integer, got True",
            id="run-length-bool",
        ),
        pytest.param(
            lambda: enumerate_fixing_runs(LRU3, "2"),
            ShapeError,
            "run length must be an integer, got '2'",
            id="run-length-string",
        ),
        pytest.param(
            lambda: enumerate_instruction_columns(LRU3, 3.0),
            ShapeError,
            "column length must be an integer, got 3.0",
            id="column-length-float",
        ),
        pytest.param(
            lambda: enumerate_instruction_columns(LRU3, True),
            ShapeError,
            "column length must be an integer, got True",
            id="column-length-bool",
        ),
        pytest.param(
            lambda: builtin_generator("history", 3).sets(identity(4)),
            MembershipError,
            "previous instruction permutes a different 1..n",
            id="history-after-other-size",
        ),
        pytest.param(
            lambda: enumerate_fixing_runs("lru", 2),
            MembershipError,
            "generator 'lru' is not an InstructionGenerator",
            id="runs-of-a-string",
        ),
        pytest.param(
            lambda: enumerate_instruction_columns("lru", 3),
            MembershipError,
            "generator 'lru' is not an InstructionGenerator",
            id="columns-of-a-string",
        ),
        pytest.param(
            lambda: recover_instructions([1, 2, 3], "lru"),
            MembershipError,
            "generator 'lru' is not an InstructionGenerator",
            id="recover-with-a-string",
        ),
        pytest.param(
            lambda: arrangement_trace([identity(3), LRU3_F2], "lru"),
            MembershipError,
            "generator 'lru' is not an InstructionGenerator",
            id="trace-with-a-string",
        ),
        pytest.param(
            lambda: check_order_generator("x"),
            MembershipError,
            "order generator 'x' is not an OrderGenerator",
            id="check-a-string",
        ),
        pytest.param(
            lambda: materialize("x"),
            MembershipError,
            "order generator 'x' is not an OrderGenerator",
            id="materialize-a-string",
        ),
        pytest.param(
            lambda: subscript_string(["a"]),
            ShapeError,
            "'a' is not a Permutation",
            id="subscripts-of-strings",
        ),
        pytest.param(
            lambda: run_fixes_one([1, 2]),
            ShapeError,
            "1 is not a Permutation",
            id="run-of-ints",
        ),
        pytest.param(
            lambda: builtin_generator("bogus", 3),
            MembershipError,
            "'bogus' is not a valid GeneratorKind",
            id="generator-unknown-kind",
        ),
        pytest.param(
            lambda: OrderGenerator("3^2", (), ()),
            SpecError,
            "spec '3^2' is not a GraphSpec",
            id="order-generator-of-a-string",
        ),
        pytest.param(
            lambda: make_order_generator("3^2", [], LRU3),
            SpecError,
            "spec '3^2' is not a GraphSpec",
            id="make-order-generator-of-a-string",
        ),
    ],
)
def test_foreign_arguments_raise_the_layer_errors(call, error, message):
    """Arguments of the wrong type get the layer's own error, not an AttributeError."""
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_generator_construction_errors():
    with pytest.raises(UnsupportedSizeError):
        builtin_generator(GeneratorKind.LRU, 2)
    assert builtin_generator("ltu", 4).kind is GeneratorKind.LTU


def test_arrangement_trace_worked_example():
    gen = builtin_generator(GeneratorKind.LRU, 3)
    f2, f3 = gen.sets(identity(3))
    trace = arrangement_trace([identity(3), f2, f3, f2], gen)
    assert trace == [(1, 2, 3), (2, 1, 3), (3, 2, 1), (2, 3, 1)]
    assert build_column([identity(3), f2, f3, f2], gen) == (1, 2, 3, 2)


def test_arrangement_trace_membership_errors():
    gen = builtin_generator(GeneratorKind.LRU, 3)
    f2, f3 = gen.sets(identity(3))
    with pytest.raises(MembershipError):
        arrangement_trace([identity(3)], gen)
    with pytest.raises(MembershipError):
        arrangement_trace([f2, f2], gen)  # row 1 must be the identity
    with pytest.raises(MembershipError):
        arrangement_trace([identity(3), f3], gen)  # row 2 must be f_2
    with pytest.raises(MembershipError):
        arrangement_trace([identity(3), f2, identity(3)], gen)


def test_recover_instructions_validation():
    gen = builtin_generator(GeneratorKind.LRU, 3)
    with pytest.raises(MembershipError):
        recover_instructions([1], gen)
    with pytest.raises(MembershipError):
        recover_instructions([1, 3, 2], gen)  # must start 1, 2
    with pytest.raises(MembershipError):
        recover_instructions([2, 1, 2], gen)
    with pytest.raises(MembershipError):
        recover_instructions([1, 2, 2], gen)  # consecutive repeat
    with pytest.raises(MembershipError):
        recover_instructions([1, 2, 4], gen)  # out of range


@pytest.mark.parametrize(
    "values,message",
    [
        ([1, 2.9, 3.1, 1], "value 2.9 is not an integer"),
        ([1, 2, "x"], "value 'x' is not an integer"),
        ([1, True, 3], "value True is not an integer"),
    ],
)
def test_recover_instructions_refuses_inexact_values(values, message):
    with pytest.raises(MembershipError) as err:
        recover_instructions(values, builtin_generator("lru", 3))
    assert str(err.value) == message


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _builtin_members(n):
    """Every member of every built-in set over 1..n, sorted by images."""
    previous = [identity(n), *builtin_generator("transposition", n).sets(identity(n))]
    pool = {
        sigma
        for kind in ALL_KINDS
        for prev in previous
        for sigma in builtin_generator(kind, n).sets(prev)
    }
    return sorted(pool, key=lambda p: p.images)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_decode_and_encode_match_the_reference_copies(kind, n):
    """recover_instructions, arrangement_trace, act and set membership agree
    with the reference copies in tests/oracles.py, which act through a fresh
    inverse and test membership through oracle_subscript_of: equal results on
    valid columns, and the same exception type and message on corrupted ones.
    Every set for n >= 3 holds a 3-cycle, so a gather read from the images
    instead of the inverse images would fail here."""
    gen = builtin_generator(kind, n)
    other_size = builtin_generator(kind, n + 1).sets(identity(n + 1))[0]
    members = _builtin_members(n)
    rng = seeded(100 * n + len(kind.value))
    for _ in range(15):
        column = random_value_column(n, rng.randint(2, 200), rng)
        instructions = recover_instructions(column, gen)
        assert instructions == oracle_recover_instructions(column, gen)
        trace = arrangement_trace(instructions, gen)
        assert trace == oracle_arrangement_trace(instructions, gen)
        for pos in range(2, len(instructions) + 1):
            sigma, iset = instructions[pos - 1], gen.sets(instructions[pos - 2])
            assert act(sigma, trace[pos - 2]) == oracle_act(sigma, trace[pos - 2])
            foreign = rng.choice([p for p in members if p not in iset])
            for probe in (sigma, foreign, other_size, identity(n)):
                assert (probe in iset) == oracle_contains(iset, probe)
            assert ("f2" in iset) == oracle_contains(iset, "f2")

        pos = rng.randint(3, max(3, len(instructions)))
        offered = gen.sets(instructions[pos - 2]) if pos <= len(instructions) else None
        corrupted = [
            (1, instructions[1]),  # row 1 not the identity
            (2, gen.sets(identity(n))[1]),  # row 2 not f_2
            (1, other_size),
            (2, other_size),
            (1, "id"),
            (2, "f2"),
        ]
        if offered is not None:  # another set's member, another size, not a Permutation
            corrupted += [
                (pos, rng.choice([p for p in members if p not in offered])),
                (pos, other_size),
                (pos, instructions[pos - 1].images),  # not a Permutation
            ]
        for row, bad in corrupted:
            broken = list(instructions)
            broken[row - 1] = bad
            got = _outcome(arrangement_trace, broken, gen)
            assert got[0] != "returned"
            if (row, bad) == (1, "id"):  # the reference copy raises a bare AttributeError
                assert got == (MembershipError, ROW_1_MESSAGE)
            else:
                assert got == _outcome(oracle_arrangement_trace, broken, gen)

        wrong_values = [
            column[:1],
            (2, *column[1:]),
            (1, 3, *column[2:]),
            (*column, n + 1),
            (*column, column[-1]),
        ]
        for values in wrong_values:
            got = _outcome(recover_instructions, values, gen)
            assert got[0] is MembershipError
            assert got == _outcome(oracle_recover_instructions, values, gen)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_round_trip_value_to_instructions(kind, n):
    gen = builtin_generator(kind, n)
    rng = seeded(1000 * n + len(kind.value))
    for _ in range(50):
        column = random_value_column(n, 20, rng)
        instructions = recover_instructions(column, gen)
        assert instructions[0].is_identity()
        assert build_column(instructions, gen) == column


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_round_trip_instructions_to_value(kind):
    gen = builtin_generator(kind, 3)
    for instructions in enumerate_instruction_columns(gen, 7):
        column = build_column(instructions, gen)
        assert recover_instructions(column, gen) == instructions


def test_run_fixes_one_matches_oracle():
    rng = seeded(307)
    gen = builtin_generator(GeneratorKind.TRANSPOSITION, 4)
    members = list(gen.sets(identity(4)))
    for _ in range(200):
        run = [rng.choice(members) for _ in range(rng.randint(1, 5))]
        assert run_fixes_one(run) == oracle_run_fixes_one([p.images for p in run])


def test_fixing_runs_frozen_for_shift_to_front_n3():
    gen = builtin_generator(GeneratorKind.LRU, 3)
    runs2 = {subscript_string(run) for run in enumerate_fixing_runs(gen, 2)}
    assert runs2 == {"f2 f2", "f3 f2"}
    runs3 = {subscript_string(run) for run in enumerate_fixing_runs(gen, 3)}
    assert runs3 == {"f2 f3 f3", "f3 f3 f3"}


def test_fixing_runs_count_for_history_kind():
    # hand-derived counts for n = 3 (runs may revisit the front mid-walk, so
    # the count is not simply first-return paths); larger cases go through an
    # independent composition oracle
    frozen_n3 = {2: 2, 3: 2, 4: 6}
    for n in (3, 4):
        gen = builtin_generator(GeneratorKind.HISTORY_DEPENDENT, n)
        for s in (2, 3, 4):
            runs = enumerate_fixing_runs(gen, s)
            assert len(runs) == oracle_recency_fixing_count(n, s)
            if n == 3:
                assert len(runs) == frozen_n3[s]
            for run in runs:
                assert run_fixes_one(run)


def test_fixing_runs_budget_and_shape():
    gen = builtin_generator(GeneratorKind.LRU, 5)
    with pytest.raises(BudgetExceededError):
        enumerate_fixing_runs(gen, 11)  # 4^11 candidates exceed the default cap
    with pytest.raises(ShapeError):
        enumerate_fixing_runs(gen, 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_column_count_formula(kind):
    gen = builtin_generator(kind, 3)
    for length in range(2, 9):
        columns = enumerate_instruction_columns(gen, length)
        assert len(columns) == 2 ** (length - 2)
        decoded = {build_column(c, gen) for c in columns}
        assert len(decoded) == len(columns)
        for value_column in decoded:
            assert value_column[:2] == (1, 2)
            assert all(a != b for a, b in zip(value_column, value_column[1:]))


def test_huge_lengths_are_refused_without_the_power():
    """The cap is decided and the count written without computing
    (n-1)**length, which for length 10**9 alone takes 250 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as runs:
            enumerate_fixing_runs(builtin_generator(GeneratorKind.LRU, 5), 10**9)
        with pytest.raises(BudgetExceededError) as columns:
            enumerate_instruction_columns(builtin_generator(GeneratorKind.LRU, 3), 10**9 + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(runs.value) == "4^1000000000 candidate runs exceed the cap of 1048576"
    assert str(columns.value) == "2^1000000000 columns exceed the cap of 1048576"
    assert peak < 1_000_000


def test_column_enumeration_budget_and_shape():
    gen = builtin_generator(GeneratorKind.LRU, 3)
    with pytest.raises(ShapeError):
        enumerate_instruction_columns(gen, 1)
    with pytest.raises(BudgetExceededError):
        # 2^21 columns, past ENUMERATION_CAP
        enumerate_instruction_columns(gen, 23)


def test_repetition_run_equivalence_exhaustive():
    """A value repeats at gap s exactly when the trailing s instructions
    compose to something fixing slot 1 (checked for every legal column)."""
    for kind in ALL_KINDS:
        gen = builtin_generator(kind, 3)
        for length in range(2, 8):
            for instructions in enumerate_instruction_columns(gen, length):
                values = build_column(instructions, gen)
                for i in range(1, length + 1):
                    for s in range(1, i):
                        run = instructions[i - s : i]
                        assert (values[i - 1] == values[i - s - 1]) == run_fixes_one(run)


def test_subscript_string():
    gen = builtin_generator(GeneratorKind.LRU, 3)
    assert subscript_string(gen.sets(identity(3))) == "f2 f3"


def test_order_generator_validation():
    spec = make_graph_spec([(3, 1)])
    gen = builtin_generator(GeneratorKind.LRU, 3)
    f2, f3 = gen.sets(identity(3))
    good = make_order_generator(spec, [(identity(3),), (f2,), (f3,)], gen)
    assert materialize(good).rows == ((1,), (2,), (3,))
    with pytest.raises(ShapeError):
        make_order_generator(spec, [(identity(3),), (f2,)], gen)
    with pytest.raises(ShapeError):
        make_order_generator(spec, [(identity(3), f2), (f2, f2), (f3, f3)], gen)
    with pytest.raises(ShapeError):
        make_order_generator(spec, [(identity(3),), (f2,), (f3,)], (gen, gen))
    with pytest.raises(ShapeError):
        make_order_generator(
            make_graph_spec([(4, 1)]),
            [(identity(3),)] * 4,
            gen,  # size-3 generator on a size-4 column
        )
    # the constructor decodes, so an invalid matrix is never built
    refused = [
        ([("id",), (f2,), (f3,)], ROW_1_MESSAGE),
        ([(identity(3),), (f3,), (f2,)], "row 2 of an instruction column must be f_2"),
        (
            [(identity(3),), (f2,), (identity(3),)],
            "instruction at position 3 is not offered by the generator",
        ),
    ]
    for cells, message in refused:
        with pytest.raises(MembershipError) as err:
            make_order_generator(spec, cells, gen)
        assert str(err.value) == message


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_golden_ordering_decodes_as_order_generator(golden_k34, k34_finds, kind, monkeypatch):
    """Dual route on the reference data and the three two-ended finds: recover
    each column's instructions, rebuild the ordering, and check the matrix on
    the instruction side.  The matrix is decoded once, when it is built, and
    never again."""
    gen = builtin_generator(kind, 3)
    calls = []
    real = instructions.build_column

    def counting(column, generator):
        calls.append(generator)
        return real(column, generator)

    monkeypatch.setattr(instructions, "build_column", counting)
    for golden in (golden_k34, *k34_finds):
        columns = list(zip(*golden.rows))
        cells_by_column = [recover_instructions(col, gen) for col in columns]
        cells = list(zip(*cells_by_column))
        calls.clear()
        og = make_order_generator(golden.spec, cells, gen)
        assert materialize(og).rows == golden.rows
        assert check_order_generator(og) == []
        assert len(calls) == golden.spec.diameter
        assert materialize(og) is materialize(og)
        twin = make_order_generator(golden.spec, cells, gen)
        assert twin == og and hash(twin) == hash(og)
        assert "ordering" not in repr(og)


def test_order_generator_takes_one_generator_or_one_per_column(golden_k32):
    """One generator, a tuple of t and a lazy iterable of t build equal
    matrices; the helper names are the classes, so they accept the same."""
    assert make_order_generator is OrderGenerator
    assert builtin_generator is InstructionGenerator
    assert make_graph_spec is GraphSpec
    spec, t = golden_k32.spec, golden_k32.spec.diameter
    cells = list(zip(*(recover_instructions(col, LRU3) for col in zip(*golden_k32.rows))))
    built = [
        OrderGenerator(spec, cells, LRU3),
        OrderGenerator(spec, cells, (LRU3,) * t),
        OrderGenerator(spec, iter(cells), (LRU3 for _ in range(t))),
    ]
    for og in built:
        assert og == built[0] and og.generators == (LRU3,) * t
        assert og.ordering == golden_k32


def test_check_order_generator_matches_ordering_check():
    """All four kinds, on random value columns, which break the window rule
    often: 3^3, one column, columns of two sizes, and 3^8, whose seven gaps
    each take a 5-bit count field."""
    rng = seeded(311)
    for kind in ALL_KINDS:
        for factors, count in (([(3, 3)], 100), ([(3, 1)], 20), ([(3, 2), (4, 2)], 20), ([(3, 8)], 1)):
            spec = make_graph_spec(factors)
            gens = [builtin_generator(kind, size) for size in spec.column_sizes()]
            gaps = set()
            for _ in range(count):
                cells_by_column = [
                    recover_instructions(random_value_column(g.n, spec.num_vertices, rng), g)
                    for g in gens
                ]
                og = make_order_generator(spec, list(zip(*cells_by_column)), gens)
                violations = check_order_generator(og)
                assert violations == check_ordering(materialize(og))
                gaps.update(v.gap for v in violations if isinstance(v, RadioViolation))
            # consecutive values in a column differ, so gap 1 never breaks the rule
            assert gaps == set(range(2, spec.diameter)), (kind, factors)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decode_checks_each_instruction_object(kind):
    """Decoding remembers a (state, instruction) pair by the instruction
    object: equal copies of the set members decode to the same trace, and a
    permutation with a member's subscript but not its images is refused at
    every row, also where its state has already met that member."""
    gen = builtin_generator(kind, 4)
    column = random_value_column(4, 60, seeded(401 + len(kind.value)))
    instrs = recover_instructions(column, gen)
    trace = arrangement_trace(instrs, gen)
    copies = [Permutation(sigma.images) for sigma in instrs]
    assert all(c is not s and c == s for c, s in zip(copies, instrs))
    assert arrangement_trace(copies, gen) == trace
    mixed = [c if pos % 3 else s for pos, (c, s) in enumerate(zip(copies, instrs))]
    assert arrangement_trace(mixed, gen) == trace
    assert build_column(copies, gen) == column
    for pos in range(3, len(instrs) + 1):
        images = list(instrs[pos - 1].images)
        i, j = [slot for slot in range(4) if images[slot] != 1][:2]
        images[i], images[j] = images[j], images[i]  # still sends its subscript to 1
        broken = list(instrs)
        broken[pos - 1] = Permutation(images)
        with pytest.raises(MembershipError) as err:
            arrangement_trace(broken, gen)
        assert str(err.value) == f"instruction at position {pos} is not offered by the generator"


def _refuse_permutations_past(monkeypatch, limit):
    """Stand in for the instruction layer's Permutation and identity with a
    subclass that refuses to build more than `limit` permutations, and clear
    the member cache so that every member the layer uses is built anew.
    Returns the list that gains one entry per permutation built."""
    built = []

    class Counted(Permutation):
        __slots__ = ()

        def __init__(self, images):
            built.append(None)
            assert len(built) <= limit, f"permutation number {limit + 1} was built"
            super().__init__(images)

    monkeypatch.setattr(instructions, "Permutation", Counted)
    monkeypatch.setattr(instructions, "identity", lambda size: Counted(range(1, size + 1)))
    instructions._member.cache_clear()
    return built


def test_history_column_at_the_largest_n_builds_only_the_members_it_uses(monkeypatch):
    """n = 1024 is the largest n that ENUMERATION_CAP allows.  Encoding and
    decoding a 50-row history column over the values 1..50 builds at most one
    member per row, so a stand-in Permutation that refuses a 101st
    permutation is never reached and the round trip stays well under a
    second; building the whole set of 1023 members at a row would be refused
    inside the first.  The identities are built as stand-ins too, so that
    they pass the layer's isinstance checks."""
    n = 1024
    assert n * (n - 1) <= instructions.ENUMERATION_CAP < (n + 1) * n
    _refuse_permutations_past(monkeypatch, 100)
    gen = builtin_generator(GeneratorKind.HISTORY_DEPENDENT, n)
    column = random_value_column(50, 50, seeded(1024))
    start = time.perf_counter()
    encoded = recover_instructions(column, gen)
    assert build_column(encoded, gen) == column
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_history_fixing_runs_keep_few_members():
    """Fixing runs of two history instructions over 1..128 need only the
    127 prefixes and one closing member each; the traced peak stays a few
    MiB."""
    gen = builtin_generator(GeneratorKind.HISTORY_DEPENDENT, 128)
    tracemalloc.start()
    try:
        runs = enumerate_fixing_runs(gen, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(runs) == oracle_recency_fixing_count(128, 2)
    assert peak < 8 * 2**20


def test_history_fixing_runs_close_each_prefix_with_one_member(monkeypatch):
    """At n = 256 the runs of two history instructions are built from the
    identity, the 255 one-member prefixes and one closing member each, 511
    permutations in all, where filtering all 255^2 candidate runs builds
    65,281.  f_k after the identity is (1 k), and the only run it starts
    that fixes 1 repeats it."""
    n = 256
    built = _refuse_permutations_past(monkeypatch, 511)
    runs = enumerate_fixing_runs(builtin_generator(GeneratorKind.HISTORY_DEPENDENT, n), 2)
    assert len(built) <= 511
    swaps = []
    for k in range(2, n + 1):
        images = list(range(1, n + 1))
        images[0], images[k - 1] = k, 1
        swaps.append(tuple(images))
    assert {tuple(sigma.images for sigma in run) for run in runs} == {(s, s) for s in swaps}
    assert len(runs) == oracle_recency_fixing_count(n, 2) == 255


def _oracle_fixing_runs(kind, n, length):
    """Every run of `length` members of the whole-set builders, following the
    identity, filtered by the composition oracle; runs as image tuples."""
    runs = set()

    def walk(kprime, run):
        if len(run) == length:
            if oracle_run_fixes_one(run):
                runs.add(run)
            return
        for sigma in oracle_instruction_set(kind, n, kprime):
            walk(sigma.images.index(1) + 1, run + (sigma.images,))

    walk(1, ())
    return runs


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", range(3, 7))
def test_fixing_runs_equal_the_filtered_candidate_runs(kind, n):
    """Closing each prefix with its one member finds exactly the runs that
    filtering every candidate run finds, for lengths 1 to 4."""
    gen = builtin_generator(kind, n)
    for length in range(1, 5):
        runs = {tuple(sigma.images for sigma in run) for run in enumerate_fixing_runs(gen, length)}
        assert runs == _oracle_fixing_runs(kind, n, length), length


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_check_order_generator_reads_equal_copies_alike(kind):
    """The instruction-side check keys each window by the instruction's
    images, so a matrix of equal but distinct copies of each cell, alone or
    mixed with the originals, gives the same report as the original."""
    spec = make_graph_spec([(3, 3)])
    gen = builtin_generator(kind, 3)
    rng = seeded(517 + len(kind.value))
    reports = []
    for _ in range(20):
        columns = [recover_instructions(random_value_column(3, spec.num_vertices, rng), gen) for _ in range(3)]
        cells = list(zip(*columns))
        copies = [tuple(Permutation(sigma.images) for sigma in row) for row in cells]
        assert all(c is not s and c == s for row, twin in zip(cells, copies) for c, s in zip(twin, row))
        mixed = [twin if i % 2 else row for i, (row, twin) in enumerate(zip(cells, copies))]
        report = check_order_generator(make_order_generator(spec, cells, gen))
        assert check_order_generator(make_order_generator(spec, copies, gen)) == report
        assert check_order_generator(make_order_generator(spec, mixed, gen)) == report
        reports.append(report)
    assert any(reports)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", range(3, 10))
def test_sets_and_members_equal_the_whole_set_builders(kind, n):
    """sets() after an instruction that brought slot k' to the front, for
    every k', equals the whole-set builders copied into tests/oracles.py, and
    member(previous, k) is its entry k - 2; member refuses other subscripts."""
    gen = builtin_generator(kind, n)
    for kprime in range(1, n + 1):
        images = list(range(1, n + 1))
        images[0], images[kprime - 1] = kprime, 1
        previous = Permutation(images)  # (1 k'), the identity for k' = 1
        assert previous.inverse()(1) == kprime
        iset = gen.sets(previous)
        assert iset == oracle_instruction_set(kind, n, kprime)
        assert [gen.member(previous, k) for k in range(2, n + 1)] == list(iset)
    for k in (1, n + 1, True, 2.0, "2"):
        with pytest.raises(MembershipError) as err:
            gen.member(identity(n), k)
        assert str(err.value) == f"no member f_{k!r} among f_2..f_{n}"


def test_decoding_an_order_generator_validates_no_vertex(monkeypatch):
    """The decoded columns hold values 1..n of their sizes, so building the
    ordering of a 5^4 matrix asks validate_vertex about no row."""
    spec = make_graph_spec([(5, 4)])
    gens = [builtin_generator(kind, 5) for kind in ALL_KINDS]
    rng = seeded(56)
    columns = [random_value_column(5, spec.num_vertices, rng) for _ in gens]
    cells = list(zip(*(recover_instructions(col, g) for col, g in zip(columns, gens))))
    calls = []
    real = GraphSpec.validate_vertex

    def counting(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(GraphSpec, "validate_vertex", counting)
    og = make_order_generator(spec, cells, gens)
    assert calls == []
    assert materialize(og) == Ordering(spec, tuple(zip(*columns)))


def test_instructions_keep_one_bounded_cache():
    """The instruction layer memoizes through exactly one lru_cache, and its
    maxsize is a bounded integer, so no unbounded set table can come back."""
    with open(instructions.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    caches = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
        or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
    ]
    assert len(caches) == 1
    (decorated,) = [
        deco
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for deco in node.decorator_list
        if isinstance(deco, ast.Call) and deco.func is caches[0]
    ]
    (maxsize,) = [kw.value for kw in decorated.keywords if kw.arg == "maxsize"] + decorated.args
    bound = eval(ast.unparse(maxsize), vars(instructions))
    assert type(bound) is int and 0 < bound <= 1 << 16
