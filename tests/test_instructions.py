import itertools
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
from hamming_radio.graphs import make_graph_spec
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
from hamming_radio.verify import check_ordering

from .oracles import (
    oracle_act,
    oracle_arrangement_trace,
    oracle_contains,
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
def test_golden_ordering_decodes_as_order_generator(golden_k34, kind, monkeypatch):
    """Dual route on the reference data: recover each column's instructions,
    rebuild the ordering, and check the matrix on the instruction side.  The
    matrix is decoded once, when it is built, and never again."""
    gen = builtin_generator(kind, 3)
    columns = list(zip(*golden_k34.rows))
    cells_by_column = [recover_instructions(col, gen) for col in columns]
    cells = list(zip(*cells_by_column))
    calls = []
    real = instructions.build_column

    def counting(column, generator):
        calls.append(generator)
        return real(column, generator)

    monkeypatch.setattr(instructions, "build_column", counting)
    og = make_order_generator(golden_k34.spec, cells, gen)
    assert materialize(og).rows == golden_k34.rows
    assert check_order_generator(og) == []
    assert len(calls) == golden_k34.spec.diameter
    assert materialize(og) is materialize(og)
    twin = make_order_generator(golden_k34.spec, cells, gen)
    assert twin == og and hash(twin) == hash(og)
    assert "ordering" not in repr(og)


def test_check_order_generator_matches_ordering_check():
    spec = make_graph_spec([(3, 3)])
    gen = builtin_generator(GeneratorKind.LRU, 3)
    rng = seeded(311)
    for _ in range(100):
        cells_by_column = [
            recover_instructions(random_value_column(3, spec.num_vertices, rng), gen)
            for _ in range(spec.diameter)
        ]
        og = make_order_generator(spec, list(zip(*cells_by_column)), gen)
        assert check_order_generator(og) == check_ordering(materialize(og))
    # one column, and columns of two sizes
    for factors in ([(3, 1)], [(3, 2), (4, 2)]):
        spec = make_graph_spec(factors)
        gens = [builtin_generator("lru", size) for size in spec.column_sizes()]
        for _ in range(20):
            cells_by_column = [
                recover_instructions(random_value_column(g.n, spec.num_vertices, rng), g)
                for g in gens
            ]
            og = make_order_generator(spec, list(zip(*cells_by_column)), gens)
            assert check_order_generator(og) == check_ordering(materialize(og))
