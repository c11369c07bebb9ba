import itertools
import tracemalloc

import pytest

from hamming_radio.documents import parse_spec_string
from hamming_radio.errors import RepetitionError, ShapeError, SpecError
from hamming_radio.graphs import GraphSpec, enumerate_vertices, make_graph_spec, shared_coordinates
from hamming_radio.perms import Permutation, identity
from hamming_radio.verify import (
    Ordering,
    RadioViolation,
    RepetitionViolation,
    check_ordering,
    induced_labeling,
    is_consecutive,
    is_valid_ordering,
    permute_column,
    position_labeling,
    repetition_violations,
    verify_radio,
)
from hamming_radio.verify import Labeling

from .oracles import (
    oracle_greedy_labels,
    oracle_pairwise_violations,
    oracle_verify_radio,
    random_permutation_rows,
    random_weak_rows,
    seeded,
)


def test_ordering_shape_validation(k32_spec):
    with pytest.raises(ShapeError):
        Ordering(k32_spec, ((1, 1),) * 8)
    with pytest.raises(ShapeError):
        Ordering(k32_spec, ((1, 4),) + ((1, 1),) * 8)
    # 2^2 has no valid ordering (search_ordering exhausts it), so a row of
    # 1.5s must not make this one pass check_ordering
    with pytest.raises(ShapeError, match="not an integer"):
        Ordering(make_graph_spec([(2, 2)]), ((1, 1), (2, 2), (1.5, 1.5), (1, 2)))


def test_goldens_are_clean(golden_k32, golden_k34):
    for golden in (golden_k32, golden_k34):
        assert check_ordering(golden) == []
        assert is_valid_ordering(golden)
        labeling = position_labeling(golden)
        assert is_consecutive(labeling)
        assert verify_radio(labeling) == []


def test_induced_labeling_on_valid_ordering_is_row_number(golden_k32, golden_k34):
    for golden in (golden_k32, golden_k34):
        induced = induced_labeling(golden)
        assert induced.assignment == position_labeling(golden).assignment


def test_window_check_equals_all_pairs_check():
    """Dual route: the row-window rule and the all-pairs label rule must flag
    exactly the same (row, gap, shared) triples on repetition-free orderings."""
    spec = make_graph_spec([(3, 3)])
    rng = seeded(101)
    for _ in range(60):
        ordering = Ordering(spec, random_permutation_rows(spec, rng))
        window_side = {v for v in check_ordering(ordering) if isinstance(v, RadioViolation)}
        label_side = set(verify_radio(position_labeling(ordering)))
        assert window_side == label_side


def test_check_ordering_matches_definition_oracle():
    """The whole list, in order, against the all-pairs definition: window
    violations by row then gap, then the repeated pairs.  The specs cover
    one machine word (2x3), t >= 3 with N > 64 (3^4, 2^7), mixed sizes,
    16-bit fields (2x300: sizes past 255), t = 1 (5, K_2); each gets
    repetition-free and repeating rows."""
    rng = seeded(103)
    for text, count in (
        ("2x3", 100),
        ("3^4", 10),
        ("2^7", 10),
        ("2x3x4", 30),
        ("3^2x4", 10),
        ("2x300", 1),
        ("5", 10),
        ("2", 10),
    ):
        spec = parse_spec_string(text)
        t = spec.diameter
        for make in [random_permutation_rows] * count + [random_weak_rows] * count:
            rows = make(spec, rng)
            labeled = [(v, i) for i, v in enumerate(rows, start=1)]
            window = [
                RadioViolation(row=hi, gap=hi - lo, shared=shared)
                for lo, hi, shared in oracle_pairwise_violations(t, labeled)
                if hi - lo < t  # a repeat at gap t is reported as a repetition
            ]
            got = check_ordering(Ordering(spec, rows))
            assert got[: len(window)] == window, text
            repeats = {
                (a, b)
                for a, b in itertools.combinations(range(1, len(rows) + 1), 2)
                if rows[a - 1] == rows[b - 1]
            }
            assert all(isinstance(v, RepetitionViolation) for v in got[len(window) :]), text
            assert {(v.row_a, v.row_b) for v in got[len(window) :]} == repeats, text


def test_check_ordering_memory_does_not_grow_with_column_size():
    """The kernel keeps one packed int per column, a 16-bit field per row for
    both specs here, whatever the column's size: 3 x 4000 and 32 x 375 have
    the same 12,000 rows, and per-value masks would take N x summed sizes
    bits, 6 MB against 0.6 MB.  Rows i -> (i mod a, i mod b) for coprime a,
    b list every vertex once and differ in both coordinates row to row."""
    peaks = []
    for sizes in ((3, 4000), (32, 375)):
        spec = make_graph_spec([(size, 1) for size in sizes])
        ordering = Ordering(spec, tuple((i % sizes[0] + 1, i % sizes[1] + 1) for i in range(12_000)))
        tracemalloc.start()
        try:
            assert check_ordering(ordering) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    wide, narrow = peaks
    assert wide < 1.25 * narrow
    assert wide < 12_000 * 4003 // 8 // 2  # half the masks of 3 x 4000


def test_check_ordering_reports_repetitions():
    spec = make_graph_spec([(3, 1)])
    ordering = Ordering(spec, ((1,), (2,), (1,)))
    reps = [v for v in check_ordering(ordering) if isinstance(v, RepetitionViolation)]
    assert reps == [RepetitionViolation(1, 3)]
    assert not is_valid_ordering(ordering)


def test_repetition_violations_all_pairs():
    rows = ((1, 1), (2, 2), (1, 1), (2, 2), (1, 1), (1, 2), (2, 1), (1, 3), (2, 3))
    # by each vertex's first row, then by row
    assert repetition_violations(rows) == [
        RepetitionViolation(1, 3),
        RepetitionViolation(1, 5),
        RepetitionViolation(3, 5),
        RepetitionViolation(2, 4),
    ]
    assert repetition_violations(rows + ((1, 2), (2, 3), (2, 2))) == [
        RepetitionViolation(1, 3),
        RepetitionViolation(1, 5),
        RepetitionViolation(3, 5),
        RepetitionViolation(2, 4),
        RepetitionViolation(2, 12),
        RepetitionViolation(4, 12),
        RepetitionViolation(6, 10),
        RepetitionViolation(9, 11),
    ]
    assert repetition_violations(rows[5:]) == []


def test_synthetic_violation_details(golden_k32):
    # swapping two rows of a valid ordering must surface window violations
    rows = list(golden_k32.rows)
    rows[2], rows[6] = rows[6], rows[2]
    broken = Ordering(golden_k32.spec, tuple(rows))
    violations = check_ordering(broken)
    assert violations
    for v in violations:
        assert isinstance(v, RadioViolation)
        assert v.shared >= v.gap
        assert "share" in str(v)


def test_induced_labeling_matches_greedy_oracle(golden_k32, golden_k34):
    """The windowed recurrence against the all-earlier-rows greedy, on shuffled
    orderings (t = 1, mixed sizes, the 3^4 boundary) and the two goldens."""
    rng = seeded(109)
    orderings = [golden_k32, golden_k34]
    for factors, count in (
        ([(5, 1)], 5),
        ([(2, 1), (3, 1)], 20),
        ([(3, 2)], 50),
        ([(4, 2)], 20),
        ([(3, 4)], 10),
    ):
        spec = make_graph_spec(factors)
        orderings += [Ordering(spec, random_permutation_rows(spec, rng)) for _ in range(count)]
    for ordering in orderings:
        labeling = induced_labeling(ordering)
        expected = oracle_greedy_labels(ordering.spec.diameter, ordering.rows)
        assert [labeling.assignment[v] for v in ordering.rows] == expected


def test_induced_labeling_rejects_repetition(k32_spec):
    rows = ((1, 1),) * 9
    with pytest.raises(RepetitionError):
        induced_labeling(Ordering(k32_spec, rows))
    with pytest.raises(RepetitionError):
        position_labeling(Ordering(k32_spec, rows))


def test_labeling_validation_and_consecutive(k32_spec):
    with pytest.raises(ShapeError):
        Labeling(k32_spec, {(1, 1): 0})
    # int() would truncate 1.9 and 2.2 to the consecutive labels 1 and 2
    for labels in ({(1, 1): 1.9, (2, 2): 2.2}, {(1, 1): True}, {(1, 1): "1"}):
        with pytest.raises(ShapeError, match="is not a positive integer"):
            Labeling(k32_spec, labels)
    with pytest.raises(ShapeError) as err:
        Labeling(k32_spec, [((1, 1), 1)])
    assert str(err.value) == "assignment [((1, 1), 1)] is not a mapping of vertices to labels"
    partial = Labeling(k32_spec, {(1, 1): 1, (2, 2): 3})
    assert not partial.is_total
    assert not is_consecutive(partial)


@pytest.mark.parametrize("make", [Ordering, Labeling], ids=["ordering", "labeling"])
def test_spec_must_be_a_graph_spec(make):
    # a spec string used to be stored as given: AttributeError on first use
    with pytest.raises(SpecError) as err:
        make("3^2", {} if make is Labeling else ())
    assert str(err.value) == "spec '3^2' is not a GraphSpec"


NOT_AN_ORDERING = (ShapeError, "ordering 'x' is not an Ordering")
NOT_A_LABELING = (ShapeError, "labeling 'x' is not a Labeling")


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(lambda: check_ordering("x"), *NOT_AN_ORDERING, id="check-a-string"),
        pytest.param(lambda: is_valid_ordering("x"), *NOT_AN_ORDERING, id="valid-a-string"),
        pytest.param(lambda: induced_labeling("x"), *NOT_AN_ORDERING, id="induced-of-a-string"),
        pytest.param(lambda: position_labeling("x"), *NOT_AN_ORDERING, id="positions-of-a-string"),
        pytest.param(
            lambda: permute_column("x", 1, identity(3)), *NOT_AN_ORDERING, id="permute-a-string"
        ),
        pytest.param(lambda: verify_radio("x"), *NOT_A_LABELING, id="radio-of-a-string"),
        pytest.param(lambda: is_consecutive("x"), *NOT_A_LABELING, id="consecutive-a-string"),
    ],
)
def test_foreign_arguments_raise_the_layer_errors(call, error, message):
    """Arguments of the wrong type get the layer's own error, not an AttributeError."""
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_huge_labeling_is_sized_without_vertex_count(monkeypatch):
    """is_total and is_consecutive decide a huge spec without computing N,
    which for 3^10000000 took seconds."""

    def refuse(spec):
        raise AssertionError(f"num_vertices computed for {spec}")

    monkeypatch.setattr(GraphSpec, "num_vertices", property(refuse))
    empty = Labeling(make_graph_spec([(3, 10_000_000)]), {})
    assert not empty.is_total
    assert not is_consecutive(empty)


def test_verify_radio_flags_close_pair(k32_spec):
    # same vertex pair distance 1 apart in labels but sharing a coordinate
    labeling = Labeling(k32_spec, {(1, 1): 1, (1, 2): 2})
    radio = verify_radio(labeling)
    assert radio == [RadioViolation(row=2, gap=1, shared=1)]


@pytest.mark.parametrize("text", ["3", "2x3", "3^2", "4^2", "3^3", "2^4", "3^4", "2^2x5"])
def test_verify_radio_matches_all_pairs_oracle(text):
    """Stopping at label gap t loses no violation and reorders none, on
    partial, repeating and sparse labelings alike."""
    spec = parse_spec_string(text)
    n = spec.num_vertices
    vertices = list(enumerate_vertices(spec))
    rng = seeded(131)
    for _ in range(20):
        subset = rng.sample(vertices, rng.randint(0, n))
        for labels in (
            rng.sample(range(1, n + 1), len(subset)),
            [rng.randint(1, len(subset)) for _ in subset],
            rng.sample(range(1, 3 * n + 1), len(subset)),
        ):
            labeling = Labeling(spec, dict(zip(subset, labels)))
            assert verify_radio(labeling) == oracle_verify_radio(labeling)


def test_verify_radio_reads_label_gaps_up_to_diameter_minus_one():
    spec = make_graph_spec([(3, 3)])
    u, v = (1, 1, 1), (1, 1, 2)  # share t - 1 = 2 coordinates
    cases = {
        (1, 3): [RadioViolation(row=3, gap=2, shared=2)],  # gap t - 1
        (1, 4): [],  # gap t
        (5, 5): [RadioViolation(row=5, gap=0, shared=2)],  # equal labels
    }
    for (fu, fv), expected in cases.items():
        labeling = Labeling(spec, {u: fu, v: fv})
        assert verify_radio(labeling) == oracle_verify_radio(labeling) == expected


def test_verify_radio_pair_count(monkeypatch, golden_k34):
    """On a consecutive labeling each label meets only the t - 1 above it:
    the sum of min(3, 81 - i) over i = 1..81 is 237 of the 3,240 pairs."""
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return shared_coordinates(u, v)

    monkeypatch.setattr("hamming_radio.verify.shared_coordinates", counting)
    assert verify_radio(position_labeling(golden_k34)) == []
    assert len(calls) == 237


def test_permute_column_preserves_validity(golden_k34):
    rng = seeded(113)
    ordering = golden_k34
    for col in (1, 2, 3, 4):
        images = [1, 2, 3]
        rng.shuffle(images)
        ordering = permute_column(ordering, col, Permutation(images))
    assert check_ordering(ordering) == []


def test_permute_column_round_trip(golden_k32):
    sigma = Permutation([2, 3, 1])
    once = permute_column(golden_k32, 1, sigma)
    back = permute_column(once, 1, sigma.inverse())
    assert back.rows == golden_k32.rows


def test_permute_column_shape_error(golden_k32):
    with pytest.raises(ShapeError):
        permute_column(golden_k32, 1, Permutation([2, 1]))
    with pytest.raises(ShapeError) as err:
        permute_column(golden_k32, 1, [2, 1, 3])
    assert str(err.value) == "[2, 1, 3] is not a Permutation"


@pytest.mark.parametrize(
    "col,message",
    [
        (1.0, "column 1.0 is not an integer"),
        (True, "column True is not an integer"),
    ],
)
def test_permute_column_takes_an_exact_integer_column(golden_k32, col, message):
    with pytest.raises(ShapeError) as err:
        permute_column(golden_k32, col, identity(3))
    assert str(err.value) == message


def test_weak_rows_allowed_in_ordering():
    # repeated rows are representable; the checks report rather than refuse
    spec = make_graph_spec([(2, 2)])
    rows = random_weak_rows(spec, seeded(127))
    ordering = Ordering(spec, rows)
    assert len(ordering.rows) == spec.num_vertices
