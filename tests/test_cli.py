import ast
import errno
import json
import re
import tracemalloc

import pytest
from click.testing import CliRunner

from hamming_radio import cli, errors
from hamming_radio.cli import main
from hamming_radio.data import golden_path
from hamming_radio.documents import parse_ordering_text
from hamming_radio.graphs import GraphSpec
from hamming_radio.verify import check_ordering

from .test_documents import instruction_text_for


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), **kwargs)


def test_verify_golden_files(runner):
    for name in ("k3_2", "k3_4"):
        result = invoke(runner, "verify", str(golden_path(name)))
        assert result.exit_code == 0, result.output
        assert result.output.startswith("ok:")


def test_verify_boundary_flag(runner):
    result = invoke(runner, "verify", "--boundary", str(golden_path("k3_4")))
    assert result.exit_code == 0
    assert "boundary structure holds" in result.output
    # a spec below the forced-structure width is an input error for --boundary
    result = invoke(runner, "verify", "--boundary", str(golden_path("k3_2")))
    assert result.exit_code == 2


def test_verify_json_and_labeling(runner):
    result = invoke(runner, "verify", "--format", "json", "--labeling", str(golden_path("k3_2")))
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"] is True
    assert payload["spec"] == "3^2"
    assert payload["labels"] == list(range(1, 10))


def test_verify_flags_violations(runner, tmp_path, golden_k32):
    rows = list(golden_k32.rows)
    rows[2], rows[6] = rows[6], rows[2]
    bad = tmp_path / "bad.txt"
    bad.write_text("spec: 3^2\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    result = invoke(runner, "verify", str(bad))
    assert result.exit_code == 1
    assert "violation:" in result.output
    assert "problem(s) found" in result.output


def test_verify_parse_error(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("no header\n1 1\n")
    result = invoke(runner, "verify", str(bad))
    assert result.exit_code == 2
    result = invoke(runner, "verify", str(tmp_path / "missing.txt"))
    assert result.exit_code == 2
    # string rows used to be read digit by digit, and this one verified "ok"
    strings = tmp_path / "strings.json"
    strings.write_text(json.dumps(
        {"spec": "3^2", "rows": ["11", "22", "33", "12", "23", "31", "13", "21", "32"]}
    ))
    result = invoke(runner, "verify", str(strings))
    assert result.exit_code == 2
    # int() takes a sign and \d other scripts' digits, so this file verified "ok"
    unicode_digits = tmp_path / "unicode.txt"
    unicode_digits.write_text("spec: \uff13^1\n+1\n 2\n\uff13\n", encoding="utf-8")
    result = invoke(runner, "verify", str(unicode_digits))
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


def test_bound_command(runner):
    result = invoke(runner, "bound", "3^4")
    assert result.exit_code == 0
    assert "verdict: unknown" in result.output
    result = invoke(runner, "bound", "3^5")
    assert result.exit_code == 1
    assert "ruled out" in result.output
    result = invoke(runner, "bound", "3^3")
    assert result.exit_code == 0
    assert "known radio graceful" in result.output
    result = invoke(runner, "bound", "not-a-spec")
    assert result.exit_code == 2


def test_bound_json(runner):
    result = invoke(runner, "bound", "--format", "json", "3^4x4^7")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["overall"] == "NOT_RADIO_GRACEFUL"
    assert payload["factors"][1] == {
        "size": 4,
        "cumulative_width": 11,
        "threshold": 11,
        "ruled_out": True,
    }


@pytest.mark.parametrize("digits", [1_500, 4_300])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bound_writes_numbers_past_the_digit_limit_as_formulas(runner, digits, fmt):
    """A threshold 1 + n(n^2 - 1)/6 or a cumulative width of more than 4,300
    digits is written as its formula: str() and json.dumps refuse it, which
    ended these runs in a traceback and exit 1."""
    n = "9" * digits
    formula = f"1 + {n}({n}^2 - 1)/6"
    width = f"{n} + {n}"  # copies 2 and 3 sum to 4,301 digits at 4,300
    for spec, threshold, widths, code in (
        (n, formula, [1], 0),
        (f"2^{n} x 3^{n}", 5, [int(n), width] if digits == 4_300 else None, 1),
    ):
        result = invoke(runner, "bound", "--format", fmt, spec)
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, (SystemExit, type(None)))
        if fmt == "json":
            factors = json.loads(result.output)["factors"]
            assert factors[-1]["threshold"] == threshold
            if widths is not None:
                assert [f["cumulative_width"] for f in factors] == widths
        else:
            last = result.output.splitlines()[-2]
            state = "ruled out" if code else "below threshold"
            assert last.endswith(f"threshold {threshold}: {state}")
            if widths is not None:
                assert f"cumulative width {widths[-1]}, " in last


def test_search_finds_and_writes(runner, tmp_path):
    result = invoke(runner, "search", "3^2")
    assert result.exit_code == 0
    doc = parse_ordering_text(result.stdout)
    assert check_ordering(doc.to_ordering()) == []

    out = tmp_path / "found.txt"
    result = invoke(runner, "search", "3^2", "--out", str(out))
    assert result.exit_code == 0
    assert check_ordering(parse_ordering_text(out.read_text()).to_ordering()) == []


def test_search_unwritable_out_is_an_input_error(runner, tmp_path):
    out = tmp_path / "missing" / "found.txt"
    result = invoke(runner, "search", "3^2", "--out", str(out))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    status, elapsed, error = result.stderr.splitlines()
    assert status.startswith("status: found")
    assert error.startswith(f"error: cannot write {out}")
    assert not out.exists()


def test_search_reports_elapsed_time(runner):
    result = invoke(runner, "search", "3^3")
    assert result.exit_code == 0
    status, elapsed = result.stderr.splitlines()
    # the status line is parsed by scripts, so its form is fixed
    assert status == "status: found (nodes 10220, deepest row 27)"
    assert re.fullmatch(r"elapsed \d+\.\d\d s \([\d,]+ nodes/s\)", elapsed)


def test_search_exhausted_exit_code(runner):
    result = invoke(runner, "search", "2^2")
    assert result.exit_code == 1
    assert "no consecutive radio labeling exists" in result.stderr


def test_search_budget_exit_code(runner):
    result = invoke(runner, "search", "--reduced-k34", "--node-budget", "1000")
    assert result.exit_code == 3
    assert "status: budget exceeded" in result.stderr


def test_search_input_errors(runner):
    assert invoke(runner, "search").exit_code == 2
    assert invoke(runner, "search", "3^2", "--randomize").exit_code == 2
    # a seed without --randomize used to be ignored silently
    result = invoke(runner, "search", "3^2", "--seed", "5")
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")
    assert invoke(runner, "search", "3^2", "--reduced-k34").exit_code == 2
    assert invoke(runner, "search", "bogus").exit_code == 2
    # every search pins rows 1-2, so there is no flag to unpin them
    result = invoke(runner, "search", "3^2", "--no-symmetry")
    assert result.exit_code == 2
    assert "No such option '--no-symmetry'" in result.stderr


def test_search_bad_spec_with_reduced_k34(runner):
    # exit 1 would read as "no labeling exists"
    result = invoke(runner, "search", "foo", "--reduced-k34")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_search_rejects_non_finite_time_budget(runner, budget):
    result = invoke(runner, "search", "3^2", "--time-budget", budget)
    assert result.exit_code == 2
    assert "time_budget" in result.stderr


def test_search_randomized_with_seed(runner):
    result = invoke(runner, "search", "3^3", "--randomize", "--seed", "42")
    assert result.exit_code == 0
    assert result.stderr.splitlines()[0] == "status: found (nodes 170, deepest row 27)"


def test_generate_round_trip(runner, tmp_path, golden_k34):
    from hamming_radio.instructions import GeneratorKind, builtin_generator

    gen = builtin_generator(GeneratorKind.LRU, 3)
    matrix = tmp_path / "instructions.txt"
    matrix.write_text(instruction_text_for(golden_k34, gen))
    result = invoke(runner, "generate", "3^4", str(matrix))
    assert result.exit_code == 0, result.stderr
    assert parse_ordering_text(result.stdout).rows == golden_k34.rows
    assert "ok: decoded ordering" in result.stderr


def test_generate_decodes_each_column_once(runner, tmp_path, golden_k34, monkeypatch):
    from hamming_radio import instructions

    calls = []
    real = instructions.build_column

    def counting(column, gen):
        calls.append(gen)
        return real(column, gen)

    monkeypatch.setattr(instructions, "build_column", counting)
    matrix = tmp_path / "instructions.txt"
    matrix.write_text(instruction_text_for(golden_k34, instructions.builtin_generator("lru", 3)))
    assert invoke(runner, "generate", "3^4", str(matrix)).exit_code == 0
    assert len(calls) == golden_k34.spec.diameter


def test_generate_reports_violations(runner, tmp_path):
    # both columns repeat the same instruction column, so vertices repeat
    lines = ["id id", "f2 f2"] + ["f3 f3"] * 7
    matrix = tmp_path / "instructions.txt"
    matrix.write_text("\n".join(lines) + "\n")
    result = invoke(runner, "generate", "3^2", str(matrix))
    assert result.exit_code == 1
    assert "violation" in result.stderr


def test_generate_unwritable_out_is_an_input_error(runner, tmp_path):
    matrix = tmp_path / "instructions.txt"
    matrix.write_text("id\nf2\nf3\n")
    out = tmp_path / "missing" / "ordering.txt"
    result = invoke(runner, "generate", "3^1", str(matrix), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: cannot write {out}")
    assert result.stdout == ""


def test_generate_parse_error(runner, tmp_path):
    matrix = tmp_path / "instructions.txt"
    matrix.write_text("id\nf2\nbogus\n")
    result = invoke(runner, "generate", "3^1", str(matrix))
    assert result.exit_code == 2


def test_generate_k2_column_is_an_input_error(runner, tmp_path):
    # the parser builds one generator per column, and K2 has no instruction set
    matrix = tmp_path / "instructions.txt"
    matrix.write_text("id id\n" + "f2 f2\n" * 5)
    result = invoke(runner, "generate", "2x3", str(matrix))
    assert result.exit_code == 2, result.output
    assert result.stderr == "error: instruction machinery needs n >= 3, got 2\n"


def test_verify_non_utf8_is_an_input_error(runner, tmp_path):
    # byte 0xff used to raise UnicodeDecodeError and exit 1, "violations found"
    doc = tmp_path / "doc.txt"
    doc.write_bytes(b"spec: 3^1\n1\n\xff\n")
    result = invoke(runner, "verify", str(doc))
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


def test_generate_non_utf8_is_an_input_error(runner, tmp_path):
    matrix = tmp_path / "instructions.txt"
    matrix.write_bytes(b"id\nf2\n\xff\n")
    result = invoke(runner, "generate", "3^1", str(matrix))
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


# 3^99999 has 47,712 decimal digits, past the 4,300 that str() will print, so
# these commands used to die with a ValueError traceback and exit 1
HUGE = "3^99999"
# computing 3^10000000 took 3.9 s, and its 10^7 column sizes took 80 MB
HUGER = "3^10000000"


@pytest.fixture()
def no_huge_vertex_count(monkeypatch):
    """Refusing a huge spec must not compute its vertex count."""
    real = GraphSpec.num_vertices.fget

    def guarded(spec):
        assert spec.diameter <= 1000, f"num_vertices computed for {spec}"
        return real(spec)

    monkeypatch.setattr(GraphSpec, "num_vertices", property(guarded))


def _assert_clean_input_error(result, spec=HUGE):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:")
    assert spec in result.stderr


def test_search_huge_spec_is_an_input_error(runner, no_huge_vertex_count):
    for spec in (HUGE, HUGER):
        _assert_clean_input_error(invoke(runner, "search", spec), spec)
    # 16,000 vertices pass the vertex cap, but their column masks would take
    # 16,000^2 bits and about 14 s to build before the first node
    _assert_clean_input_error(invoke(runner, "search", "16000^1"), "16000^1")


def test_verify_huge_spec_is_an_input_error(runner, tmp_path, no_huge_vertex_count):
    doc = tmp_path / "huge.txt"
    doc.write_text(f"spec: {HUGE}\n" + " ".join(["1"] * 99_999) + "\n")
    _assert_clean_input_error(invoke(runner, "verify", str(doc)))
    # the row count is refused before any row is checked against 10^7 columns
    doc.write_text(f"spec: {HUGER}\n1 1 1 1\n")
    tracemalloc.start()
    try:
        result = invoke(runner, "verify", str(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_clean_input_error(result, HUGER)
    assert peak < 8_000_000


def test_generate_huge_spec_is_an_input_error(runner, tmp_path, no_huge_vertex_count):
    matrix = tmp_path / "instructions.txt"
    matrix.write_text("id\n")
    for spec in (HUGE, HUGER):
        _assert_clean_input_error(invoke(runner, "generate", spec, str(matrix)), spec)


# int() refuses a decimal string of more than 4,300 digits with a bare
# ValueError, so each of these inputs died with a traceback and exit 1
LONG = "9" * 5_000


@pytest.mark.parametrize(
    "args,name,text",
    [
        (["bound", LONG], None, None),
        (["bound", f"3^{LONG}"], None, None),
        (["search", LONG], None, None),
        (["search", f"3^{LONG}"], None, None),
        (["generate", LONG, "{}"], "matrix.txt", "id\n"),
        (["generate", "3", "{}"], "matrix.txt", f"id\nf2\nf{LONG}\n"),
        (["verify", "{}"], "row.txt", f"spec: 3\n1\n2\n{LONG}\n"),
        (["verify", "{}"], "header.txt", f"spec: {LONG}\n1\n"),
        (["verify", "{}"], "row.json", f'{{"spec": "3", "rows": [[1], [2], [{LONG}]]}}'),
        (["verify", "{}"], "spec.json", f'{{"spec": [[{LONG}, 1]], "rows": [[1]]}}'),
        (["verify", "{}"], "string.json", f'{{"spec": "{LONG}", "rows": [[1]]}}'),
    ],
    ids=[
        "bound", "bound-power", "search", "search-power", "generate-spec", "generate-token",
        "verify-row", "verify-header", "verify-json-row", "verify-json-spec", "verify-json-string",
    ],
)
def test_overlong_number_is_an_input_error(runner, tmp_path, args, name, text):
    if name is not None:
        path = tmp_path / name
        path.write_text(text)
        args = [arg.format(path) for arg in args]
    result = invoke(runner, *args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert re.fullmatch(r"error: .*a number has more than \d+ digits\n", result.stderr)


@pytest.mark.parametrize(
    "payload",
    [
        '{"spec": "3", "rows": ' + "[" * 3_000 + "]" * 3_000 + "}",
        '{"spec": "3", "rows": [[1], [2], [3]], "metadata": {"a": '
        + "[" * 100_000 + "]" * 100_000 + "}}",
        '{"spec": ' + "[" * 100_000 + "]" * 100_000 + ', "rows": [[1], [2], [3]]}',
    ],
    ids=["rows", "metadata", "spec"],
)
def test_deeply_nested_json_is_an_input_error(runner, tmp_path, payload):
    # json.loads used to raise RecursionError through the command, exit 1
    doc = tmp_path / "deep.json"
    doc.write_text(payload)
    result = invoke(runner, "verify", str(doc))
    assert result.exit_code == 2, result.output
    assert result.stderr == "error: bad JSON: nested too deeply\n"


def test_lambda_command(runner):
    result = invoke(runner, "lambda", "-n", "3", "-s", "2")
    assert result.exit_code == 0
    assert result.stdout == "f2 f2\nf3 f2\n"
    assert "2 run(s)" in result.stderr

    result = invoke(runner, "lambda", "-n", "3", "-s", "3")
    assert result.stdout == "f2 f3 f3\nf3 f3 f3\n"


def test_lambda_error_codes(runner):
    assert invoke(runner, "lambda", "-n", "2", "-s", "2").exit_code == 2
    # one instruction set for n = 1025 is 1,024 permutations of 1,025 points
    result = invoke(runner, "lambda", "-n", "1025", "-s", "1")
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")
    assert invoke(runner, "lambda", "-n", "5", "-s", "11").exit_code == 3
    # 2^20000 has 6,021 digits, past the 4,300 that str() will print, so the
    # count is written as a power
    result = invoke(runner, "lambda", "-n", "3", "-s", "20000")
    assert result.exit_code == 3
    assert result.stderr == "error: 2^20000 candidate runs exceed the cap of 1048576\n"


PACKAGE_ERRORS = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type)
    and issubclass(cls, errors.RadioGraphError)
    and cls is not errors.InvalidWitnessError
]


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize(
    "first_call, args",
    [
        ("parse_ordering_document", ["verify", str(golden_path("k3_2"))]),
        ("parse_spec_string", ["bound", "3^2"]),
        ("SearchConfig", ["search", "3^2"]),
        ("parse_spec_string", ["generate", "3^2", str(golden_path("k3_2"))]),
        ("builtin_generator", ["lambda", "-n", "3", "-s", "2"]),
    ],
    ids=["verify", "bound", "search", "generate", "lambda"],
)
def test_every_command_maps_package_errors(runner, monkeypatch, first_call, args, error):
    def failing(*_args, **_kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, first_call, failing)
    result = invoke(runner, *args)
    assert result.exit_code == (3 if error is errors.BudgetExceededError else 2), result.output
    assert result.stderr.startswith("error:")
    assert isinstance(result.exception, SystemExit)


def test_invalid_witness_is_not_an_input_error(runner, monkeypatch):
    # a defect in the search, so it must not read as exit 2
    monkeypatch.setattr("hamming_radio.search.is_valid_ordering", lambda ordering: False)
    result = invoke(runner, "search", "3^2")
    assert isinstance(result.exception, errors.InvalidWitnessError)


def test_closed_stdout_is_left_to_click(runner, monkeypatch):
    # click exits 1 quietly on EPIPE, as for `hamming-radio lambda ... | head`
    def closed(*_args, **_kwargs):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli, "parse_spec_string", closed)
    result = invoke(runner, "bound", "3^2")
    assert result.exit_code == 1
    assert result.stderr == ""


def test_cli_maps_errors_in_one_place():
    """Only the command group's boundary maps errors to exit codes.  _emit
    words its own unwritable --out error, and verify's RepetitionError means
    "no labels", which is control flow."""
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    handlers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                handlers.append((scope, ast.unparse(child.type)))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(tree, ())
    boundary = [kind for scope, kind in handlers if scope == ("_Commands", "invoke")]
    assert "BudgetExceededError" in boundary
    assert [h for h in handlers if h[0] != ("_Commands", "invoke")] == [
        (("_emit",), "OSError"),
        (("verify",), "RepetitionError"),
    ]


def _entry(kind, detail, **fields):
    return [("kind", kind), ("detail", detail), *fields.items()]


def test_verify_json_violation_entries_are_pinned(runner, tmp_path, golden_k34):
    rows = list(golden_k34.rows)
    rows[10], rows[11] = rows[11], rows[10]
    rows[79] = rows[50]
    doc = tmp_path / "broken.txt"
    doc.write_text("spec: 3^4\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    result = invoke(runner, "verify", "--format", "json", "--boundary", str(doc))
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    radio = "RadioViolation"
    assert [list(e.items()) for e in payload["violations"]] == [
        _entry(radio, "rows 10 and 11 (gap 1) share 1 coordinates, at most 0 allowed",
               row=11, gap=1, shared=1),
        _entry(radio, "rows 9 and 11 (gap 2) share 2 coordinates, at most 1 allowed",
               row=11, gap=2, shared=2),
        _entry(radio, "rows 12 and 13 (gap 1) share 1 coordinates, at most 0 allowed",
               row=13, gap=1, shared=1),
        _entry(radio, "rows 12 and 14 (gap 2) share 2 coordinates, at most 1 allowed",
               row=14, gap=2, shared=2),
        _entry(radio, "rows 80 and 81 (gap 1) share 2 coordinates, at most 0 allowed",
               row=81, gap=1, shared=2),
        _entry("RepetitionViolation", "rows 51 and 80 are the same vertex", row_a=51, row_b=80),
    ]
    forced = "coordinates, boundary structure forces exactly"
    assert [list(e.items()) for e in payload["boundary_violations"]] == [
        _entry("BoundaryViolation", f"rows {row} and {row + gap} share {shared} {forced} {gap - 1}",
               row=row, gap=gap, shared=shared)
        for row, gap, shared in [
            (9, 2, 2), (9, 3, 1), (10, 1, 1), (10, 2, 0), (11, 2, 0),
            (11, 3, 1), (12, 1, 1), (12, 2, 2), (80, 1, 2),
        ]
    ]


def _write_rows(path, spec, rows):
    path.write_text(f"spec: {spec}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return str(path)


def test_verify_labeling_text_prints_the_induced_labels(runner, tmp_path, golden_k32):
    result = invoke(runner, "verify", "--labeling", str(golden_path("k3_2")))
    assert result.exit_code == 0
    assert result.output == (
        "ok: 9 rows over 3^2 induce a consecutive radio labeling\n"
        + "".join(f"row {i}: label {i}\n" for i in range(1, 10))
    )
    # an invalid ordering's greedy labels run past N
    rows = list(golden_k32.rows)
    rows[2], rows[6] = rows[6], rows[2]
    result = invoke(runner, "verify", "--labeling", _write_rows(tmp_path / "bad.txt", "3^2", rows))
    assert result.exit_code == 1
    assert result.output == (
        "violation: rows 3 and 4 (gap 1) share 1 coordinates, at most 0 allowed\n"
        "violation: rows 6 and 7 (gap 1) share 1 coordinates, at most 0 allowed\n"
        "2 problem(s) found\n"
        + "".join(
            f"row {i}: label {label}\n"
            for i, label in enumerate([1, 2, 3, 5, 6, 7, 9, 10, 11], start=1)
        )
    )


def test_verify_labeling_drops_the_labels_of_a_repeated_row(runner, tmp_path, golden_k32):
    rows = list(golden_k32.rows)
    rows[8] = rows[0]
    doc = _write_rows(tmp_path / "repeated.txt", "3^2", rows)
    result = invoke(runner, "verify", "--labeling", doc)
    assert result.exit_code == 1
    assert result.output == (
        "violation: rows 8 and 9 (gap 1) share 1 coordinates, at most 0 allowed\n"
        "violation: rows 1 and 9 are the same vertex\n"
        "2 problem(s) found\n"
    )
    result = invoke(runner, "verify", "--labeling", "--format", "json", doc)
    assert result.exit_code == 1
    assert list(json.loads(result.output)) == ["ok", "spec", "violations"]


def test_verify_boundary_text_lists_boundary_violations(runner, tmp_path, golden_k34):
    rows = list(golden_k34.rows)
    rows[10], rows[11] = rows[11], rows[10]
    result = invoke(runner, "verify", "--boundary", _write_rows(tmp_path / "swap.txt", "3^4", rows))
    assert result.exit_code == 1
    forced = "coordinates, boundary structure forces exactly"
    assert result.output == (
        "violation: rows 10 and 11 (gap 1) share 1 coordinates, at most 0 allowed\n"
        "violation: rows 9 and 11 (gap 2) share 2 coordinates, at most 1 allowed\n"
        "violation: rows 12 and 13 (gap 1) share 1 coordinates, at most 0 allowed\n"
        "violation: rows 12 and 14 (gap 2) share 2 coordinates, at most 1 allowed\n"
        + "".join(
            f"boundary violation: rows {a} and {b} share {shared} {forced} {b - a - 1}\n"
            for a, b, shared in [
                (9, 11, 2), (9, 12, 1), (10, 11, 1), (10, 12, 0),
                (11, 13, 0), (11, 14, 1), (12, 13, 1), (12, 14, 2),
            ]
        )
        + "12 problem(s) found\n"
    )
