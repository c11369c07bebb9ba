import json

import pytest
from click.testing import CliRunner

from hamming_radio.cli import main
from hamming_radio.data import golden_path
from hamming_radio.documents import parse_ordering_text
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


def test_search_finds_and_writes(runner, tmp_path):
    result = invoke(runner, "search", "3^2")
    assert result.exit_code == 0
    doc = parse_ordering_text(result.stdout)
    assert check_ordering(doc.to_ordering()) == []

    out = tmp_path / "found.txt"
    result = invoke(runner, "search", "3^2", "--out", str(out))
    assert result.exit_code == 0
    assert check_ordering(parse_ordering_text(out.read_text()).to_ordering()) == []


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
    assert invoke(runner, "search", "3^2", "--reduced-k34").exit_code == 2
    assert invoke(runner, "search", "bogus").exit_code == 2
    # the reduced search always pins rows 1-2, so it cannot honour --no-symmetry
    result = invoke(runner, "search", "--reduced-k34", "--no-symmetry")
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


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
    result = invoke(runner, "search", "3^2", "--randomize", "--seed", "5")
    assert result.exit_code == 0


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


def test_generate_parse_error(runner, tmp_path):
    matrix = tmp_path / "instructions.txt"
    matrix.write_text("id\nf2\nbogus\n")
    result = invoke(runner, "generate", "3^1", str(matrix))
    assert result.exit_code == 2


def test_lambda_command(runner):
    result = invoke(runner, "lambda", "-n", "3", "-s", "2")
    assert result.exit_code == 0
    assert result.stdout == "f2 f2\nf3 f2\n"
    assert "2 run(s)" in result.stderr

    result = invoke(runner, "lambda", "-n", "3", "-s", "3")
    assert result.stdout == "f2 f3 f3\nf3 f3 f3\n"


def test_lambda_error_codes(runner):
    assert invoke(runner, "lambda", "-n", "2", "-s", "2").exit_code == 2
    assert invoke(runner, "lambda", "-n", "5", "-s", "11").exit_code == 3
