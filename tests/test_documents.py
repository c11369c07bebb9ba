import json

import pytest

from hamming_radio.data import GOLDEN_NAMES, golden_ordering, golden_path
from hamming_radio.documents import (
    OrderingDocument,
    parse_instruction_rows,
    parse_ordering_document,
    parse_ordering_json,
    parse_ordering_text,
    parse_spec_string,
    serialize_ordering_json,
    serialize_ordering_text,
)
from hamming_radio.errors import DocumentError
from hamming_radio.graphs import make_graph_spec
from hamming_radio.instructions import (
    GeneratorKind,
    builtin_generator,
    materialize,
    recover_instructions,
    subscript_string,
)


@pytest.mark.parametrize(
    "text,factors",
    [
        ("3^4x4^7", [(3, 4), (4, 7)]),
        ("3^4 X 4^7", [(3, 4), (4, 7)]),
        (" 9 ", [(9, 1)]),
        ("2x3x5", [(2, 1), (3, 1), (5, 1)]),
        ("3 ^ 4 x\t4\t^7", [(3, 4), (4, 7)]),
    ],
)
def test_parse_spec_string(text, factors):
    assert parse_spec_string(text) == make_graph_spec(factors)


@pytest.mark.parametrize(
    "text",
    [
        "", "x", "3^", "^4", "4x3", "3.5", "abc", "+3", "3^+2", "1_0", "\uff13", "3^\uff12", "\u0663",
        # spaces used to be dropped inside a number, so these read as 34, 3^10 and 10
        "3 4", "3^1 0", "1 0", "3^4 x 4 7",
    ],
)
def test_parse_spec_string_errors(text):
    with pytest.raises(DocumentError):
        parse_spec_string(text)


def test_format_spec_round_trip():
    spec = make_graph_spec([(3, 4), (4, 7)])
    assert str(spec) == "3^4 x 4^7"
    assert parse_spec_string(str(spec)) == spec


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_text_round_trip_is_byte_exact(name):
    raw = golden_path(name).read_text(encoding="utf-8")
    doc = parse_ordering_text(raw)
    assert serialize_ordering_text(doc) == raw
    assert doc.to_ordering().rows == golden_ordering(name).rows


def test_json_round_trip(golden_k32):
    doc = OrderingDocument.from_ordering(golden_k32, {"note": "reference"})
    payload = serialize_ordering_json(doc)
    parsed = parse_ordering_json(payload)
    assert parsed.spec == doc.spec
    assert parsed.rows == doc.rows
    assert parsed.metadata == {"note": "reference"}
    obj = json.loads(payload)
    assert obj["spec"] == [[3, 2]]


def test_json_accepts_spec_string(golden_k32):
    payload = json.dumps({"spec": "3^2", "rows": [list(r) for r in golden_k32.rows]})
    parsed = parse_ordering_json(payload)
    assert parsed.spec == golden_k32.spec


@pytest.mark.parametrize(
    "payload",
    [
        "{not json",
        json.dumps(["rows"]),
        json.dumps({"rows": [[1, 1]]}),
        json.dumps({"spec": "3^2"}),
        json.dumps({"spec": "3^2", "rows": [["a", 1]]}),
        json.dumps({"spec": "3^2", "rows": [[1, 1]], "metadata": []}),
        json.dumps({"spec": [[3, "x"]], "rows": [[1, 1]]}),
        json.dumps({"spec": "3^2", "rows": ["11", "22", "33", "12", "23", "31", "13", "21", "32"]}),
        json.dumps({"spec": "3^1", "rows": [["1"], [2], [3]]}),
        json.dumps({"spec": "3^1", "rows": [[2.9], [1], [3]]}),
        json.dumps({"spec": "3^1", "rows": [[True], [2], [3]]}),
        json.dumps({"spec": [[3.7, 1.2]], "rows": [[1], [2], [3]]}),
        json.dumps({"spec": [[3, True]], "rows": [[1], [2], [3]]}),
        json.dumps({"spec": ["31"], "rows": [[1], [2], [3]]}),
    ],
)
def test_json_parse_errors(payload):
    with pytest.raises(DocumentError):
        parse_ordering_json(payload)


def test_json_spec_the_graph_model_refuses_is_a_bad_spec_entry():
    # a well-formed pair that make_graph_spec refuses: K_3 with no copies
    with pytest.raises(DocumentError) as err:
        parse_ordering_json('{"spec": [[3, 0]], "rows": []}')
    assert str(err.value) == "bad spec entry: [[3, 0]]"


def test_document_sniffing(golden_k32):
    doc = OrderingDocument.from_ordering(golden_k32)
    assert parse_ordering_document(serialize_ordering_json(doc)).rows == doc.rows
    assert parse_ordering_document(serialize_ordering_text(doc)).rows == doc.rows


def test_text_parse_errors():
    with pytest.raises(DocumentError):
        parse_ordering_text("1 1\n2 2\n")
    with pytest.raises(DocumentError):
        parse_ordering_text("spec: 3^2\n1 one\n")


@pytest.mark.parametrize("row", ["+1", "-1", "1_0", "\uff13", "1\u30002", "\u00b2"])
def test_text_rows_take_ascii_digits_only(row):
    # int() reads the first four, and str.split() splits at the ideographic space
    with pytest.raises(DocumentError):
        parse_ordering_text(f"spec: 3^1\n{row}\n")
    assert parse_ordering_text("spec: 3^1\n 1\n2\t\n3\n").rows == ((1,), (2,), (3,))


def test_to_ordering_validates_shape():
    doc = parse_ordering_text("spec: 3^2\n1 1\n")
    with pytest.raises(DocumentError):
        doc.to_ordering()


def instruction_text_for(ordering, gen) -> str:
    columns = [recover_instructions(col, gen) for col in zip(*ordering.rows)]
    lines = []
    for i in range(len(ordering.rows)):
        tokens = [
            "id" if i == 0 else subscript_string([col[i]]) for col in columns
        ]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", list(GeneratorKind))
def test_parse_instruction_rows_reconstructs_golden(golden_k34, kind):
    text = instruction_text_for(golden_k34, builtin_generator(kind, 3))
    og = parse_instruction_rows(text, golden_k34.spec, kind)
    assert materialize(og).rows == golden_k34.rows


def test_parse_instruction_rows_errors(golden_k32):
    spec = make_graph_spec([(3, 1)])
    with pytest.raises(DocumentError):
        parse_instruction_rows("id\nf2\n", spec, "lru")  # needs 3 rows
    with pytest.raises(DocumentError):
        parse_instruction_rows("id id\nf2 f2\nf3 f3\n", spec, "lru")
    with pytest.raises(DocumentError):
        parse_instruction_rows("f2\nf2\nf3\n", spec, "lru")  # row 1 must be id
    with pytest.raises(DocumentError):
        parse_instruction_rows("id\nf3\nf3\n", spec, "lru")  # row 2 must be f2
    with pytest.raises(DocumentError):
        parse_instruction_rows("id\nf2\nfx\n", spec, "lru")
    for token in ("f+3", "f\uff13", "f\u0663"):
        with pytest.raises(DocumentError):
            parse_instruction_rows(f"id\nf2\n{token}\n", spec, "lru")
    with pytest.raises(DocumentError) as err:
        parse_instruction_rows("id\nf2\nf9\n", spec, "lru")
    assert str(err.value) == "row 3, column 1: subscript 9 outside 2..3"
