import json

import pytest

from hamming_radio.data import GOLDEN_NAMES, golden_ordering, golden_path
from hamming_radio.documents import (
    OrderingDocument,
    format_spec_string,
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
    ],
)
def test_parse_spec_string(text, factors):
    assert parse_spec_string(text) == make_graph_spec(factors)


@pytest.mark.parametrize("text", ["", "x", "3^", "^4", "4x3", "3.5", "abc"])
def test_parse_spec_string_errors(text):
    with pytest.raises(DocumentError):
        parse_spec_string(text)


def test_format_spec_round_trip():
    spec = make_graph_spec([(3, 4), (4, 7)])
    assert format_spec_string(spec) == "3^4 x 4^7"
    assert parse_spec_string(format_spec_string(spec)) == spec


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


def test_document_sniffing(golden_k32):
    doc = OrderingDocument.from_ordering(golden_k32)
    assert parse_ordering_document(serialize_ordering_json(doc)).rows == doc.rows
    assert parse_ordering_document(serialize_ordering_text(doc)).rows == doc.rows


def test_text_parse_errors():
    with pytest.raises(DocumentError):
        parse_ordering_text("1 1\n2 2\n")
    with pytest.raises(DocumentError):
        parse_ordering_text("spec: 3^2\n1 one\n")


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
    gen = builtin_generator(kind, 3)
    text = instruction_text_for(golden_k34, gen)
    generators = (gen,) * 4
    og = parse_instruction_rows(text, golden_k34.spec, generators)
    assert materialize(og).rows == golden_k34.rows


def test_parse_instruction_rows_errors(golden_k32):
    spec = make_graph_spec([(3, 1)])
    gen = builtin_generator(GeneratorKind.LRU, 3)
    generators = (gen,)
    with pytest.raises(DocumentError):
        parse_instruction_rows("id\nf2\n", spec, generators)  # needs 3 rows
    with pytest.raises(DocumentError):
        parse_instruction_rows("id id\nf2 f2\nf3 f3\n", spec, generators)
    with pytest.raises(DocumentError):
        parse_instruction_rows("f2\nf2\nf3\n", spec, generators)  # row 1 must be id
    with pytest.raises(DocumentError):
        parse_instruction_rows("id\nf3\nf3\n", spec, generators)  # row 2 must be f2
    with pytest.raises(DocumentError):
        parse_instruction_rows("id\nf2\nfx\n", spec, generators)
    with pytest.raises(DocumentError):
        parse_instruction_rows("id\nf2\nf9\n", spec, generators)  # subscript out of range
