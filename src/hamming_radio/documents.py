"""File formats for orderings and instruction matrices.

Canonical text format: a header line ``spec: 3^4 x 4^7`` followed by one line
per row of space-separated 1-based coordinates.  A JSON object with "spec",
"rows" and optional "metadata" keys carries the same payload.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field

from .errors import DocumentError, RadioGraphError
from .graphs import GraphSpec, make_graph_spec
from .instructions import GeneratorKind, InstructionGenerator, OrderGenerator, make_order_generator
from .perms import Permutation, identity
from .verify import Ordering

# Numbers are ASCII digits only: \d and int() would also take "+1", "1_0" and
# other scripts' digits such as full-width "３".  Whitespace may stand only
# around "^" and the "x" separators, so "3 4" is not read as 34.
_FACTOR_RE = re.compile(r"([0-9]+)(?:\s*\^\s*([0-9]+))?")
_ROW_RE = re.compile(r"[0-9]+(?:\s+[0-9]+)*", re.ASCII)


def _too_long(where: str) -> DocumentError:
    """The error for a number int() refuses: more digits than the interpreter converts."""
    return DocumentError(f"{where}: a number has more than {sys.get_int_max_str_digits()} digits")


def parse_spec_string(text: str) -> GraphSpec:
    """Parse '3^4x4^7' (whitespace around '^' and 'x' and the case of the x
    separator are ignored)."""
    factors = []
    for part in re.split(r"[xX]", text):
        part = part.strip()
        m = _FACTOR_RE.fullmatch(part)
        if not m:
            raise DocumentError(f"cannot parse factor {part!r} in spec {text!r}")
        try:
            factors.append((int(m.group(1)), int(m.group(2) or 1)))
        except ValueError:
            raise _too_long("spec") from None
    try:
        return make_graph_spec(factors)
    except RadioGraphError as exc:
        raise DocumentError(str(exc)) from exc


@dataclass
class OrderingDocument:
    spec: GraphSpec
    rows: tuple[tuple[int, ...], ...]
    metadata: dict = field(default_factory=dict)

    def to_ordering(self) -> Ordering:
        try:
            return Ordering(self.spec, self.rows)
        except RadioGraphError as exc:
            raise DocumentError(str(exc)) from exc

    @classmethod
    def from_ordering(cls, ordering: Ordering, metadata: dict | None = None) -> "OrderingDocument":
        return cls(ordering.spec, ordering.rows, dict(metadata or {}))


def parse_ordering_text(text: str) -> OrderingDocument:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or not lines[0].lower().startswith("spec:"):
        raise DocumentError("first line must be 'spec: <factors>'")
    spec = parse_spec_string(lines[0].split(":", 1)[1])
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not _ROW_RE.fullmatch(line):
            raise DocumentError(f"line {lineno}: expected integers, got {line!r}")
        try:
            rows.append(tuple(map(int, line.split())))
        except ValueError:
            raise _too_long(f"line {lineno}") from None
    return OrderingDocument(spec, tuple(rows))


def serialize_ordering_text(doc: OrderingDocument) -> str:
    lines = [f"spec: {doc.spec}"]
    lines.extend(" ".join(str(c) for c in row) for row in doc.rows)
    return "\n".join(lines) + "\n"


def _is_int_list(value: object) -> bool:
    """A JSON array of integers.  Python reads JSON true/false as bool, a
    subclass of int, so the type is compared exactly."""
    return isinstance(value, list) and all(type(x) is int for x in value)


def parse_ordering_json(text: str) -> OrderingDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"bad JSON: {exc}") from exc
    except ValueError:  # an integer of more digits than int() converts
        raise _too_long("bad JSON") from None
    except RecursionError:
        raise DocumentError("bad JSON: nested too deeply") from None
    if not isinstance(obj, dict) or "spec" not in obj or "rows" not in obj:
        raise DocumentError("JSON document needs 'spec' and 'rows' keys")
    raw_spec = obj["spec"]
    if isinstance(raw_spec, str):
        spec = parse_spec_string(raw_spec)
    else:
        if not isinstance(raw_spec, list) or not all(
            _is_int_list(entry) and len(entry) == 2 for entry in raw_spec
        ):
            raise DocumentError(f"bad spec entry: {raw_spec!r}")
        try:
            spec = make_graph_spec([tuple(entry) for entry in raw_spec])
        except RadioGraphError as exc:
            raise DocumentError(f"bad spec entry: {raw_spec!r}") from exc
    raw_rows = obj["rows"]
    if not isinstance(raw_rows, list) or not all(_is_int_list(row) for row in raw_rows):
        raise DocumentError("rows must be lists of integers")
    rows = tuple(tuple(row) for row in raw_rows)
    metadata = obj.get("metadata")
    if metadata is None:
        metadata = {}
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    return OrderingDocument(spec, rows, metadata)


def serialize_ordering_json(doc: OrderingDocument) -> str:
    payload = {
        "spec": [[f.size, f.copies] for f in doc.spec.factors],
        "rows": [list(row) for row in doc.rows],
    }
    if doc.metadata:
        payload["metadata"] = doc.metadata
    return json.dumps(payload, indent=2) + "\n"


def parse_ordering_document(text: str) -> OrderingDocument:
    """Sniff the format: JSON when the payload starts with a brace."""
    if text.lstrip().startswith("{"):
        return parse_ordering_json(text)
    return parse_ordering_text(text)


_TOKEN_RE = re.compile(r"f([0-9]+)")


def parse_instruction_rows(text: str, spec: GraphSpec, kind: GeneratorKind | str) -> OrderGenerator:
    """Parse an instruction matrix of 'id' / 'f2' / 'f3' ... tokens.

    Each column's generator is built from `kind` and the column's size, after
    the row count matches the spec.  Tokens are resolved against the set that
    generator offers after the instruction one row up, so the same token can
    mean different permutations for the history kind.
    """
    lines = [line.split() for line in text.splitlines() if line.strip()]
    n = len(lines)
    if not spec.has_vertex_count(n):
        raise DocumentError(f"instruction matrix has {n} rows, spec needs {spec.num_vertices_text}")
    generators = [InstructionGenerator(kind, size) for size in spec.column_sizes()]
    t = spec.diameter
    for lineno, toks in enumerate(lines, start=1):
        if len(toks) != t:
            raise DocumentError(f"row {lineno} has {len(toks)} entries, expected {t}")

    cells: list[tuple[Permutation, ...]] = []
    for i, toks in enumerate(lines, start=1):
        row: list[Permutation] = []
        for j, tok in enumerate(toks):
            gen = generators[j]
            if i == 1:
                if tok != "id":
                    raise DocumentError(f"row 1 must be 'id' in every column, got {tok!r}")
                sigma = identity(gen.n)
            else:
                m = _TOKEN_RE.fullmatch(tok)
                if not m:
                    raise DocumentError(f"row {i}: bad instruction token {tok!r}")
                try:
                    subscript = int(m.group(1))
                except ValueError:
                    raise _too_long(f"row {i}, column {j + 1}") from None
                if not 2 <= subscript <= gen.n:
                    raise DocumentError(
                        f"row {i}, column {j + 1}: subscript {subscript} outside 2..{gen.n}"
                    )
                sigma = gen.sets(cells[-1][j])[subscript - 2]
                if i == 2 and subscript != 2:
                    raise DocumentError("row 2 must be 'f2' in every column")
            row.append(sigma)
        cells.append(tuple(row))
    try:
        return make_order_generator(spec, cells, generators)
    except RadioGraphError as exc:
        raise DocumentError(str(exc)) from exc
