"""Command-line surface.

Exit codes: 0 success / clean verification, 1 negative result (violations
found, graph ruled out, search exhausted), 2 input or parse error, 3 budget
exceeded.  Searches run on a single worker for reproducibility.
"""

from __future__ import annotations

import json
import sys

import click

from .bounds import Gracefulness, bound_verdict, boundary_structure_check
from .documents import (
    OrderingDocument,
    format_spec_string,
    parse_instruction_rows,
    parse_ordering_document,
    parse_spec_string,
    serialize_ordering_json,
    serialize_ordering_text,
)
from .errors import (
    BudgetExceededError,
    DocumentError,
    NotAtBoundaryError,
    RadioGraphError,
    RepetitionError,
    SpecError,
    TooLargeError,
)
from .instructions import (
    GeneratorKind,
    builtin_generator,
    enumerate_fixing_runs,
    materialize,
    subscript_string,
)
from .search import (
    SearchConfig,
    SearchStatus,
    search_k34_reduced,
    search_ordering,
)
from .verify import check_ordering, induced_labeling

_KIND_CHOICE = click.Choice([kind.value for kind in GeneratorKind])


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _violation_entry(v) -> dict:
    entry = {"kind": type(v).__name__, "detail": str(v)}
    for name in ("row", "gap", "shared", "row_a", "row_b", "first_gap"):
        if hasattr(v, name):
            entry[name] = getattr(v, name)
    return entry


@click.group()
def main() -> None:
    """Consecutive radio labelings of Hamming graphs: verify, bound, search."""


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--boundary", is_flag=True, help="Also check the forced boundary structure.")
@click.option("--labeling", "show_labeling", is_flag=True, help="Print the induced labeling.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def verify(path: str, boundary: bool, show_labeling: bool, fmt: str) -> None:
    """Check that an ordering file induces a consecutive radio labeling."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = parse_ordering_document(fh.read())
        ordering = doc.to_ordering()
    except (DocumentError, OSError) as exc:
        _fail(2, str(exc))
    violations = check_ordering(ordering)
    boundary_violations = []
    if boundary:
        try:
            boundary_violations = boundary_structure_check(ordering)
        except NotAtBoundaryError as exc:
            _fail(2, str(exc))
    labels = None
    if show_labeling:
        try:
            labeling = induced_labeling(ordering)
            labels = [labeling.assignment[v] for v in ordering.rows]
        except RepetitionError:
            labels = None
    ok = not violations and not boundary_violations

    if fmt == "json":
        payload = {
            "ok": ok,
            "spec": format_spec_string(ordering.spec),
            "violations": [_violation_entry(v) for v in violations],
        }
        if boundary:
            payload["boundary_violations"] = [_violation_entry(v) for v in boundary_violations]
        if labels is not None:
            payload["labels"] = labels
        click.echo(json.dumps(payload, indent=2))
    else:
        spec_name = format_spec_string(ordering.spec)
        if ok:
            click.echo(
                f"ok: {len(ordering.rows)} rows over {spec_name} induce a "
                f"consecutive radio labeling"
            )
            if boundary:
                click.echo("ok: boundary structure holds (gap j rows share exactly j-1)")
        else:
            for v in violations:
                click.echo(f"violation: {v}")
            for v in boundary_violations:
                click.echo(f"boundary violation: {v}")
            click.echo(f"{len(violations) + len(boundary_violations)} problem(s) found")
        if labels is not None:
            for i, label in enumerate(labels, start=1):
                click.echo(f"row {i}: label {label}")
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("spec_string")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def bound(spec_string: str, fmt: str) -> None:
    """Apply the cumulative-width threshold test to a graph spec like '3^4x4^7'."""
    try:
        spec = parse_spec_string(spec_string)
    except DocumentError as exc:
        _fail(2, str(exc))
    verdict = bound_verdict(spec)
    if fmt == "json":
        payload = {
            "spec": format_spec_string(spec),
            "overall": verdict.overall.name,
            "factors": [
                {
                    "size": e.size,
                    "cumulative_width": e.cumulative_width,
                    "threshold": e.threshold,
                    "ruled_out": e.ruled_out,
                }
                for e in verdict.factors
            ],
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        for e in verdict.factors:
            state = "ruled out" if e.ruled_out else "below threshold"
            click.echo(
                f"factor K{e.size}: cumulative width {e.cumulative_width}, "
                f"threshold {e.threshold}: {state}"
            )
        click.echo(f"verdict: {verdict.overall.value}")
    sys.exit(1 if verdict.overall is Gracefulness.NOT_RADIO_GRACEFUL else 0)


@main.command()
@click.argument("spec_string", required=False)
@click.option("--reduced-k34", is_flag=True, help="Use the instruction-side search for K_3^4.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--node-budget", type=int, default=None)
@click.option("--time-budget", type=float, default=None)
@click.option("--randomize", is_flag=True, help="Randomize candidate order (needs --seed).")
@click.option("--no-symmetry", is_flag=True, help="Do not pin the first two rows.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def search(
    spec_string: str | None,
    reduced_k34: bool,
    out_path: str | None,
    seed: int | None,
    node_budget: int | None,
    time_budget: float | None,
    randomize: bool,
    no_symmetry: bool,
    fmt: str,
) -> None:
    """Search for a consecutive radio labeling; writes the ordering when found."""
    kwargs = {}
    if node_budget is not None:
        kwargs["node_budget"] = node_budget
    if time_budget is not None:
        kwargs["time_budget"] = time_budget
    if seed is not None:
        kwargs["seed"] = seed
    if randomize:
        kwargs["randomize"] = True
    if no_symmetry:
        kwargs["symmetry_fixing"] = False
    try:
        config = SearchConfig(**kwargs)
    except RadioGraphError as exc:
        _fail(2, str(exc))

    spec = None
    if spec_string:
        try:
            spec = parse_spec_string(spec_string)
        except DocumentError as exc:
            _fail(2, str(exc))
    if reduced_k34:
        if spec is not None and spec.factors != parse_spec_string("3^4").factors:
            _fail(2, "--reduced-k34 only searches 3^4")
        try:
            outcome = search_k34_reduced(config)
        except SpecError as exc:
            _fail(2, str(exc))
    else:
        if spec is None:
            _fail(2, "a spec argument is required without --reduced-k34")
        try:
            outcome = search_ordering(spec, config)
        except TooLargeError as exc:
            _fail(2, str(exc))

    click.echo(
        f"status: {outcome.status.value} (nodes {outcome.nodes_explored}, "
        f"deepest row {outcome.max_depth_reached})",
        err=True,
    )
    if outcome.status is SearchStatus.FOUND:
        doc = OrderingDocument.from_ordering(outcome.ordering)
        text = serialize_ordering_json(doc) if fmt == "json" else serialize_ordering_text(doc)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            click.echo(f"wrote {out_path}", err=True)
        else:
            click.echo(text, nl=False)
        sys.exit(0)
    if outcome.status is SearchStatus.EXHAUSTED_NO_SOLUTION:
        click.echo("search space exhausted: no consecutive radio labeling exists", err=True)
        sys.exit(1)
    sys.exit(3)


@main.command()
@click.argument("spec_string")
@click.argument("instructions_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--kind",
    type=_KIND_CHOICE,
    default="lru",
    show_default=True,
)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def generate(spec_string: str, instructions_path: str, kind: str, out_path: str | None, fmt: str) -> None:
    """Decode an instruction matrix into an ordering and validate it."""
    try:
        spec = parse_spec_string(spec_string)
        generators = tuple(
            builtin_generator(kind, spec.column_size(j)) for j in range(1, spec.diameter + 1)
        )
        with open(instructions_path, encoding="utf-8") as fh:
            og = parse_instruction_rows(fh.read(), spec, generators)
    except (DocumentError, RadioGraphError, OSError) as exc:
        _fail(2, str(exc))
    ordering = materialize(og)
    violations = check_ordering(ordering)
    doc = OrderingDocument.from_ordering(ordering, {"generator_kind": kind})
    text = serialize_ordering_json(doc) if fmt == "json" else serialize_ordering_text(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    for v in violations:
        click.echo(f"violation: {v}", err=True)
    if violations:
        click.echo(f"{len(violations)} violation(s): not a consecutive radio labeling", err=True)
        sys.exit(1)
    click.echo("ok: decoded ordering induces a consecutive radio labeling", err=True)
    sys.exit(0)


@main.command(name="lambda")
@click.option("--kind", type=_KIND_CHOICE, default="lru")
@click.option("-n", "--size", "n", type=int, required=True)
@click.option("-s", "--length", "length", type=int, required=True)
def lambda_cmd(kind: str, n: int, length: int) -> None:
    """Debug helper: list the instruction runs of a given length that fix slot 1."""
    try:
        gen = builtin_generator(kind, n)
        runs = enumerate_fixing_runs(gen, length)
    except BudgetExceededError as exc:
        _fail(3, str(exc))
    except RadioGraphError as exc:
        _fail(2, str(exc))
    for line in sorted(subscript_string(run) for run in runs):
        click.echo(line)
    click.echo(f"{len(runs)} run(s) of length {length} fix slot 1", err=True)


if __name__ == "__main__":
    main()
