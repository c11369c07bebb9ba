"""Command-line surface.

Exit codes: 0 success / clean verification, 1 negative result (violations
found, graph ruled out, search exhausted), 2 input or parse error, 3 budget
exceeded.  Searches run on a single worker for reproducibility.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from .bounds import Gracefulness, bound_verdict, boundary_structure_check
from .documents import (
    OrderingDocument,
    parse_instruction_rows,
    parse_ordering_document,
    parse_spec_string,
    serialize_ordering_json,
    serialize_ordering_text,
)
from .errors import BudgetExceededError, InvalidWitnessError, RadioGraphError, RepetitionError
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


def _emit(doc: OrderingDocument, fmt: str, out_path: str | None) -> None:
    """Print an ordering document, or write it to --out; an unwritable path exits 2."""
    text = serialize_ordering_json(doc) if fmt == "json" else serialize_ordering_text(doc)
    if not out_path:
        click.echo(text, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(2, f"cannot write {out_path}: {exc.strerror or exc}")


def _violation_entry(v) -> dict:
    return {"kind": type(v).__name__, "detail": str(v), **dataclasses.asdict(v)}


class _Commands(click.Group):
    """The one place the exit-code contract is kept: a package error exits 2
    (3 for a budget), as does a file that cannot be read or decoded.
    InvalidWitnessError is a defect in the search, so it propagates, and a
    closed stdout is left to click, which exits 1 quietly."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (InvalidWitnessError, BrokenPipeError):
            raise
        except BudgetExceededError as exc:
            _fail(3, str(exc))
        except (RadioGraphError, OSError, UnicodeDecodeError) as exc:
            _fail(2, str(exc))


@click.group(cls=_Commands)
def main() -> None:
    """Consecutive radio labelings of Hamming graphs: verify, bound, search."""


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--boundary", is_flag=True, help="Also check the forced boundary structure.")
@click.option("--labeling", "show_labeling", is_flag=True, help="Print the induced labeling.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def verify(path: str, boundary: bool, show_labeling: bool, fmt: str) -> None:
    """Check that an ordering file induces a consecutive radio labeling."""
    with open(path, encoding="utf-8") as fh:
        ordering = parse_ordering_document(fh.read()).to_ordering()
    violations = check_ordering(ordering)
    boundary_violations = boundary_structure_check(ordering) if boundary else []
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
            "spec": str(ordering.spec),
            "violations": [_violation_entry(v) for v in violations],
        }
        if boundary:
            payload["boundary_violations"] = [_violation_entry(v) for v in boundary_violations]
        if labels is not None:
            payload["labels"] = labels
        click.echo(json.dumps(payload, indent=2))
    else:
        if ok:
            click.echo(
                f"ok: {len(ordering.rows)} rows over {ordering.spec} induce a "
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


def _decimal(value: int, formula: str) -> int | str:
    """value, or `formula` for it when value has more digits than str() and
    json.dumps write (sys.get_int_max_str_digits(), 4,300 by default;
    Pythons before 3.10.7 have no limit)."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    # a value of at most 3 * limit bits is below 8**limit, so 10**limit is rarely built
    if limit and value.bit_length() > 3 * limit and value >= 10**limit:
        return formula
    return value


@main.command()
@click.argument("spec_string")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def bound(spec_string: str, fmt: str) -> None:
    """Apply the cumulative-width threshold test to a graph spec like '3^4x4^7'."""
    spec = parse_spec_string(spec_string)
    verdict = bound_verdict(spec)
    factors = [
        {
            "size": e.size,
            "cumulative_width": _decimal(
                e.cumulative_width, " + ".join(str(f.copies) for f in spec.factors[: i + 1])
            ),
            "threshold": _decimal(e.threshold, f"1 + {e.size}({e.size}^2 - 1)/6"),
            "ruled_out": e.ruled_out,
        }
        for i, e in enumerate(verdict.factors)
    ]
    if fmt == "json":
        payload = {"spec": str(spec), "overall": verdict.overall.name, "factors": factors}
        click.echo(json.dumps(payload, indent=2))
    else:
        for e in factors:
            state = "ruled out" if e["ruled_out"] else "below threshold"
            click.echo(
                f"factor K{e['size']}: cumulative width {e['cumulative_width']}, "
                f"threshold {e['threshold']}: {state}"
            )
        click.echo(f"verdict: {verdict.overall.value}")
    sys.exit(1 if verdict.overall is Gracefulness.NOT_RADIO_GRACEFUL else 0)


@main.command()
@click.argument("spec_string", required=False)
@click.option("--reduced-k34", is_flag=True, help="Use the step-vector walk for K_3^4.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--seed", type=int, default=None, help="Seed of the shuffle (needs --randomize).")
@click.option("--node-budget", type=int, default=SearchConfig.node_budget, show_default=True)
@click.option("--time-budget", type=float, default=SearchConfig.time_budget, show_default=True)
@click.option("--randomize", is_flag=True, help="Shuffle candidate order (needs --seed).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def search(
    spec_string: str | None,
    reduced_k34: bool,
    out_path: str | None,
    seed: int | None,
    node_budget: int,
    time_budget: float,
    randomize: bool,
    fmt: str,
) -> None:
    """Search for a consecutive radio labeling; writes the ordering when found."""
    config = SearchConfig(node_budget=node_budget, time_budget=time_budget, seed=seed)
    if randomize and seed is None:
        _fail(2, "randomized candidate order needs a seed")
    if seed is not None and not randomize:
        _fail(2, "--seed only applies with --randomize")

    spec = parse_spec_string(spec_string) if spec_string else None
    if reduced_k34:
        if spec is not None and str(spec) != "3^4":
            _fail(2, "--reduced-k34 only searches 3^4")
        outcome = search_k34_reduced(config)
    else:
        if spec is None:
            _fail(2, "a spec argument is required without --reduced-k34")
        outcome = search_ordering(spec, config)

    click.echo(
        f"status: {outcome.status.value} (nodes {outcome.nodes_explored}, "
        f"deepest row {outcome.max_depth_reached})",
        err=True,
    )
    elapsed = outcome.elapsed_s
    rate = f" ({outcome.nodes_explored / elapsed:,.0f} nodes/s)" if elapsed > 0 else ""
    click.echo(f"elapsed {elapsed:.2f} s{rate}", err=True)
    if outcome.status is SearchStatus.FOUND:
        _emit(OrderingDocument.from_ordering(outcome.ordering), fmt, out_path)
        if out_path:
            click.echo(f"wrote {out_path}", err=True)
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
    spec = parse_spec_string(spec_string)
    with open(instructions_path, encoding="utf-8") as fh:
        og = parse_instruction_rows(fh.read(), spec, kind)
    ordering = materialize(og)
    violations = check_ordering(ordering)
    _emit(OrderingDocument.from_ordering(ordering, {"generator_kind": kind}), fmt, out_path)
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
    runs = enumerate_fixing_runs(builtin_generator(kind, n), length)
    for line in sorted(subscript_string(run) for run in runs):
        click.echo(line)
    click.echo(f"{len(runs)} run(s) of length {length} fix slot 1", err=True)


if __name__ == "__main__":
    main()
