"""Bundled reference orderings, loaded through the canonical text format."""

from __future__ import annotations

from importlib import resources

from ..documents import OrderingDocument, parse_ordering_text
from ..verify import Ordering

GOLDEN_NAMES = ("k3_2", "k3_4")


def golden_document(name: str) -> OrderingDocument:
    return parse_ordering_text(golden_path(name).read_text(encoding="utf-8"))


def golden_ordering(name: str) -> Ordering:
    return golden_document(name).to_ordering()


def golden_path(name: str):
    """Filesystem path of a bundled ordering; KeyError names the known ones."""
    if name not in GOLDEN_NAMES:
        raise KeyError(f"unknown golden ordering {name!r}; have {GOLDEN_NAMES}")
    return resources.files(__package__).joinpath(f"{name}.txt")
