"""README's Library example and its `$ hamming-radio` transcripts run as
written, so the README cannot drift from the package it documents."""

import pathlib
import re
import shlex

import pytest
from click.testing import CliRunner

from hamming_radio.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    exec(compile(block, f"{README.name} (## Library)", "exec"), {})


def _transcripts():
    """Each `$ hamming-radio ...` line of README's sh blocks, with the lines after it."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL):
        for command in re.split(r"^(?=\$ )", block, flags=re.MULTILINE):
            if command.startswith("$ hamming-radio "):
                line, _, output = command.partition("\n")
                yield line[len("$ hamming-radio ") :], output


TRANSCRIPTS = list(_transcripts())


def test_readme_has_three_transcripts():
    assert [line for line, _ in TRANSCRIPTS] == [
        "verify src/hamming_radio/data/k3_4.txt --boundary",
        "bound 3^5",
        "lambda --kind lru -n 3 -s 3",
    ]


@pytest.mark.parametrize("line,output", TRANSCRIPTS, ids=[line for line, _ in TRANSCRIPTS])
def test_cli_transcript_matches(line, output, monkeypatch):
    # run from the repo root, where README's relative paths point
    monkeypatch.chdir(README.parent)
    result = CliRunner().invoke(main, shlex.split(line))
    assert result.output == output
