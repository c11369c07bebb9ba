"""README's Library example runs as written, so the README cannot drift from
the package it documents."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    exec(compile(block, f"{README.name} (## Library)", "exec"), {})
