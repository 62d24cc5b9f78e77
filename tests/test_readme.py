"""Every Python block of README.md runs as written."""

from __future__ import annotations

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[tuple[int, str]]:
    """(first line number, source) of each ```python block."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    ]


BLOCKS = _python_blocks()


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"README.md:{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, source):
    exec(compile(source, f"{README}:{line}", "exec"), {"__name__": "__readme__"})
