"""README.md stays runnable: every ``python`` block runs and prints what it documents."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.MULTILINE | re.DOTALL)


def _run(block: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    return out.getvalue()


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_python_block_prints_its_comments(block):
    """Each ``print(...)  # text`` line of a block prints ``text``, in order."""
    want = [line.split("  # ", 1)[1] for line in block.splitlines()
            if line.startswith("print(") and "  # " in line]
    assert want, "a python block documents no output"
    assert _run(block).splitlines() == want


def test_quick_start_output():
    """The library quick start prints the array maximum power at STC."""
    assert _run(BLOCKS[0]) == "100.18 kW at 290.0 V\n"
