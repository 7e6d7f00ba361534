"""The README's "Library tour" block runs and prints what it says."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block() -> str:
    """The single ```python block of the "Library tour" section."""
    section = README.read_text().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("```", 1)[0]


def test_library_tour_prints_its_outputs():
    code = tour_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "[1, 2, 4, 8, 16]"
    assert lines[-1] == "True 1 pd"
    # the block states both as comments on the lines that print them
    assert "# [1, 2, 4, 8, 16]" in code
    assert "# True 1 pd" in code
