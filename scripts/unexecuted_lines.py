"""Print each line of src/redhom that no tier-1 test executes.

    python3 scripts/unexecuted_lines.py [PYTEST ARGS...]

Runs pytest in this process, by default as the tier-1 command does
(`-q --continue-on-collection-errors` from the checkout root), under a
stdlib `sys.settrace` tracer that records only frames whose code is in
src/redhom.  Then it prints every executable line that never ran, as
`src/redhom/FILE.py:LINE: SOURCE`, and a count per file.  The executable
lines are those the compiled code maps an instruction to, so blank
lines, comments and docstrings inside functions are never listed.  Each
file's text and executable lines are read before pytest starts, and
listed from that reading; a file that changed during the run is named
on stderr.
Extra arguments go to pytest, so `scripts/unexecuted_lines.py
tests/test_algebra.py` traces one file.  Lines that run only in a child
process (a test that starts `python -m redhom.cli`) count as unexecuted.
Tracing makes the suite two to five times slower, so this finds dead
code and untested branches; it is not a gate.  Exits with pytest's code.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "redhom"
TIER1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path, source: str) -> set[int]:
    """Line numbers that some instruction of the file's code maps to."""
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on argv under the tracer: (exit code, lines hit per
    file name)."""
    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(on_call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    return int(code), hits


def main() -> int:
    os.chdir(ROOT)
    texts = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    lines = {path: executable_lines(path, text) for path, text in texts.items()}
    code, hits = traced(sys.argv[1:] or TIER1)
    total = 0
    for path, text in texts.items():
        if not path.exists() or path.read_text() != text:
            print(f"{path.relative_to(ROOT)} changed during the run; its lines "
                  "are listed as they were before it", file=sys.stderr)
        source = text.splitlines()
        missed = sorted(lines[path] - hits.get(str(path), set()))
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
        if missed:
            print(f"# {path.relative_to(ROOT)}: {len(missed)} lines")
        total += len(missed)
    print(f"# {total} unexecuted lines in {SRC.relative_to(ROOT)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
