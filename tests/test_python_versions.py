"""Every Python file parses under the oldest Python that pyproject.toml
accepts, so the workflow's 3.10 job can import what a newer interpreter
runs here: `ast.parse(..., feature_version=...)` refuses grammar that
version lacks, such as `except*` (3.11) or type parameters (3.12)."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = tuple(map(int, re.search(
    r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text()).groups()))
FILES = sorted(p for d in ("src", "tests", "scripts", "perfbench")
               for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_the_oldest_python(path):
    ast.parse(path.read_text(), str(path), feature_version=OLDEST)


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
])
def test_newer_grammar_is_refused(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST)
