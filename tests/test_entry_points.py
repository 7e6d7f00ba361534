"""Every public definition in the package has a caller outside the tests.

A public top-level function or class, or a public method of a top-level
class, must be named in the package beyond its own definition, in
`scripts/`, `README.md`, `docs/` or the benchmark's workloads and
worker.  Python files count only names used as code (a name, an
attribute, an import, or a string that is exactly the name), so a
docstring or comment keeps nothing alive.  `perfbench/tracer.py` does
not count: its name lists wrap functions rather than call them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "redhom"
CALLERS = [*sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "perfbench" / "workloads.py",
           ROOT / "perfbench" / "worker.py"]
TEXTS = [ROOT / "README.md", *sorted(p for p in (ROOT / "docs").rglob("*")
                                     if p.is_file())]

# Kept as test references (CHANGES.md): `Field.neg` is the scalar negation
# that TestNegation, TestKernelDataMatchesReference and
# TestEliminationMatchesReference compare against, and `Matrix.to_lists`
# reads a matrix back as nested lists of its entries.
EXEMPT = {"Field.neg", "Matrix.to_lists"}


def public_definitions(tree: ast.Module):
    """(qualified name, name, definition node) of each public definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def uses(node: ast.AST) -> Counter:
    """How often each name is used as code under `node`."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def unreferenced() -> list[str]:
    """The public definitions named nowhere but in their own body."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = Counter()
    for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in CALLERS)]:
        used += uses(tree)
    words = set(re.findall(r"\w+", "\n".join(p.read_text() for p in TEXTS)))
    return [f"{path.stem}.{qual}" for path, tree in trees.items()
            for qual, name, node in public_definitions(tree)
            if qual not in EXEMPT and name not in words
            and used[name] == uses(node)[name]]


def test_every_public_definition_has_a_caller():
    assert unreferenced() == []


def test_a_test_only_function_is_found(tmp_path, monkeypatch):
    pkg = tmp_path / "redhom"
    pkg.mkdir()
    for path in PACKAGE.glob("*.py"):
        (pkg / path.name).write_text(path.read_text())
    with open(pkg / "homalg.py", "a") as fh:
        fh.write("\n\ndef is_reflexive(mod):\n"
                 "    return biduality(mod).is_bijective\n")
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    assert unreferenced() == ["homalg.is_reflexive"]
