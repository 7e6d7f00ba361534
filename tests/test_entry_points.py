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

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "redhom"
CALLERS = [*sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "perfbench" / "workloads.py",
           ROOT / "perfbench" / "worker.py"]
TEXTS = [ROOT / "README.md", *sorted(p for p in (ROOT / "docs").rglob("*")
                                     if p.is_file())]

# Kept as a test reference (CHANGES.md): `Field.neg` is the scalar negation
# that TestNegation, TestKernelDataMatchesReference and
# TestEliminationMatchesReference compare against.
EXEMPT = {"Field.neg"}


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


def stale_exemptions() -> list[str]:
    """The `EXEMPT` entries that name no public definition of the package."""
    defined = {qual for path in PACKAGE.glob("*.py")
               for qual, _, _ in public_definitions(ast.parse(path.read_text()))}
    return sorted(EXEMPT - defined)


def test_every_exemption_names_a_public_definition():
    assert stale_exemptions() == []


def test_an_exemption_of_a_deleted_member_is_found(tmp_path, monkeypatch):
    pkg = tmp_path / "redhom"
    pkg.mkdir()
    for path in PACKAGE.glob("*.py"):
        (pkg / path.name).write_text(path.read_text())
    linalg = (pkg / "linalg.py").read_text()
    (pkg / "linalg.py").write_text(linalg.replace("    def neg(", "    def _neg("))
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    assert stale_exemptions() == ["Field.neg"]


# -- per-field decisions -----------------------------------------------------
#
# `Field`'s constructor chooses every operation that depends on the field,
# so no other line of the package tests which field it is over: no
# comparison of a characteristic (`.p`, `.characteristic`, or a name
# assigned from one) with a constant or a field constant (`p is None`,
# `f.p == 2`, `field == QQ`), no truth test of one (`f.p or 0`), and no
# test of the object dtype that only Q stores (`a.dtype == object`).

CHARACTERISTICS = {"p", "characteristic"}
FIELD_CONSTANTS = {"QQ", "GF2", "GF3"}


def constructor_lines(tree: ast.Module) -> set[int]:
    """The lines of `Field.__init__`."""
    return {line for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Field"
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            for line in range(item.lineno, item.end_lineno + 1)}


def field_tests() -> list[str]:
    """module:line of each test of the field outside its constructor."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {t.id for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Attribute)
                 and node.value.attr in CHARACTERISTICS
                 for t in node.targets if isinstance(t, ast.Name)}

        def characteristic(node):
            return (isinstance(node, ast.Attribute) and node.attr in CHARACTERISTICS
                    or isinstance(node, ast.Name) and node.id in names)

        def compares(sides):
            def has(test):
                return any(map(test, sides))
            return (has(lambda s: isinstance(s, ast.Name) and s.id in FIELD_CONSTANTS)
                    or has(characteristic) and has(lambda s: isinstance(s, ast.Constant))
                    or has(lambda s: isinstance(s, ast.Attribute) and s.attr == "dtype")
                    and has(lambda s: isinstance(s, ast.Name) and s.id == "object"))

        skip = constructor_lines(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                hit = compares([node.left, *node.comparators])
            elif isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
                hit = characteristic(node.test)
            elif isinstance(node, ast.BoolOp):
                hit = any(map(characteristic, node.values))
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                hit = characteristic(node.operand)
            else:
                continue
            if hit and node.lineno not in skip:
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_only_the_field_constructor_tests_the_field():
    assert field_tests() == []


@pytest.mark.parametrize("body,line", [
    ("    return 1 if fld.p is None else 2", 2),
    ("    return fld.characteristic or 0", 2),
    ("    modulus = fld.p\n    if modulus == 2:\n        return 0", 3),
    ("    return fld == QQ", 2),
    ("    return fld.zeros(1).dtype == object", 2),
])
def test_a_field_test_is_found(tmp_path, monkeypatch, body, line):
    pkg = tmp_path / "redhom"
    pkg.mkdir()
    for path in PACKAGE.glob("*.py"):
        (pkg / path.name).write_text(path.read_text())
    start = len((pkg / "homalg.py").read_text().splitlines())
    with open(pkg / "homalg.py", "a") as fh:
        fh.write(f"\n\ndef which(fld):\n{body}\n")
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    assert field_tests() == [f"homalg:{start + 2 + line}"]
