"""Malformed input through `cli.main`: too deeply nested JSON, F_p scalar
strings outside Q's fraction syntax, and the example workspaces with one
value replaced at a drawn JSON pointer."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from redhom import cli, resolution

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
TEXTS = {p.name: p.read_text() for p in sorted(EXAMPLES.glob("*.json"))}
P31 = 2**31 - 1


def run(argv):
    """(exit code, stdout, stderr) of `cli.main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def assert_input_error(argv, pointer, fragment):
    code, out, err = run(argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["pointer"] == pointer
    assert fragment in error["message"]
    assert "Traceback" not in err


# -- too deeply nested JSON ---------------------------------------------


def test_deeply_nested_workspace_is_exit_2(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(TEXTS["plane.json"].replace(
        '"relations": []', '"relations": ' + nested(100_000), 1))
    assert_input_error(["--workspace", str(path), "algebra", "info"], "",
                       "nested too deeply")


def test_deeply_nested_certificate_file_is_exit_2(tmp_path):
    path = tmp_path / "nested_certificate.json"
    path.write_text('{"format": ' + nested(100_000) + "}")
    assert_input_error(["--workspace", str(EXAMPLES / "plane.json"), "reduce",
                        "verify", str(path)], "", "nested too deeply")


# -- F_p reads Q's fraction syntax --------------------------------------


@pytest.mark.parametrize("where", ["module", "certificate"])
@pytest.mark.parametrize("p", [2, P31], ids=["F2", "F2^31-1"])
@pytest.mark.parametrize("entry", ["2/", "-2/-1", "2/+1", "2 / 1"])
def test_fp_entry_outside_q_syntax_is_exit_2(tmp_path, where, p, entry):
    """Each entry is 0 mod p as the parser used to read it, so only the
    syntax check can refuse it."""
    doc = json.loads(TEXTS["plane.json"])
    doc["algebra"]["p"] = p
    cert = doc["certificates"]["cert_k"]
    cert["algebra"]["characteristic"] = p
    if where == "module":
        doc["modules"]["bad"] = {"kind": "actions", "dim": 1,
                                 "actions": [[[entry]], [["0"]]]}
        argv, pointer = ["resolve", "bad"], "/modules/bad/actions/0"
    else:
        cert["base"]["actions"][0][0][0] = entry
        argv = ["reduce", "verify", "cert_k"]
        pointer = "/certificates/cert_k/base/actions/0"
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert_input_error(["--workspace", str(path), *argv], pointer, "bad entry")


# -- certificate steps too large to rebuild -----------------------------


@pytest.mark.parametrize("key,value,fragment", [
    ("a", 10**5, "the power a = 100000 would allocate"),
    ("b", 10**5, "the power b = 100000 would allocate"),
    ("n", 100, "n = 100: the syzygy of b = 1 copies cannot be rebuilt"),
])
def test_oversized_certificate_step_is_exit_2(tmp_path, monkeypatch, key,
                                              value, fragment):
    """Refused before the power or the syzygy is built (the step cap is
    lowered to 1 MB, so n = 100 stops at an early resolution step)."""
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 10**6)
    doc = json.loads(TEXTS["plane.json"])
    doc["certificates"]["cert_k"]["steps"][0][key] = value
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert_input_error(["--workspace", str(path), "reduce", "verify",
                        "cert_k"], f"/certificates/cert_k/steps/0/{key}",
                       fragment)


# -- one value replaced at a drawn JSON pointer -------------------------

NEST = "\x00nest{}\x00"   # a placeholder for nested brackets of that depth
BAD_SCALARS = ["3/", "1/0", "2/2", "x", "", "-", "1.5", "1e3", "٣", " 1 ",
               "1_0", "0", "1", "-1", "2"]
POLYNOMIALS = ["x^", "x**2", "(x", "x y", "1/0*x", "w", "x^-1", "x^100",
               "3^100*x", "(x+y)^100", "x*y*z", "x+", "@", "1", "x-x", "y"]
JUNK = [None, True, False, 0, -1, 1.5, "", "x", [], {}, [[]], [None],
        {"kind": None}, ["x"], [["x"]], {"kind": "simple"}]


@st.composite
def square(draw, n):
    """An n x n 0/1 matrix: the identity (never nilpotent), or a drawn one
    (often non-commuting with the other actions, or not nilpotent)."""
    if draw(st.booleans()):
        return [[str(int(i == j)) for j in range(n)] for i in range(n)]
    return draw(st.lists(st.lists(st.sampled_from(["0", "1"]), min_size=n,
                                  max_size=n), min_size=n, max_size=n))


@st.composite
def replacement(draw, key, old, nvars):
    kind = draw(st.sampled_from(["junk", "size", "matrix", "scalar",
                                 "polynomial", "nested", "integer", "module"]))
    if kind == "junk":
        return draw(st.sampled_from(JUNK))
    if kind == "size":   # a string matrix or list of the wrong size
        r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        return draw(st.sampled_from([[["0"] * c] * r, ["x"] * c]))
    if kind == "matrix":
        square_old = isinstance(old, list) and all(
            isinstance(row, list) and len(row) == len(old) for row in old)
        return draw(square(len(old) if square_old else draw(st.integers(1, 3))))
    if kind == "scalar":
        return draw(st.sampled_from(BAD_SCALARS))
    if kind == "polynomial":
        return draw(st.sampled_from(POLYNOMIALS))
    if kind == "nested":
        return NEST.format(draw(st.sampled_from([1, 10, 100, 900, 2000,
                                                 10**4])))
    if kind == "integer":
        large = [10**3, 10**4, 10**5] if key in ("nilpotency", "a", "b", "n") \
            else []
        return draw(st.sampled_from([-1, 0, 1, 2, 3, 100, *large]))
    n = draw(st.integers(0, 3))
    return {"kind": "actions", "dim": n,
            "actions": [draw(square(n)) for _ in range(draw(st.sampled_from(
                [nvars, nvars, nvars - 1, nvars + 1])))]}


def positions(node, path=()):
    """The path of keys to every value in `node`, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from positions(value, (*path, key))


# each example's paths grouped by shape (list indices as "*"), so that a
# drawn shape reaches a scalar of a certificate as often as the version
SHAPES = {}
for _name, _text in TEXTS.items():
    for _path in positions(json.loads(_text)):
        SHAPES.setdefault(_name, {}).setdefault(tuple(
            "*" if isinstance(k, int) else k for k in _path), []).append(_path)


@st.composite
def mutated(draw):
    """(example name, path of keys, document text) with one value replaced
    at a drawn path."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    shapes = SHAPES[name]
    path = draw(st.sampled_from(shapes[draw(st.sampled_from(sorted(shapes)))]))
    doc = json.loads(TEXTS[name])
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    value = draw(replacement(path[-1] if path else None, node,
                             len(doc["algebra"]["vars"])))
    if parent is None:
        doc = value
    else:
        parent[path[-1]] = value
    text = re.sub(r'"\\u0000nest(\d+)\\u0000"',
                  lambda m: nested(int(m[1])), json.dumps(doc))
    return name, path, text


def command_for(path):
    """A command that reads the mutated entry."""
    if len(path) >= 2 and path[0] == "modules":
        return ["resolve", path[1], "--window", "2"]
    if len(path) >= 2 and path[0] == "certificates":
        return ["reduce", "verify", path[1], "--window", "2"]
    return ["resolve", "k", "--window", "2"]


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=mutated())
def test_mutated_workspace_keeps_the_contract(case, tmp_path, monkeypatch):
    """Exactly one JSON document, a documented exit code, a pointer on
    exits 2 and 3, and no traceback.  The step cap is lowered to 1 MB so
    that large rings and resolutions are refused rather than built.  A
    value replaced inside a module or certificate leaves `algebra info`,
    which reads no entry, printing the unmutated file's stdout, unless the
    file can no longer be parsed."""
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 10**6)
    name, path, text = case
    ws = tmp_path / name
    ws.write_text(text)
    for argv in (["algebra", "info"], command_for(path)):
        code, out, err = run(["--workspace", str(ws), *argv])
        assert code in (0, 1, 2, 3)
        report = json.loads(out)   # raises unless exactly one document
        if code in (2, 3):
            assert isinstance(report["error"]["pointer"], str)
        assert "Traceback" not in err
        if argv == ["algebra", "info"] and len(path) >= 2 \
                and path[0] in ("modules", "certificates"):
            try:
                json.loads(text)
            except RecursionError:
                assert report["error"]["pointer"] == ""
            else:
                clean = run(["--workspace", str(EXAMPLES / name), *argv])
                assert (code, out) == clean[:2]


# -- constant powers too large to take exactly ---------------------------


def test_huge_constant_power_over_q_is_exit_2(tmp_path):
    """Over Q a constant's power is exact, refused past MAX_STEP_BYTES /
    ENTRY_BYTES bits; over F_2 it is taken mod 2.  The relation is a
    multiple of x^2, 0 in the ring."""
    doc = json.loads(TEXTS["plane.json"])
    del doc["certificates"]  # written for the ring with no relations
    doc["algebra"].update(field="Q", relations=["3^20000000*x^2"])
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert_input_error(["--workspace", str(path), "algebra", "info"],
                       "/algebra", "bits is over MAX_STEP_BYTES")
    doc["algebra"].update(field="Fp")
    path.write_text(json.dumps(doc))
    assert run(["--workspace", str(path), "algebra", "info"])[0] == 0
