"""Guards that outside input can reach, each exercised once through
`cli.main` in this process: a malformed workspace or certificate exits 2
with a pointer to the offending value, a certificate whose sequence is not
exact exits 1 with the reason, and a zero comparison module reads as -inf.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from redhom import cli
from redhom.algebra import build_algebra
from redhom.invariants import gdim
from redhom.linalg import GF2, Field
from redhom.modules import zero_module

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
PLANE = json.loads((EXAMPLES / "plane.json").read_text())


def run(argv):
    """(exit code, the one JSON document on stdout) of `cli.main`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def plane(tmp_path, edit):
    """plane.json with `edit` applied to a copy, written under tmp_path."""
    data = json.loads(json.dumps(PLANE))
    edit(data)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data))
    return str(path)


def cert_k(tmp_path, edit):
    """plane.json's cert_k with `edit` applied, as its own file."""
    data = json.loads(json.dumps(PLANE["certificates"]["cert_k"]))
    edit(data)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    return str(path)


def bad_module(spec):
    return lambda data: data["modules"].update(bad=spec)


@pytest.mark.parametrize("edit, argv, pointer, fragment", [
    (lambda d: d["algebra"].update(relations="x^2"), ["algebra", "info"],
     "/algebra/relations", "expected a list of polynomial strings"),
    (lambda d: d["algebra"].update(p=2**31), ["algebra", "info"],
     "/algebra/p", "field characteristic out of range: 2147483648"),
    (bad_module({"kind": "cyclic", "relations": "x"}), ["resolve", "bad"],
     "/modules/bad/relations", "expected a list of element strings"),
    (bad_module({"kind": "presentation", "generators": 1, "relations": ["x"]}),
     ["resolve", "bad"], "/modules/bad/relations", "expected a matrix of strings"),
    (bad_module({"kind": "presentation", "generators": 1, "relations": [["w"]]}),
     ["resolve", "bad"], "/modules/bad/relations", "'w' is not a variable"),
    (lambda d: d["certificates"].update(bad=[]), ["reduce", "verify", "bad"],
     "/certificates/bad", "expected an object"),
], ids=["ring-relations", "p-2^31", "cyclic-relations", "presentation-rows",
        "presentation-entry", "certificate-object"])
def test_malformed_workspace_is_exit_2(tmp_path, edit, argv, pointer, fragment):
    code, report = run(["--workspace", plane(tmp_path, edit), *argv])
    assert code == 2
    assert report["error"]["pointer"] == pointer
    assert fragment in report["error"]["message"]


@pytest.mark.parametrize("edit, pointer, fragment", [
    (lambda c: c.update(steps={}), "/steps", "expected a list"),
    (lambda c: c.update(steps=[1]), "/steps/0", "expected an object"),
    (lambda c: c["algebra"].update(nilpotency=0), "/algebra",
     "nilpotency bound must be at least 1"),
], ids=["steps-list", "step-object", "nilpotency-0"])
def test_malformed_certificate_file_is_exit_2(tmp_path, edit, pointer, fragment):
    code, report = run(["--workspace", str(EXAMPLES / "plane.json"), "reduce",
                        "verify", cert_k(tmp_path, edit)])
    assert code == 2
    assert report["error"]["pointer"] == pointer
    assert fragment in report["error"]["message"]


def test_a_certificate_that_is_not_an_object_is_exit_2(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("[]")
    code, report = run(["--workspace", str(EXAMPLES / "plane.json"), "reduce",
                        "verify", str(path)])
    assert code == 2
    assert report["error"] == {"pointer": "", "message": "expected an object"}


def one_step(inject, project):
    """0 -> k -> k -> k -> 0 over F_2[x,y]/m^2 with the given 1 x 1 maps,
    a = b = n = 1, and a zero witness into syz(k), of dimension 2."""
    k = {"dim": 1, "actions": [[["0"]], [["0"]]]}

    def edit(cert):
        cert["steps"] = [{"a": 1, "b": 1, "n": 1, "middle": k, "right": k,
                          "inject": [[inject]], "project": [[project]],
                          "witness": [["0"], ["0"]]}]
    return edit


@pytest.mark.parametrize("inject, project, reason", [
    ("0", "1", "left map is not injective"),
    ("1", "1", "composite through the middle is nonzero"),
], ids=["not-injective", "nonzero-composite"])
def test_a_sequence_that_is_not_exact_is_rejected(tmp_path, inject, project, reason):
    code, report = run(["--workspace", str(EXAMPLES / "plane.json"), "reduce",
                        "verify", cert_k(tmp_path, one_step(inject, project))])
    assert code == 1
    assert not report["accepted"] and report["step"] == 1
    assert report["reason"] == f"sequence is not exact: {reason}"


def test_a_zero_comparison_module_reads_minus_infinity(tmp_path):
    """`theorem ptransfer` against the zero module: every index is -inf."""
    ws = plane(tmp_path, bad_module({"kind": "free", "rank": 0}))
    code, report = run(["--workspace", ws, "theorem", "ptransfer", "cert_k", "bad"])
    assert code == 0
    assert report["hypotheses"][1] == {"name": "base_value_finite", "ok": True,
                                       "detail": "-inf (zero module involved)"}
    assert report["conclusions"] == [{
        "name": "value_at_K1", "ok": True,
        "detail": "-inf (zero module involved) vs -inf (zero module involved)"}]


def test_the_zero_module_has_gdim_zero():
    rep = gdim(zero_module(build_algebra(GF2, ["x", "y"], [], 2)), window=3)
    assert (rep.value, rep.above_window, rep.dims, rep.hypothesis) == \
        (0, False, [0, 0, 0, 0], "zero")


def test_a_characteristic_past_2_31_is_refused():
    with pytest.raises(ValueError, match="out of range: 2147483648"):
        Field(2**31)
