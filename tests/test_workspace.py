"""Workspace files: parsing, module construction, pointer reporting."""

import json
from pathlib import Path

import pytest

from redhom.linalg import GF2, GF3, QQ
from redhom.modules import is_isomorphic, residue_field
from redhom.reducing import SearchConfig, search, sequence_to_dict, verify
from redhom.workspace import (
    WORKSPACE_TAG,
    InputError,
    load_workspace,
    workspace_from_dict,
)


def plane_dict(modules=None, certificates=None):
    return {
        "version": WORKSPACE_TAG,
        "algebra": {"field": "Fp", "p": 2, "vars": ["x", "y"],
                    "nilpotency": 2, "relations": []},
        "modules": modules or {},
        "certificates": certificates or {},
    }


class TestAlgebra:
    def test_plane_parses(self):
        ws = workspace_from_dict(plane_dict())
        assert ws.algebra.dim == 3
        assert ws.algebra.field == GF2

    def test_rational_field(self):
        data = plane_dict()
        data["algebra"] = {"field": "Q", "vars": ["x"], "nilpotency": 2,
                           "relations": []}
        ws = workspace_from_dict(data)
        assert ws.algebra.field == QQ
        assert ws.algebra.dim == 2

    def test_relations_respected(self):
        data = plane_dict()
        data["algebra"] = {"field": "Fp", "p": 3, "vars": ["x", "y"],
                           "nilpotency": 3, "relations": ["x*y", "y^2"]}
        ws = workspace_from_dict(data)
        assert ws.algebra.field == GF3
        # basis 1, x, y, x^2
        assert ws.algebra.dim == 4


class TestModuleKinds:
    def test_free(self):
        ws = workspace_from_dict(plane_dict(
            {"F": {"kind": "free", "rank": 2}}))
        assert ws.module("F").dim == 6

    def test_simple(self):
        ws = workspace_from_dict(plane_dict({"k": {"kind": "simple"}}))
        mod = ws.module("k")
        assert mod.dim == 1
        assert is_isomorphic(mod, residue_field(ws.algebra)).kind == "yes"

    def test_cyclic(self):
        ws = workspace_from_dict(plane_dict(
            {"C": {"kind": "cyclic", "relations": ["x"]}}))
        # R/(x) over the plane has basis 1, y
        assert ws.module("C").dim == 2

    def test_presentation_relation_major(self):
        # one relation (x, y) on two generators
        ws = workspace_from_dict(plane_dict(
            {"P": {"kind": "presentation", "generators": 2,
                   "relations": [["x", "y"]]}}))
        assert ws.module("P").dim == 5

    def test_presentation_without_generators_is_zero(self):
        ws = workspace_from_dict(plane_dict(
            {"Z": {"kind": "presentation", "generators": 0}}))
        mod = ws.module("Z")
        assert (mod.dim, mod.free_rank, mod.label) == (0, 0, "0")

    def test_actions(self):
        acts = [[["0"]], [["0"]]]
        ws = workspace_from_dict(plane_dict(
            {"M": {"kind": "actions", "dim": 1, "actions": acts}}))
        mod = ws.module("M")
        assert is_isomorphic(mod, residue_field(ws.algebra)).kind == "yes"

    def test_missing_module_name(self):
        ws = workspace_from_dict(plane_dict())
        with pytest.raises(InputError) as err:
            ws.module("ghost")
        assert err.value.pointer == "/modules/ghost"


class TestCertificates:
    def test_embedded_certificate_reuses_algebra(self):
        ws = workspace_from_dict(plane_dict({"k": {"kind": "simple"}}))
        result = search(ws.module("k"), "pd",
                        SearchConfig(max_r=1, max_a=4, max_b=1, max_n=1))
        assert result.found
        raw = sequence_to_dict(result.sequence)
        ws2 = workspace_from_dict(plane_dict(
            {"k": {"kind": "simple"}}, {"c": raw}))
        seq = ws2.certificate("c")
        assert seq.base.algebra is ws2.algebra
        assert verify(seq).ok

    def test_certificate_algebra_mismatch(self):
        other = {"version": WORKSPACE_TAG,
                 "algebra": {"field": "Fp", "p": 2, "vars": ["x"],
                             "nilpotency": 3, "relations": []},
                 "modules": {"k": {"kind": "simple"}}, "certificates": {}}
        ws_line = workspace_from_dict(other)
        result = search(ws_line.module("k"), "gdim", SearchConfig(max_r=1))
        assert result.found
        raw = sequence_to_dict(result.sequence)
        ws = workspace_from_dict(plane_dict(None, {"c": raw}))
        with pytest.raises(InputError) as err:
            ws.certificate("c")
        assert err.value.pointer == "/certificates/c/algebra"

    def test_missing_certificate_name(self):
        ws = workspace_from_dict(plane_dict())
        with pytest.raises(InputError) as err:
            ws.certificate("ghost")
        assert err.value.pointer == "/certificates/ghost"


DUPLICATE_VARS = {**plane_dict(), "algebra": {
    "field": "Fp", "p": 2, "vars": ["x", "x"], "nilpotency": 2, "relations": []}}
CONSTANT_TERM = {**plane_dict(), "algebra": {
    "field": "Fp", "p": 2, "vars": ["x", "y"], "nilpotency": 2,
    "relations": ["1 + x"]}}
BAD_CASES = [
    ({"version": "nope"}, "/version"),
    ({**plane_dict(), "algebra": {"field": "F8"}}, "/algebra/field"),
    ({**plane_dict(),
      "algebra": {"field": "Fp", "p": 4, "vars": ["x"], "nilpotency": 2,
                  "relations": []}}, "/algebra/p"),
    ({**plane_dict(),
      "algebra": {"field": "Fp", "p": 2, "vars": "x", "nilpotency": 2,
                  "relations": []}}, "/algebra/vars"),
    ({**plane_dict(),
      "algebra": {"field": "Fp", "p": 2, "vars": ["x"], "nilpotency": 0,
                  "relations": []}}, "/algebra/nilpotency"),
    (plane_dict({"M": {"kind": "mystery"}}), "/modules/M/kind"),
    (plane_dict({"M": {"kind": "free", "rank": -1}}), "/modules/M/rank"),
    (plane_dict({"M": {"kind": "presentation", "generators": 2,
                       "relations": [["x"]]}}), "/modules/M/relations/0"),
    (plane_dict({"M": {"kind": "actions", "dim": 2,
                       "actions": [[["0", "0"], ["0", "0"]]]}}),
     "/modules/M/actions"),
    (plane_dict({"M": {"kind": "actions", "dim": 1,
                       "actions": [[["0", "0"]], [["0"]]]}}),
     "/modules/M/actions/0/0"),
    (DUPLICATE_VARS, "/algebra"),
    (CONSTANT_TERM, "/algebra"),
]


def load_and_read(data):
    """Load `data`, then read its module "M", checked on that first read."""
    workspace_from_dict(data).module("M")


@pytest.mark.parametrize("data, pointer", BAD_CASES)
def test_pointer_reported(data, pointer):
    with pytest.raises(InputError) as err:
        load_and_read(data)
    assert err.value.pointer == pointer


@pytest.mark.parametrize("data, message", [
    (DUPLICATE_VARS, "duplicate variable names"),
    (CONSTANT_TERM, "relation '1 + x' has a nonzero constant term"),
], ids=["duplicate-vars", "constant-term"])
def test_ring_build_errors_keep_their_message(data, message):
    with pytest.raises(InputError) as err:
        load_and_read(data)
    assert (err.value.pointer, err.value.message) == ("/algebra", message)


def test_load_missing_file(tmp_path):
    with pytest.raises(InputError) as err:
        load_workspace(tmp_path / "nope.json")
    assert "cannot read" in err.value.message


def test_load_bad_json(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text("{not json")
    with pytest.raises(InputError) as err:
        load_workspace(path)
    assert "JSON" in err.value.message


def _algebra(**changes):
    return {**plane_dict(), "algebra": {**plane_dict()["algebra"], **changes}}


BOOLEAN_CASES = [
    (_algebra(p=True), "/algebra/p"),
    (_algebra(nilpotency=True), "/algebra/nilpotency"),
    (plane_dict({"M": {"kind": "free", "rank": True}}), "/modules/M/rank"),
    (plane_dict({"M": {"kind": "presentation", "generators": True,
                       "relations": []}}), "/modules/M/generators"),
    (plane_dict({"M": {"kind": "actions", "dim": True,
                       "actions": [[["0"]], [["0"]]]}}), "/modules/M/dim"),
]


@pytest.mark.parametrize("data, pointer", BOOLEAN_CASES,
                         ids=["p", "nilpotency", "rank", "generators", "dim"])
def test_boolean_is_not_an_integer(data, pointer):
    with pytest.raises(InputError) as err:
        load_and_read(data)
    assert err.value.pointer == pointer


PLANE_CERT = json.loads((Path(__file__).resolve().parent.parent / "docs"
                         / "examples" / "plane.json").read_text())[
    "certificates"]["cert_k"]
ZERO = [["0", "0"], ["0", "0"]]
SHIFT = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]
ZERO3 = [["0"] * 3] * 3
# actions of a module over the plane, of the size of the last matrix
MALFORMED_ACTIONS = {
    "row-too-long": ([[["0", "0", "0"], ["0", "0"]], ZERO], "/actions/0/0"),
    "matrix-count": ([ZERO], "/actions"),
    "non-string": ([[["0", 0], ["0", "0"]], ZERO], "/actions/0"),
    "bad-scalar": ([[["0", "3/"], ["0", "0"]], ZERO], "/actions/0"),
    "non-commuting": ([[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
                      "/actions"),
    # commuting, but x^2 != 0 although x^2 = 0 in the plane
    "broken-relation": ([SHIFT, ZERO3], "/actions"),
}


@pytest.mark.parametrize("case", MALFORMED_ACTIONS)
def test_actions_read_alike_in_modules_and_certificates(case):
    """A workspace module of kind "actions" and a certificate's base are
    read by one reader: the same message, at the same pointer below the
    entry."""
    actions, below = MALFORMED_ACTIONS[case]
    dim = len(actions[-1])
    cert = {**PLANE_CERT, "base": {"dim": dim, "actions": actions}}
    ws = workspace_from_dict(plane_dict(
        {"M": {"kind": "actions", "dim": dim, "actions": actions}},
        {"c": cert}))
    errors = []
    for read, name, entry in ((ws.module, "M", "/modules/M"),
                              (ws.certificate, "c", "/certificates/c/base")):
        with pytest.raises(InputError) as err:
            read(name)
        assert err.value.pointer == entry + below
        errors.append(err.value.message)
    assert errors[0] == errors[1]
    if case == "broken-relation":  # refused only by the reader's validate_module
        assert errors[0] == "actions violate an algebra relation"
