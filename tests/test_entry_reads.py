"""A command reads only the workspace entries it names.

Loading checks the file, its version, its algebra and the shape of the
`modules` and `certificates` sections.  Each module and certificate is
built and checked when a command first reads it, and kept for later reads
in the same load.  So a broken entry that a command does not name leaves
its stdout byte-identical to the clean file's, and a command that names it
exits 2 with the entry's pointer."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from redhom import cli, workspace
from redhom.workspace import InputError, workspace_from_dict

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
COMMANDS = REFERENCE["certify-cli"]["commands"]
NAMES = sorted(p.name for p in EXAMPLES.glob("*.json"))

BAD_MOD = "/modules/bad_mod/actions/0"
BAD_KIND = "/modules/bad_kind/kind"
BAD_CERT = "/certificates/bad_cert/base/actions/0"


def run(argv):
    """(exit code, stdout) of `cli.main` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def broken(name: str) -> dict:
    """The example `name` with two broken modules and a broken certificate
    added: an action entry outside the scalar syntax, an unknown kind, and
    a copy of the file's first certificate with such an entry."""
    doc = json.loads((EXAMPLES / name).read_text())
    zeros = [[["0"]]] * (len(doc["algebra"]["vars"]) - 1)
    doc["modules"]["bad_mod"] = {"kind": "actions", "dim": 1,
                                 "actions": [[["3/"]], *zeros]}
    doc["modules"]["bad_kind"] = {"kind": "mystery"}
    cert = json.loads(json.dumps(next(iter(doc["certificates"].values()))))
    cert["base"]["actions"][0][0][0] = "3/"
    doc["certificates"]["bad_cert"] = cert
    return doc


@pytest.fixture(params=NAMES)
def broken_copy(request, tmp_path):
    path = tmp_path / request.param
    path.write_text(json.dumps(broken(request.param)))
    return request.param, str(path)


def assert_error(argv, pointer):
    code, out = run(argv)
    assert code == 2
    assert json.loads(out)["error"]["pointer"] == pointer


def test_unnamed_broken_entries_leave_stdout_unchanged(broken_copy):
    name, path = broken_copy
    specs = [s for s in COMMANDS if s["workspace"] == name]
    assert specs
    for spec in specs:
        argv = spec["argv"] + ["--seed", "1"] * bool(spec.get("seeded"))
        clean = run(["--workspace", str(EXAMPLES / name), *argv])
        assert clean[0] == spec["exit"]
        assert run(["--workspace", path, *argv]) == clean, argv


@pytest.mark.parametrize("argv, pointer", [
    (["resolve", "bad_mod"], BAD_MOD),
    (["dual", "bad_kind"], BAD_KIND),
    (["pushforward", "bad_mod"], BAD_MOD),
    (["ext", "k", "bad_mod"], BAD_MOD),
    (["theorem", "prop27", "bad_mod"], BAD_MOD),
    (["reduce", "verify", "bad_cert"], BAD_CERT),
    (["reduce", "transform", "syzygy", "bad_cert"], BAD_CERT),
    (["theorem", "t2", "k", "bad_cert"], BAD_CERT),
    (["theorem", "ptransfer", "bad_cert", "R"], BAD_CERT),
])
def test_named_broken_entry_is_exit_2(broken_copy, argv, pointer):
    assert_error(["--workspace", broken_copy[1], *argv], pointer)


@pytest.mark.parametrize("argv, pointer", [
    (["ext", "bad_mod", "bad_kind"], BAD_MOD),
    (["ext", "bad_kind", "bad_mod"], BAD_KIND),
    (["theorem", "main", "bad_mod", "bad_cert"], BAD_MOD),
    (["theorem", "t2", "bad_kind", "bad_cert"], BAD_KIND),
    (["theorem", "ptransfer", "bad_cert", "bad_mod"], BAD_CERT),
    (["reduce", "transform", "cosyzygy", "bad_cert", "bad_mod"], BAD_CERT),
], ids=["ext", "ext-reversed", "main", "t2", "ptransfer", "cosyzygy"])
def test_two_broken_entries_report_the_first_read(broken_copy, argv, pointer):
    assert_error(["--workspace", broken_copy[1], *argv], pointer)


@pytest.fixture
def builds(monkeypatch):
    """Each module and certificate build, as (section, name)."""
    seen = []
    for section, attr in (("modules", "_module_from_spec"),
                          ("certificates", "_certificate_from_spec")):
        def counted(alg, name, data, pointer, build=getattr(workspace, attr),
                    section=section):
            seen.append((section, name))
            return build(alg, name, data, pointer)
        monkeypatch.setattr(workspace, attr, counted)
    return seen


@pytest.mark.parametrize("name", NAMES)
def test_algebra_info_builds_no_entry(builds, name):
    argv = ["--workspace", str(EXAMPLES / name), "algebra", "info"]
    assert run(argv)[0] == 0
    assert builds == []


def test_reduce_verify_builds_one_certificate(builds):
    argv = ["--workspace", str(EXAMPLES / "line3.json"), "reduce", "verify",
            "cert_rx"]
    assert run(argv)[0] == 0
    assert builds == [("certificates", "cert_rx")]


def test_ext_of_a_module_with_itself_builds_it_once(builds, monkeypatch):
    calls, ext_dims = [], cli.ext_dims

    def recorded(source, target, window):
        calls.append((source, target))
        return ext_dims(source, target, window)
    monkeypatch.setattr(cli, "ext_dims", recorded)
    argv = ["--workspace", str(EXAMPLES / "plane.json"), "ext", "k", "k",
            "--window", "3"]
    assert run(argv)[0] == 0
    assert builds == [("modules", "k")]
    [(source, target)] = calls
    assert source is target


def test_load_checks_no_entry_and_a_read_checks_each_time():
    ws = workspace_from_dict(broken("plane.json"))
    assert ws.module("k") is ws.module("k")
    assert ws.certificate("cert_k") is ws.certificate("cert_k")
    for read, name, pointer in ((ws.module, "bad_mod", BAD_MOD),
                                (ws.certificate, "bad_cert", BAD_CERT)):
        for _ in range(2):   # a failed build is not kept
            with pytest.raises(InputError) as err:
                read(name)
            assert err.value.pointer == pointer


@pytest.mark.parametrize("section", ["modules", "certificates"])
def test_a_section_that_is_not_an_object_fails_the_load(section):
    doc = broken("plane.json")
    doc[section] = ["k"]
    with pytest.raises(InputError) as err:
        workspace_from_dict(doc)
    assert err.value.pointer == f"/{section}"
