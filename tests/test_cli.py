"""Command-line behavior: exit codes, report shape, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from redhom import algebra, cli
from redhom.linalg import GF2, Matrix
from redhom.algebra import build_algebra
from redhom.homalg import HomAlgError
from redhom.modules import (ModuleMap, free_module, residue_field,
                            zero_module)
from redhom.reducing import (
    ReducingSequence,
    ReducingStep,
    save_certificate,
)
from redhom.modules import ShortExactSequence
from redhom.resolution import ChainResolution, ResolutionError

PLANE = {
    "version": "redhom-workspace/1",
    "algebra": {"field": "Fp", "p": 2, "vars": ["x", "y"],
                "nilpotency": 2, "relations": []},
    "modules": {
        "k": {"kind": "simple"},
        "R": {"kind": "free", "rank": 1},
        "Rx": {"kind": "cyclic", "relations": ["x"]},
    },
    "certificates": {},
}

LINE3 = {
    "version": "redhom-workspace/1",
    "algebra": {"field": "Fp", "p": 2, "vars": ["x"],
                "nilpotency": 3, "relations": []},
    "modules": {
        "k": {"kind": "simple"},
        "R": {"kind": "free", "rank": 1},
        "Rx": {"kind": "cyclic", "relations": ["x"]},
    },
    "certificates": {},
}


@pytest.fixture
def plane_ws(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(PLANE))
    return str(path)


@pytest.fixture
def line3_ws(tmp_path):
    path = tmp_path / "line3.json"
    path.write_text(json.dumps(LINE3))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


class TestInspection:
    def test_algebra_info(self, plane_ws, capsys):
        code, report, err = run(capsys, "--workspace", plane_ws,
                                "algebra", "info")
        assert code == 0
        assert report["algebra"]["dimension"] == 3
        assert report["algebra"]["gorenstein"] is False
        assert report["tool_version"]
        assert "algebra" in err

    def test_resolve_betti(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "resolve", "k", "--window", "4")
        assert code == 0
        assert report["betti"] == [1, 2, 4, 8, 16]
        assert report["window"] == 4

    def test_ext_all_nonzero(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "ext", "k", "R", "--window", "10")
        assert code == 0
        assert len(report["dims"]) == 11
        assert all(d >= 1 for d in report["dims"])

    def test_dual(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws, "dual", "k")
        assert code == 0
        assert report["dual_dim"] == 2
        assert report["torsionless"] is True
        assert report["reflexive"] is False

    def test_pushforward_accept(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "pushforward", "k")
        assert code == 0
        assert report["embeds"] is True

    def test_pushforward_reject(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "pushforward", "Rx")
        assert code == 1
        assert report["embeds"] is False
        assert "kernel" in report["reason"]


class TestReduce:
    def test_search_save_verify(self, plane_ws, tmp_path, capsys):
        cert = str(tmp_path / "cert.json")
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "reduce", "search", "k", "--target", "pd",
                              "--max-a", "4", "--save", cert)
        assert code == 0
        assert report["found"] is True
        assert report["steps"] == [{"a": 4, "b": 1, "n": 1,
                                    "middle_dim": 6}]
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "reduce", "verify", cert, "--window", "10")
        assert code == 0
        assert report["accepted"] is True
        assert report["r"] == 1

    def test_search_absent(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "reduce", "search", "Rx", "--target", "pd",
                              "--max-r", "1", "--max-a", "2", "--max-b", "1",
                              "--max-n", "1", "--budget", "10")
        assert code == 1
        assert report["found"] is False
        assert report["reason"]

    def test_verify_workspace_name(self, plane_ws, tmp_path, capsys):
        cert = str(tmp_path / "cert.json")
        run(capsys, "--workspace", plane_ws, "reduce", "search", "k",
            "--target", "pd", "--max-a", "4", "--save", cert)
        data = json.loads(json.dumps(PLANE))
        data["certificates"]["cert_k"] = json.load(open(cert))
        ws2 = tmp_path / "plane2.json"
        ws2.write_text(json.dumps(data))
        code, report, _ = run(capsys, "--workspace", str(ws2),
                              "reduce", "verify", "cert_k")
        assert code == 0
        assert report["accepted"] is True

    def test_transform_roundtrip(self, line3_ws, tmp_path, capsys):
        cert = str(tmp_path / "c.json")
        out = str(tmp_path / "c_syz.json")
        code, _, _ = run(capsys, "--workspace", line3_ws,
                         "reduce", "search", "Rx", "--target", "pd",
                         "--max-a", "2", "--save", cert)
        assert code == 0
        code, report, _ = run(capsys, "--workspace", line3_ws,
                              "reduce", "transform", "syzygy", cert,
                              "--save", out)
        assert code == 0
        assert report["base_dim"] == 2
        code, report, _ = run(capsys, "--workspace", line3_ws,
                              "reduce", "transform", "cosyzygy", out, "Rx")
        assert code == 0
        assert report["ok"] is True
        assert report["base_dim"] == 1

    def test_transform_syzygy_of_unverified_chain_exit1(self, plane_ws,
                                                        tmp_path, capsys):
        """A chain that parses but does not verify is refused with exit 1:
        k over the plane is not totally reflexive, so its r = 0 gdim chain
        fails at the terminal test."""
        cert = str(tmp_path / "cert.json")
        plane = build_algebra(GF2, ["x", "y"], [], 2)
        save_certificate(ReducingSequence(residue_field(plane), [], "gdim"),
                         cert)
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "reduce", "transform", "syzygy", cert)
        assert code == 1
        assert report["ok"] is False
        assert report["reason"].startswith(
            "input chain failed verification: final module is not totally "
            "reflexive")

    def test_cosyzygy_precondition_exit1(self, plane_ws, tmp_path, capsys):
        cert = str(tmp_path / "cert.json")
        run(capsys, "--workspace", plane_ws, "reduce", "search", "k",
            "--target", "pd", "--max-a", "4", "--save", cert)
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "reduce", "transform", "cosyzygy", cert, "k")
        assert code == 1
        assert report["ok"] is False
        assert "Ext" in report["reason"]


class TestCosyzygyRejectionReports:
    """A refused cosyzygy transport's whole report, every key but the
    tool version, and its stderr line."""

    @staticmethod
    def refused(capsys, ws, cert, module):
        code, report, err = run(capsys, "--workspace", ws, "reduce",
                                "transform", "cosyzygy", cert, module)
        assert report.pop("tool_version")
        return code, report, err

    def test_ext_precheck_rejection(self, plane_ws, tmp_path, capsys):
        cert = str(tmp_path / "cert.json")
        run(capsys, "--workspace", plane_ws, "reduce", "search", "k",
            "--target", "pd", "--max-a", "4", "--save", cert)
        reason = ("Ext^1(chain base, ring) is nonzero; cosyzygy transport "
                  "needs ring-dual vanishing through the window")
        assert self.refused(capsys, plane_ws, cert, "k") == (1, {
            "certificate": cert, "command": "reduce transform cosyzygy",
            "module": "k", "ok": False, "reason": reason, "window": 10,
        }, f"transport rejected: {reason}\n")

    def test_unverified_input_chain(self, line3_ws, tmp_path, capsys):
        """k over F_2[x]/x^3, a Gorenstein ring, passes the Ext pre-check,
        and its r = 0 pd chain fails verification: k is not free."""
        cert = str(tmp_path / "cert.json")
        line3 = build_algebra(GF2, ["x"], [], 3)
        save_certificate(ReducingSequence(residue_field(line3), [], "pd"), cert)
        reason = "input chain failed verification: final module is not free"
        assert self.refused(capsys, line3_ws, cert, "k") == (1, {
            "certificate": cert, "command": "reduce transform cosyzygy",
            "module": "k", "ok": False, "reason": reason, "window": 10,
        }, f"transport rejected: {reason}\n")


class TestTransportRoundTrips:
    """Transports of the `line3.json` certificates through saved files:
    each command exits 0, and `reduce verify` accepts each saved chain.
    The transports verify only their input and the lifted chain, so these
    are what check a saved `transform syzygy` chain end to end."""

    @staticmethod
    def transform(capsys, saved, way, *args):
        code, report, _ = run(capsys, "--workspace", str(EXAMPLES / "line3.json"),
                              "reduce", "transform", way, *args, "--save", str(saved))
        assert code == 0, report

    @staticmethod
    def accepted(capsys, saved):
        code, report, _ = run(capsys, "--workspace", str(EXAMPLES / "line3.json"),
                              "reduce", "verify", str(saved))
        assert code == 0
        return report["accepted"]

    def test_cosyzygy_round_trip(self, capsys, tmp_path):
        # the lifted chain's middle is block-triangular
        self.transform(capsys, tmp_path / "lifted.json", "cosyzygy", "cert_rx", "Rx2")
        assert self.accepted(capsys, tmp_path / "lifted.json") is True

    def test_syzygy_round_trip(self, capsys, tmp_path):
        # the shifted chain is built through the horseshoe
        self.transform(capsys, tmp_path / "shifted.json", "syzygy", "cert_rx_gdim")
        assert self.accepted(capsys, tmp_path / "shifted.json") is True

    def test_syzygy_then_cosyzygy_round_trip_through_saved_files(self, capsys,
                                                                  tmp_path):
        shifted, back = tmp_path / "shifted_rx.json", tmp_path / "back.json"
        self.transform(capsys, shifted, "syzygy", "cert_rx")
        self.transform(capsys, back, "cosyzygy", str(shifted), "Rx")
        assert self.accepted(capsys, shifted) is True
        assert self.accepted(capsys, back) is True


class TestDeepWindows:
    """Windows far past what the examples need, over F_2[x,y]/m^2: deep
    sparse steps and transitions stay under `MAX_STEP_BYTES`, and a
    finished resolution reads zeros past its end.  No timing is asserted."""

    def test_deep_resolution_under_the_step_cap(self, capsys):
        code, report, _ = run(capsys, "--workspace", str(EXAMPLES / "plane.json"),
                              "resolve", "k", "--window", "14")
        assert code == 0
        assert report["betti"] == [2**i for i in range(15)]

    def test_deep_ext_table_under_the_step_cap(self, capsys):
        code, report, _ = run(capsys, "--workspace", str(EXAMPLES / "plane.json"),
                              "ext", "k", "R", "--window", "14")
        assert code == 0
        assert report["dims"] == [2] + [3 * 2**(i - 1) for i in range(1, 15)]

    def test_a_finished_resolution_stops_stepping(self, capsys):
        code, report, _ = run(capsys, "--workspace", str(EXAMPLES / "plane.json"),
                              "resolve", "R", "--window", "100000")
        assert code == 0
        assert report["betti"] == [1] + [0] * 100000
        assert report["terminated_at"] == 1

    def test_a_finished_resolution_builds_no_ext_transition_past_its_end(self, capsys):
        code, report, _ = run(capsys, "--workspace", str(EXAMPLES / "plane.json"),
                              "ext", "R", "R", "--window", "100000")
        assert code == 0
        assert report["dims"] == [3] + [0] * 100000


def cli_process(hash_seed: int, *argv: str) -> tuple[int, str]:
    """`python -m redhom.cli argv` as its own process under this
    PYTHONHASHSEED: (exit code, stdout)."""
    src = str(EXAMPLES.parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "redhom.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


class TestSameInEveryProcess:
    """Long windows over F_2[x]/x^3, each command line run as two
    processes, PYTHONHASHSEED 0 and 1: both exit 0 with the same stdout.
    No timing is asserted."""

    @staticmethod
    def twice(*argv: str) -> dict:
        runs = [cli_process(seed, "--workspace", str(EXAMPLES / "line3.json"), *argv)
                for seed in (0, 1)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        return json.loads(runs[0][1])

    def test_periodic_tails_are_read_not_stepped(self):
        # Betti numbers and Ext dims repeat with period 2 from index 1
        betti = self.twice("resolve", "Rx", "--window", "100000")["betti"]
        dims = self.twice("ext", "Rx", "Rx", "--window", "10000")["dims"]
        assert len(betti) == 100001 and len(dims) == 10001
        assert all(s[i] == s[i - 2] for s in (betti, dims) for i in range(3, len(s)))
        assert betti[:3] == [1, 1, 1] and dims[:3] == [1, 1, 1]

    def test_main_theorem_on_a_long_embedding_chain(self):
        # sixty stages whose actions alternate between two modules
        report = self.twice("theorem", "main", "Rx", "cert_rx_gdim", "--window", "60")
        assert report["ok"] is True


class TestTheorems:
    def test_prop27_holds(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "theorem", "prop27", "k",
                              "--max-r", "1", "--max-a", "4", "--max-b", "1",
                              "--max-n", "1", "--budget", "30",
                              "--window", "4")
        assert code == 0
        assert report["ok"] is True
        assert report["theorem"] == "prop27"

    def test_prop27_precondition(self, line3_ws, capsys):
        code, report, _ = run(capsys, "--workspace", line3_ws,
                              "theorem", "prop27", "k")
        assert code == 2
        assert "square" in report["error"]["message"]

    def test_cor33_plane(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "theorem", "cor33",
                              "--max-r", "1", "--max-a", "4", "--max-b", "2",
                              "--max-n", "2", "--budget", "20",
                              "--window", "4")
        assert code == 0
        names = [c["name"] for c in report["conclusions"]]
        assert "omega_not_free" in names

    def test_main_gdim_chain(self, line3_ws, tmp_path, capsys):
        cert = str(tmp_path / "c.json")
        run(capsys, "--workspace", line3_ws, "reduce", "search", "Rx",
            "--target", "gdim", "--max-a", "2", "--save", cert)
        code, report, _ = run(capsys, "--workspace", line3_ws,
                              "theorem", "main", "Rx", cert,
                              "--window", "6")
        assert code == 0
        assert report["ok"] is True

    def test_main_wrong_target_fails(self, plane_ws, tmp_path, capsys):
        cert = str(tmp_path / "c.json")
        run(capsys, "--workspace", plane_ws, "reduce", "search", "k",
            "--target", "pd", "--max-a", "4", "--save", cert)
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "theorem", "main", "k", cert, "--window", "6")
        assert code == 1
        assert report["ok"] is False

    def test_t2_on_free_module(self, line3_ws, tmp_path, capsys):
        alg = build_algebra(GF2, ["x"], [], 3)
        reg = free_module(alg, 1)
        zero = zero_module(alg)
        ses = ShortExactSequence(ModuleMap.identity(reg),
                                 ModuleMap.zero(reg, zero))
        step = ReducingStep(1, 1, 1, ses, ModuleMap.identity(zero))
        seq = ReducingSequence(reg, [step], "pd")
        cert = str(tmp_path / "r.json")
        save_certificate(seq, cert)
        code, report, _ = run(capsys, "--workspace", line3_ws,
                              "theorem", "t2", "R", cert, "--window", "6")
        assert code == 0
        assert report["ok"] is True
        names = {c["name"]: c for c in report["conclusions"]}
        assert names["summand_in_K1"]["ok"] is True
        assert "retraction" in names["summand_in_K1"]["detail"]

    def test_ptransfer(self, line3_ws, tmp_path, capsys):
        cert = str(tmp_path / "c.json")
        run(capsys, "--workspace", line3_ws, "reduce", "search", "Rx",
            "--target", "pd", "--max-a", "2", "--save", cert)
        code, report, _ = run(capsys, "--workspace", line3_ws,
                              "theorem", "ptransfer", cert, "R",
                              "--window", "6")
        assert code == 0
        assert report["ok"] is True


class TestErrorPaths:
    def test_missing_workspace_flag(self, capsys):
        code, report, _ = run(capsys, "algebra", "info")
        assert code == 2
        assert "workspace" in report["error"]["message"]

    def test_missing_module(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "resolve", "ghost")
        assert code == 2
        assert report["error"]["pointer"] == "/modules/ghost"

    def test_bad_module_kind(self, tmp_path, capsys):
        data = json.loads(json.dumps(PLANE))
        data["modules"]["weird"] = {"kind": "mystery"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, report, _ = run(capsys, "--workspace", str(path),
                              "resolve", "weird")
        assert code == 2
        assert report["error"]["pointer"] == "/modules/weird/kind"

    def test_cert_algebra_mismatch(self, plane_ws, line3_ws, tmp_path,
                                   capsys):
        cert = str(tmp_path / "c.json")
        run(capsys, "--workspace", line3_ws, "reduce", "search", "Rx",
            "--target", "pd", "--max-a", "2", "--save", cert)
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "reduce", "verify", cert)
        assert code == 2
        assert report["error"]["pointer"] == "/algebra"

    @pytest.mark.parametrize("relation", [
        "x,y", "2x", "(x", "x/y", "x^-1", "sqrt(2)*x", "x.y"])
    def test_bad_polynomial_is_json(self, tmp_path, capsys, relation):
        data = json.loads(json.dumps(PLANE))
        data["modules"]["bad"] = {"kind": "cyclic", "relations": [relation]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = cli.main(["--workspace", str(path), "resolve", "bad"])
        out = capsys.readouterr().out
        assert code == 2
        report = json.loads(out)   # raises unless exactly one document
        assert report["error"]["pointer"] == "/modules/bad/relations"

    @pytest.mark.parametrize("argv,flag", [
        (["resolve", "k", "--window", "-3"], "--window"),
        (["ext", "k", "R", "--window", "-1"], "--window"),
        (["reduce", "search", "k", "--target", "pd", "--budget", "0"], "--budget"),
        (["reduce", "search", "k", "--target", "pd", "--max-a", "0"], "--max-a"),
        (["theorem", "cor33", "--max-b", "-2"], "--max-b"),
        (["reduce", "search", "k", "--target", "pd", "--max-n", "0"], "--max-n"),
        (["theorem", "prop27", "k", "--max-n", "-2"], "--max-n"),
        (["theorem", "cor33", "--max-r", "-1"], "--max-r"),
        (["reduce", "search", "k", "--target", "gdim", "--samples", "-3"],
         "--samples"),
    ], ids=["resolve-window", "ext-window", "budget", "max-a", "max-b",
            "max-n-zero", "max-n-negative", "max-r", "samples"])
    def test_bound_out_of_range(self, plane_ws, capsys, argv, flag):
        code, report, _ = run(capsys, "--workspace", plane_ws, *argv)
        assert code == 2
        assert report["command"] == argv[0]
        assert report["error"]["pointer"] == ""
        assert flag in report["error"]["message"]

    @pytest.mark.parametrize("argv,command,fragment", [
        (["resolve", "k", "--window", "abc"], "resolve", "--window"),
        (["resolve"], "resolve", "module"),
        (["ext", "k"], "ext", "target"),
        (["reduce", "search", "k"], "reduce search", "--target"),
        (["reduce", "search", "k", "--target", "both"], "reduce search",
         "--target"),
        (["frobnicate"], "", "frobnicate"),
        (["resolve", "k", "--bogus"], "", "--bogus"),
    ], ids=["bad-int", "missing-module", "missing-target", "missing-flag",
            "bad-choice", "unknown-command", "unknown-flag"])
    def test_usage_error_is_json(self, plane_ws, capsys, argv, command,
                                 fragment):
        code, report, err = run(capsys, "--workspace", plane_ws, *argv)
        assert code == 2
        assert report["command"] == command
        assert report["error"]["pointer"] == ""
        assert fragment in report["error"]["message"]
        assert "usage:" not in err

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["resolve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: redhom resolve")

    @pytest.mark.parametrize("exc", [HomAlgError("no lift"),
                                     ResolutionError("not minimal"),
                                     AssertionError()],
                             ids=["homalg", "resolution", "assertion"])
    def test_internal_error_is_json(self, plane_ws, capsys, monkeypatch, exc):
        def boom(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_resolve", boom)
        code = cli.main(["--workspace", plane_ws, "resolve", "k"])
        out, err = capsys.readouterr()
        assert code == 3
        report = json.loads(out)
        assert report["command"] == "resolve"
        assert report["error"]["pointer"] == ""
        assert report["error"]["message"] == (str(exc) or type(exc).__name__)
        assert err.startswith("internal error: ")
        assert err.count("\n") == 1

    def test_missing_section_is_json(self, capsys, monkeypatch):
        """A cover with no section ends a syzygy transform with exit 3 and
        one JSON document."""
        monkeypatch.setattr(Matrix, "solve", lambda self, target: None)
        code = cli.main(["--workspace", str(EXAMPLES / "line3.json"), "reduce",
                         "transform", "syzygy", "cert_rx_gdim"])
        out, err = capsys.readouterr()
        assert code == 3
        report = json.loads(out)
        assert report["error"] == {"message": "cover is not surjective: no section",
                                   "pointer": ""}
        assert err.startswith("internal error: ResolutionError")
        assert err.count("\n") == 1

    def test_other_exceptions_are_json(self, plane_ws, capsys, monkeypatch):
        """Any other exception inside a command is an internal error too:
        exit 3 and one JSON document, not a traceback."""
        def boom(args):
            raise KeyError("bug")
        monkeypatch.setattr(cli, "_cmd_resolve", boom)
        code = cli.main(["--workspace", plane_ws, "resolve", "k"])
        out, err = capsys.readouterr()
        assert code == 3
        assert json.loads(out)["error"] == {"message": "'bug'", "pointer": ""}
        assert err == "internal error: KeyError: 'bug'\n"

    def test_main_theorem_refuses_window_zero(self, capsys):
        """`theorem main` splices the resolution with the first free hull
        of the embedding chain, which window 0 does not build: exit 2."""
        code = cli.main(["--workspace", str(EXAMPLES / "line3.json"), "theorem",
                         "main", "Rx", "cert_rx_gdim", "--window", "0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["error"] == {
            "message": "--window must be at least 1 for theorem main, got 0",
            "pointer": ""}
        assert err.startswith("input error: ")

    def test_step_over_the_cap_is_json(self, plane_ws, capsys, monkeypatch):
        monkeypatch.setattr("redhom.resolution.MAX_STEP_BYTES", 1000)
        code = cli.main(["--workspace", plane_ws, "resolve", "k", "--window", "6"])
        out, err = capsys.readouterr()
        assert code == 3
        report = json.loads(out)
        assert report["command"] == "resolve"
        assert report["error"]["pointer"] == ""
        assert "MAX_STEP_BYTES" in report["error"]["message"]
        assert "--window" in report["error"]["message"]
        assert err.startswith("internal error: ResolutionError")

    def test_hom_system_over_the_cap_is_json(self, plane_ws, capsys, monkeypatch):
        """`dual R` over F_2[x,y]/m^2 solves Hom(R, R) and Hom(R*, R), each
        two stacked 9 x 9 blocks, copied as 18 x 9 int64: a cap of that
        size answers, and one byte less refuses before `contract`, which
        builds the system's blocks, runs."""
        size = 18 * 9 * GF2.wide.itemsize
        monkeypatch.setattr("redhom.resolution.MAX_STEP_BYTES", size)
        code, report, _ = run(capsys, "--workspace", plane_ws, "dual", "R")
        assert (code, report["dual_dim"]) == (0, 3)

        def contract(*args):
            raise AssertionError("the Hom system was built")
        monkeypatch.setattr("redhom.modules.contract", contract)
        monkeypatch.setattr("redhom.resolution.MAX_STEP_BYTES", size - 1)
        code = cli.main(["--workspace", plane_ws, "dual", "R"])
        out, err = capsys.readouterr()
        assert code == 3
        report = json.loads(out)  # one JSON document
        assert report["command"] == "dual"
        assert report["error"]["message"] == (
            f"Hom system would allocate {size} bytes as a dense 18x9 matrix, "
            f"over MAX_STEP_BYTES = {size - 1}")
        assert err.startswith("internal error: ResolutionError")

    def test_window_zero_accepted(self, plane_ws, capsys):
        code, report, _ = run(capsys, "--workspace", plane_ws,
                              "resolve", "k", "--window", "0")
        assert code == 0
        assert report["betti"] == [1]


class TestCorpusCommand:
    def test_filtered_run(self, capsys):
        code, report, _ = run(capsys, "corpus", "run",
                              "--filter", "plane-betti")
        assert code == 0
        assert len(report["fixtures"]) == 1
        assert report["fixtures"][0]["name"] == "plane-betti"
        assert report["all_ok"] is True


class TestDeterminism:
    def test_search_report_identical(self, plane_ws, capsys):
        argv = ["--workspace", plane_ws, "reduce", "search", "k",
                "--target", "pd", "--max-a", "4"]
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

ZERO_DENOMINATORS = [({"field": "Fp", "p": 2}, 2, "1/2"),
                     ({"field": "Q"}, 0, "1/0")]


class TestZeroDenominators:
    """An entry whose denominator is zero in the field is a located input
    error (exit 2), not a crash."""

    @staticmethod
    def workspace(tmp_path, field, modules):
        data = json.loads(json.dumps(PLANE))
        data["algebra"] = {**field, "vars": ["x", "y"], "nilpotency": 2,
                           "relations": []}
        data["modules"] = modules
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("field, char, entry", ZERO_DENOMINATORS,
                             ids=["F2", "Q"])
    def test_workspace_actions(self, tmp_path, capsys, field, char, entry):
        ws = self.workspace(tmp_path, field, {"M": {
            "kind": "actions", "dim": 1, "actions": [[[entry]], [["0"]]]}})
        code, report, _ = run(capsys, "--workspace", ws, "resolve", "M")
        assert code == 2
        assert report["error"]["pointer"] == "/modules/M/actions/0"

    @pytest.mark.parametrize("field, char, entry", ZERO_DENOMINATORS,
                             ids=["F2", "Q"])
    def test_certificate_matrix(self, tmp_path, capsys, field, char, entry):
        ws = self.workspace(tmp_path, field, {})
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({
            "format": "reducing-certificate/1", "target": "pd",
            "algebra": {"characteristic": char, "nilpotency": 2,
                        "relations": [], "variables": ["x", "y"]},
            "base": {"dim": 1, "actions": [[[entry]], [["0"]]]},
            "steps": []}))
        code, report, _ = run(capsys, "--workspace", ws,
                              "reduce", "verify", str(cert))
        assert code == 2
        assert report["error"]["pointer"] == "/base/actions/0"


def test_boolean_step_parameter_exit2(tmp_path, capsys):
    data = json.loads((EXAMPLES / "plane.json").read_text())
    data["certificates"]["cert_k"]["steps"][0]["n"] = True
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data))
    code, report, _ = run(capsys, "--workspace", str(path),
                          "reduce", "verify", "cert_k")
    assert code == 2
    assert report["error"]["pointer"] == "/certificates/cert_k/steps/0/n"


def test_certificate_n_past_the_cap_is_refused_before_stepping(tmp_path, capsys, monkeypatch):
    """n = 100 for a step over F_2[x,y]/m^2: m kills syz^1 of the power
    of k, so its steps from index 2 on are read, and the read charges
    refuse step 20 of the power's resolution with no real step past 1."""
    data = json.loads((EXAMPLES / "plane.json").read_text())
    data["certificates"]["cert_k"]["steps"][0]["n"] = 100
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data))
    taken, step = [], ChainResolution._step

    def counted(self, *args):
        taken.append(len(self._betti))
        return step(self, *args)
    monkeypatch.setattr(ChainResolution, "_step", counted)
    code, report, _ = run(capsys, "--workspace", str(path),
                          "reduce", "verify", "cert_k")
    assert code == 2
    assert report["error"] == {
        "pointer": "/certificates/cert_k/steps/0/n",
        "message": "n = 100: the syzygy of b = 1 copies cannot be rebuilt: "
                   "resolution step 20 would allocate 1111490560 bytes (a "
                   "1572864x3145728 sparse matrix and its elimination, 5242880 "
                   "entries), over MAX_STEP_BYTES = 1073741824"}
    assert taken and max(taken) == 1


def _cert_inject_entry(cert, value):
    cert["steps"][0]["inject"][1][0] = value
    return "/steps/0/inject"


def _cert_base_action(cert, value):
    cert["base"]["actions"][0][0][0] = value
    return "/base/actions/0"


def _cert_relation(cert, value):
    cert["algebra"]["relations"] = [value]
    return "/algebra"


def _cert_variables(cert, value):
    cert["algebra"]["variables"] = value
    return "/algebra"


NON_STRING_FIELDS = [(_cert_inject_entry, 1), (_cert_base_action, None),
                     (_cert_relation, 1), (_cert_inject_entry, True),
                     (_cert_inject_entry, 1.5), (_cert_base_action, False),
                     (_cert_relation, 2.5), (_cert_variables, None),
                     (_cert_variables, 3), (_cert_variables, "xy")]
LISTS_OF_STRINGS = "variables and relations must be lists of strings"


class TestNonStringCertificateFields:
    """A certificate entry or relation that is not a string is a located
    input error (exit 2, one JSON document), not a crash."""

    @pytest.mark.parametrize("edit, value", NON_STRING_FIELDS)
    def test_workspace_certificate(self, tmp_path, capsys, edit, value):
        data = json.loads((EXAMPLES / "plane.json").read_text())
        pointer = edit(data["certificates"]["cert_k"], value)
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data))
        code, report, err = run(capsys, "--workspace", str(path),
                                "reduce", "verify", "cert_k")
        assert code == 2
        assert report["error"]["pointer"] == "/certificates/cert_k" + pointer
        assert err.startswith("input error at /certificates/cert_k")
        if pointer == "/algebra":
            assert report["error"]["message"] == LISTS_OF_STRINGS

    @pytest.mark.parametrize("edit, value", NON_STRING_FIELDS)
    def test_certificate_file(self, tmp_path, capsys, edit, value):
        data = json.loads((EXAMPLES / "plane.json").read_text())
        cert = data["certificates"]["cert_k"]
        pointer = edit(cert, value)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, report, _ = run(capsys, "--workspace",
                              str(EXAMPLES / "plane.json"),
                              "reduce", "verify", str(path))
        assert code == 2
        assert report["error"]["pointer"] == pointer
        if pointer == "/algebra":
            assert report["error"]["message"] == LISTS_OF_STRINGS


OVERSIZED = {"nilpotency": {"nilpotency": 100000},
             "variables": {"vars": [f"v{i}" for i in range(400)],
                           "nilpotency": 3}}


class TestOversizedAlgebra:
    """An algebra whose monomial kernel or product table would take more
    than `MAX_STEP_BYTES` is an input error at /algebra, refused before
    any monomial is enumerated."""

    @pytest.fixture(autouse=True)
    def plane_only(self, monkeypatch):
        """Enumerate monomials for the plane.json ring only."""
        below = algebra._monomials_below

        def guarded(nvars, bound):
            assert (nvars, bound) == (2, 2), "monomials enumerated"
            return below(nvars, bound)
        monkeypatch.setattr(algebra, "_monomials_below", guarded)

    @pytest.mark.parametrize("edit", OVERSIZED.values(), ids=OVERSIZED)
    def test_workspace(self, tmp_path, capsys, edit):
        data = json.loads((EXAMPLES / "plane.json").read_text())
        data["algebra"].update(edit)
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data))
        code, report, _ = run(capsys, "--workspace", str(path),
                              "algebra", "info")
        assert code == 2
        assert report["error"]["pointer"] == "/algebra"
        assert "MAX_STEP_BYTES" in report["error"]["message"]

    def test_certificate_file(self, tmp_path, capsys):
        cert = json.loads((EXAMPLES / "plane.json").read_text())[
            "certificates"]["cert_k"]
        cert["algebra"]["nilpotency"] = 100000
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, report, _ = run(capsys, "--workspace",
                              str(EXAMPLES / "plane.json"),
                              "reduce", "verify", str(path))
        assert code == 2
        assert report["error"]["pointer"] == "/algebra"
        assert "MAX_STEP_BYTES" in report["error"]["message"]

    def test_product_table(self, capsys, monkeypatch):
        """Under a 100-byte cap the plane's 3x3 kernel (72 bytes) passes
        and its 5x3x3 product table (360 bytes) is refused."""
        monkeypatch.setattr("redhom.resolution.MAX_STEP_BYTES", 100)
        code, report, _ = run(capsys, "--workspace",
                              str(EXAMPLES / "plane.json"), "algebra", "info")
        assert code == 2
        assert report["error"]["pointer"] == "/algebra"
        assert "5x3x3 product table" in report["error"]["message"]
        assert "MAX_STEP_BYTES = 100" in report["error"]["message"]


def test_runtime_never_imports_sympy():
    """Loading every example workspace and running a command must not
    import sympy, which is only a test dependency."""
    script = (
        "import contextlib, io, sys\n"
        "from pathlib import Path\n"
        "from redhom import cli\n"
        "from redhom.workspace import load_workspace\n"
        "for path in sorted(Path(sys.argv[1]).glob('*.json')):\n"
        "    load_workspace(str(path))\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['--workspace', str(path), 'algebra', 'info'])\n"
        "    assert code == 0, path\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n")
    assert list(EXAMPLES.glob("*.json"))
    src = str(EXAMPLES.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(EXAMPLES)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
