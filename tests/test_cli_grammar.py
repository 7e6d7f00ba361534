"""The command table: help at every level, lazy parsers kept once built,
unwritable --save paths, and the argv contract over command lines drawn
from it."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from cli_snapshot import USAGE  # noqa: E402
from redhom import cli  # noqa: E402

EXAMPLES = ROOT / "docs" / "examples"
PLANE = str(EXAMPLES / "plane.json")
LINE3 = str(EXAMPLES / "line3.json")

LEAVES = list(cli.COMMANDS)
GROUPS = list(dict.fromkeys(" ".join(leaf.split()[:i]) for leaf in LEAVES
                            for i in range(1, len(leaf.split()))))


def run(argv):
    """(exit code, stdout) of `cli.main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def test_table_paths():
    assert len(LEAVES) == 15
    assert GROUPS == ["algebra", "reduce", "reduce transform", "theorem",
                      "corpus"]


@pytest.mark.parametrize("path", ["", *GROUPS, *LEAVES])
def test_help_at_every_level(path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*path.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        " ".join(["usage: redhom", *path.split()]))


def test_only_the_chosen_path_is_filled(monkeypatch):
    filled = []
    fill = cli._fill

    def counting(parser):
        filled.append(parser.prog)
        fill(parser)
    monkeypatch.setattr(cli, "_fill", counting)
    cli.build_parser().parse_args(["resolve", "k"])
    assert filled == ["redhom", "redhom resolve"]
    filled.clear()
    cli.build_parser().parse_args(["reduce", "transform", "syzygy", "c"])
    assert filled == ["redhom", "redhom reduce", "redhom reduce transform",
                      "redhom reduce transform syzygy"]


@pytest.mark.parametrize("argv, built", [
    (["resolve", "k"], 2), (["algebra", "info"], 3),
    (["reduce", "transform", "syzygy", "c"], 4)])
def test_only_the_chosen_parsers_are_built(monkeypatch, argv, built):
    progs = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            progs.append(kwargs["prog"])
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(cli, "_Parser", Counting)
    cli.build_parser().parse_args(argv)
    assert progs == [" ".join(["redhom", *argv[:i]]) for i in range(built)]


def test_each_chosen_parser_is_built_once_per_process(monkeypatch, request):
    progs = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            progs.append(kwargs["prog"])
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(cli, "_Parser", Counting)
    cli._parser.cache_clear()
    request.addfinalizer(cli._parser.cache_clear)
    for _ in range(2):
        assert run(["reduce", "transform", "syzygy", "c"])[0] == 2
    assert progs == ["redhom", "redhom reduce", "redhom reduce transform",
                     "redhom reduce transform syzygy"]
    code, out = run(["--workspace", PLANE, "resolve", "k", "--window", "abc"])
    assert code == 2 and "invalid int value" in out
    assert vars(cli._parser().parse_args(["resolve", "k"])) == {
        "workspace": None, "command": "resolve", "module": "k", "window": 10}
    assert progs[4:] == ["redhom resolve"]
    subcommands = cli._parser()._subparsers._group_actions[0]
    assert subcommands._name_parser_map["dual"] is None


SAVING = {
    "search": [PLANE, "reduce", "search", "k", "--target", "pd",
               "--max-a", "4"],
    "syzygy": [LINE3, "reduce", "transform", "syzygy", "cert_rx"],
    "cosyzygy": [LINE3, "reduce", "transform", "cosyzygy", "cert_rx", "Rx2"],
}


@pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
@pytest.mark.parametrize("command", SAVING)
def test_unwritable_save_is_exit_2(tmp_path, command, where):
    dest = tmp_path / "missing" / "c.json" if where == "missing-dir" \
        else tmp_path
    code, out = run(["--workspace", *SAVING[command], "--save", str(dest)])
    assert code == 2
    report = json.loads(out)
    assert report["command"] == "reduce"
    assert report["error"]["pointer"] == ""
    assert str(dest) in report["error"]["message"]
    assert not (tmp_path / "missing").exists()


# -- the argv contract ---------------------------------------------------

TMP = "{tmp}"   # replaced by the test's temporary directory
NAMES = {key: sorted({name for ws in (PLANE, LINE3)
                       for name in json.loads(Path(ws).read_text())[key]})
         for key in ("modules", "certificates")}
MODULES = st.sampled_from([*NAMES["modules"], "ghost"])
VALUES = {
    "--workspace": st.sampled_from([PLANE, LINE3]),
    "module": MODULES, "source": MODULES, "target": MODULES,
    "certificate": st.sampled_from([*NAMES["certificates"], "ghost",
                                    TMP + "/absent.json"]),
    "--target": st.sampled_from(["pd", "gdim", "both"]),
    "--save": st.sampled_from([None, TMP + "/saved.json",
                               TMP + "/missing/saved.json"]),
    "--filter": st.sampled_from(["plane-betti", "no-such-fixture"]),
    # now and then one integer out of range or not an integer, the
    # workspace or a required argument left out, or a stray word added
    "mutation": st.sampled_from([None, None, "int", "drop", "stray"]),
    "bad": st.sampled_from(["-1", "0", "x", "1.5", ""]),
    "stray": st.sampled_from(["extra", "--bogus", "-x", "7"]),
    "where": st.integers(0, 99),
}
ARGS = dict(arg if isinstance(arg, tuple) else (arg, {})
            for args in cli.COMMANDS.values() for arg in args)
INTS = [name for name, kwargs in ARGS.items() if kwargs.get("type") is int]


@st.composite
def draws(draw):
    """One value for every argument of every leaf (integers in 1..3, so
    no default window or budget runs) and the mutation to apply."""
    return {name: draw(st.integers(1, 3) if name in INTS else VALUES[name])
            for name in [*VALUES, *INTS]}


def command_line(path, d):
    pieces = [["--workspace", d["--workspace"]], path.split()]
    required, ints = [0], []
    for arg in cli.COMMANDS[path]:
        name, kwargs = arg if isinstance(arg, tuple) else (arg, {})
        if d[name] is None:
            continue
        if not name.startswith("-") or kwargs.get("required"):
            required.append(len(pieces))
        if name in INTS:
            ints.append(len(pieces))
        pieces.append([str(d[name])] if not name.startswith("-")
                      else [name, str(d[name])])
    if d["mutation"] == "int" and ints:
        pieces[ints[d["where"] % len(ints)]][1] = d["bad"]
    if d["mutation"] == "drop":
        del pieces[required[d["where"] % len(required)]]
    argv = [word for piece in pieces for word in piece]
    if d["mutation"] == "stray":
        argv.insert(d["where"] % (len(argv) + 1), d["stray"])
    return argv


SAVE_INTO_MISSING_DIR = {
    "--workspace": PLANE, "module": "k", "source": "k", "target": "R",
    "certificate": "cert_k", "--target": "pd", "--filter": "plane-betti",
    "--save": TMP + "/missing/saved.json", "mutation": None, "bad": "",
    "stray": "", "where": 0, "--window": 2, "--max-r": 1, "--max-a": 4,
    "--max-b": 1, "--max-n": 1, "--budget": 30, "--seed": 0, "--samples": 0}


@pytest.mark.parametrize("path", LEAVES)
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=draws())
@example(d=SAVE_INTO_MISSING_DIR)
def test_one_document_and_a_documented_exit(path, d, tmp_path):
    argv = command_line(path, d)
    code, out = run([a.replace(TMP, str(tmp_path)) for a in argv])
    assert code in (0, 1, 2, 3)
    report = json.loads(out)   # raises unless exactly one document
    if code in (2, 3):
        assert isinstance(report["error"]["pointer"], str)


# -- one parser tree per process ------------------------------------------

HELP = [[*path.split(), "--help"] for path in ["", *GROUPS, *LEAVES]]
LINES = st.one_of(st.sampled_from(HELP + USAGE),
                  st.builds(command_line, st.sampled_from(LEAVES), draws()))


def parsed(parser, argv):
    """The namespace a parse gives, its usage error, or its help text and
    exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(parser.parse_args(argv))
    except cli._UsageError as exc:
        return exc.args
    except SystemExit as exc:
        return out.getvalue(), exc.code


@settings(deadline=None, derandomize=True, database=None)
@given(lines=st.lists(LINES, min_size=1, max_size=8))
def test_the_kept_tree_parses_like_a_fresh_one(lines):
    for argv in lines:
        assert parsed(cli._parser(), argv) == parsed(cli.build_parser(), argv)
