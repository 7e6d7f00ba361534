"""Snapshot the command line: run a fixed list of command lines in-process
and print one JSON document mapping each to its exit code, stdout and
stderr.

    python3 scripts/cli_snapshot.py > snapshot.json
    python3 scripts/cli_snapshot.py --pinned > tests/data/cli_snapshot.json
    python3 scripts/cli_snapshot.py --check tests/data/cli_snapshot.json

The list: `--help` at every level of `cli.COMMANDS`; usage and bound
errors; every certify-cli command of `perfbench/reference.json` (with
`--seed 1` where the reference is seeded); the README "Command line"
examples in order, with the exit code each documents (`examples`); the
searches on `plane.json` that exhaust their budget; the main theorem on
`line3.json` at window 60; a too-deeply-nested workspace and certificate
file; a workspace with a malformed F_2 scalar in module `bad`, under
`algebra info`, which does not read it, and `resolve bad`; and `corpus
run`.  Everything runs in a fresh temporary directory holding a copy of
`docs/examples`, so paths in the keys and the output are relative and
two runs, or two checkouts, can be compared byte for byte; tier-1 runs
it as two processes and compares them.  A command that raises instead
of returning is recorded with the exception's type under "raised".

`--pinned` prints only the entries whose text the program writes: it
leaves out `--help` and the usage errors, which argparse words, and its
wording differs between Python versions.  `--check PATH` runs those
entries and compares them with PATH; on a difference it prints the first
differing command line, stream and line to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from redhom import cli

PLANE = ["--workspace", "docs/examples/plane.json"]
NESTED = 100_000   # past the JSON reader's recursion limit
USAGE = [  # usage errors, worded by argparse
    [], ["reduce"], ["reduce", "transform"], ["theorem"], ["frobnicate"],
    ["reduce", "frobnicate"], [*PLANE, "resolve"], [*PLANE, "ext", "k"],
    [*PLANE, "resolve", "k", "--window", "abc"],
    [*PLANE, "resolve", "k", "--window", "1.5"],
    [*PLANE, "resolve", "k", "--bogus"], [*PLANE, "resolve", "k", "extra"],
    [*PLANE, "reduce", "search", "k"],
    [*PLANE, "reduce", "search", "k", "--target", "both"],
]
ERRORS = [  # input errors, then bounds out of range
    ["algebra", "info"], [*PLANE, "resolve", "ghost"],
    [*PLANE, "reduce", "verify", "ghost"],
    [*PLANE, "reduce", "verify", "absent.json"],
    [*PLANE, "resolve", "k", "--window", "-3"],
    [*PLANE, "ext", "k", "R", "--window", "-1"],
    [*PLANE, "reduce", "search", "k", "--target", "pd", "--budget", "0"],
    [*PLANE, "reduce", "search", "k", "--target", "pd", "--max-a", "0"],
    [*PLANE, "reduce", "search", "k", "--target", "pd", "--max-n", "0"],
    [*PLANE, "theorem", "cor33", "--max-b", "-2"],
    [*PLANE, "theorem", "cor33", "--max-r", "-1"],
    [*PLANE, "theorem", "prop27", "k", "--max-n", "-2"],
    [*PLANE, "reduce", "search", "k", "--target", "gdim", "--samples", "-3"],
    ["--workspace", "docs/examples/line3.json", "theorem", "main", "Rx",
     "cert_rx_gdim", "--window", "0"],
]
EXHAUSTED = [[*PLANE, "reduce", "search", m, "--target", t]
             for m in ("two_gen", "Rx") for t in ("pd", "gdim")]
LONG_CHAIN = [  # the main theorem down a 60-stage embedding chain
    "--workspace", "docs/examples/line3.json", "theorem", "main", "Rx",
    "cert_rx_gdim", "--window", "60"]
MALFORMED = [  # written by `write_malformed`
    ["--workspace", "nested.json", "algebra", "info"],
    [*PLANE, "reduce", "verify", "nested_certificate.json"],
    ["--workspace", "bad_scalar.json", "algebra", "info"],  # never reads bad
    ["--workspace", "bad_scalar.json", "resolve", "bad"],
]


def examples() -> list[tuple[list[str], int]]:
    """(arguments, documented exit code) of each README "Command line"
    example line `redhom ARGS`: the number after "# exits", else 0."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    out = []
    for line in block.split("```", 1)[0].strip().splitlines():
        cmd, _, comment = line.partition("#")
        code = re.match(r"\s*exits (\d+)", comment)
        argv = shlex.split(cmd)
        assert argv[0] == "redhom", line
        out.append((argv[1:], int(code.group(1)) if code else 0))
    return out


def command_lines() -> list[list[str]]:
    paths = ["", *dict.fromkeys(" ".join(leaf.split()[:i])
                                for leaf in cli.COMMANDS
                                for i in range(1, len(leaf.split()) + 1))]
    lines = [[*path.split(), "--help"] for path in paths] + USAGE + ERRORS
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for spec in reference["certify-cli"]["commands"]:
        lines.append(["--workspace", f"docs/examples/{spec['workspace']}",
                      *spec["argv"], *(["--seed", "1"] * bool(spec.get("seeded")))])
    return (lines + [argv for argv, _ in examples()] + EXHAUSTED + [LONG_CHAIN]
            + MALFORMED + [["corpus", "run"]])


def is_pinned(argv: list[str]) -> bool:
    return "--help" not in argv and argv not in USAGE


def write_malformed() -> None:
    plane = json.loads(Path("docs/examples/plane.json").read_text())
    text = json.dumps(plane).replace('"relations": []', '"relations": '
                                     + "[" * NESTED + "]" * NESTED, 1)
    Path("nested.json").write_text(text)
    Path("nested_certificate.json").write_text(
        '{"format": ' + "[" * NESTED + "]" * NESTED + "}")
    plane["modules"]["bad"] = {"kind": "actions", "dim": 1,
                               "actions": [[["3/"]], [["0"]]]}
    Path("bad_scalar.json").write_text(json.dumps(plane))


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {"exit": cli.main(argv)}
        except SystemExit as exc:   # --help
            result = {"exit": exc.code}
        except Exception as exc:    # a crash is recorded, not hidden
            result = {"raised": type(exc).__name__}
    return {**result, "stdout": out.getvalue(), "stderr": err.getvalue()}


def first_difference(pinned: dict, snapshot: dict) -> str | None:
    """The first command line, stream and line where two snapshots differ."""
    for key in dict.fromkeys([*pinned, *snapshot]):
        if key not in snapshot or key not in pinned:
            return f"{key}: {'not run' if key in pinned else 'not pinned'}"
        for stream in ("exit", "raised", "stdout", "stderr"):
            want, got = pinned[key].get(stream), snapshot[key].get(stream)
            if want == got:
                continue
            if not (isinstance(want, str) and isinstance(got, str)):
                return f"{key}: {stream} pinned {want!r}, got {got!r}"
            pairs = itertools.zip_longest(want.splitlines(keepends=True),
                                          got.splitlines(keepends=True))
            line, (w, g) = next((i, wg) for i, wg in enumerate(pairs, 1)
                                if wg[0] != wg[1])
            return f"{key}: {stream} line {line} pinned {w!r}, got {g!r}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--pinned", action="store_true",
                      help="print only the entries a pinned snapshot holds")
    mode.add_argument("--check", metavar="PATH",
                      help="compare those entries with the snapshot at PATH")
    args = parser.parse_args(argv)
    lines = [a for a in command_lines()
             if is_pinned(a) or not (args.pinned or args.check)]
    start = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "docs" / "examples",
                        Path(tmp) / "docs" / "examples")
        os.chdir(tmp)
        try:
            write_malformed()
            snapshot = {shlex.join(argv): run(argv) for argv in lines}
        finally:
            os.chdir(start)
    if args.check:
        diff = first_difference(json.loads(Path(args.check).read_text()),
                                snapshot)
        if diff:
            print(f"{args.check}: {diff}", file=sys.stderr)
        return 1 if diff else 0
    sys.stdout.write(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
