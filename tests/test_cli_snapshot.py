"""The command line's outputs against the pinned snapshot.

`tests/data/cli_snapshot.json` holds `scripts/cli_snapshot.py --pinned`:
exit code, stdout and stderr of every snapshot command line except
`--help` and the usage errors, whose text argparse writes.  A change that
alters an output on purpose regenerates the file in the same commit.
"""

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "cli_snapshot.json"
sys.path.insert(0, str(ROOT / "scripts"))

import cli_snapshot  # noqa: E402
from redhom import cli  # noqa: E402


def test_outputs_match_the_pinned_snapshot(capsys):
    code = cli_snapshot.main(["--check", str(PINNED)])
    assert code == 0, capsys.readouterr().err


def test_readme_examples_exit_as_documented_with_one_document():
    """Each README "Command line" example, as pinned: it exits with the
    code its line documents ("# exits N", else 0), and its stdout is one
    JSON document."""
    pinned = json.loads(PINNED.read_text())
    cases = cli_snapshot.examples()
    assert len(cases) >= 15  # the examples when this was written
    for argv, code in cases:
        entry = pinned[shlex.join(argv)]
        assert entry["exit"] == code, argv
        json.loads(entry["stdout"])  # raises on no document or on more than one


def test_the_whole_snapshot_is_the_same_in_every_process():
    """The unpinned snapshot, help and usage errors included, run as two
    processes at PYTHONHASHSEED 0 and 1: both exit 0 with the same bytes
    on stdout."""
    runs = [subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_snapshot.py")],
                           env=dict(os.environ, PYTHONHASHSEED=str(seed)),
                           capture_output=True, timeout=600) for seed in (0, 1)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


def test_first_difference_names_key_stream_and_line():
    pinned = {"a": {"exit": 0, "stdout": "x\ny\n", "stderr": ""}}
    assert cli_snapshot.first_difference(pinned, pinned) is None
    changed = {"a": {"exit": 0, "stdout": "x\nz\n", "stderr": ""}}
    assert cli_snapshot.first_difference(pinned, changed) == \
        "a: stdout line 2 pinned 'y\\n', got 'z\\n'"
    assert cli_snapshot.first_difference(pinned, {**pinned, "b": {}}) == \
        "b: not pinned"
    assert cli_snapshot.first_difference(pinned, {}) == "a: not run"


def at_window(argv: list[str], window: int) -> list[str] | None:
    """argv with its --window replaced, or appended when absent; None
    when its command takes no --window."""
    words = argv[2:] if argv[:1] == ["--workspace"] else argv
    path = next((p for p in cli.COMMANDS if words[:len(p.split())] == p.split()), None)
    if path is None or cli._WINDOW not in cli.COMMANDS[path]:
        return None
    if "--window" not in argv:
        return [*argv, "--window", str(window)]
    k = argv.index("--window")
    return [*argv[:k + 1], str(window), *argv[k + 2:]]


def test_windowed_command_lines_at_windows_0_and_1(tmp_path, monkeypatch):
    """Every pinned command line whose command takes --window, run at
    --window 0 and at --window 1, prints one JSON document and exits with
    a documented code (0, 1, 2 or 3)."""
    shutil.copytree(ROOT / "docs" / "examples", tmp_path / "docs" / "examples")
    monkeypatch.chdir(tmp_path)
    cli_snapshot.write_malformed()
    runs = [line for argv in cli_snapshot.command_lines() if cli_snapshot.is_pinned(argv)
            for window in (0, 1) if (line := at_window(argv, window))]
    assert len(runs) >= 90  # the 45 windowed lines pinned when this was written
    for line in runs:
        result = cli_snapshot.run(line)
        assert result.get("exit") in (0, 1, 2, 3), (line, result)
        json.loads(result["stdout"])
