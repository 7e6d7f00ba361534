"""The command line's outputs against the pinned snapshot.

`tests/data/cli_snapshot.json` holds `scripts/cli_snapshot.py --pinned`:
exit code, stdout and stderr of every snapshot command line except
`--help` and the usage errors, whose text argparse writes.  A change that
alters an output on purpose regenerates the file in the same commit.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "cli_snapshot.json"
sys.path.insert(0, str(ROOT / "scripts"))

import cli_snapshot  # noqa: E402


def test_outputs_match_the_pinned_snapshot(capsys):
    code = cli_snapshot.main(["--check", str(PINNED)])
    assert code == 0, capsys.readouterr().err


def test_first_difference_names_key_stream_and_line():
    pinned = {"a": {"exit": 0, "stdout": "x\ny\n", "stderr": ""}}
    assert cli_snapshot.first_difference(pinned, pinned) is None
    changed = {"a": {"exit": 0, "stdout": "x\nz\n", "stderr": ""}}
    assert cli_snapshot.first_difference(pinned, changed) == \
        "a: stdout line 2 pinned 'y\\n', got 'z\\n'"
    assert cli_snapshot.first_difference(pinned, {**pinned, "b": {}}) == \
        "b: not pinned"
    assert cli_snapshot.first_difference(pinned, {}) == "a: not run"
