"""Run every README "Command line" example twice, each as its own process.

    python3 scripts/check_readme_cli.py

Each example line `redhom ARGS` runs as `python -m redhom.cli ARGS` in a
fresh temporary directory (so `--save cert.json` and a later
`reduce verify cert.json` share it), with workspace paths taken from this
checkout.  The whole list runs twice.  Every run must exit with the
documented code (the number after "# exits" on the line, else 0) and
print exactly one JSON document on stdout, and both runs of a line must
print the same stdout.  Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def examples() -> list[tuple[list[str], int]]:
    """(arguments, expected exit code) of each README example line."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    out = []
    for line in block.split("```", 1)[0].strip().splitlines():
        cmd, _, comment = line.partition("#")
        code = re.match(r"\s*exits (\d+)", comment)
        argv = shlex.split(cmd)
        assert argv[0] == "redhom", line
        argv = [str(ROOT / a) if a.startswith("docs/") else a for a in argv[1:]]
        out.append((argv, int(code.group(1)) if code else 0))
    return out


def run_all(cases) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    stdouts = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv, _ in cases:
            proc = subprocess.run([sys.executable, "-m", "redhom.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=600)
            stdouts.append((proc.returncode, proc.stdout))
    return stdouts


def main() -> int:
    cases = examples()
    first, second = run_all(cases), run_all(cases)
    failed = 0
    for (argv, want), (code, out), (code2, out2) in zip(cases, first, second):
        problems = []
        if (code, code2) != (want, want):
            problems.append(f"exit codes {code}, {code2}, want {want}")
        try:
            json.loads(out)  # raises on no document or on more than one
        except json.JSONDecodeError as exc:
            problems.append(f"stdout is not one JSON document: {exc}")
        if out != out2:
            problems.append("stdout differs between the two runs")
        failed += bool(problems)
        print(("FAIL " if problems else "ok   ") + " ".join(argv)
              + "".join(f"\n     {p}" for p in problems))
    print(f"{len(cases) - failed} of {len(cases)} README examples pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
