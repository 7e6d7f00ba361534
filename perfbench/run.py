"""redhom benchmark: one workload, end-to-end or traced.

Run from the root of a redhom checkout:

    python3 perfbench/run.py --workload resolve-ext --seed 1 --seconds 25 --trace 0

Each run starts fresh worker processes (perfbench/worker.py) with
PYTHONPATH=src and one BLAS/OpenMP thread.  With --trace 0, two workers
only set up and a third sets up and then runs whole passes of the
workload's jobs in a closed loop, as many as take about --seconds; the
set-up time is the median of the three, and times are scaled to a
reference machine speed (speed.py).  With --trace 1, one worker runs a
fixed number of passes, each job once untraced and once traced, and
reports the per-layer metrics.

Stdout ends with a run record line and then the result line
{"correct", "attempted", "failed", "metrics"}.  NOTES.md says why each
workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("resolve-ext", "search-pool", "certify-cli")
SETUP_RUNS = 3        # set-up is measured this many times; the median is reported
TAIL_BEYOND = 10      # the tail latency has at least this many jobs above it
DEADLINE_S = 170      # every worker must have ended this long after start


def _worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    start = time.monotonic()
    # run() kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup"] = (out["ready"] - start, out["setup_speed"])
    return out


def _source_counts() -> dict:
    """Informational counts of the package source, not gated."""
    lines = branches = 0
    for path in sorted(Path("src/redhom").glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        branches += len(re.findall(r"\bp is (?:not )?None\b", text))
    return {"src_lines": lines, "field_branches": branches}


def _git_revision() -> str:
    """The checked-out commit read from .git, or "unknown" outside git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _timing(lat: list[float]) -> dict:
    """jobs per second, median and tail latency of one run's jobs."""
    lat = sorted(lat)
    k = max(0, len(lat) - 1 - TAIL_BEYOND)
    return {"jobs_per_s": len(lat) / sum(lat),
            "job_s_p50": statistics.median(lat), "job_s_tail": lat[k]}


def _end_to_end(run: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Metrics from seconds at reference speed; the record keeps the
    wall-clock figures next to them."""
    n = len(run["latencies"])
    k = max(0, n - 1 - TAIL_BEYOND)
    scaled = _timing([ref for _, _, ref in run["latencies"]])
    wall = _timing([sec for _, sec, _ in run["latencies"]])
    units = {"jobs_per_s": "1/s", "job_s_p50": "s", "job_s_tail": "s"}
    metrics = {name: (val, units[name]) for name, val in scaled.items()}
    metrics["setup_s"] = (statistics.median(sec * f for sec, f in setups), "s")
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MiB")
    by_job: dict[str, list[float]] = {}
    for name, sec, _ in run["latencies"]:
        by_job.setdefault(name, []).append(sec)
    record = {"jobs": n, "passes": run["passes"],
              "tail_percentile": round(100 * (k + 1) / n, 1),
              "tail_jobs_beyond": n - 1 - k,
              "wall_clock": dict(wall, setup_s=statistics.median(
                  sec for sec, _ in setups)),
              "setup_runs": [{"wall_s": sec, "speed_factor": f}
                             for sec, f in setups],
              "job_wall_s_median_by_name": {
                  name: statistics.median(secs)
                  for name, secs in sorted(by_job.items())}}
    return metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/redhom/__init__.py").is_file():
        print("perfbench: src/redhom not found; run from the root of a "
              "redhom checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            run = _worker(args, "trace", deadline)
            metrics = {k: (v["value"], v["unit"]) for k, v in run["metrics"].items()}
            record = {}
        else:
            setups = [_worker(args, "setup", deadline)["setup"]
                      for _ in range(SETUP_RUNS - 1)]
            run = _worker(args, "run", deadline)
            metrics, record = _end_to_end(run, setups + [run["setup"]])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, fail_ratio=run["failed"] / run["attempted"],
                  failures=run["failures"], nproc=len(os.sched_getaffinity(0)),
                  git_revision=_git_revision(), **run["versions"],
                  **_source_counts())
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
