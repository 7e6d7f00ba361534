"""One workload run in a fresh interpreter; started by run.py.

Modes:
  setup  import, build, load and run the warm-up job, then report when
         set-up ended;
  run    set up, then run whole passes of the job list in a closed loop,
         one job at a time, timing each job.  The number of passes is
         --seconds over the workload's nominal pass time, so every run of
         a workload does the same work whatever the machine's speed;
  trace  set up, then run the workload's fixed number of passes, in which
         every job runs once to warm up, once untraced and once under the
         tracer; report the per-layer metrics.

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time

MIN_JOBS = 21   # enough for a median and a tail with ten jobs beyond it
CAP = 3         # a run stops after the pass that ends past CAP * --seconds
FULL_GC_S = 0.1 # jobs at least this long are followed by a full collection


def _attempt(job, call=None):
    """Build untimed, run timed, check untimed.  Returns (start, seconds
    or None, error or None); an exception counts as a failed job.

    The job's garbage is collected untimed, so the next job neither pays
    for it nor stacks its memory on top.  A full collection scans the
    whole heap (about 40 ms with sympy loaded), so short jobs, whose
    garbage is still young, only collect the young generations."""
    start = time.perf_counter()
    elapsed = None
    try:
        inputs = job.build()
        start = time.perf_counter()
        out = (call or job.run)(*inputs)
        elapsed = time.perf_counter() - start
        return start, elapsed, job.check(out)
    except Exception as exc:  # the run goes on; the job counts as failed
        return start, None, f"{type(exc).__name__}: {exc}"
    finally:
        inputs = out = None
        gc.collect(2 if elapsed is None or elapsed >= FULL_GC_S else 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    import numpy
    import sympy
    from speed import SpeedLog, kernel_s, REF_S
    from tracer import Tracer, summarize
    from workloads import workload

    wl = workload(args.workload, args.seed)
    wl.setup()
    failures = []
    _, _, err = _attempt(wl.warmup())
    if err:
        failures.append(("warm-up", err))
    ready = time.monotonic()
    setup_speed = REF_S / statistics.median(kernel_s() for _ in range(3))
    out = {"ready": ready, "setup_speed": setup_speed, "versions": {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "sympy": sympy.__version__}}
    rng = random.Random(args.seed)
    attempted = 1
    if args.mode == "run":
        speed = SpeedLog()
        timed, passes = [], 0
        target = max(1, round(args.seconds / wl.pass_s))
        loop_start = time.perf_counter()
        while passes < target or len(timed) < MIN_JOBS:
            for job in wl.jobs(rng):
                speed.sample_if_due()
                attempted += 1
                start, elapsed, err = _attempt(job)
                if elapsed is not None:
                    timed.append((job.name, start, elapsed))
                if err:
                    failures.append((job.name, err))
            passes += 1
            if time.perf_counter() - loop_start >= CAP * args.seconds:
                break
        speed.sample()
        # (name, wall seconds, seconds at reference speed)
        out["latencies"] = [
            (name, sec, sec * speed.factor(start, start + sec))
            for name, start, sec in timed]
        out["passes"] = passes
    elif args.mode == "trace":
        tracer = Tracer()
        untraced = 0.0
        for _ in range(wl.trace_passes):
            for i, job in enumerate(wl.jobs(rng)):
                # a first, unmeasured run warms the allocator and caches;
                # then the untraced and traced runs alternate in order
                _attempt(job)
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    attempted += 1
                    if traced:
                        tracer.install()
                        _, elapsed, err = _attempt(job, tracer.root(job.run))
                        tracer.uninstall()
                    else:
                        _, elapsed, err = _attempt(job)
                        untraced += elapsed or 0.0
                    if err:
                        failures.append((job.name, err))
        metrics = summarize(tracer.spans, untraced)
        out["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}
    out.update(attempted=attempted, failed=len(failures),
               failures=failures[:20],
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
