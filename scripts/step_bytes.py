"""Bytes per entry of one sparse resolution step, as tracemalloc sees it.

    PYTHONPATH=src python3 scripts/step_bytes.py

For each case, resolves k one step short of the given step, then traces
that one step and divides tracemalloc's peak by the step's entries as
`resolution._check_step_size` counts them: the differential's columns,
its nonzeros, and the nonzeros of the rows under elimination.
`resolution.ENTRY_BYTES` must be at least the largest figure printed.
"""

from __future__ import annotations

import tracemalloc

from redhom import algebra, linalg, modules, resolution

P31 = 2**31 - 1
XY, XYZ, XYZW = ["x", "y"], ["x", "y", "z"], ["x", "y", "z", "w"]
# (p or None for Q, variables, nilpotency, step)
CASES = [(2, XY, 2, 13), (2, XY, 3, 9), (P31, XY, 2, 11), (P31, XY, 3, 8),
         (3, XYZ, 2, 7), (None, XY, 2, 9), (None, XY, 3, 6), (2, XYZ, 3, 5),
         (2, XYZW, 2, 6), (P31, XYZ, 3, 4)]


def measure(p, names, nil, step) -> tuple[int, int]:
    """(tracemalloc peak in bytes, entries) of one step of k."""
    alg = algebra.build_algebra(linalg.Field(p), names, [], nil)
    res = resolution.resolve(modules.residue_field(alg))
    res.extend(step - 1)
    counted = []
    check = resolution._check_step_size
    resolution._check_step_size = lambda i, shape, n: counted.append(n)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        res.extend(step)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        resolution._check_step_size = check
    diff = res.columns(step)  # built from the stored generators, untraced
    # no fill-in reported: the rows hold as many nonzeros as the columns
    return peak, max(counted[1:], default=len(diff) + 2 * sum(map(len, diff)))


def main() -> None:
    for p, names, nil, step in CASES:
        peak, entries = measure(p, names, nil, step)
        ring = f"{'Q' if p is None else f'F_{p}'}[{','.join(names)}]/m^{nil}"
        print(f"{ring} step {step}: {entries} entries, peak {peak} B, "
              f"{peak / entries:.0f} B/entry")


if __name__ == "__main__":
    main()
