#!/usr/bin/env python3
"""Run the worked-example fixtures and print a per-assertion table.

`redhom corpus run` prints the same report as JSON."""

import argparse
import sys

from redhom.corpus import run_corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--filter", default="",
                        help="only run fixtures whose name contains this")
    args = parser.parse_args(argv)

    outcome = run_corpus(name_filter=args.filter)
    for fixture in outcome["fixtures"]:
        mark = "ok " if fixture["ok"] else "FAIL"
        print(f"[{mark}] {fixture['name']}")
        for check in fixture["checks"]:
            cmark = " + " if check["ok"] else " ! "
            detail = f"  ({check['detail']})" if check["detail"] else ""
            print(f"  {cmark}{check['name']}{detail}")
        if "error" in fixture:
            print(f"   ! {fixture['error'].strip()}")
    passed = sum(1 for f in outcome["fixtures"] if f["ok"])
    print(f"\n{passed}/{len(outcome['fixtures'])} fixtures pass")
    return 0 if outcome["all_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
