#!/usr/bin/env python3
"""Run every verification claim and print a one-line summary per claim."""

import argparse
import json
import sys
import time

from hopfcm.verify import CLAIMS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="dump full reports")
    ap.add_argument(
        "--claim", action="append", choices=sorted(CLAIMS), help="run only these claims"
    )
    args = ap.parse_args()

    names = args.claim or list(CLAIMS)
    failures = 0
    reports = {}
    for name in names:
        t0 = time.perf_counter()
        res = CLAIMS[name]()
        dt = time.perf_counter() - t0
        reports[name] = res
        status = "PASS" if res["passed"] else "FAIL"
        print(f"{status:4s}  {name:22s} ({dt:7.2f}s)")
        if not res["passed"]:
            failures += 1
            note = res.get("note")
            if note:
                print(f"      {note}")
    if args.json:
        print(json.dumps(reports, indent=2, default=str))
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
