#!/usr/bin/env python3
"""Run the acceptance matrix from the shell and print one line per criterion.

Equivalent to `pack demo`, but prints a compact roll-up instead of the full
JSON report. Exit status is nonzero when any criterion fails.
"""

import argparse
import sys
import time

from packidx.demo import run_demo_matrix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", type=int, default=None, choices=range(1, 8))
    args = parser.parse_args()

    started = time.time()
    report = run_demo_matrix(seed=args.seed, only=args.only)
    for criterion in report.results["criteria"]:
        status = "PASS" if criterion["passed"] else "FAIL"
        print(f"criterion {criterion['id']}: {status}  {criterion['description']}")
    print(f"total wall time: {time.time() - started:.1f}s")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
