#!/usr/bin/env python3
"""Map out where separately-injective, intersection-preserving pair maps exist.

Sweeps (a, b) over a small grid and prints the exhaustive outcome of each
cell, including node counts. The interesting boundary: cells with a >= 5 and
b < a are always empty, while (4, 3) is not, so the size-5 threshold in the
underlying combinatorial statement cannot be lowered.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from packidx.pairmap import common_point, search_pairmap, validate_pairmap  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-a", type=int, default=6)
    parser.add_argument("--max-b", type=int, default=6)
    args = parser.parse_args()

    print(f"{'a':>3} {'b':>3} {'outcome':>8} {'nodes':>9}  notes")
    for a in range(2, args.max_a + 1):
        for b in range(2, args.max_b + 1):
            found, nodes = search_pairmap(a, b)
            outcome = "found" if found else "none"
            notes = ""
            if found:
                validation = validate_pairmap(found)
                pivots = [common_point(found, a0) for a0 in range(a)]
                notes = f"valid={validation.valid} pivots={pivots}"
                if a >= 5:
                    assert all(p is not None for p in pivots)
            print(f"{a:>3} {b:>3} {outcome:>8} {nodes:>9}  {notes}")


if __name__ == "__main__":
    main()
