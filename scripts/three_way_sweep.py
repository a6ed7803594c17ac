#!/usr/bin/env python3
"""Sweep skeletons of point-glued simplex unions and check that the closed
formula, the Hilbert-series strand subtraction, and the homology oracle all
produce the same Betti table.

Example:
    python scripts/three_way_sweep.py --max-blocks 3 --max-block 4 --fields gf2,gf3
"""

import argparse
import sys
import time
from itertools import combinations_with_replacement

from fatforest.complexes import FatForestSpec
from fatforest.homology import FieldSpec
from fatforest.verify import verify_routes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-blocks", type=int, default=2)
    parser.add_argument("--max-blocks", type=int, default=3)
    parser.add_argument("--min-block", type=int, default=2)
    parser.add_argument("--max-block", type=int, default=4)
    parser.add_argument("--max-vertices", type=int, default=12)
    parser.add_argument("--fields", default="gf2,gf3")
    parser.add_argument("--presets", default="chain-distinct,star")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    fields = [FieldSpec.parse(f) for f in args.fields.split(",")]
    presets = args.presets.split(",")
    start = time.monotonic()
    cases = failures = 0
    for e in range(args.min_blocks, args.max_blocks + 1):
        for sizes in combinations_with_replacement(
            range(args.min_block, args.max_block + 1), e
        ):
            if sum(sizes) - (e - 1) > args.max_vertices:
                continue
            for preset in presets:
                for k in range(1, max(sizes) + 1):
                    report = verify_routes(FatForestSpec(sizes, preset), k, fields)
                    cases += 1
                    if report.passed:
                        print(f"ok   sizes={sizes} preset={preset} k={k}")
                        continue
                    failures += 1
                    bad = [f"{c.first} != {c.second}" for c in report.table_checks if not c.equal]
                    bad += [f"invariants {a} != {b}" for a, b, ok in report.invariant_checks if not ok]
                    print(f"FAIL sizes={sizes} preset={preset} k={k}: {', '.join(bad)}")
    elapsed = time.monotonic() - start
    print(f"\n{cases} cases, {failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
