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

from fatforest.complexes import MAX_VERTICES, FatForestSpec
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
    args = parser.parse_args(argv)
    try:
        args.fields = [FieldSpec.parse(f) for f in args.fields.split(",")]
        # FatForestSpec is the one checker of preset names
        args.presets = [FatForestSpec((2,), p).gluing for p in args.presets.split(",")]
    except ValueError as exc:
        parser.error(str(exc))
    if args.min_blocks < 1:
        parser.error("--min-blocks must be at least 1")
    if args.min_block < 2:
        parser.error("--min-block must be at least 2: a block is a simplex on two or more vertices")
    if args.max_vertices > MAX_VERTICES:
        parser.error(f"--max-vertices {args.max_vertices} exceeds the {MAX_VERTICES}-vertex limit")
    if args.min_blocks < 2 and len(args.fields) < 2:
        parser.error("--min-blocks below 2 needs two --fields: a single block has only oracle routes")
    return args


def main(argv=None):
    args = parse_args(argv)
    start = time.monotonic()
    cases = failures = 0
    for e in range(args.min_blocks, args.max_blocks + 1):
        for sizes in combinations_with_replacement(
            range(args.min_block, args.max_block + 1), e
        ):
            if FatForestSpec(sizes).n_vars > args.max_vertices:
                continue
            for preset in args.presets:
                for k in range(1, max(sizes) + 1):
                    report = verify_routes(FatForestSpec(sizes, preset), k, args.fields, args.max_vertices)
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
