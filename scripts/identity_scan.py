#!/usr/bin/env python3
"""Scan the binomial-identity families over all block-size multisets up to a
size bound and report any degree where the two numerator computations differ.
`fatforest identities --sizes ...` prints every equation of one size list.

Example:
    python scripts/identity_scan.py --max-block 12 --max-blocks 4
"""

import argparse
import sys
import time
from itertools import combinations_with_replacement

from fatforest.identities import identity_report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-block", type=int, default=12)
    parser.add_argument("--max-blocks", type=int, default=4)
    args = parser.parse_args(argv)

    start = time.monotonic()
    checked = failed = 0
    for e in range(1, args.max_blocks + 1):
        for sizes in combinations_with_replacement(range(2, args.max_block + 1), e):
            report = identity_report(sizes)
            checked += 1
            for rec in report.degrees:
                if not rec.equal:
                    failed += 1
                    print(f"FAIL sizes={sizes} degree={rec.degree}: {rec.equation}")
    elapsed = time.monotonic() - start
    print(f"{checked} size lists checked, {failed} failing degrees, {elapsed:.2f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
