#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny smoke corpora of every workload:

- an untraced and a traced run each emit exactly the metric names and units
  that BENCHMARK.json declares, and every check passes;
- a run whose checker has one expected value corrupted (in the benchmark,
  never in the program) reports a failed request, so the gate can fail.

    python3 perfbench/selftest.py      # exit 0 when all of the above hold
"""

from __future__ import annotations

import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    os.makedirs(run.OUT, exist_ok=True)
    problems = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            key = "per_layer" if trace else "end_to_end"
            result = run.measure(name, seed=1, seconds=0.0, trace=trace, scale="smoke")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != run.declared_units(key):
                problems.append(f"{name}: {key} metrics or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: smoke run (trace={trace}) failed {result['failed']} requests")
        corrupted = run.measure(name, seed=1, seconds=0.0, trace=False, scale="smoke", corrupt=True)
        if corrupted["correct"] or corrupted["failed"] == 0:
            problems.append(f"{name}: a corrupted expected value went unnoticed")
        print(f"{name}: smoke ok, corrupted check -> failed={corrupted['failed']} of {corrupted['attempted']}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
