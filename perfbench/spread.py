#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and report, per
end-to-end metric, the median and the quartile spread (the distance between
the first and third quartile as a share of the median) next to the metric's
bound from BENCHMARK.json, and the same for a fixed pure-Python loop timed
in every run, which shows how much the machine itself drifted meanwhile.

    python3 perfbench/spread.py --workloads cli,closed-bign --seeds 1-10 [--out FILE]

Runs are sequential, one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    info = json.loads(lines[-2].removeprefix("# info "))
    values["reference_loop_s"] = sum(info["reference_loop_s"]) / 2
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seeds", default="1-10", help="a seed or a range like 1-10")
    parser.add_argument("--out", help="write medians, quartiles and spreads as JSON here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    report = {}
    worst = 0.0
    for workload in names:
        runs = [one_run(bench, workload, s) for s in seeds(args.seeds)]
        report[workload] = {}
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            report[workload][metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"], "values": values}
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"{workload:16s} {metric['name']:16s} median {med:12.6g} {metric['unit']:9s} spread {spread:7.4f} bound {metric['bound']}")
        ref = [r["reference_loop_s"] for r in runs]
        q1, med, q3 = statistics.quantiles(ref, n=4)
        report[workload]["reference_loop_s"] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": ref}
        print(f"{workload:16s} {'(machine speed)':16s} median {med:12.6g} {'s':9s} spread {(q3 - q1) / med:7.4f} of a fixed pure-Python loop")
        sys.stdout.flush()
    print(f"largest spread / bound, setup_s aside: {worst:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
