#!/usr/bin/env python3
"""fatforest benchmark: four seeded closed-loop workloads, every answer checked.

    python3 perfbench/run.py --workload oracle-xcheck --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from src/, never from
an installed copy. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (names and units as listed
in BENCHMARK.json). Spans of a traced run are written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
from time import perf_counter

import harness
from oracle_xcheck import oracle_ramp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".perfbench-out"
WORKLOADS = {
    "oracle-xcheck": "oracle_xcheck",
    "closed-bign": "closed_bign",
    "facet-complexes": "facet_complexes",
    "cli": "cli_mix",
}
SETUP_REPEATS = 5
RAMP_LIMIT_S = {"full": 1.0, "smoke": 0.02}


def declared_units(key: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def set_up(workload, seed: int, scale: str, workdir: str):
    """Import, corpus generation and warm-up, SETUP_REPEATS times; the last
    one is kept. Returns (median seconds, program, corpus, warm-up failures)."""
    times = []
    failed = 0
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        ff = harness.import_program(SRC)
        corpus = workload.setup(ff, seed, scale, workdir)
        probe = harness.Probe()
        failed += not probe.request(workload.run, ff, corpus.warmup, probe)
        times.append(perf_counter() - start)
    return statistics.median(times), ff, corpus, failed


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full", corrupt: bool = False) -> dict:
    """One benchmark run; returns the result object plus an "info" entry."""
    workload = importlib.import_module(WORKLOADS[name])
    workdir = os.path.join(OUT, f"{name}-seed{seed}")
    try:
        setup_s, ff, corpus, setup_failed = set_up(workload, seed, scale, workdir)
        if trace:
            result = harness.run_traced(workload, ff, corpus, seconds)
            trace_path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "workload": name,
                        "seed": seed,
                        "metrics": result["metrics"],
                        "counters": harness.COUNTERS,
                        "span_fields": ["name", "start", "end", "parent", "request"],
                        "spans": result.pop("spans"),
                    },
                    handle,
                )
            result["info"]["trace_file"] = trace_path
            units = declared_units("per_layer")
        else:
            result = harness.run_untraced(workload, ff, corpus, seconds, oracle_ramp, RAMP_LIMIT_S[scale], corrupt)
            result["metrics"]["setup_s"] = setup_s
            units = declared_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(set(result['metrics']) ^ set(units))} disagree with BENCHMARK.json")
    result["failed"] += setup_failed
    result["attempted"] += SETUP_REPEATS
    result["info"].update(workload=name, seed=seed, corpus_sha256=harness.digest(corpus.keys), cycle=len(corpus.cycle))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": units[k]} for k in units},
        "info": result["info"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "fatforest")):
        print(f"error: no fatforest sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# info " + json.dumps(result.pop("info")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
