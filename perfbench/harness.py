"""Closed-loop runner, statistics, spans and correctness checks shared by the
four workloads.

Load model: one client, one request in flight, no threads and at most one
child process. A workload's corpus is one *cycle* of requests whose cost
profile is fixed by the workload's strata; the seed varies what leaves that
profile alone (block order, gluing where its cost is flat, line and vertex
order in facet text, random complexes of a fixed shape, request order). Every run measures whole cycles,
at least MIN_CYCLES of them, so it sees the same multiset of request kinds
whatever its length or seed. The requests at the median and at the tail
percentile come in groups of like requests, so those order statistics do not
jump between strata when timing noise reorders neighbours.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import os
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("formulas", "polynomials", "identities", "complexes", "homology", "betti", "tables", "cli")

# Span names whose per-request self time is reported in the traced run.
SPAN_NAMES = (
    "homology.hochster.gf2",
    "homology.hochster.gf3",
    "homology.hochster.rat",
    "homology.reduced.gf2",
    "homology.reduced.gf3",
    "homology.reduced.rat",
    "homology.reisner.gf2",
    "homology.reisner.rat",
    "complexes.build",
    "complexes.skeleton",
    "complexes.parse_facet_lines",
    "complexes.facet_lines",
    "complexes.f_vector",
    "complexes.minimal_nonfaces",
    "formulas.betti_closed",
    "formulas.strand_subtraction",
    "formulas.skeleton_numerator",
    "formulas.skeleton_f_vector",
    "formulas.invariants_closed",
    "polynomials.numerator_from_fvector",
    "identities.report",
    "identities.parse_equation",
    "betti.invariants_from_table",
    "betti.table_compare",
    "betti.alternating_sum",
    "tables.render_paper_table",
    "tables.render_csv_table",
    "tables.to_json",
    "cli.main",
)

# Work counters, reported per traced request. Those marked computed are
# derived by the benchmark from the inputs, not counted inside the program.
COUNTERS = {
    "homology.hochster.selections": "computed: 2^N - 1 per sweep",
    "homology.hochster.homology_calls": "computed: 2^N - |faces| per sweep",
    "homology.reduced.chain_cells": "computed: sum of the f-vector per whole-complex homology call",
    "complexes.skeleton.facets": "facets returned by skeleton()",
    "complexes.faces": "sum of the f-vector returned by f_vector()",
    "complexes.minimal_nonfaces.count": "length of the minimal_nonfaces() result",
    "identities.degrees": "degrees in identity_report() results",
    "cli.bytes_out": "bytes a child process wrote to stdout",
}

MIN_CYCLES = 2


@dataclass
class Corpus:
    """One cycle of requests, a cheap request for warm-up, and the inputs
    the digest covers."""

    cycle: list
    warmup: object
    keys: list


class Probe:
    """The benchmark's only way into the program: calls (with an optional
    span around each), work counters and correctness checks.

    Spans are [name, start, end, parent index, request id], kept in memory
    and written out when the run ends. With tracing off, call() is a plain
    call. A corrupted probe swaps the expected value of its first check for
    one nothing equals, which is how the self-test proves the gate works.
    """

    def __init__(self, trace: bool = False, corrupt: bool = False):
        self.trace = trace
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.request_id = -1
        self.bad: list[str] = []
        self._stack: list[int] = []
        self._corrupt = corrupt

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.trace:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            self._close(idx)

    def count(self, name: str, value) -> None:
        if self.trace:
            self.counts[name] += value

    def equal(self, layer: str, what: str, got, expected) -> bool:
        if self._corrupt:
            self._corrupt = False
            expected = object()
        if got == expected:
            return True
        self.errors[layer] += 1
        self.bad.append(f"{layer}: {what}")
        return False

    def check(self, layer: str, what: str, ok: bool) -> bool:
        return self.equal(layer, what, bool(ok), True)

    def request(self, fn, *args) -> bool:
        """Run one request; True when it raised nothing and every check held."""
        self.request_id += 1
        self.bad = []
        idx = self._open("request") if self.trace else -1
        try:
            fn(*args)
        except Exception as exc:
            self.bad.append("raised " + "".join(traceback.format_exception_only(type(exc), exc)).strip())
        finally:
            if self.trace:
                self._close(idx)
        if self.bad:
            print(f"request {self.request_id} failed: {'; '.join(self.bad[:3])}", file=sys.stderr)
        return not self.bad


def import_program(src_dir: str):
    """Import fatforest afresh from src_dir (dropping any earlier import), so
    that every timed set-up pays for the import; refuse any other copy."""
    for name in [m for m in sys.modules if m == "fatforest" or m.startswith("fatforest.")]:
        del sys.modules[name]
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    importlib.invalidate_caches()
    ff = importlib.import_module("fatforest")
    importlib.import_module("fatforest.tables")
    importlib.import_module("fatforest.cli")
    origin = os.path.realpath(ff.__file__)
    if not origin.startswith(os.path.realpath(src_dir) + os.sep):
        raise ImportError(f"fatforest was imported from {origin}, not from {src_dir}")
    return ff


def digest(keys) -> str:
    """sha256 over the inputs of one cycle, so two runs can show they used the same corpus."""
    h = hashlib.sha256()
    for key in keys:
        h.update(repr(key).encode())
        h.update(b"\n")
    return h.hexdigest()


def closed_loop(cycle, run_one, seconds: float, min_cycles: int = MIN_CYCLES):
    """Run whole cycles, at least min_cycles, until about `seconds` have
    passed: stop once the next cycle would end more than half a cycle past
    the deadline. Returns (latencies, failures, elapsed, cycles)."""
    latencies: list[float] = []
    failed = 0
    cycles = 0
    start = perf_counter()
    while True:
        for req in cycle:
            t = perf_counter()
            ok = run_one(req)
            latencies.append(perf_counter() - t)
            failed += not ok
        cycles += 1
        elapsed = perf_counter() - start
        if cycles >= min_cycles and elapsed + 0.5 * elapsed / cycles >= seconds:
            return latencies, failed, elapsed, cycles


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def interpolated_n(points: list[tuple[int, float]], limit: float) -> float:
    """N at which the request time crosses `limit`, linear in log time
    between the last N under the limit and the first N over it. When the
    first point is already over, extrapolate at a doubling per vertex."""
    for idx, (n, t) in enumerate(points):
        if t > limit:
            if idx == 0:
                return n + math.log(limit / t) / math.log(2.0)
            n0, t0 = points[idx - 1]
            return n0 + math.log(limit / t0) / math.log(t / t0)
    return float(points[-1][0])


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the direct children's."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - covered[idx]
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def reference_loop_s() -> float:
    """Best of three timings of a fixed pure-Python loop. Recorded in a run's
    info, before and after the measurement, so that a drift of the machine's
    speed between runs can be told apart from a change in the program."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def run_untraced(workload, ff, corpus, seconds: float, ramp, ramp_limit: float, corrupt: bool = False) -> dict:
    """End-to-end run: the oracle ramp, the closed loop, the ramp again.
    ramp(ff, probe, ramp_limit) returns the oracle's (N, seconds) points and
    its failures; oracle_n_at_1s is the mean of the two ramps' crossings, so
    that a slow spell of the machine during one of them counts half."""
    probe = Probe(corrupt=corrupt)
    reference = [reference_loop_s()]
    gc.collect()
    ramps = [ramp(ff, probe, ramp_limit)]
    gc.collect()
    latencies, failed, elapsed, cycles = closed_loop(
        corpus.cycle, lambda req: probe.request(workload.run, ff, req, probe), seconds
    )
    gc.collect()
    ramps.append(ramp(ff, probe, ramp_limit))
    reference.append(reference_loop_s())
    failed += sum(f for _, f in ramps)
    attempted = len(latencies) + sum(len(points) for points, _ in ramps)
    pct = workload.TAIL_PERCENTILE
    tail = percentile(latencies, pct)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "throughput_rps": len(latencies) / elapsed,
            "peak_rss_mb": peak_rss_mb(workload.CHILD_PROCESSES),
            "oracle_n_at_1s": statistics.mean(interpolated_n(points, ramp_limit) for points, _ in ramps),
        },
        "info": {
            "cycles": cycles,
            "samples": len(latencies),
            "tail_percentile": pct,
            "samples_beyond_tail": sum(1 for t in latencies if t > tail),
            "elapsed_s": elapsed,
            "error_rate": failed / attempted,
            "ramps": [points for points, _ in ramps],
            "reference_loop_s": reference,
        },
    }


def run_traced(workload, ff, corpus, seconds: float) -> dict:
    """Per-layer run: whole cycles in which every request runs twice, once
    plain and once with spans, alternating which goes first so that drift
    and warm caches fall on both sides; trace.overhead_ratio is the traced
    time over the plain time. Workloads that spawn children then replay the
    requests in-process under a cli.main span, in a pass of its own that the
    shares and the overhead ratio leave out."""
    plain = Probe()
    probe = Probe(trace=True)
    spent = {False: 0.0, True: 0.0}
    failures = {False: 0, True: 0}
    requests: list = []

    def run_pair(req) -> bool:
        order = (False, True) if len(requests) % 2 else (True, False)
        requests.append(req)
        for traced in order:
            p = probe if traced else plain
            start = perf_counter()
            failures[traced] += not p.request(workload.run, ff, req, p)
            spent[traced] += perf_counter() - start
        return True

    gc.collect()
    _, _, _, cycles = closed_loop(corpus.cycle, run_pair, seconds, min_cycles=1)
    failed = failures[False] + failures[True]
    attempted = 2 * len(requests)
    inproc = Probe(trace=True)
    if hasattr(workload, "run_inprocess"):
        failed += sum(not inproc.request(workload.run_inprocess, ff, req, inproc) for req in requests)
        attempted += len(requests)
    metrics = layer_metrics(probe, inproc, len(requests))
    metrics["trace.overhead_ratio"] = spent[True] / spent[False]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "spans": probe.spans + inproc.spans,
        "info": {"cycles": cycles, "samples": len(requests), "untraced_s": spent[False], "traced_s": spent[True]},
    }


def layer_metrics(probe: Probe, inproc: Probe, requests: int) -> dict[str, float]:
    """Per-request self times and counts, and each layer's share of the
    traced requests' wall time, from the spans of one traced pass."""
    selfs = self_times(probe.spans)
    selfs["cli.main"] = self_times(inproc.spans).get("cli.main", 0.0)
    wall = sum(end - start for name, start, end, _, _ in probe.spans if name == "request")
    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = selfs.get(name, 0.0) / requests
    for name in COUNTERS:
        m[name] = probe.counts.get(name, 0) / requests
    calls = probe.counts.get("homology.hochster.homology_calls", 0)
    selections = probe.counts.get("homology.hochster.selections", 0)
    hochster_s = sum(v for k, v in selfs.items() if k.startswith("homology.hochster."))
    m["homology.hochster.face_skip_ratio"] = (selections - calls) / selections if selections else 0.0
    m["homology.hochster.s_per_call"] = hochster_s / calls if calls else 0.0
    m["homology.hochster.share"] = hochster_s / wall
    m["cli.process.wall_s"] = selfs.get("cli.process", 0.0) / requests
    m["cli.startup_s"] = m["cli.process.wall_s"] - m["cli.main.self_s"] if m["cli.main.self_s"] else 0.0
    for layer in LAYERS:
        m[f"{layer}.share"] = sum(v for k, v in selfs.items() if k.split(".", 1)[0] == layer and k != "cli.main") / wall
        m[f"{layer}.errors"] = probe.errors.get(layer, 0) + inproc.errors.get(layer, 0)
    m["trace.uncovered_share"] = selfs.get("request", 0.0) / wall
    return m
