"""cli: one `python -m fatforest` child process per request.

Start-up, imports, argparse and rendering are most of each request, so
this is the only workload where CLI or renderer simplification and lazy
imports can show. Expected values come from the library, computed during
set-up for the same query; each child's output is parsed and compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

from common import PRESETS, csv_entries, facet_text, json_entries
from facet_complexes import random_complex
from harness import Corpus

CHILD_PROCESSES = True
TAIL_PERCENTILE = 90.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (subcommand, block sizes, k, format) per request of one cycle, 51 in all;
# "hilbert-facets" entries are random complexes of (N, triangles, edges)
# instead. Start-up makes the first 43 alike (the median sits among them);
# the p90 request is in a group of five alike verify requests, below three
# costlier ones.
STRATA = (
    ("paper-examples", None, None, None),
    ("paper-examples", None, None, None),
    *[("betti-formula", s, k, fmt) for (s, k) in (((8, 9, 10), 3), ((20, 21), 7), ((5, 5, 5, 5), 2), ((12, 13, 14), 5), ((30, 31), 9)) for fmt in ("structured", "tabular")],
    *[("betti-strands", s, k, fmt) for (s, k) in (((6, 7, 8), 2), ((15, 16), 4), ((10, 10, 11), 6), ((4, 5, 6, 7), 3)) for fmt in ("structured", "tabular")],
    *[("betti-hochster", s, k, fmt) for (s, k) in (((3, 4, 5), 2), ((4, 4, 4), 1), ((5, 6), 3), ((3, 3, 4), 2)) for fmt in ("structured", "tabular")],
    *[("identities", s, None, "structured") for s in ((3, 4, 5), (10, 12, 14), (6, 6, 6, 6), (25, 30))],
    *[("hilbert-facets", nte, None, "tabular") for nte in ((10, 6, 6), (12, 8, 6), (14, 8, 10), (16, 8, 12), (20, 8, 16))],
    *[("invariants-oracle", s, k, "structured") for (s, k) in (((3, 4, 5), 1), ((3, 4, 5), 2), ((4, 4, 4), 3), ((5, 6), 2), ((2, 3, 3, 3), 2), ((3, 3, 5), 1))],
    *[("verify", (3, 4, 5), 2, "structured")] * 5,
    *[("verify", s, k, "structured") for (s, k) in (((6, 6), 2), ((4, 4, 5), 3), ((5, 7), 2))],
)
SMOKE = (
    ("paper-examples", None, None, None),
    ("betti-formula", (3, 4), 1, "tabular"),
    ("betti-hochster", (3, 3), 1, "structured"),
    ("verify", (2, 3), 1, "structured"),
    ("identities", (2, 3), None, "structured"),
    ("hilbert-facets", (6, 3, 2), None, "tabular"),
    ("invariants-oracle", (3, 3), 1, "structured"),
)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str
    expected: object
    facet_text: str | None = None


def _sizes(sizes) -> str:
    return ",".join(str(s) for s in sizes)


def make_request(ff, rng, kind, sizes, k, fmt, workdir, index) -> Request:
    """One child invocation and the library's answer to the same query."""
    if kind == "paper-examples":
        tables = [ff.tables.render_paper_table(ff.betti_closed(ff.SkeletonQuery((3, 4, 5), kk))) for kk in (1, 2, 3)]
        return Request(("paper-examples",), kind, tuple(tables))
    if kind == "hilbert-facets":
        n, triangles, edges = sizes
        facets = random_complex(rng, n, triangles, edges)
        text = facet_text(facets, rng)
        path = os.path.join(workdir, f"complex{index}.txt")
        c = ff.parse_facet_lines(text)
        coeffs = ff.numerator_from_fvector(ff.f_vector(c), c.n_vertices).poly.coeffs
        argv = ("hilbert", "--method", "from-complex", "--facets", path, "--format", fmt)
        return Request(argv, kind, coeffs, text)
    order = list(sizes)
    rng.shuffle(order)
    gluing = rng.choice(PRESETS)
    common = ("--sizes", _sizes(order), "--format", fmt)
    if kind == "identities":
        report = ff.identity_report(order)
        values = [(str(r.left_value), str(r.right_value)) for r in report.degrees]
        return Request(("identities", *common), kind, values)
    q = ff.SkeletonQuery(order, k)
    common += ("-k", str(k), "--gluing", gluing)
    closed = dict(ff.betti_closed(q).nonzero())
    if kind == "verify":
        return Request(("verify", *common), kind, closed)
    if kind == "invariants-oracle":
        c = ff.skeleton(ff.build_fat_forest(ff.FatForestSpec(order, gluing)), k)
        table = ff.hochster_betti(c, ff.GF2)
        inv = ff.tables.invariants_doc(ff.invariants_from_table(table, c.n_vertices, c.dim))
        return Request(("invariants", "--method", "oracle", *common), kind, inv)
    method = kind.split("-", 1)[1]
    if method == "hochster":
        c = ff.skeleton(ff.build_fat_forest(ff.FatForestSpec(order, gluing)), k)
        closed = dict(ff.hochster_betti(c, ff.GF2).nonzero())
    return Request(("betti", "--method", method, *common), kind, closed)


def setup(ff, seed: int, scale: str, workdir: str) -> Corpus:
    rng = random.Random(f"cli:{seed}")
    cycle = [
        make_request(ff, rng, kind, sizes, k, fmt, workdir, idx)
        for idx, (kind, sizes, k, fmt) in enumerate(STRATA if scale == "full" else SMOKE)
    ]
    rng.shuffle(cycle)
    os.makedirs(workdir, exist_ok=True)
    for req in cycle:
        if req.facet_text is not None:
            with open(req.argv[req.argv.index("--facets") + 1], "w", encoding="utf-8") as handle:
                handle.write(req.facet_text)
    warmup = make_request(ff, rng, "paper-examples", None, None, None, workdir, -1)
    return Corpus(cycle, warmup, [(r.argv, r.facet_text) for r in cycle])


def check_output(probe, req: Request, code: int, out: str) -> None:
    if not probe.equal("cli", f"exit code of {' '.join(req.argv)}", code, 0):
        return
    if req.kind == "paper-examples":
        probe.check("tables", "paper-examples holds the library's three tables", all(t.rstrip("\n") in out for t in req.expected))
    elif req.kind == "hilbert-facets":
        probe.equal("cli", "hilbert coefficients", tuple(int(c) for c in out.strip().split(",")), req.expected)
    elif req.kind == "identities":
        doc = json.loads(out)
        probe.check("cli", "identities all_equal", doc["all_equal"])
        probe.equal("cli", "identity values", [(d["left"], d["right"]) for d in doc["degrees"]], req.expected)
    elif req.kind == "verify":
        doc = json.loads(out)
        probe.equal("cli", "verify verdict", doc["agreement"]["verdict"], "pass")
        probe.equal("cli", "verify table", json_entries(out), req.expected)
    elif req.kind == "invariants-oracle":
        probe.equal("cli", "oracle invariants", json.loads(out)["invariants"], req.expected)
    elif "--format" in req.argv and req.argv[req.argv.index("--format") + 1] == "tabular":
        probe.equal("cli", "csv betti table", csv_entries(out), req.expected)
    else:
        probe.equal("cli", "structured betti table", json_entries(out), req.expected)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("FATFOREST_ORACLE_GUARD", None)
    return env


def run(ff, req: Request, probe) -> None:
    argv = [sys.executable, "-m", "fatforest", *req.argv]
    proc = probe.call("cli.process", subprocess.run, argv, capture_output=True, env=child_env(), timeout=120)
    probe.count("cli.bytes_out", len(proc.stdout))
    check_output(probe, req, proc.returncode, proc.stdout.decode())


def run_inprocess(ff, req: Request, probe) -> None:
    """The same request through cli.main in this process, for cli.main.self_s."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = probe.call("cli.main", ff.cli.main, list(req.argv))
    check_output(probe, req, code, out.getvalue())
