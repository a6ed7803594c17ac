"""closed-bign: closed-form queries at N = 100..600.

Each request runs the closed strand formulas, strand subtraction, the two
numerator routes, the closed invariants, the identity report with its
round-trip parser, and the three renderers. No complex is built and no
homology runs, so an oracle change must leave this workload unchanged.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from common import alternating_sums, csv_entries, json_entries, paper_entries
from harness import Corpus

CHILD_PROCESSES = False

TAIL_PERCENTILE = 75.0

# One request per entry: (block sizes, k), N from 100 to 591 with 2-10
# blocks and small and large k; the seed shuffles block order and request
# order. The closed forms cost roughly N^2 times the largest block, so the
# entries are listed by cost: eight near N=100, the median group (five alike
# at N=163), the p75 group (five at N=238), and three costly ones up to
# N=591.
STRATA = (
    ((34, 34, 34), 3),
    ((50, 52), 10),
    ((26, 26, 26, 26), 12),
    ((36, 36, 36), 8),
    ((28, 28, 28, 28), 6),
    ((40, 40, 40), 30),
    ((60, 62), 2),
    ((30, 30, 30, 30, 30), 8),
    *[((55, 55, 55), 20)] * 5,
    *[((80, 80, 80), 40)] * 5,
    ((100, 100, 102), 20),
    ((150, 150, 152), 3),
    ((60,) * 10, 20),
)
SMOKE = (((6, 7), 2), ((4, 4, 5), 1))


@dataclass(frozen=True)
class Request:
    sizes: tuple[int, ...]
    k: int


def setup(ff, seed: int, scale: str, workdir: str) -> Corpus:
    rng = random.Random(f"closed-bign:{seed}")
    cycle = []
    for sizes, k in STRATA if scale == "full" else SMOKE:
        order = list(sizes)
        rng.shuffle(order)
        cycle.append(Request(tuple(order), k))
    rng.shuffle(cycle)
    return Corpus(cycle, Request((5, 6), 2), cycle)


def parse_all(ff, report) -> list[tuple[int, int]]:
    return [ff.parse_equation(rec.equation) for rec in report.degrees]


def run(ff, req: Request, probe) -> None:
    q = ff.SkeletonQuery(req.sizes, req.k)
    n = q.n_vars
    closed = probe.call("formulas.betti_closed", ff.betti_closed, q)
    strands = probe.call("formulas.strand_subtraction", ff.betti_via_strand_subtraction, q)
    probe.check("formulas", "formula == strands", probe.call("betti.table_compare", operator.eq, closed, strands))
    num = probe.call("formulas.skeleton_numerator", ff.skeleton_numerator, q)
    fv = probe.call("formulas.skeleton_f_vector", ff.skeleton_f_vector, q)
    from_fv = probe.call("polynomials.numerator_from_fvector", ff.numerator_from_fvector, fv, n)
    probe.equal("polynomials", "numerator from f-vector == skeleton numerator", from_fv, num)
    sums = probe.call("betti.alternating_sum", alternating_sums, closed, n)
    probe.equal("formulas", "alternating sums == numerator", sums, [num.coefficient(j) for j in range(n + 1)])
    inv = probe.call("formulas.invariants_closed", ff.invariants_closed, q)
    got = probe.call("betti.invariants_from_table", ff.invariants_from_table, closed, n, q.top_dim)
    probe.equal("betti", "invariants from table == closed", got, inv)

    report = probe.call("identities.report", ff.identity_report, req.sizes)
    probe.count("identities.degrees", len(report.degrees))
    probe.check("identities", f"identity report all equal for {req.sizes}", report.all_equal)
    parsed = probe.call("identities.parse_equation", parse_all, ff, report)
    probe.equal("identities", "parsed equations == rendered values", parsed, [(r.left_value, r.right_value) for r in report.degrees])

    entries = dict(closed.nonzero())
    tables = ff.tables
    paper = probe.call("tables.render_paper_table", tables.render_paper_table, closed)
    probe.equal("tables", "paper table read back", paper_entries(paper), entries)
    csv = probe.call("tables.render_csv_table", tables.render_csv_table, closed)
    probe.equal("tables", "csv table read back", csv_entries(csv), entries)
    doc = probe.call(
        "tables.to_json",
        lambda: tables.to_json(tables.structured_document(sizes=req.sizes, k=req.k, n_vars=n, method="formula", betti=closed)),
    )
    probe.equal("tables", "json document read back", json_entries(doc), entries)
