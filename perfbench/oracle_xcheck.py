"""oracle-xcheck: the fat-forest three-way cross-check.

Each request builds one k-skeleton (2-3 blocks, N = 10..14) and computes its
Betti table by the closed strand formulas, by strand subtraction and by the
Hochster sweep over GF(2) and GF(3) (and Q when N <= 11), then compares the
tables, the invariants and the numerator coefficients. The sweep does well
over 95% of the work, so this is where oracle and rank-kernel changes show.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from time import perf_counter

from common import PRESETS, alternating_sums, skeleton_face_count
from harness import Corpus

CHILD_PROCESSES = False

TAIL_PERCENTILE = 75.0
C, S = PRESETS

# One request per entry: (block sizes, k, also over Q, gluing preset). The
# seed shuffles block order and request order. Listed by cost: eight cheap
# N=10 requests, the median group (five N=11 requests alike up to gluing),
# the p75 group (five N=12), and three costly ones up to N=14. Gluing moves
# the cost over Q by about 40% and over GF(p) by up to 20%, so it is fixed
# per entry.
STRATA = (
    ((3, 3, 6), 2, False, C),
    ((3, 4, 5), 2, False, S),
    ((2, 5, 5), 3, False, C),
    ((3, 3, 6), 1, False, S),
    ((4, 4, 4), 2, False, C),
    ((4, 7), 1, False, S),
    ((2, 4, 6), 2, False, C),
    ((3, 4, 5), 1, False, S),
    ((3, 5, 5), 1, False, C),
    ((3, 5, 5), 1, False, S),
    ((3, 5, 5), 1, False, C),
    ((3, 5, 5), 1, False, S),
    ((3, 5, 5), 1, False, C),
    ((4, 5, 5), 2, False, C),
    ((4, 5, 5), 2, False, C),
    ((4, 5, 5), 2, False, C),
    ((4, 5, 5), 2, False, C),
    ((4, 5, 5), 2, False, C),
    ((4, 4, 5), 1, True, C),
    ((5, 5, 5), 2, False, C),
    ((4, 6, 6), 1, False, C),
)
SMOKE = (((3, 3), 1, True, C), ((2, 3, 3), 2, False, S))


@dataclass(frozen=True)
class Request:
    sizes: tuple[int, ...]
    gluing: str
    k: int
    fields: tuple[str, ...]
    faces: int  # of the k-skeleton, empty face included


def make_request(sizes, gluing, k, fields) -> Request:
    return Request(tuple(sizes), gluing, k, tuple(fields), skeleton_face_count(sizes, k))


def setup(ff, seed: int, scale: str, workdir: str) -> Corpus:
    rng = random.Random(f"oracle-xcheck:{seed}")
    cycle = []
    for sizes, k, rat, gluing in STRATA if scale == "full" else SMOKE:
        order = list(sizes)
        rng.shuffle(order)
        fields = ("gf2", "gf3", "rat") if rat else ("gf2", "gf3")
        cycle.append(make_request(order, gluing, k, fields))
    rng.shuffle(cycle)
    warmup = make_request((3, 3), "chain-distinct", 1, ("gf2", "gf3", "rat"))
    return Corpus(cycle, warmup, cycle)


def three_way(ff, probe, req: Request, guard: int):
    """Closed formula, strand subtraction and one Hochster sweep per field,
    all compared. Returns (query, complex, closed table, oracle tables)."""
    q = ff.SkeletonQuery(req.sizes, req.k)
    closed = probe.call("formulas.betti_closed", ff.betti_closed, q)
    strands = probe.call("formulas.strand_subtraction", ff.betti_via_strand_subtraction, q)
    probe.check("formulas", "formula == strands", probe.call("betti.table_compare", operator.eq, closed, strands))
    base = probe.call("complexes.build", ff.build_fat_forest, ff.FatForestSpec(req.sizes, req.gluing))
    ck = probe.call("complexes.skeleton", ff.skeleton, base, req.k)
    n = ck.n_vertices
    tables = {}
    for label in req.fields:
        field = ff.FieldSpec.parse(label)
        tables[label] = probe.call(f"homology.hochster.{label}", ff.hochster_betti, ck, field, guard)
        probe.count("homology.hochster.selections", (1 << n) - 1)
        probe.count("homology.hochster.homology_calls", (1 << n) - req.faces)
        same = probe.call("betti.table_compare", operator.eq, tables[label], closed)
        probe.check("homology", f"hochster-{label} == formula for {req}", same)
    return q, ck, closed, tables


def run(ff, req: Request, probe) -> None:
    q, ck, closed, tables = three_way(ff, probe, req, ff.DEFAULT_GUARD)
    num = probe.call("formulas.skeleton_numerator", ff.skeleton_numerator, q)
    sums = probe.call("betti.alternating_sum", alternating_sums, closed, q.n_vars)
    probe.equal("formulas", "alternating sums == numerator", sums, [num.coefficient(j) for j in range(q.n_vars + 1)])
    inv = probe.call("formulas.invariants_closed", ff.invariants_closed, q)
    for label, table in tables.items():
        got = probe.call("betti.invariants_from_table", ff.invariants_from_table, table, ck.n_vertices, ck.dim)
        probe.equal("betti", f"invariants of hochster-{label} == closed", got, inv)


def oracle_ramp(ff, probe, limit: float):
    """Time one GF(2) three-way request per N on chain-distinct blocks grown
    round-robin from (3,3,3) with k = 2, passing the guard explicitly, until
    a request takes longer than `limit` or N reaches MAX_VERTICES.
    Returns ([(N, seconds)], failures)."""
    sizes = [3, 3, 3]
    points: list[tuple[int, float]] = []
    failed = 0
    step = 0
    while sum(sizes) - 2 <= ff.MAX_VERTICES:
        n = sum(sizes) - 2
        req = make_request(sizes, "chain-distinct", 2, ("gf2",))
        start = perf_counter()
        failed += not probe.request(three_way, ff, probe, req, n)
        points.append((n, perf_counter() - start))
        if points[-1][1] > limit:
            break
        sizes[step % 3] += 1
        step += 1
    return points, failed
