"""facet-complexes: arbitrary complexes on the facet-file path.

Three request kinds share a cycle:
- pipeline: a fat-forest skeleton of 1k-6k facets, written as shuffled
  facet text, goes through parse_facet_lines, facet_lines, f_vector,
  numerator_from_fvector and minimal_nonfaces, next to build + skeleton of
  the same spec. The only workload where canonicalization dominates.
- homology: whole-complex reduced homology over GF(2), GF(3) and Q and the
  Reisner test over GF(2) and Q, on skeleta with N = 19..31 and at most 500
  faces: a few large eliminations instead of 2^N tiny ones. The program
  refuses N > 24 here although the work is polynomial, so the guard is
  passed explicitly.
- random: Hochster sweeps over GF(2) and GF(3) on seeded random complexes
  with N = 10..12, rejected when two vertices are twins, so they have no
  symmetry for a symmetry-based sweep to exploit.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from common import (
    alternating_sums,
    canonical,
    face_counts,
    facet_text,
    mask,
    random_gluing,
    skeleton_face_count,
    skeleton_facets,
)
from harness import Corpus

CHILD_PROCESSES = False

TAIL_PERCENTILE = 75.0

# One request per entry, listed by cost: eight cheap ones, the median group
# (five random complexes on 11 vertices), the p75 group (five on 12) and
# three costly ones. Pipeline entries are (block sizes, k): 1,092, 2,772 and
# 6,006 facets; the 10,296-facet case (14,14,14) k=6 alone takes about 7 s,
# too long for a cycle that must run twice in a run. Homology entries are
# (block sizes, k), N = 19..31 with 47..487 faces. Random entries are
# (N, triangles, edges); the sweep's cost depends mostly on N, so each group
# holds like requests.
STRATA = (
    ("homology", (3,) * 9, 1),
    ("homology", (4,) * 6, 2),
    ("homology", (5,) * 5, 3),
    ("homology", (3,) * 12, 1),
    ("random", 10, 6, 6),
    ("random", 10, 8, 4),
    ("random", 10, 5, 8),
    ("pipeline", (14, 14, 14), 2),
    *[("random", 11, 7, 6)] * 5,
    *[("random", 12, 8, 6)] * 5,
    ("pipeline", (12, 12, 12), 5),
    ("homology", (7,) * 5, 3),
    ("pipeline", (14, 14, 14), 4),
)
SMOKE = (("pipeline", (4, 4, 4), 2), ("homology", (3, 3, 3), 1), ("random", 7, 3, 3))


@dataclass(frozen=True)
class Pipeline:
    sizes: tuple[int, ...]
    gluing: object
    k: int
    text: str
    canonical_text: str


@dataclass(frozen=True)
class Homology:
    sizes: tuple[int, ...]
    gluing: object
    k: int
    faces: int


@dataclass(frozen=True)
class Random:
    n: int
    facets: tuple[int, ...]
    text: str
    fvector: tuple[int, ...]


def has_twins(facets, n: int) -> bool:
    """True when swapping some two vertices maps the facet set onto itself."""
    facet_set = set(facets)
    for u in range(n):
        for v in range(u + 1, n):
            both = (1 << u) | (1 << v)
            swapped = {f ^ both if (f & both).bit_count() == 1 else f for f in facets}
            if swapped == facet_set:
                return True
    return False


def random_complex(rng, n: int, triangles: int, edges: int) -> tuple[int, ...]:
    """Facets of a random complex with all n vertices used and no twins.
    At most 8 triangles and no larger facets: the smallest complex with
    torsion, the 6-vertex projective plane, needs 10 triangles, so GF(2) and
    GF(3) must agree."""
    while True:
        tris = set()
        while len(tris) < triangles:
            tris.add(mask(rng.sample(range(n), 3)))
        facets = set(tris)
        while len(facets) < triangles + edges:
            e = mask(rng.sample(range(n), 2))
            if not any(e & ~t == 0 for t in tris):
                facets.add(e)
        used = 0
        for f in facets:
            used |= f
        if used == (1 << n) - 1 and not has_twins(facets, n):
            return tuple(canonical(facets))


def setup(ff, seed: int, scale: str, workdir: str) -> Corpus:
    rng = random.Random(f"facet-complexes:{seed}")
    cycle: list = []
    for kind, *spec in STRATA if scale == "full" else SMOKE:
        if kind == "random":
            facets = random_complex(rng, *spec)
            cycle.append(Random(spec[0], facets, facet_text(facets, rng), tuple(face_counts(facets))))
            continue
        sizes, k = spec
        order = list(sizes)
        rng.shuffle(order)
        gluing = random_gluing(rng, order)
        if kind == "homology":
            cycle.append(Homology(tuple(order), gluing, k, skeleton_face_count(order, k)))
        else:
            facets = skeleton_facets(order, gluing, k)
            comment = f"sizes={order} gluing={gluing} k={k}"
            cycle.append(Pipeline(tuple(order), gluing, k, facet_text(facets, rng, comment), facet_text(facets)))
    rng.shuffle(cycle)
    warmup = Homology((3, 3), "chain-distinct", 1, skeleton_face_count((3, 3), 1))
    return Corpus(cycle, warmup, cycle)


def run(ff, req, probe) -> None:
    {Pipeline: run_pipeline, Homology: run_homology, Random: run_random}[type(req)](ff, req, probe)


def run_pipeline(ff, req: Pipeline, probe) -> None:
    base = probe.call("complexes.build", ff.build_fat_forest, ff.FatForestSpec(req.sizes, req.gluing))
    sk = probe.call("complexes.skeleton", ff.skeleton, base, req.k)
    probe.count("complexes.skeleton.facets", len(sk.facets))
    parsed = probe.call("complexes.parse_facet_lines", ff.parse_facet_lines, req.text)
    probe.equal("complexes", "parsed facet text == skeleton", parsed, sk)
    text = probe.call("complexes.facet_lines", ff.facet_lines, parsed)
    probe.equal("complexes", "facet text round trip", text, req.canonical_text)
    fv = probe.call("complexes.f_vector", ff.f_vector, parsed)
    probe.count("complexes.faces", sum(fv.entries))
    q = ff.SkeletonQuery(req.sizes, req.k)
    probe.equal("complexes", "f_vector == skeleton_f_vector", fv, probe.call("formulas.skeleton_f_vector", ff.skeleton_f_vector, q))
    num = probe.call("polynomials.numerator_from_fvector", ff.numerator_from_fvector, fv, parsed.n_vertices)
    probe.equal("polynomials", "numerator_from_fvector == skeleton_numerator", num, probe.call("formulas.skeleton_numerator", ff.skeleton_numerator, q))
    nonfaces = probe.call("complexes.minimal_nonfaces", ff.minimal_nonfaces, parsed)
    probe.count("complexes.minimal_nonfaces.count", len(nonfaces))
    closed = probe.call("formulas.betti_closed", ff.betti_closed, q)
    generators = sum(v for (i, _), v in closed.nonzero() if i == 1)
    probe.equal("complexes", "minimal nonfaces == sum of beta_1j", len(nonfaces), generators)


def run_homology(ff, req: Homology, probe) -> None:
    base = probe.call("complexes.build", ff.build_fat_forest, ff.FatForestSpec(req.sizes, req.gluing))
    sk = probe.call("complexes.skeleton", ff.skeleton, base, req.k)
    n = sk.n_vertices
    dims = {}
    for label in ("gf2", "gf3", "rat"):
        dims[label] = probe.call(f"homology.reduced.{label}", ff.reduced_homology_dims, sk, ff.FieldSpec.parse(label), n)
        probe.count("homology.reduced.chain_cells", req.faces)
    probe.check("homology", "reduced homology agrees over gf2, gf3, rat", dims["gf2"] == dims["gf3"] == dims["rat"])
    # The fat forest is contractible, so its k-skeleton has homology only in degree k.
    probe.check("homology", "no homology below the top degree", not any(dims["gf2"][:-1]))
    q = ff.SkeletonQuery(req.sizes, req.k)
    fv = probe.call("formulas.skeleton_f_vector", ff.skeleton_f_vector, q)
    euler = sum((-1) ** s * c for s, c in enumerate(fv.entries))
    probe.equal("homology", "Euler characteristic", sum((-1) ** s * h for s, h in enumerate(dims["rat"])), euler)
    inv = probe.call("formulas.invariants_closed", ff.invariants_closed, q)
    for label in ("gf2", "rat"):
        cm = probe.call(f"homology.reisner.{label}", ff.reisner_is_cm, sk, ff.FieldSpec.parse(label), n)
        probe.equal("homology", f"reisner_is_cm over {label} == closed is_cm", cm, inv.is_cm)


def run_random(ff, req: Random, probe) -> None:
    parsed = probe.call("complexes.parse_facet_lines", ff.parse_facet_lines, req.text)
    probe.equal("complexes", "parsed facets", (parsed.n_vertices, parsed.facets), (req.n, req.facets))
    faces = sum(req.fvector)
    tables = {}
    for label in ("gf2", "gf3"):
        tables[label] = probe.call(f"homology.hochster.{label}", ff.hochster_betti, parsed, ff.FieldSpec.parse(label))
        probe.count("homology.hochster.selections", (1 << req.n) - 1)
        probe.count("homology.hochster.homology_calls", (1 << req.n) - faces)
    same = probe.call("betti.table_compare", operator.eq, tables["gf2"], tables["gf3"])
    probe.check("homology", f"gf2 table == gf3 table for {req.facets}", same)
    fv = probe.call("complexes.f_vector", ff.f_vector, parsed)
    probe.count("complexes.faces", sum(fv.entries))
    probe.equal("complexes", "f_vector", fv.entries, req.fvector)
    num = probe.call("polynomials.numerator_from_fvector", ff.numerator_from_fvector, fv, req.n)
    sums = probe.call("betti.alternating_sum", alternating_sums, tables["gf2"], req.n)
    probe.equal("homology", "alternating sums == numerator", sums, [num.coefficient(j) for j in range(req.n + 1)])
    cm = probe.call("homology.reisner.gf2", ff.reisner_is_cm, parsed, ff.FieldSpec.parse("gf2"))
    inv = probe.call("betti.invariants_from_table", ff.invariants_from_table, tables["gf2"], req.n, parsed.dim)
    probe.equal("homology", "reisner_is_cm == (depth == krull_dim)", cm, inv.is_cm)
