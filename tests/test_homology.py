"""Homology oracle tests: small complexes with known answers, a torsion
surface to confirm field dependence, the Hochster sweep, and the CM routes."""

import gc

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forest_specs
from fatforest.betti import BettiTable, invariants_from_table
from fatforest.complexes import (
    FatForestSpec,
    SimplicialComplex,
    bits_of,
    build_fat_forest,
    f_vector,
    parse_facet_lines,
    skeleton,
    vertex_mask,
)
from fatforest.homology import (
    GF2,
    GF3,
    RATIONALS,
    FieldSpec,
    OracleGuardError,
    hochster_betti,
    reduced_homology_dims,
    reisner_is_cm,
)
from fatforest.polynomials import numerator_from_fvector


FIELDS = (GF2, GF3, RATIONALS)


def mask(*vertices):
    return vertex_mask(vertices)


def induced_subcomplex(c: SimplicialComplex, selected: int) -> SimplicialComplex:
    """Faces of c contained in the selected vertex set, reindexed onto 0..|S|-1."""
    if selected < 0 or selected >> c.n_vertices:
        raise ValueError("selected vertices are outside the universe")
    verts = bits_of(selected)
    position = {v: i for i, v in enumerate(verts)}
    remapped = []
    for f in c.facets:
        inter = f & selected
        mask = 0
        for v in bits_of(inter):
            mask |= 1 << position[v]
        remapped.append(mask)
    return SimplicialComplex(len(verts), tuple(remapped))


def reference_betti(c, field):
    """Hochster's formula taken literally: every one of the 2^N subsets, each
    induced afresh, with no orbit shortcut and no undo. It shares the homology
    kernel with the sweep; test_reduced_homology_equals_sympy_ranks checks
    that kernel against sympy."""
    table = BettiTable(c.n_vertices)
    for selection in range(1 << c.n_vertices):
        dims = reduced_homology_dims(induced_subcomplex(c, selection), field, guard=64)
        j = selection.bit_count()
        for idx, h in enumerate(dims):
            if h:
                table.add(j - idx, j, h)
    return table


def test_induced_subcomplex_examples():
    path = build_fat_forest(FatForestSpec((2, 2)))
    two_points = induced_subcomplex(path, mask(0, 2))
    assert two_points.n_vertices == 2
    assert two_points.facets == (mask(0), mask(1))

    assert induced_subcomplex(path, mask(0, 1, 2)) == path

    simplex = SimplicialComplex(3, (mask(0, 1, 2),))
    assert induced_subcomplex(simplex, mask(0, 1)).facets == (mask(0, 1),)

    empty = induced_subcomplex(path, 0)
    assert empty.n_vertices == 0 and empty.facets == ()


def test_fieldspec_parsing():
    assert FieldSpec.parse("gf2") == GF2
    assert FieldSpec.parse("GF7").characteristic == 7
    assert FieldSpec.parse("rat") == RATIONALS
    assert GF2.label == "gf2" and RATIONALS.label == "rat"
    with pytest.raises(ValueError):
        FieldSpec.parse("gf4")
    with pytest.raises(ValueError):
        FieldSpec.parse("zz")
    with pytest.raises(ValueError):
        FieldSpec.gf(1 << 31)


def test_circle_homology():
    circle = SimplicialComplex(3, (mask(0, 1), mask(0, 2), mask(1, 2)))
    for field in (GF2, GF3, RATIONALS):
        assert reduced_homology_dims(circle, field) == (0, 0, 1)


def test_two_points_homology():
    two = SimplicialComplex(2, (mask(0), mask(1)))
    assert reduced_homology_dims(two) == (0, 1)


def test_full_simplex_is_acyclic():
    simplex = SimplicialComplex(4, (mask(0, 1, 2, 3),))
    assert reduced_homology_dims(simplex) == (0, 0, 0, 0, 0)


def test_empty_complex_has_reduced_homology_in_degree_minus_one():
    empty = SimplicialComplex(0, ())
    assert reduced_homology_dims(empty) == (1,)


RP2_TRIANGLES = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)


def test_rp2_triangulation_is_a_closed_surface():
    # every pair of vertices is an edge of exactly two triangles and every
    # vertex link is a single 5-cycle, so with chi = 6 - 15 + 10 = 1 this is
    # the projective plane
    from collections import Counter
    from itertools import combinations

    edge_count = Counter()
    for t in RP2_TRIANGLES:
        for e in combinations(t, 2):
            edge_count[e] += 1
    assert len(edge_count) == 15
    assert set(edge_count.values()) == {2}
    for v in range(6):
        adjacent = {}
        for t in RP2_TRIANGLES:
            if v in t:
                a, b = (x for x in t if x != v)
                adjacent.setdefault(a, set()).add(b)
                adjacent.setdefault(b, set()).add(a)
        assert len(adjacent) == 5
        assert all(len(nbrs) == 2 for nbrs in adjacent.values())


def test_rp2_homology_depends_on_the_field():
    rp2 = SimplicialComplex(6, tuple(mask(*t) for t in RP2_TRIANGLES))
    assert reduced_homology_dims(rp2, GF2) == (0, 0, 1, 1)
    assert reduced_homology_dims(rp2, GF3) == (0, 0, 0, 0)
    assert reduced_homology_dims(rp2, RATIONALS) == (0, 0, 0, 0)


def test_rp2_sweep_equals_reference_and_depends_on_the_field():
    rp2 = SimplicialComplex(6, tuple(mask(*t) for t in RP2_TRIANGLES))
    tables = {field: hochster_betti(rp2, field) for field in FIELDS}
    for field, table in tables.items():
        assert table == reference_betti(rp2, field)
    assert tables[GF2] != tables[GF3]
    assert tables[GF3] == tables[RATIONALS]


def test_suspended_rp2_has_torsion_in_a_middle_degree():
    # the suspension of RP2 (cone points 6 and 7) shifts its 2-torsion up one
    # degree: GF(2) sees H_2 and H_3, GF(3) and Q see nothing
    facets = [t + (cone,) for t in RP2_TRIANGLES for cone in (6, 7)]
    suspension = SimplicialComplex(8, tuple(mask(*f) for f in facets))
    assert len(suspension.facets) == 20 and suspension.dim == 3
    assert reduced_homology_dims(suspension, GF2) == (0, 0, 0, 1, 1)
    assert reduced_homology_dims(suspension, GF3) == (0, 0, 0, 0, 0)
    assert reduced_homology_dims(suspension, RATIONALS) == (0, 0, 0, 0, 0)
    tables = {field: hochster_betti(suspension, field) for field in FIELDS}
    for field, table in tables.items():
        assert table == reference_betti(suspension, field)
    assert tables[GF2] != tables[RATIONALS]


@pytest.mark.parametrize(
    "spec",
    [
        FatForestSpec((3, 4, 4), "chain-distinct"),
        FatForestSpec((3, 4, 4), "star"),
        FatForestSpec((3, 4, 4), ((2, 1), (3, 4))),
        FatForestSpec((2, 2, 2, 2, 3), "chain-distinct"),
        FatForestSpec((2, 2, 2, 2, 3), "star"),
        FatForestSpec((2, 3, 2, 3), ((2, 0), (3, 1), (4, 4))),
    ],
    ids=str,
)
def test_sweep_equals_reference_on_fat_forest_skeleta(spec):
    base = build_fat_forest(spec)
    for k in range(base.dim + 1):
        c = skeleton(base, k)
        for field in FIELDS:
            assert hochster_betti(c, field) == reference_betti(c, field), (k, field)


@given(forest_specs(max_blocks=4, max_block=5, max_vertices=9), st.integers(0, 4))
@settings(max_examples=20)
def test_sweep_equals_reference_on_random_skeleta(spec, k):
    c = skeleton(build_fat_forest(spec), k)
    for field in FIELDS:
        assert hochster_betti(c, field) == reference_betti(c, field)


@st.composite
def facet_complexes(draw, max_vertices=9):
    """Random facet lists; labels that no facet uses stay in the universe."""
    n = draw(st.integers(0, max_vertices))
    if n == 0:
        return SimplicialComplex(0, ())
    facet = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 5))
    facets = draw(st.lists(facet, max_size=7))
    return SimplicialComplex(n, tuple(vertex_mask(f) for f in facets))


def sympy_boundary_ranks(c, domain):
    """ranks[s] = rank of the signed boundary map from size-s to size-(s-1)
    faces of c, computed by sympy over the given domain (QQ or GF(p))."""
    from sympy.polys.matrices import DomainMatrix

    by_size = c.faces_by_size()
    ranks = [0] * (len(by_size) + 1)
    for s in range(1, len(by_size)):
        index = {f: i for i, f in enumerate(by_size[s - 1])}
        rows = [[0] * len(by_size[s]) for _ in by_size[s - 1]]
        for col, f in enumerate(by_size[s]):
            for i, v in enumerate(bits_of(f)):
                rows[index[f ^ 1 << v]][col] = (-1) ** i
        matrix = sympy.Matrix(rows)
        ranks[s] = DomainMatrix.from_Matrix(matrix).convert_to(domain).rank()
        if domain == sympy.QQ:
            assert ranks[s] == matrix.rank()
    return ranks


@given(facet_complexes(max_vertices=7))
@settings(max_examples=25, deadline=None)
def test_reduced_homology_equals_sympy_ranks(c):
    counts = f_vector(c).entries
    for field, domain in ((RATIONALS, sympy.QQ), (FieldSpec.gf(5), sympy.GF(5))):
        ranks = sympy_boundary_ranks(c, domain)
        expected = tuple(n - ranks[s] - ranks[s + 1] for s, n in enumerate(counts))
        assert reduced_homology_dims(c, field) == expected


@given(facet_complexes())
@settings(max_examples=25)
def test_sweep_equals_reference_on_random_complexes(c):
    for field in FIELDS:
        assert hochster_betti(c, field) == reference_betti(c, field)


def test_selection_of_unused_vertices_only_is_counted():
    # vertices 1 and 3 lie in no facet, so {1}, {3} and {1, 3} induce
    # {empty face}: reduced homology 1 in degree -1
    c = SimplicialComplex(6, (mask(0, 2, 4, 5),))
    table = hochster_betti(c)
    assert table == reference_betti(c, GF2)
    assert table.nonzero() == [((0, 0), 1), ((1, 1), 2), ((2, 2), 1)]


def test_unused_labels_are_variables_that_are_nonfaces():
    c = parse_facet_lines("0 1\n5 6\n")
    assert c.n_vertices == 7
    assert f_vector(c).entries == (1, 4, 2)
    table = hochster_betti(c)
    assert table[(1, 1)] == 3
    for field in FIELDS:
        assert hochster_betti(c, field) == reference_betti(c, field)


def test_unused_labels_between_used_ones_leave_homology_and_cm_unchanged():
    # whole-complex homology skips vertices with an empty lower star; moving
    # vertex v to label 3v + 1, so that unused labels sit below, between and
    # above the used ones, must change no answer
    def spread(c):
        facets = tuple(vertex_mask(3 * v + 1 for v in bits_of(f)) for f in c.facets)
        return SimplicialComplex(3 * c.n_vertices + 1, facets)

    rp2 = SimplicialComplex(6, tuple(mask(*t) for t in RP2_TRIANGLES))
    circle_and_point = SimplicialComplex(4, (mask(0, 1), mask(0, 2), mask(1, 2), mask(3)))
    two_triangles = SimplicialComplex(5, (mask(0, 1, 2), mask(2, 3, 4)))
    for c in (rp2, circle_and_point, two_triangles):
        gapped = spread(c)
        for field in FIELDS:
            assert reduced_homology_dims(gapped, field) == reduced_homology_dims(c, field)
            assert reisner_is_cm(gapped, field) == reisner_is_cm(c, field)
    # the answers are not all alike: RP2 is Cohen-Macaulay over GF(3) and Q only
    assert [reisner_is_cm(spread(rp2), field) for field in FIELDS] == [False, True, True]


def test_hochster_path_is_koszul():
    path = build_fat_forest(FatForestSpec((2, 2)))
    table = hochster_betti(path)
    assert table.nonzero() == [((0, 0), 1), ((1, 2), 1)]


def test_hochster_circle_is_principal_cubic():
    circle = SimplicialComplex(3, (mask(0, 1), mask(0, 2), mask(1, 2)))
    table = hochster_betti(circle)
    assert table.nonzero() == [((0, 0), 1), ((1, 3), 1)]


def test_hochster_345_skeleton_2_matches_published_rows():
    c = skeleton(build_fat_forest(FatForestSpec((3, 4, 5))), 2)
    table = hochster_betti(c, GF2)
    assert table.diagonal(1) == (26, 103, 197, 224, 160, 71, 18, 2)
    assert table.diagonal(3) == (6, 35, 85, 110, 80, 31, 5)
    assert table[(0, 0)] == 1
    assert table.diagonals() == [0, 1, 3]


@given(forest_specs(max_blocks=3, max_block=3, max_vertices=7))
@settings(max_examples=15)
def test_alternating_sums_match_numerator(spec):
    c = build_fat_forest(spec)
    table = hochster_betti(c)
    num = numerator_from_fvector(f_vector(c), c.n_vertices)
    for j in range(c.n_vertices + 1):
        assert table.alternating_sum(j) == num.coefficient(j)


@given(forest_specs(max_blocks=3, max_block=3, max_vertices=7))
@settings(max_examples=15)
def test_euler_characteristic_consistency(spec):
    c = build_fat_forest(spec)
    fv = f_vector(c)
    euler = sum((-1) ** d * fv.entries[d + 1] for d in range(0, c.dim + 1))
    for field in (GF2, GF3, RATIONALS):
        dims = reduced_homology_dims(c, field)
        reduced_euler = sum((-1) ** d * dims[d + 1] for d in range(0, c.dim + 1))
        assert euler == 1 + reduced_euler - dims[0]  # dims[0] is degree -1


def test_gf2_gf3_agree_on_glued_skeletons():
    for sizes, k in (((3, 4), 1), ((3, 4), 2), ((2, 3, 3), 1), ((4, 4), 3)):
        c = skeleton(build_fat_forest(FatForestSpec(sizes)), k)
        assert hochster_betti(c, GF2) == hochster_betti(c, GF3)


def test_reisner_path_is_cm():
    assert reisner_is_cm(build_fat_forest(FatForestSpec((2, 2))))


def test_reisner_two_disjoint_edges_not_cm():
    c = SimplicialComplex(4, (mask(0, 1), mask(2, 3)))
    assert not reisner_is_cm(c)


def test_reisner_agrees_with_depth_route_on_glued_triangles():
    # two triangles sharing one vertex: depth 2, Krull dimension 3, so both
    # routes must say not Cohen-Macaulay
    c = build_fat_forest(FatForestSpec((3, 3)))
    table = hochster_betti(c)
    inv = invariants_from_table(table, c.n_vertices, c.dim)
    assert inv.depth == 2 and inv.krull_dim == 3
    assert reisner_is_cm(c) is False
    assert inv.is_cm is False


@given(forest_specs(max_blocks=3, max_block=3, max_vertices=7))
@settings(max_examples=10)
def test_two_cm_routes_agree(spec):
    c = build_fat_forest(spec)
    inv = invariants_from_table(hochster_betti(c), c.n_vertices, c.dim)
    assert reisner_is_cm(c) == inv.is_cm


def test_sweep_leaves_no_cyclic_garbage():
    # the kernel is freed when the sweep returns, not at the next gc pass
    c = skeleton(build_fat_forest(FatForestSpec((4, 4, 5))), 2)
    gc.collect()
    gc.disable()
    try:
        hochster_betti(c, RATIONALS)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_guard_reports_offending_size():
    c = build_fat_forest(FatForestSpec((4, 4)))
    with pytest.raises(OracleGuardError) as err:
        hochster_betti(c, guard=5)
    assert err.value.n_vertices == 7 and err.value.guard == 5
    with pytest.raises(OracleGuardError):
        reduced_homology_dims(c, guard=5)
    with pytest.raises(OracleGuardError):
        reisner_is_cm(c, guard=5)
    # raising the guard admits the same complex
    assert hochster_betti(c, guard=7)[(0, 0)] == 1


def test_invariants_from_table_examples():
    c = skeleton(build_fat_forest(FatForestSpec((3, 4, 5))), 2)
    inv = invariants_from_table(hochster_betti(c), 10, c.dim)
    assert inv == invariants_from_table(hochster_betti(c), 10, 2)
    assert (inv.pd, inv.reg, inv.depth, inv.krull_dim, inv.is_cm) == (8, 3, 2, 3, False)

    from fatforest.betti import BettiTable

    poly_ring = BettiTable(6, [(((0, 0)), 1)])
    inv0 = invariants_from_table(poly_ring, 6, 5)
    assert (inv0.pd, inv0.reg, inv0.depth) == (0, 0, 6)
    assert inv0.is_cm
    assert not invariants_from_table(poly_ring, 6, 3).is_cm

    path = build_fat_forest(FatForestSpec((2, 2)))
    invp = invariants_from_table(hochster_betti(path), 3, 1)
    assert (invp.pd, invp.reg, invp.depth, invp.krull_dim, invp.is_cm) == (1, 1, 2, 2, True)
