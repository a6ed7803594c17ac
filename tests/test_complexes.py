"""Complex construction, skeletons, links, nonfaces."""

import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forest_specs
from fatforest.complexes import (
    FatForestSpec,
    SimplicialComplex,
    build_fat_forest,
    f_vector,
    facet_lines,
    link,
    minimal_nonfaces,
    parse_facet_lines,
    skeleton,
    vertex_mask,
)
from fatforest.formulas import SkeletonQuery, betti_closed


def mask(*vertices):
    return vertex_mask(vertices)


def test_build_path():
    c = build_fat_forest(FatForestSpec((2, 2)))
    assert c.n_vertices == 3
    assert c.facets == (mask(0, 1), mask(1, 2))


def test_build_345_vertex_count():
    c = build_fat_forest(FatForestSpec((3, 4, 5)))
    assert c.n_vertices == 3 + 4 + 5 - 2 == 10
    assert sorted(f.bit_count() for f in c.facets) == [3, 4, 5]


def test_build_single_block():
    c = build_fat_forest(FatForestSpec((4,), "star"))
    assert c.n_vertices == 4
    assert c.facets == (mask(0, 1, 2, 3),)


def test_build_star_preset():
    c = build_fat_forest(FatForestSpec((2, 2, 2), "star"))
    assert c.facets == (mask(0, 1), mask(0, 2), mask(0, 3))


def test_build_explicit_schedule():
    c = build_fat_forest(FatForestSpec((3, 2, 2), ((2, 1), (3, 1))))
    assert c.facets == (mask(1, 3), mask(1, 4), mask(0, 1, 2))


def test_build_rejects_bad_specs():
    # the spec rejects everything its sizes decide on construction
    with pytest.raises(ValueError):
        FatForestSpec((1, 3))
    with pytest.raises(ValueError):
        FatForestSpec(())
    with pytest.raises(ValueError):
        FatForestSpec((2, 2), ((2, 5),))  # target out of range
    with pytest.raises(ValueError):
        FatForestSpec((2, 2, 2), ((2, 0),))  # block 3 missing
    with pytest.raises(ValueError):
        FatForestSpec((2, 2, 2), ((2, 0), (2, 1), (3, 0)))  # block 2 twice
    with pytest.raises(ValueError):
        FatForestSpec((2, 2), "ring")
    # the 64-vertex limit is the builder's: closed forms run far beyond it
    spec = FatForestSpec((40, 30))
    assert spec.n_vars == 69
    with pytest.raises(ValueError, match="64-vertex limit"):
        build_fat_forest(spec)
    assert build_fat_forest(FatForestSpec((33, 32))).n_vertices == 64
    with pytest.raises(ValueError, match="^65 vertices exceeds the 64-vertex limit$"):
        build_fat_forest(FatForestSpec((33, 33)))


def test_vertex_limit_boundary():
    assert parse_facet_lines("0 63\n").n_vertices == 64
    with pytest.raises(ValueError, match="vertex 64 exceeds the 64-vertex limit"):
        parse_facet_lines("0 64\n")
    assert SimplicialComplex(64).n_vertices == 64
    with pytest.raises(ValueError, match="between 0 and 64, got 65"):
        SimplicialComplex(65)


@st.composite
def raw_schedules(draw):
    """Block sizes and an explicit schedule, in any order, whose targets may
    overshoot the union of the earlier blocks."""
    sizes = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    pairs = [(i, draw(st.integers(0, sum(sizes)))) for i in range(2, len(sizes) + 1)]
    return sizes, tuple(draw(st.permutations(pairs)))


@given(raw_schedules())
def test_spec_rejects_exactly_the_targets_outside_the_partial_union(case):
    sizes, schedule = case
    # block i sees the n_1 + ... + n_{i-1} - (i - 2) vertices of the blocks before it
    inside = all(v < sum(sizes[: i - 1]) - (i - 2) for i, v in schedule)
    if not inside:
        with pytest.raises(ValueError, match="outside the current"):
            FatForestSpec(sizes, schedule)
        return
    spec = FatForestSpec(sizes, schedule)
    c = build_fat_forest(spec)
    assert c.n_vertices == spec.n_vars == SkeletonQuery(sizes, 1).n_vars
    # each block's largest vertex is fresh, so that orders facets by attachment
    blocks = sorted(c.facets, key=int.bit_length)
    assert [f.bit_count() for f in blocks] == list(sizes)
    union = blocks[0]
    for i, f in enumerate(blocks[1:], start=2):
        assert f & union == 1 << dict(schedule)[i]
        union |= f


@given(forest_specs())
def test_every_block_meets_earlier_blocks_in_one_vertex(spec):
    c = build_fat_forest(spec)
    # recover blocks in attachment order by rebuilding the vertex ranges
    sizes = spec.sizes
    assert c.n_vertices == sum(sizes) - (len(sizes) - 1)
    facets_by_size = sorted(c.facets, key=lambda m: m.bit_count())
    assert sorted(f.bit_count() for f in facets_by_size) == sorted(sizes)
    # the canonical facet list loses attachment order, so check pairwise:
    # any two blocks share at most one vertex, and the union is connected
    for a, b in combinations(c.facets, 2):
        assert (a & b).bit_count() <= 1
    union = 0
    for f in c.facets:
        union |= f
    assert union == (1 << c.n_vertices) - 1


def test_skeleton_of_triangle():
    c = SimplicialComplex(3, (mask(0, 1, 2),))
    s = skeleton(c, 1)
    assert s.facets == (mask(0, 1), mask(0, 2), mask(1, 2))


def test_skeleton_identity_when_k_large():
    c = build_fat_forest(FatForestSpec((3, 4, 5)))
    assert skeleton(c, 4) is c
    assert skeleton(c, 9) is c


def test_skeleton_zero():
    c = build_fat_forest(FatForestSpec((2, 2)))
    assert skeleton(c, 0).facets == (mask(0), mask(1), mask(2))
    with pytest.raises(ValueError):
        skeleton(c, -1)


@given(forest_specs(), st.integers(0, 5))
def test_skeleton_idempotent(spec, k):
    c = build_fat_forest(spec)
    s = skeleton(c, k)
    assert skeleton(s, k) == s
    if k >= c.dim:
        assert s == c


def test_f_vector_simplex():
    c = SimplicialComplex(3, (mask(0, 1, 2),))
    assert f_vector(c).entries == (1, 3, 3, 1)


def enumerate_faces_naive(c, size):
    """Independent oracle: test all vertex subsets of the given size."""
    found = set()
    for combo in combinations(range(c.n_vertices), size):
        m = vertex_mask(combo)
        if any(m & ~f == 0 for f in c.facets):
            found.add(m)
    return found


def test_f_vector_345_skeletons():
    base = build_fat_forest(FatForestSpec((3, 4, 5)))
    sk1 = skeleton(base, 1)
    assert f_vector(sk1).entries == (1, 10, len(enumerate_faces_naive(sk1, 2)))
    assert f_vector(sk1).entries == (1, 10, 19)
    sk2 = skeleton(base, 2)
    assert f_vector(sk2).entries == (
        1,
        10,
        len(enumerate_faces_naive(sk2, 2)),
        len(enumerate_faces_naive(sk2, 3)),
    )
    assert f_vector(sk2).entries == (1, 10, 19, 15)


@given(forest_specs(), st.integers(0, 4))
def test_f_vector_truncates_along_skeleton(spec, k):
    c = build_fat_forest(spec)
    full = f_vector(c)
    part = f_vector(skeleton(c, k))
    assert part.entries == full.entries[: min(k, c.dim) + 2]


@given(forest_specs(allow_explicit=True))
@settings(max_examples=40)
def test_f_vector_ignores_gluing_schedule(spec):
    chain = f_vector(build_fat_forest(FatForestSpec(spec.sizes, "chain-distinct")))
    star = f_vector(build_fat_forest(FatForestSpec(spec.sizes, "star")))
    other = f_vector(build_fat_forest(spec))
    assert chain == star == other


def test_link_examples():
    path = build_fat_forest(FatForestSpec((2, 2)))
    lk = link(path, mask(1))
    assert lk.facets == (mask(0), mask(2))
    assert link(path, 0) == path
    simplex = SimplicialComplex(3, (mask(0, 1, 2),))
    assert link(simplex, mask(0)).facets == (mask(1, 2),)
    with pytest.raises(ValueError):
        link(path, mask(0, 2))


def test_minimal_nonfaces_path():
    path = build_fat_forest(FatForestSpec((2, 2)))
    assert minimal_nonfaces(path) == [mask(0, 2)]


def test_minimal_nonfaces_345():
    base = build_fat_forest(FatForestSpec((3, 4, 5)))
    sk1 = minimal_nonfaces(skeleton(base, 1))
    by_size = {}
    for m in sk1:
        by_size.setdefault(m.bit_count(), []).append(m)
    # pairs: all vertex pairs minus the 19 edges; triples: one per block triangle
    assert len(by_size[2]) == 45 - 19 == 26
    assert len(by_size[3]) == 1 + 4 + 10 == 15
    assert set(by_size) == {2, 3}

    sk3 = minimal_nonfaces(skeleton(base, 3))
    by_size3 = {}
    for m in sk3:
        by_size3.setdefault(m.bit_count(), []).append(m)
    assert len(by_size3[2]) == 26
    assert by_size3[5] == [max(base.facets, key=lambda f: f.bit_count())]
    assert set(by_size3) == {2, 5}


@given(forest_specs(min_blocks=2))
@settings(max_examples=30)
def test_minimal_nonface_sizes_are_two_or_k_plus_two(spec):
    c = build_fat_forest(spec)
    n = max(spec.sizes)
    degree_two = None
    for k in range(1, n + 1):
        sizes_seen = {m.bit_count() for m in minimal_nonfaces(skeleton(c, k))}
        if k < n - 1:
            assert sizes_seen <= {2, k + 2}
        else:
            assert sizes_seen <= {2}
        pairs = {m for m in minimal_nonfaces(skeleton(c, k)) if m.bit_count() == 2}
        if degree_two is None:
            degree_two = pairs
        else:
            assert pairs == degree_two


@st.composite
def facet_lists(draw, max_vertices=9):
    """A vertex count up to max_vertices and facets over it; some labels may
    lie in no facet."""
    n = draw(st.integers(0, max_vertices))
    if n == 0:
        return 0, ()
    facets = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=8))
    return n, tuple(facets)


@given(facet_lists())
@settings(max_examples=200)
def test_minimal_nonfaces_match_the_definition(case):
    # brute force: every nonface whose maximal proper subsets are all faces
    n, facets = case
    c = SimplicialComplex(n, facets)
    faces = c.faces()
    expected = [
        s
        for s in sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
        if s not in faces and all(s ^ (1 << v) in faces for v in range(n) if s >> v & 1)
    ]
    assert minimal_nonfaces(c) == expected


@given(forest_specs(min_blocks=2), st.integers(1, 4))
@settings(max_examples=40)
def test_minimal_nonface_count_is_the_first_betti_column(spec, k):
    c = skeleton(build_fat_forest(spec), k)
    first_column = sum(
        v for (i, _), v in betti_closed(SkeletonQuery(spec.sizes, k)).nonzero() if i == 1
    )
    assert len(minimal_nonfaces(c)) == first_column


def test_minimal_nonfaces_memory_on_a_large_skeleton():
    # 6,006 facets and 9,516 minimal nonfaces: keeping every candidate in a
    # visited set would hold about 240k masks and peak near 18 MB
    c = skeleton(build_fat_forest(FatForestSpec((14, 14, 14))), 4)
    tracemalloc.start()
    try:
        nonfaces = minimal_nonfaces(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nonfaces) == 9516
    assert peak < 4_000_000


def test_isolated_vertex_is_a_nonface():
    c = SimplicialComplex(3, (mask(0, 1),))
    assert minimal_nonfaces(c) == [mask(2)]


def test_facet_file_roundtrip():
    text = "0 1 2\n# a comment\n2 3 4   # trailing\n\n5\n"
    c = parse_facet_lines(text)
    assert c.n_vertices == 6
    assert c.facets == (mask(5), mask(0, 1, 2), mask(2, 3, 4))
    again = parse_facet_lines(facet_lines(c))
    assert again == c


def test_facet_file_errors():
    with pytest.raises(ValueError):
        parse_facet_lines("0 x 2\n")
    with pytest.raises(ValueError):
        parse_facet_lines("0 0 1\n")
    with pytest.raises(ValueError):
        parse_facet_lines("0 99\n")


def test_canonicalization_drops_contained_facets():
    c = SimplicialComplex(4, (mask(0, 1), mask(0, 1, 2), mask(0, 1, 2), mask(3)))
    assert c.facets == (mask(3), mask(0, 1, 2))
    assert c.dim == 2
    assert c.is_face(mask(0, 2))
    assert not c.is_face(mask(0, 3))
