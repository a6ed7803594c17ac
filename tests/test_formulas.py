"""Closed-form tests: published table rows, method equivalences, invariants."""

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from conftest import forest_specs
from fatforest.complexes import FatForestSpec, build_fat_forest, f_vector, skeleton
from fatforest.formulas import (
    SkeletonQuery,
    betti_closed,
    betti_via_strand_subtraction,
    fatforest_numerator,
    glued_blocks_terms,
    invariants_closed,
    linear_strand,
    skeleton_f_vector,
    skeleton_numerator,
    skeleton_terms,
    upper_strand,
)
from fatforest.homology import hochster_betti
from fatforest.polynomials import binomial, numerator_from_fvector

T = sympy.Symbol("t")


def sympy_coeffs(expr):
    poly = sympy.Poly(sympy.expand(expr), T)
    coeffs = list(reversed(poly.all_coeffs()))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(int(c) for c in coeffs)


def test_query_validation_and_derived_values():
    q = SkeletonQuery((3, 4, 5), 2)
    assert q.block_count == 3
    assert q.n_vars == 10
    assert q.max_block == 5
    assert q.top_dim == 2
    assert q.block_faces(2) == 3 + 6 + 10 == 19
    assert q.block_faces(6) == 0
    with pytest.raises(ValueError):
        SkeletonQuery((), 1)
    with pytest.raises(ValueError):
        SkeletonQuery((1, 2), 1)
    with pytest.raises(ValueError):
        SkeletonQuery((2, 2), -1)


@pytest.mark.parametrize("sizes", [(), (3, 1), (0, 4)])
def test_query_rejects_bad_sizes_as_the_spec_does(sizes):
    with pytest.raises(ValueError) as by_spec:
        FatForestSpec(sizes)
    with pytest.raises(ValueError) as by_query:
        SkeletonQuery(sizes, 1)
    assert str(by_query.value) == str(by_spec.value)


def test_skeleton_f_vector_examples():
    assert skeleton_f_vector(SkeletonQuery((3, 4, 5), 1)).entries == (1, 10, 19)
    # truncation stops at s = max block - 1 = 4; the last entries are
    # c_4 = C(4,4) + C(5,4) = 6 and c_5 = C(5,5) = 1 (enumeration agrees)
    assert skeleton_f_vector(SkeletonQuery((3, 4, 5), 7)).entries == (1, 10, 19, 15, 6, 1)
    assert skeleton_f_vector(SkeletonQuery((2, 2), 3)).entries == (1, 3, 2)
    assert skeleton_f_vector(SkeletonQuery((3, 4, 5), 0)).entries == (1, 10)


def test_fatforest_numerator_single_block():
    num = fatforest_numerator(SkeletonQuery((7,), 0))
    assert num.n_vars == 7
    assert num.poly.coeffs == (1,)


def test_fatforest_numerator_path_expansion():
    num = fatforest_numerator(SkeletonQuery((2, 2), 0))
    assert num.poly.coeffs == sympy_coeffs(2 * (1 - T) - (1 - T) ** 2) == (1, 0, -1)


def test_fatforest_numerator_345():
    num = fatforest_numerator(SkeletonQuery((3, 4, 5), 0))
    expected = sympy_coeffs(
        (1 - T) ** 7 + (1 - T) ** 6 + (1 - T) ** 5 - 2 * (1 - T) ** 9
    )
    assert num.poly.coeffs == expected
    assert num.coefficient(2) == -26


def test_skeleton_numerator_examples():
    whole = fatforest_numerator(SkeletonQuery((3, 4, 5), 0))
    assert skeleton_numerator(SkeletonQuery((3, 4, 5), 4)) == whole
    assert skeleton_numerator(SkeletonQuery((3, 4, 5), 8)) == whole
    assert skeleton_numerator(SkeletonQuery((2, 2), 1)).poly.coeffs == (1, 0, -1)
    num = skeleton_numerator(SkeletonQuery((3, 4, 5), 2))
    expected = sympy_coeffs(
        (1 - T) ** 10
        + 10 * T * (1 - T) ** 9
        + 19 * T**2 * (1 - T) ** 8
        + 15 * T**3 * (1 - T) ** 7
    )
    assert num.poly.coeffs == expected
    assert num.coefficient(1) == 0 and num.coefficient(2) == -26


@given(forest_specs(max_blocks=4, max_block=6, max_vertices=20), st.integers(0, 7))
def test_skeleton_numerator_equals_fvector_route(spec, k):
    q = SkeletonQuery(spec.sizes, k)
    assert skeleton_numerator(q) == numerator_from_fvector(skeleton_f_vector(q), q.n_vars)


@given(forest_specs(max_blocks=4, max_block=5, max_vertices=16))
def test_numerators_coincide_at_full_skeleton(spec):
    n = max(spec.sizes)
    for k in (n - 1, n, n + 3):
        q = SkeletonQuery(spec.sizes, k)
        assert skeleton_numerator(q) == fatforest_numerator(q)


@given(forest_specs(max_blocks=4, max_block=6, max_vertices=20), st.integers(0, 7))
def test_term_lists_expand_to_the_numerators(spec, k):
    # sympy's Poly arithmetic: expand() on these powers costs about 30 times more
    q = SkeletonQuery(spec.sizes, k)
    t, one_minus_t = sympy.Poly(T, T), sympy.Poly(1 - T, T)
    for terms, num in (
        (glued_blocks_terms(q), fatforest_numerator(q)),
        (skeleton_terms(q), skeleton_numerator(q)),
    ):
        poly = sum((c * t**a * one_minus_t**m for c, a, m in terms), sympy.Poly(0, T))
        assert tuple(int(c) for c in reversed(poly.all_coeffs())) == num.poly.coeffs


def test_linear_strand_published_row():
    assert linear_strand(SkeletonQuery((3, 4, 5), 0)) == (26, 103, 197, 224, 160, 71, 18, 2)


def test_linear_strand_small_cases():
    assert linear_strand(SkeletonQuery((2, 2), 0)) == (1,)
    # the final entry is always e - 1: only the C(N-1, N-1) term survives
    for n in (3, 4):
        strand = linear_strand(SkeletonQuery((n, n), 0))
        assert strand[-1] == 1
        assert len(strand) == 2 * n - 3


def test_linear_strand_single_block_degenerates():
    assert linear_strand(SkeletonQuery((6,), 0)) == ()


def test_upper_strand_published_rows():
    assert upper_strand(SkeletonQuery((3, 4, 5), 2)) == (6, 35, 85, 110, 80, 31, 5)
    assert upper_strand(SkeletonQuery((3, 4, 5), 3)) == (1, 5, 10, 10, 5, 1)
    assert upper_strand(SkeletonQuery((3, 4, 5), 1)) == (
        15, 99, 280, 440, 415, 235, 74, 10,
    )


def test_upper_strand_empty_at_top_dimension():
    assert upper_strand(SkeletonQuery((3, 4, 5), 4)) == ()
    assert upper_strand(SkeletonQuery((3, 4, 5), 9)) == ()
    with pytest.raises(ValueError):
        upper_strand(SkeletonQuery((3, 4, 5), 0))


def test_upper_strand_single_block_against_oracle():
    # skeletons of one simplex: the formula is not covered by the two-block
    # corollaries, so check it straight against the homology oracle
    for n, k in ((4, 1), (4, 2), (5, 2), (5, 3)):
        q = SkeletonQuery((n,), k)
        c = skeleton(build_fat_forest(FatForestSpec((n,))), k)
        oracle = hochster_betti(c)
        assert upper_strand(q) == oracle.diagonal(k + 1)
        # and that is the whole resolution besides beta_{0,0}
        assert oracle.diagonals() == [0, k + 1]


@given(forest_specs(max_blocks=4, max_block=8, max_vertices=20), st.integers(1, 8))
def test_strands_end_in_their_last_nonzero_entry(spec, k):
    # the tables are read off these tuples as they are, so no strand may end
    # in a zero: the linear one ends in e - 1, the upper one in the k-th
    # reduced homology of the skeleton of a contractible complex
    q = SkeletonQuery(spec.sizes, k)
    linear = linear_strand(q)
    if q.block_count > 1:
        assert len(linear) == q.n_vars - 2 and linear[-1] == q.block_count - 1
    upper = upper_strand(q)
    if k < q.max_block - 1:
        assert len(upper) == q.n_vars - k - 1 and upper[-1] > 0
    else:
        assert upper == ()


def test_betti_closed_345_k2_table():
    table = betti_closed(SkeletonQuery((3, 4, 5), 2))
    assert table.column_totals() == (1, 32, 138, 282, 334, 240, 102, 23, 2)
    assert table.diagonal(1) == (26, 103, 197, 224, 160, 71, 18, 2)
    assert table.diagonal(3) == (6, 35, 85, 110, 80, 31, 5)
    assert table.diagonals() == [0, 1, 3]


def test_betti_closed_345_k3_table():
    table = betti_closed(SkeletonQuery((3, 4, 5), 3))
    assert table.column_totals() == (1, 27, 108, 207, 234, 165, 72, 18, 2)
    assert table.diagonal(4) == (1, 5, 10, 10, 5, 1)


def test_betti_closed_rejects_degenerate_queries():
    with pytest.raises(ValueError):
        betti_closed(SkeletonQuery((4,), 2))
    with pytest.raises(ValueError):
        betti_closed(SkeletonQuery((3, 3), 0))
    with pytest.raises(ValueError):
        invariants_closed(SkeletonQuery((4,), 2))
    with pytest.raises(ValueError):
        betti_via_strand_subtraction(SkeletonQuery((4,), 2))


def test_strand_subtraction_koszul():
    table = betti_via_strand_subtraction(SkeletonQuery((2, 2), 1))
    assert table.nonzero() == [((0, 0), 1), ((1, 2), 1)]


@given(forest_specs(min_blocks=2, max_blocks=4, max_block=6, max_vertices=18), st.integers(1, 7))
def test_strand_subtraction_equals_formula(spec, k):
    # the gluing never reaches the closed forms: the spec and its bare sizes agree
    results = []
    for q in (SkeletonQuery(spec, k), SkeletonQuery(spec.sizes, k)):
        assert betti_via_strand_subtraction(q) == betti_closed(q)
        results.append(
            (betti_closed(q), fatforest_numerator(q), skeleton_numerator(q), invariants_closed(q))
        )
    assert results[0] == results[1]


@given(forest_specs(min_blocks=2, max_blocks=4, max_block=6, max_vertices=18), st.integers(1, 7))
def test_closed_table_lives_on_three_diagonals(spec, k):
    q = SkeletonQuery(spec.sizes, k)
    table = betti_closed(q)
    allowed = {0, 1} if k >= q.max_block - 1 else {0, 1, k + 1}
    assert set(table.diagonals()) <= allowed


@given(forest_specs(min_blocks=2, max_blocks=4, max_block=6, max_vertices=18), st.integers(1, 7))
def test_alternating_sums_recover_numerator(spec, k):
    q = SkeletonQuery(spec.sizes, k)
    table = betti_closed(q)
    num = skeleton_numerator(q)
    for j in range(q.n_vars + 1):
        assert table.alternating_sum(j) == num.coefficient(j)


def test_upper_strand_vanishes_past_cutoff():
    # values at positions beyond N - k - 1 are zero termwise
    q = SkeletonQuery((3, 4, 5), 2)
    n_vars, k, n = q.n_vars, q.k, q.max_block
    i = n_vars - k
    assert all(
        binomial(n_vars - j, k + i + 1 - j) == 0 for j in range(k + 2, n + 1)
    )
    assert len(upper_strand(q)) <= n_vars - k - 1


def test_invariants_closed_examples():
    inv1 = invariants_closed(SkeletonQuery((3, 4, 5), 1))
    assert (inv1.pd, inv1.reg, inv1.depth, inv1.is_cm) == (8, 2, 2, True)
    inv2 = invariants_closed(SkeletonQuery((3, 4, 5), 2))
    assert (inv2.pd, inv2.reg, inv2.depth, inv2.is_cm) == (8, 3, 2, False)
    inv5 = invariants_closed(SkeletonQuery((2, 2, 2), 5))
    assert inv5.reg == 1 and inv5.is_cm
    assert inv5.krull_dim == 2


def test_invariants_closed_matches_oracle_on_345():
    from fatforest.betti import invariants_from_table

    base = build_fat_forest(FatForestSpec((3, 4, 5)))
    for k in (1, 2, 3):
        ck = skeleton(base, k)
        oracle = invariants_from_table(hochster_betti(ck), 10, ck.dim)
        assert invariants_closed(SkeletonQuery((3, 4, 5), k)) == oracle


def test_invariants_closed_matches_oracle_on_small_corpus():
    from itertools import combinations_with_replacement

    from fatforest.betti import invariants_from_table

    for e in (2, 3):
        for sizes in combinations_with_replacement((2, 3, 4), e):
            base = build_fat_forest(FatForestSpec(sizes))
            for k in range(1, max(sizes) + 1):
                ck = skeleton(base, k)
                oracle = invariants_from_table(hochster_betti(ck), ck.n_vertices, ck.dim)
                assert invariants_closed(SkeletonQuery(sizes, k)) == oracle, (sizes, k)
