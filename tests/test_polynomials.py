"""Exact-kernel tests; polynomial expansions are cross-checked against sympy."""

import sympy
from hypothesis import given
from hypothesis import strategies as st

import pytest

from fatforest.polynomials import (
    FVector,
    IntPolynomial,
    binomial,
    numerator_from_fvector,
)

T = sympy.Symbol("t")


def pascal_table(limit):
    """Independent oracle: Pascal's recurrence, no math.comb involved."""
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


def sympy_coeffs(expr):
    poly = sympy.Poly(sympy.expand(expr), T)
    coeffs = list(reversed(poly.all_coeffs()))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(int(c) for c in coeffs)


def test_binomial_identity_cases():
    assert binomial(7, 0) == 1
    assert binomial(5, -1) == 0
    assert binomial(-2, 0) == 0
    assert binomial(3, 5) == 0


def test_binomial_against_pascal_recurrence():
    rows = pascal_table(9)
    assert binomial(9, 2) == rows[9][2] == 36


def test_binomial_symmetry_and_pascal_exhaustive():
    rows = pascal_table(64)
    for n in range(65):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]
            assert binomial(n, k) == binomial(n, n - k)
            if 1 <= k <= n - 1:
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_poly_trims_and_evaluates():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial(()).degree == -1


def test_fvector_validation():
    assert FVector((1, 3, 2)).entries == (1, 3, 2)
    with pytest.raises(ValueError):
        FVector((2, 3))
    with pytest.raises(ValueError):
        FVector(())
    with pytest.raises(ValueError):
        FVector((1, -1))


def test_numerator_empty_complex():
    num = numerator_from_fvector(FVector((1,)), 0)
    assert num.n_vars == 0
    assert num.poly.coeffs == (1,)
    # the complex {empty face} on m vertices has numerator exactly (1-t)^m
    for m in range(13):
        assert numerator_from_fvector((1,), m).poly.coeffs == sympy_coeffs((1 - T) ** m)


def test_numerator_path_example():
    # (1-t)^3 + 3t(1-t)^2 + 2t^2(1-t) expanded independently
    expected = sympy_coeffs((1 - T) ** 3 + 3 * T * (1 - T) ** 2 + 2 * T**2 * (1 - T))
    num = numerator_from_fvector(FVector((1, 3, 2)), 3)
    assert num.poly.coeffs == expected == (1, 0, -1)


def test_numerator_ten_vertex_example():
    expr = (
        (1 - T) ** 10
        + 10 * T * (1 - T) ** 9
        + 19 * T**2 * (1 - T) ** 8
        + 15 * T**3 * (1 - T) ** 7
    )
    num = numerator_from_fvector(FVector((1, 10, 19, 15)), 10)
    assert num.poly.coeffs == sympy_coeffs(expr)
    assert num.coefficient(0) == 1
    assert num.coefficient(1) == 0
    assert num.coefficient(2) == -26


def test_numerator_rejects_bad_input():
    with pytest.raises(ValueError):
        numerator_from_fvector((2, 1), 4)
    with pytest.raises(ValueError):
        numerator_from_fvector(FVector((1, 3, 3, 1)), 2)  # faces bigger than N


@st.composite
def fvectors(draw):
    n_vars = draw(st.integers(0, 10))
    length = draw(st.integers(0, n_vars))
    entries = [1] + [draw(st.integers(0, 30)) for _ in range(length)]
    return FVector(tuple(entries)), n_vars


@given(fvectors())
def test_numerator_constant_term_is_one(fv_and_n):
    fv, n_vars = fv_and_n
    assert numerator_from_fvector(fv, n_vars).coefficient(0) == 1


@given(fvectors(), st.randoms())
def test_numerator_additive_over_disjoint_union(fv_and_n, rng):
    # splitting every face count f_i = a_i + b_i (i >= 0) models a disjoint
    # union; the empty face is shared, so one copy of (1-t)^N must come off
    fv, n_vars = fv_and_n
    a = [1]
    b = [1]
    for c in fv.entries[1:]:
        cut = rng.randint(0, c)
        a.append(cut)
        b.append(c - cut)
    whole = numerator_from_fvector(fv, n_vars)
    left = numerator_from_fvector(FVector(tuple(a)), n_vars)
    right = numerator_from_fvector(FVector(tuple(b)), n_vars)
    shared = sympy_coeffs((1 - T) ** n_vars)
    for s in range(n_vars + 1):
        assert left.coefficient(s) + right.coefficient(s) - whole.coefficient(s) == shared[s]
