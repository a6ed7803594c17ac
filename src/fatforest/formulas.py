"""Closed forms for the skeletons of point-glued simplex unions: f-vectors,
Hilbert numerators, graded Betti tables (two independent routes) and ring
invariants.

Every formula is exact integer arithmetic; the signed sums are checked for
nonnegativity at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import comb

from .betti import BettiTable, RingInvariants
from .complexes import FatForestSpec
from .polynomials import (
    FVector,
    HilbertNumerator,
    IntPolynomial,
    binomial,
    expand_terms,
    face_count_terms,
    numerator_from_fvector,
)


@dataclass(frozen=True)
class SkeletonQuery:
    """A fat-forest spec and skeleton parameter k. A bare sizes sequence stands
    for FatForestSpec(sizes); the closed forms never read the gluing."""

    spec: FatForestSpec
    k: int

    def __post_init__(self):
        if not isinstance(self.spec, FatForestSpec):
            object.__setattr__(self, "spec", FatForestSpec(self.spec))
        if self.k < 0:
            raise ValueError("skeleton parameter must be nonnegative")

    @property
    def block_count(self) -> int:
        return len(self.spec.sizes)

    @property
    def n_vars(self) -> int:
        return self.spec.n_vars

    @property
    def max_block(self) -> int:
        return max(self.spec.sizes)

    @property
    def top_dim(self) -> int:
        """Dimension of the k-skeleton: min(k, dimension of the whole complex)."""
        return min(self.k, self.spec.dim)

    def block_faces(self, j: int) -> int:
        """Number of j-vertex faces lying inside a single block."""
        return sum(binomial(s, j) for s in self.spec.sizes)


def skeleton_f_vector(q: SkeletonQuery) -> FVector:
    """(1, N, c_2, ..., c_{s+1}) where c_j counts the j-vertex faces inside
    blocks and s is the skeleton dimension."""
    entries = [1, q.n_vars]
    for j in range(2, q.top_dim + 2):
        entries.append(q.block_faces(j))
    return FVector(tuple(entries))


def glued_blocks_terms(q: SkeletonQuery) -> tuple[tuple[int, int, int], ...]:
    """The glued-blocks numerator sum_s (1-t)^{N-n_s} - (e-1)(1-t)^{N-1} as
    terms (c, a, m), each meaning c t^a (1-t)^m; q.k is unused."""
    n_vars = q.n_vars
    return tuple((1, 0, n_vars - s) for s in q.spec.sizes) + ((1 - q.block_count, 0, n_vars - 1),)


def skeleton_terms(q: SkeletonQuery) -> tuple[tuple[int, int, int], ...]:
    """The face-count terms of skeleton_f_vector(q)."""
    return face_count_terms(skeleton_f_vector(q), q.n_vars)


def fatforest_numerator(q: SkeletonQuery) -> HilbertNumerator:
    """Numerator of sum_s 1/(1-t)^{n_s} - (e-1)/(1-t) over (1-t)^N; q.k is unused."""
    return expand_terms(q.n_vars, glued_blocks_terms(q))


def skeleton_numerator(q: SkeletonQuery) -> HilbertNumerator:
    """The face-count numerator of skeleton_f_vector(q):
    (1-t)^N + N t (1-t)^{N-1} + sum_{i=2}^{s+1} c_i t^i (1-t)^{N-i}."""
    return numerator_from_fvector(skeleton_f_vector(q), q.n_vars)


def linear_strand(q: SkeletonQuery) -> tuple[int, ...]:
    """Diagonal j - i = 1, entries at i = 1..N-2:
    entry i is (e-1) C(N-1, i+1) - sum_s C(N-n_s, i+1).

    Empty for a single block, which has no degree-2 generators. Otherwise the
    last entry is e - 1: only the C(N-1, N-1) term survives. q.k is unused.
    """
    if q.block_count == 1:
        return ()
    n_vars = q.n_vars
    values = []
    for i in range(1, n_vars - 1):
        v = (q.block_count - 1) * binomial(n_vars - 1, i + 1) - sum(
            binomial(n_vars - s, i + 1) for s in q.spec.sizes
        )
        if v < 0:
            raise ValueError(f"linear strand produced a negative value at position {i}")
        values.append(v)
    return tuple(values)


def upper_strand(q: SkeletonQuery) -> tuple[int, ...]:
    """Diagonal j - i = k + 1 of the k-skeleton, entries at i = 1..N-k-1:
    entry i is sum_{j=k+2}^{n} c_j (-1)^{k-j} C(N-j, k+i+1-j).

    Empty when k >= n - 1 (the resolution is then 2-linear). Otherwise the
    last entry, beta_{N-k-1,N}, is the k-th reduced homology of the k-skeleton
    of a contractible complex with (k+1)-faces, so it is nonzero. Valid for a
    single block as well, where it carries the whole resolution.
    """
    if q.k < 1:
        raise ValueError("the strand split assumes skeleton parameter k >= 1")
    n = q.max_block
    if q.k >= q.spec.dim:
        return ()
    n_vars = q.n_vars
    # (j, (-1)^{k-j} c_j) for j = k+2..n, computed once; entry i sums the
    # first i of them, the j <= k+i+1 whose binomial is nonzero.
    signed = [(j, (-1) ** (j - q.k) * q.block_faces(j)) for j in range(q.k + 2, n + 1)]
    values = []
    for i in range(1, n_vars - q.k):
        top = q.k + i + 1
        v = sum(c * comb(n_vars - j, top - j) for j, c in signed[:i])
        if v < 0:
            raise ValueError(f"upper strand produced a negative value at position {i}")
        values.append(v)
    return tuple(values)


def closed_forms_apply(q: SkeletonQuery) -> bool:
    """Whether the closed Betti forms hold for q: at least two blocks and k >= 1."""
    return q.block_count >= 2 and q.k >= 1


def _require_closed_form(q: SkeletonQuery) -> None:
    if not closed_forms_apply(q):
        raise ValueError("closed-form Betti tables need two blocks and k >= 1; use the oracle")


def betti_closed(q: SkeletonQuery) -> BettiTable:
    """Betti table assembled from the two strand formulas: the (0,0) entry,
    the diagonal-1 strand, and (for k < n-1) the diagonal-(k+1) strand."""
    _require_closed_form(q)
    table = BettiTable(q.n_vars)
    table.add(0, 0, 1)
    for i, v in enumerate(linear_strand(q), start=1):
        table.add(i, i + 1, v)
    for i, v in enumerate(upper_strand(q), start=1):
        table.add(i, i + q.k + 1, v)
    return table


def betti_via_strand_subtraction(q: SkeletonQuery) -> BettiTable:
    """Independent route: read both strands off exact numerator polynomials.

    The diagonal-1 strand comes from the coefficients of the glued-blocks
    numerator (2-linear resolution: beta_{i,i+1} = (-1)^i coefficient(i+1));
    subtracting that numerator from the skeleton numerator leaves a polynomial
    supported in degrees >= k+2 whose signed coefficients are the upper strand.
    """
    _require_closed_form(q)
    base = fatforest_numerator(q)
    skel = skeleton_numerator(q)
    table = BettiTable(q.n_vars)
    table.add(0, 0, 1)
    if base.coefficient(1) != 0:
        raise ValueError("unexpected linear term in the glued-blocks numerator")
    for i in range(1, base.poly.degree):
        v = (-1) ** i * base.coefficient(i + 1)
        if v < 0:
            raise ValueError(f"negative diagonal-1 entry at position {i}")
        table.add(i, i + 1, v)
    diff = IntPolynomial(
        tuple(a - b for a, b in zip_longest(skel.poly.coeffs, base.poly.coeffs, fillvalue=0))
    )
    for s in range(min(q.k + 2, diff.degree + 1)):
        if diff.coefficient(s) != 0:
            raise ValueError(f"strand subtraction left a degree-{s} term below the upper strand")
    for s in range(q.k + 2, diff.degree + 1):
        i = s - q.k - 1
        v = (-1) ** i * diff.coefficient(s)
        if v < 0:
            raise ValueError(f"negative diagonal-{q.k + 1} entry at position {i}")
        table.add(i, s, v)
    return table


def invariants_closed(q: SkeletonQuery) -> RingInvariants:
    """pd = N-2, reg = k+1 below the top dimension (else 1), depth = 2,
    Krull dimension = skeleton dimension + 1, Cohen-Macaulay iff k <= 1 or
    every block is an edge."""
    _require_closed_form(q)
    reg = q.k + 1 if q.k < q.spec.dim else 1
    return RingInvariants(
        pd=q.n_vars - 2,
        reg=reg,
        depth=2,
        krull_dim=q.top_dim + 1,
        is_cm=q.k <= 1 or q.max_block == 2,
    )
