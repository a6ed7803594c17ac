"""Exact integer kernel: binomial coefficients and Hilbert-series numerators.

Every numerator is a term list (c, a, m), each term meaning c t^a (1-t)^m, and
expand_terms is the one expansion of such a list into coefficients.

Everything is plain Python integers, so results are exact at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the summation convention: 0 outside 0 <= k <= n.

    Signed index-shifted sums can then run over open ranges without guards.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[s] is the t^s coefficient.

    Trailing zeros are trimmed on construction; the zero polynomial is ().
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, s: int) -> int:
        if 0 <= s < len(self.coeffs):
            return self.coeffs[s]
        return 0


@dataclass(frozen=True)
class FVector:
    """Face counts (f_-1, f_0, ..., f_d); entries[i] counts faces of i vertices.

    entries[0] counts the empty face and is always 1.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(c) for c in self.entries))
        if not self.entries:
            raise ValueError("face vector needs at least the empty-face entry")
        if self.entries[0] != 1:
            raise ValueError("face vector must count the empty face exactly once")
        if any(c < 0 for c in self.entries):
            raise ValueError("face counts must be nonnegative")


@dataclass(frozen=True)
class HilbertNumerator:
    """Numerator polynomial of a Hilbert series written over (1 - t)^n_vars."""

    n_vars: int
    poly: IntPolynomial

    def __post_init__(self):
        if self.n_vars < 0:
            raise ValueError("variable count must be nonnegative")
        if self.poly.coefficient(0) != 1:
            raise ValueError("numerator must have constant term 1")
        if self.poly.degree > self.n_vars:
            raise ValueError("numerator degree exceeds the variable count")

    def coefficient(self, s: int) -> int:
        return self.poly.coefficient(s)


def expand_terms(n_vars: int, terms) -> HilbertNumerator:
    """The numerator sum c t^a (1-t)^m over the terms (c, a, m): each term adds
    c (-1)^s C(m, s) to the t^(a+s) coefficient, for s = 0..m."""
    coeffs = [0] * (n_vars + 1)
    for c, a, m in terms:
        # b runs through c (-1)^s C(m, s); each division is exact
        b = c
        for s in range(m + 1):
            coeffs[a + s] += b
            b = -b * (m - s) // (s + 1)
    return HilbertNumerator(n_vars, IntPolynomial(tuple(coeffs)))


def face_count_terms(f: FVector | Sequence[int], n_vars: int) -> tuple[tuple[int, int, int], ...]:
    """The face-count numerator sum_i f_i t^i (1-t)^(n_vars-i) as terms
    (f_i, i, n_vars - i), where f_i counts the faces of i vertices."""
    entries = (f if isinstance(f, FVector) else FVector(f)).entries
    if n_vars < 0:
        raise ValueError("variable count must be nonnegative")
    if len(entries) > n_vars + 1:
        raise ValueError(f"faces of {n_vars + 1} vertices do not fit in {n_vars} variables")
    return tuple((c, i, n_vars - i) for i, c in enumerate(entries))


def numerator_from_fvector(f: FVector | Sequence[int], n_vars: int) -> HilbertNumerator:
    """Clear denominators in sum_i f_i t^(i+1) / (1-t)^(i+1) to the (1-t)^n_vars form.

    Returns the exact polynomial sum_i f_i t^(i+1) (1-t)^(n_vars-i-1), where the
    i = -1 term contributes (1-t)^n_vars.
    """
    return expand_terms(n_vars, face_count_terms(f, n_vars))
