"""Binomial-coefficient identities obtained by equating, degree by degree, the
two exact numerator computations for a union of simplices glued at points.

The identities are generated, not transcribed: each side expands, degree by
degree, the term list its numerator polynomial is built from (the glued-blocks
terms on the left, the face-count terms on the right), so the construction
works for any number of blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .complexes import FatForestSpec
from .formulas import (
    SkeletonQuery,
    fatforest_numerator,
    glued_blocks_terms,
    skeleton_numerator,
    skeleton_terms,
)
from .polynomials import binomial

_SINGLE_BLOCK_NOTE = (
    "single block of size n: each positive degree d reduces to "
    "sum_j C(n,j) (-1)^(d-j) C(n-j, d-j) = 0; dropping the C(n,j) factor "
    "breaks the identity already at n=2, degree 1"
)


@dataclass(frozen=True)
class BinomialTerm:
    """A signed multiple of one binomial coefficient: coefficient * C(upper, lower)."""

    coefficient: int
    upper: int
    lower: int

    @property
    def value(self) -> int:
        return self.coefficient * binomial(self.upper, self.lower)

    def rendered(self) -> str:
        """Magnitude part only; the sign is handled by the term separator."""
        mag = abs(self.coefficient)
        if self.lower == 0:
            return str(mag)
        if mag == 1:
            return f"C({self.upper},{self.lower})"
        return f"{mag}*C({self.upper},{self.lower})"


@dataclass(frozen=True)
class DegreeIdentity:
    degree: int
    left_terms: tuple[BinomialTerm, ...]
    right_terms: tuple[BinomialTerm, ...]
    left_value: int
    right_value: int
    equal: bool
    equation: str


@dataclass(frozen=True)
class IdentityReport:
    sizes: tuple[int, ...]
    n_vars: int
    degrees: tuple[DegreeIdentity, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_equal(self) -> bool:
        return all(rec.equal for rec in self.degrees)


def _render_side(terms: tuple[BinomialTerm, ...]) -> str:
    if not terms:
        return "0"
    parts = []
    for idx, term in enumerate(terms):
        if idx == 0:
            parts.append(("-" if term.coefficient < 0 else "") + term.rendered())
        else:
            parts.append(("- " if term.coefficient < 0 else "+ ") + term.rendered())
    return " ".join(parts)


def _degree_terms(terms, d: int) -> tuple[BinomialTerm, ...]:
    """The t^d coefficient of each c t^a (1-t)^m with a <= d, as the binomial
    term c (-1)^(d-a) C(m, d-a)."""
    return tuple(
        BinomialTerm(c if (d - a) % 2 == 0 else -c, m, d - a) for c, a, m in terms if c and a <= d
    )


def identity_report(sizes) -> IdentityReport:
    """Compare the two numerator computations coefficient by coefficient,
    recording each side as an explicit signed binomial sum."""
    spec = FatForestSpec(sizes)
    q = SkeletonQuery(spec, spec.dim)
    left, right = fatforest_numerator(q), skeleton_numerator(q)
    left_src, right_src = glued_blocks_terms(q), skeleton_terms(q)
    records = []
    for d in range(q.n_vars + 1):
        lt, rt = _degree_terms(left_src, d), _degree_terms(right_src, d)
        lv = sum(t.value for t in lt)
        rv = sum(t.value for t in rt)
        if lv != left.coefficient(d) or rv != right.coefficient(d):
            raise RuntimeError(f"term expansion disagrees with the polynomial at degree {d}")
        records.append(
            DegreeIdentity(
                degree=d,
                left_terms=lt,
                right_terms=rt,
                left_value=lv,
                right_value=rv,
                equal=lv == rv,
                equation=f"{_render_side(lt)} = {_render_side(rt)}",
            )
        )
    notes = (_SINGLE_BLOCK_NOTE,) if q.block_count == 1 else ()
    return IdentityReport(sizes=spec.sizes, n_vars=q.n_vars, degrees=tuple(records), notes=notes)


_TERM_RE = re.compile(r"^(?:(\d+)\*)?C\((\d+),(\d+)\)$|^(\d+)$")


def _parse_side(text: str) -> int:
    text = text.strip()
    if text == "0":
        return 0
    normalized = text.replace(" - ", " + -")
    total = 0
    for token in normalized.split(" + "):
        token = token.strip()
        sign = 1
        if token.startswith("-"):
            sign = -1
            token = token[1:].strip()
        m = _TERM_RE.match(token)
        if not m:
            raise ValueError(f"cannot parse term {token!r}")
        if m.group(4) is not None:
            total += sign * int(m.group(4))
        else:
            mag = int(m.group(1)) if m.group(1) else 1
            total += sign * mag * binomial(int(m.group(2)), int(m.group(3)))
    return total


def parse_equation(equation: str) -> tuple[int, int]:
    """Re-evaluate a rendered equation; returns (left total, right total)."""
    if equation.count(" = ") != 1:
        raise ValueError("equation must contain exactly one ' = '")
    left, right = equation.split(" = ")
    return _parse_side(left), _parse_side(right)
