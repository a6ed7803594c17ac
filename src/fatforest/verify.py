"""Cross-route verification: compute the Betti table of one skeleton by every
applicable route, compare the tables pairwise, and compare the ring invariants
each route implies.

The closed forms run where formulas.closed_forms_apply allows, the homology
oracle once per requested field; fewer than two routes is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .betti import BettiTable, RingInvariants, invariants_from_table
from .complexes import FatForestSpec, build_fat_forest, skeleton
from .formulas import SkeletonQuery, closed_forms_apply
from .formulas import betti_closed, betti_via_strand_subtraction, invariants_closed
from .homology import DEFAULT_GUARD, FieldSpec, OracleGuardError, hochster_betti


@dataclass(frozen=True)
class TableCheck:
    first: str
    second: str
    equal: bool
    mismatches: tuple[tuple[int, int, int, int], ...]  # (i, j, first value, second value)


@dataclass(frozen=True)
class VerificationReport:
    """Betti tables from every applicable method plus pairwise agreement."""

    query: SkeletonQuery
    tables: tuple[tuple[str, BettiTable], ...]
    table_checks: tuple[TableCheck, ...]
    invariants: tuple[tuple[str, RingInvariants], ...]
    invariant_checks: tuple[tuple[str, str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(c.equal for c in self.table_checks) and all(
            ok for _, _, ok in self.invariant_checks
        )


def compare_tables(name_a: str, a: BettiTable, name_b: str, b: BettiTable) -> TableCheck:
    keys = sorted(set(k for k, _ in a.nonzero()) | set(k for k, _ in b.nonzero()))
    mismatches = tuple(
        (i, j, a[(i, j)], b[(i, j)]) for (i, j) in keys if a[(i, j)] != b[(i, j)]
    )
    return TableCheck(name_a, name_b, not mismatches, mismatches)


def check_oracle_guard(spec: FatForestSpec, guard: int) -> None:
    """Raise OracleGuardError when the spec's vertex count exceeds the guard.

    The count comes from the sizes alone, so an oversized request is rejected
    before the complex and its skeleton (quadratic in the facet count) are built.
    """
    if spec.n_vars > guard:
        raise OracleGuardError(spec.n_vars, guard)


def verify_routes(
    spec: FatForestSpec, k: int, fields: Sequence[FieldSpec], guard: int = DEFAULT_GUARD
) -> VerificationReport:
    """Run every applicable Betti route on the k-skeleton of spec and compare
    all results pairwise: tables entry by entry, invariants as a whole."""
    q = SkeletonQuery(spec, k)
    if not closed_forms_apply(q) and len(fields) < 2:
        raise ValueError(f"closed forms do not apply to {spec.sizes} at k={k}; verify needs two fields")
    if fields:  # the complex is built only for the oracle, and held to its guard first
        check_oracle_guard(spec, guard)
        complex_k = skeleton(build_fat_forest(spec), k)
    tables: list[tuple[str, BettiTable]] = []
    invariants: list[tuple[str, RingInvariants]] = []
    if closed_forms_apply(q):
        tables.append(("formula", betti_closed(q)))
        tables.append(("strands", betti_via_strand_subtraction(q)))
        invariants.append(("closed", invariants_closed(q)))
    for field in fields:
        name = f"hochster-{field.label}"
        table = hochster_betti(complex_k, field, guard)
        tables.append((name, table))
        invariants.append((name, invariants_from_table(table, complex_k.n_vertices, complex_k.dim)))
    return VerificationReport(
        query=q,
        tables=tuple(tables),
        table_checks=tuple(
            compare_tables(na, ta, nb, tb) for (na, ta), (nb, tb) in combinations(tables, 2)
        ),
        invariants=tuple(invariants),
        invariant_checks=tuple(
            (na, nb, ia == ib) for (na, ia), (nb, ib) in combinations(invariants, 2)
        ),
    )
