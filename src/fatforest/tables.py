"""Renderers: the classic row-per-diagonal Betti table layout, JSON documents
with decimal-string values, and CSV for spreadsheet import.

JSON documents keep a fixed key order and render every computed integer as a
decimal string so no consumer can lose precision on large Betti numbers.
`render` is the CLI's one output path: every subcommand hands it a payload
and the requested format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .betti import BettiTable, RingInvariants
from .identities import IdentityReport
from .polynomials import FVector, HilbertNumerator
from .verify import VerificationReport


def _layout(rows: list[list[str]]) -> str:
    widths = [0] * max(len(r) for r in rows)
    for row in rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    lines = []
    for row in rows:
        lines.append(" ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _diagonal_rows(table: BettiTable, corner: str, total: str, suffix: str, zero: str):
    """Header of homological positions, a total row, then one row per diagonal
    d holding the entries (c, c + d)."""
    pd = table.proj_dim
    top_diag = max([j - i for (i, j), _ in table.nonzero()], default=0)
    rows = [[corner] + [str(c) for c in range(pd + 1)]]
    rows.append([total] + [str(v) for v in table.column_totals()])
    for d in range(top_diag + 1):
        cells = (table[(c, c + d)] for c in range(pd + 1))
        rows.append([f"{d}{suffix}"] + [str(v) if v else zero for v in cells])
    return rows


def render_paper_table(table: BettiTable) -> str:
    """Header of homological positions, a total row, then one row per diagonal
    labeled "0:", "1:", ...; zeros render as "."."""
    return _layout(_diagonal_rows(table, "", "total:", ":", "."))


def render_csv_table(table: BettiTable) -> str:
    """CSV mirror of the diagonal layout (zeros as 0) for spreadsheet import."""
    rows = _diagonal_rows(table, "diagonal", "total", "", "0")
    return "".join(",".join(row) + "\n" for row in rows)


def betti_doc(table: BettiTable) -> list[dict]:
    return [
        {"i": i, "j": j, "value": str(v)} for (i, j), v in table.nonzero()
    ]


def fvector_doc(fv: FVector) -> list[str]:
    return [str(c) for c in fv.entries]


def numerator_doc(num: HilbertNumerator) -> list[str]:
    return [str(c) for c in num.poly.coeffs] or ["0"]


def invariants_doc(inv: RingInvariants) -> dict:
    return {
        "pd": str(inv.pd),
        "reg": str(inv.reg),
        "depth": str(inv.depth),
        "krull_dim": str(inv.krull_dim),
        "is_cm": inv.is_cm,
    }


def structured_document(
    *,
    sizes,
    k,
    n_vars,
    method,
    field=None,
    betti=None,
    fvector=None,
    numerator=None,
    invariants=None,
    agreement=None,
) -> dict:
    """The one-document-per-invocation schema; key order is part of the contract."""
    return {
        "sizes": list(sizes) if sizes is not None else None,
        "k": k,
        "N": n_vars,
        "method": method,
        "field": field,
        "betti": betti_doc(betti) if betti is not None else None,
        "fvector": fvector_doc(fvector) if fvector is not None else None,
        "numerator": numerator_doc(numerator) if numerator is not None else None,
        "invariants": invariants_doc(invariants) if invariants is not None else None,
        "agreement": agreement,
    }


def to_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class Document:
    """What one computation produced, typed: the fields of structured_document,
    with agreement holding the verification report when routes were compared."""

    sizes: tuple[int, ...] | None
    k: int | None
    n_vars: int
    method: str
    field: str | None = None
    betti: BettiTable | None = None
    fvector: FVector | None = None
    numerator: HilbertNumerator | None = None
    invariants: RingInvariants | None = None
    agreement: VerificationReport | None = None


def tuple_text(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _verification_doc(report: VerificationReport) -> dict:
    checks = [
        {
            "first": c.first,
            "second": c.second,
            "equal": c.equal,
            "mismatches": [
                {"i": i, "j": j, "first": str(a), "second": str(b)}
                for (i, j, a, b) in c.mismatches
            ],
        }
        for c in report.table_checks
    ]
    inv_checks = [
        {"first": a, "second": b, "equal": ok} for a, b, ok in report.invariant_checks
    ]
    return {
        "tables": {name: betti_doc(table) for name, table in report.tables},
        "checks": checks,
        "invariants": {name: invariants_doc(inv) for name, inv in report.invariants},
        "invariant_checks": inv_checks,
        "verdict": "pass" if report.passed else "fail",
    }


def _verification_text(report: VerificationReport) -> str:
    lines = [
        f"verify sizes={tuple_text(report.sizes)} k={report.k} N={report.n_vars}",
        "methods: " + ", ".join(name for name, _ in report.tables),
    ]
    for c in report.table_checks:
        lines.append(f"  {c.first} == {c.second}: {'yes' if c.equal else 'NO'}")
        for (i, j, a, b) in c.mismatches:
            lines.append(f"    beta[{i},{j}]: {a} vs {b}")
    for a, b, ok in report.invariant_checks:
        lines.append(f"  invariants {a} == {b}: {'yes' if ok else 'NO'}")
    lines.append(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _identities_doc(report: IdentityReport) -> dict:
    return {
        "sizes": list(report.sizes),
        "N": report.n_vars,
        "degrees": [
            {
                "degree": rec.degree,
                "left": str(rec.left_value),
                "right": str(rec.right_value),
                "equal": rec.equal,
                "equation": rec.equation,
            }
            for rec in report.degrees
        ],
        "all_equal": report.all_equal,
        "notes": list(report.notes),
    }


def _identities_text(report: IdentityReport) -> str:
    lines = [f"binomial identities for sizes={tuple_text(report.sizes)}, N={report.n_vars}"]
    for rec in report.degrees:
        status = "ok" if rec.equal else "MISMATCH"
        lines.append(
            f"  degree {rec.degree}: {rec.equation}   [{rec.left_value} = {rec.right_value}] {status}"
        )
    lines.append("all degrees agree" if report.all_equal else "IDENTITY FAILURE")
    lines.extend(f"note: {note}" for note in report.notes)
    return "\n".join(lines) + "\n"


def _text(doc: Document, csv: bool) -> str:
    if doc.agreement is not None:
        return _verification_text(doc.agreement)
    if doc.betti is not None:
        return render_csv_table(doc.betti) if csv else render_paper_table(doc.betti)
    if doc.fvector is not None:
        entries = doc.fvector.entries
        return (",".join(str(c) for c in entries) if csv else tuple_text(entries)) + "\n"
    if doc.numerator is not None:
        coeffs = doc.numerator.poly.coeffs
        if csv:
            return ",".join(str(c) for c in coeffs) + "\n"
        return f"N: {doc.n_vars}\nnumerator: {tuple_text(coeffs)}\n"
    inv = doc.invariants
    return (
        f"pd={inv.pd} reg={inv.reg} depth={inv.depth} "
        f"krull_dim={inv.krull_dim} cohen_macaulay={'yes' if inv.is_cm else 'no'}\n"
    )


def render(payload: Document | IdentityReport | str, fmt: str) -> str:
    """Render a CLI payload as paper-table text, tabular CSV or the structured
    JSON document. Payloads without a CSV form (invariants, verification,
    identities) render as text under tabular; a prepared text renders as itself."""
    if isinstance(payload, str):
        return payload
    if isinstance(payload, IdentityReport):
        if fmt == "structured":
            return to_json(_identities_doc(payload))
        return _identities_text(payload)
    if fmt == "structured":
        agreement = None if payload.agreement is None else _verification_doc(payload.agreement)
        return to_json(structured_document(**{**vars(payload), "agreement": agreement}))
    return _text(payload, csv=fmt == "tabular")
