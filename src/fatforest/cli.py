"""Command-line surface: build complexes, print Betti tables in the classic
row-per-diagonal layout, run multi-method verification, and check the
binomial-identity families.

Exit codes: 0 success, 1 verification disagreement or failed identity,
2 usage error, 3 invalid input, 4 oracle guard violation.
"""

from __future__ import annotations

import argparse
import sys

from .betti import BettiTable, invariants_from_table
from .complexes import (
    FatForestSpec,
    SimplicialComplex,
    build_fat_forest,
    f_vector,
    parse_facet_lines,
    skeleton,
)
from .formulas import (
    SkeletonQuery,
    betti_closed,
    betti_via_strand_subtraction,
    invariants_closed,
    skeleton_f_vector,
    skeleton_numerator,
)
from .homology import DEFAULT_GUARD, FieldSpec, OracleGuardError, hochster_betti
from .identities import IdentityReport, identity_report
from .polynomials import numerator_from_fvector
from .tables import Document, render, render_paper_table, tuple_text
from .verify import check_oracle_guard, verify_routes

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_GUARD = 4

# Verified diagonal-2 row of the k=1 table for blocks (3,4,5), and the row an
# earlier tabulation gives instead; all three methods here reject the latter.
VERIFIED_345_K1_DIAG2 = (15, 99, 280, 440, 415, 235, 74, 10)
TABULATED_345_K1_DIAG2 = (14, 92, 259, 405, 380, 214, 67, 9)
_PAPER_NOTE_345_K1 = f"""\
note: the diagonal-2 row above is {tuple_text(VERIFIED_345_K1_DIAG2)};
the closed formula and the Hilbert-series strand subtraction agree on it
exactly, and the bundled test suite confirms it against the homology
oracle over GF(2) and GF(3). An earlier tabulation of this row reads
{tuple_text(TABULATED_345_K1_DIAG2)}, which is inconsistent with the skeleton's
own Hilbert series; the values above are the verified ones."""


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad --sizes value {text!r}; expected comma-separated integers") from None


def _parse_gluing(text: str):
    """A preset name as given (FatForestSpec checks it), or i:v pairs."""
    if ":" not in text:
        return text
    pairs = []
    for chunk in text.split(","):
        i, _, v = chunk.partition(":")
        try:
            pairs.append((int(i), int(v)))
        except ValueError:
            raise ValueError(f"bad --gluing pair {chunk!r}") from None
    return tuple(pairs)


def _prepare(args) -> None:
    """Validate the parsed flags once, in place: --field becomes args.fields,
    a --sizes request becomes the one FatForestSpec args.spec that every
    handler reads, and a -k left out means the whole complex."""
    if hasattr(args, "guard"):
        if args.guard < 0:
            raise ValueError(f"oracle guard {args.guard} is negative; --guard takes a vertex count >= 0")
        if args.command != "verify" and len(args.field or ()) > 1:
            raise ValueError("--field may be given more than once only with verify")
        default = ["gf2", "gf3"] if args.command == "verify" else ["gf2"]
        args.fields = tuple(FieldSpec.parse(f) for f in args.field or default)
        for i, f in enumerate(args.fields):
            if f in args.fields[:i]:
                raise ValueError(f"--field names {f.label} more than once")
    facets = getattr(args, "facets", None)
    args.spec = None
    if getattr(args, "sizes", None) is not None:
        if facets is not None:
            raise ValueError("--sizes and --facets are mutually exclusive")
        sizes = _parse_sizes(args.sizes)
        gluing = () if args.gluing is None else (_parse_gluing(args.gluing),)
        args.spec = FatForestSpec(sizes, *gluing)
        if getattr(args, "k", None) is None:
            args.k = args.spec.dim
    elif facets is not None and args.gluing is not None:
        raise ValueError("--gluing and --facets are mutually exclusive")


def _method(args, complex_method: str) -> str:
    """The requested method, closed by default with --sizes; a facet file
    allows only complex_method, the one that reads a complex."""
    method = getattr(args, "method", None)
    if args.facets is None:
        return method or "closed"
    if method not in (None, complex_method):
        raise ValueError(f"facet-file input supports only --method {complex_method}")
    return complex_method


def _document(args, n_vars: int, method: str, **results) -> Document:
    return Document(None if args.spec is None else args.spec.sizes, args.k, n_vars, method, **results)


def _build_complex(args) -> SimplicialComplex:
    if args.facets is not None:
        with open(args.facets, "r", encoding="utf-8") as handle:
            c = parse_facet_lines(handle.read())
    elif args.spec is None:
        raise ValueError("either --sizes or --facets is required")
    else:
        c = build_fat_forest(args.spec)
    return c if args.k is None else skeleton(c, args.k)


def _oracle(args) -> tuple[BettiTable, SimplicialComplex]:
    """Hochster table over the first --field and the complex it ran on. A
    --sizes spec is held to the guard before anything is built."""
    if args.spec is not None:
        check_oracle_guard(args.spec, args.guard)
    c = _build_complex(args)
    return hochster_betti(c, args.fields[0], args.guard), c


def _query(args) -> SkeletonQuery:
    if args.spec is None:
        raise ValueError("this method needs --sizes")
    return SkeletonQuery(args.spec, args.k)


def _run_fvector(args) -> tuple[int, Document]:
    if _method(args, "from-complex") == "from-complex":
        c = _build_complex(args)
        return EXIT_OK, _document(args, c.n_vertices, "from-complex", fvector=f_vector(c))
    q = _query(args)
    return EXIT_OK, _document(args, q.n_vars, "closed", fvector=skeleton_f_vector(q))


def _run_hilbert(args) -> tuple[int, Document]:
    method = _method(args, "from-complex")
    if method == "from-complex":
        c = _build_complex(args)
        num = numerator_from_fvector(f_vector(c), c.n_vertices)
    else:
        num = skeleton_numerator(_query(args))
    return EXIT_OK, _document(args, num.n_vars, method, numerator=num)


def _run_betti(args) -> tuple[int, Document]:
    method = _method(args, "hochster")
    if method == "hochster":
        table, c = _oracle(args)
        return EXIT_OK, _document(args, c.n_vertices, method, field=args.fields[0].label, betti=table)
    q = _query(args)
    route = betti_closed if method == "formula" else betti_via_strand_subtraction
    return EXIT_OK, _document(args, q.n_vars, method, betti=route(q))


def _run_invariants(args) -> tuple[int, Document]:
    method = _method(args, "oracle")
    if method == "oracle":
        table, c = _oracle(args)
        inv = invariants_from_table(table, c.n_vertices, c.dim)
        return EXIT_OK, _document(args, c.n_vertices, method, field=args.fields[0].label, invariants=inv)
    q = _query(args)
    return EXIT_OK, _document(args, q.n_vars, method, invariants=invariants_closed(q))


def _run_verify(args) -> tuple[int, Document]:
    if args.spec is None:
        raise ValueError("verify needs --sizes")
    report = verify_routes(args.spec, args.k, args.fields, args.guard)
    doc = _document(
        args,
        report.query.n_vars,
        "verify",
        field=",".join(f.label for f in args.fields),
        betti=report.tables[0][1],
        invariants=report.invariants[0][1],  # the closed forms' when they apply
        agreement=report,
    )
    return (EXIT_OK if report.passed else EXIT_DISAGREEMENT), doc


def _run_identities(args) -> tuple[int, IdentityReport]:
    if args.spec is None:
        raise ValueError("identities needs --sizes")
    report = identity_report(args.spec.sizes)
    return (EXIT_OK if report.all_equal else EXIT_DISAGREEMENT), report


def _run_paper_examples(args) -> tuple[int, str]:
    spec = FatForestSpec((3, 4, 5))
    chunks = [
        "Betti tables for the skeletons of the blocks-(3,4,5) complex",
        "(columns: homological position i; row d holds the entries with j - i = d; '.' is zero)",
        "",
    ]
    for k in (1, 2, 3):
        report = verify_routes(spec, k, (), DEFAULT_GUARD)
        if not report.passed:
            raise RuntimeError(f"the closed routes disagree at k={k}")
        chunks.append(f"k = {k}")
        chunks.append(render_paper_table(report.tables[0][1]).rstrip("\n"))
        if k == 1:
            chunks.append(_PAPER_NOTE_345_K1)
        chunks.append("")
    return EXIT_OK, "\n".join(chunks)


_HANDLERS = {
    "fvector": _run_fvector,
    "hilbert": _run_hilbert,
    "betti": _run_betti,
    "invariants": _run_invariants,
    "verify": _run_verify,
    "identities": _run_identities,
    "paper-examples": _run_paper_examples,
}


def _add_common(
    p: argparse.ArgumentParser, *, facets: bool = False, oracle: bool = False, skeleton: bool = True
):
    p.add_argument("--sizes", help="comma-separated block sizes, e.g. 3,4,5")
    if skeleton:
        p.add_argument("-k", type=int, default=None, help="skeleton parameter (faces of dimension <= k)")
    p.add_argument("--gluing", help="chain-distinct (default), star, or explicit pairs like 2:0,3:4")
    if oracle:
        p.add_argument(
            "--field",
            action="append",
            help="coefficient field for homology: gf2 (default), gf<p>, or rat",
        )
        p.add_argument(
            "--guard",
            type=int,
            default=DEFAULT_GUARD,
            help=f"max vertices the exhaustive oracle accepts (default {DEFAULT_GUARD})",
        )
    if facets:
        p.add_argument("--facets", help="facet-list file instead of --sizes")
    p.add_argument(
        "--format",
        choices=["paper-table", "structured", "tabular"],
        default="paper-table",
        help="paper-table (text), structured (json), tabular (csv)",
    )
    p.add_argument("--out", help="write output to this path instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatforest",
        description=(
            "Exact Betti tables, Hilbert series and homology oracles for "
            "skeletons of simplex unions glued along single points."
        ),
        epilog="exit codes: 0 ok, 1 disagreement, 2 usage, 3 bad input, 4 oracle guard",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fvector", help="face counts of a skeleton")
    _add_common(p, facets=True)

    p = sub.add_parser("hilbert", help="Hilbert-series numerator over (1-t)^N")
    _add_common(p, facets=True)
    p.add_argument(
        "--method",
        choices=["closed", "from-complex"],
        help="default closed with --sizes; from-complex, the only choice, with --facets",
    )

    p = sub.add_parser("betti", help="graded Betti table")
    _add_common(p, facets=True, oracle=True)
    p.add_argument("--method", choices=["formula", "strands", "hochster"], default="formula")

    p = sub.add_parser("invariants", help="pd, reg, depth, Krull dimension, CM flag")
    _add_common(p, facets=True, oracle=True)
    p.add_argument("--method", choices=["closed", "oracle"], default="closed")

    p = sub.add_parser("verify", help="run all methods and compare everything")
    _add_common(p, facets=True, oracle=True)

    p = sub.add_parser("identities", help="binomial identities from the two numerators")
    _add_common(p, skeleton=False)

    p = sub.add_parser("paper-examples", help="the three blocks-(3,4,5) tables plus the k=1 note")
    p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed a one-line diagnostic
        return int(exc.code or 0)
    try:
        _prepare(args)
        code, payload = _HANDLERS[args.command](args)
        text = render(payload, getattr(args, "format", "paper-table"))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OracleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
