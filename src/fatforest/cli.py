"""Command-line surface: build complexes, print Betti tables in the classic
row-per-diagonal layout, run multi-method verification, and check the
binomial-identity families.

Exit codes: 0 success, 1 verification disagreement or failed identity,
2 usage error, 3 invalid input, 4 oracle guard violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

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


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, assembled from parsed flags."""

    spec: FatForestSpec | None
    k: int | None
    fields: tuple[FieldSpec, ...]
    guard: int
    output_format: str
    out_path: str | None
    method: str | None = None
    facet_path: str | None = None

    @property
    def sizes(self) -> tuple[int, ...] | None:
        return None if self.spec is None else self.spec.sizes


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


def _oracle_options(args) -> tuple[tuple[FieldSpec, ...], int]:
    """--field and --guard of a subcommand that declares them; the others
    never read either."""
    if not hasattr(args, "guard"):
        return (), DEFAULT_GUARD
    if args.guard < 0:
        raise ValueError(f"oracle guard {args.guard} is negative; --guard takes a vertex count >= 0")
    if args.command != "verify" and len(args.field or ()) > 1:
        raise ValueError("--field may be given more than once only with verify")
    fields = tuple(FieldSpec.parse(f) for f in args.field or ["gf2"])
    for i, f in enumerate(fields):
        if f in fields[:i]:
            raise ValueError(f"--field names {f.label} more than once")
    return fields, args.guard


def _config(args) -> RunConfig:
    """Parse and validate the flags once; a --sizes request becomes one
    FatForestSpec that every handler reads."""
    fields, guard = _oracle_options(args)
    facet_path = getattr(args, "facets", None)
    spec = None
    if getattr(args, "sizes", None):
        if facet_path is not None:
            raise ValueError("--sizes and --facets are mutually exclusive")
        spec = FatForestSpec(_parse_sizes(args.sizes), _parse_gluing(args.gluing))
    k = getattr(args, "k", None)
    if k is None and spec is not None:
        k = spec.dim  # the whole complex
    return RunConfig(
        spec=spec,
        k=k,
        fields=fields,
        guard=guard,
        output_format=getattr(args, "format", "paper-table"),
        out_path=getattr(args, "out", None),
        method=getattr(args, "method", None),
        facet_path=facet_path,
    )


def _build_complex(cfg: RunConfig) -> SimplicialComplex:
    if cfg.facet_path is not None:
        with open(cfg.facet_path, "r", encoding="utf-8") as handle:
            c = parse_facet_lines(handle.read())
    elif cfg.spec is None:
        raise ValueError("either --sizes or --facets is required")
    else:
        c = build_fat_forest(cfg.spec)
    return c if cfg.k is None else skeleton(c, cfg.k)


def _oracle(cfg: RunConfig) -> tuple[BettiTable, SimplicialComplex]:
    """Hochster table over the first --field and the complex it ran on. A
    --sizes spec is held to the guard before anything is built."""
    if cfg.spec is not None:
        check_oracle_guard(cfg.spec, cfg.guard)
    c = _build_complex(cfg)
    return hochster_betti(c, cfg.fields[0], cfg.guard), c


def _query(cfg: RunConfig) -> SkeletonQuery:
    if cfg.spec is None:
        raise ValueError("this method needs --sizes")
    return SkeletonQuery(cfg.spec, cfg.k)


def _run_fvector(cfg: RunConfig) -> tuple[int, Document]:
    if cfg.facet_path is not None:
        c = _build_complex(cfg)
        return EXIT_OK, Document(cfg.sizes, cfg.k, c.n_vertices, "from-complex", fvector=f_vector(c))
    q = _query(cfg)
    return EXIT_OK, Document(cfg.sizes, cfg.k, q.n_vars, "closed", fvector=skeleton_f_vector(q))


def _run_hilbert(cfg: RunConfig) -> tuple[int, Document]:
    method = cfg.method or ("closed" if cfg.facet_path is None else "from-complex")
    if cfg.facet_path is not None and method != "from-complex":
        raise ValueError("facet-file input supports only --method from-complex")
    if method == "from-complex":
        c = _build_complex(cfg)
        num = numerator_from_fvector(f_vector(c), c.n_vertices)
    else:
        num = skeleton_numerator(_query(cfg))
    return EXIT_OK, Document(cfg.sizes, cfg.k, num.n_vars, method, numerator=num)


def _run_betti(cfg: RunConfig) -> tuple[int, Document]:
    if cfg.facet_path is not None and cfg.method != "hochster":
        raise ValueError("facet-file input supports only --method hochster")
    if cfg.method == "hochster":
        table, c = _oracle(cfg)
        n_vars, field = c.n_vertices, cfg.fields[0].label
    else:
        q = _query(cfg)
        route = betti_closed if cfg.method == "formula" else betti_via_strand_subtraction
        table, n_vars, field = route(q), q.n_vars, None
    return EXIT_OK, Document(cfg.sizes, cfg.k, n_vars, cfg.method, field=field, betti=table)


def _run_invariants(cfg: RunConfig) -> tuple[int, Document]:
    if cfg.facet_path is not None and cfg.method != "oracle":
        raise ValueError("facet-file input supports only --method oracle")
    if cfg.method == "oracle":
        table, c = _oracle(cfg)
        inv = invariants_from_table(table, c.n_vertices, c.dim)
        n_vars, field = c.n_vertices, cfg.fields[0].label
    else:
        q = _query(cfg)
        inv, n_vars, field = invariants_closed(q), q.n_vars, None
    return EXIT_OK, Document(cfg.sizes, cfg.k, n_vars, cfg.method, field=field, invariants=inv)


def _run_verify(cfg: RunConfig) -> tuple[int, Document]:
    if cfg.spec is None:
        raise ValueError("verify needs --sizes")
    report = verify_routes(cfg.spec, cfg.k, cfg.fields, cfg.guard)
    doc = Document(
        cfg.sizes,
        cfg.k,
        report.query.n_vars,
        "verify",
        field=",".join(f.label for f in cfg.fields),
        betti=report.tables[0][1],
        invariants=report.invariants[0][1],  # the closed forms' when they apply
        agreement=report,
    )
    return (EXIT_OK if report.passed else EXIT_DISAGREEMENT), doc


def _run_identities(cfg: RunConfig) -> tuple[int, IdentityReport]:
    if cfg.spec is None:
        raise ValueError("identities needs --sizes")
    report = identity_report(cfg.spec.sizes)
    return (EXIT_OK if report.all_equal else EXIT_DISAGREEMENT), report


def _run_paper_examples(cfg: RunConfig) -> tuple[int, str]:
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
    p.add_argument(
        "--gluing",
        default="chain-distinct",
        help="chain-distinct (default), star, or explicit pairs like 2:0,3:4",
    )
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
    if getattr(args, "command", None) == "verify" and args.field is None:
        args.field = ["gf2", "gf3"]
    try:
        cfg = _config(args)
        code, payload = _HANDLERS[args.command](cfg)
        text = render(payload, cfg.output_format)
        if cfg.out_path:
            with open(cfg.out_path, "w", encoding="utf-8") as handle:
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
