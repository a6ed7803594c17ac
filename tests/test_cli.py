"""CLI surface tests: formats, exit codes, golden tables, guards, files."""

import json
import time
from itertools import combinations
from pathlib import Path

import pytest

from fatforest.betti import BettiTable
from fatforest.cli import EXIT_GUARD, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from fatforest.formulas import SkeletonQuery
from fatforest.verify import TableCheck, VerificationReport
from fatforest.verify import compare_tables as _compare_tables

GOLDEN = Path(__file__).parent / "golden"
BOWTIE = str(GOLDEN / "bowtie.facets")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fvector_text(capsys):
    code, out, _ = run(capsys, "fvector", "--sizes", "3,4,5", "-k", "2")
    assert code == EXIT_OK
    assert out == "(1, 10, 19, 15)\n"


def test_fvector_zero_skeleton(capsys):
    code, out, _ = run(capsys, "fvector", "--sizes", "3,4,5", "-k", "0")
    assert code == EXIT_OK
    assert out == "(1, 10)\n"


def test_fvector_structured_keys_and_strings(capsys):
    code, out, _ = run(capsys, "fvector", "--sizes", "3,4,5", "-k", "2", "--format", "structured")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert list(doc) == [
        "sizes", "k", "N", "method", "field", "betti",
        "fvector", "numerator", "invariants", "agreement",
    ]
    assert doc["fvector"] == ["1", "10", "19", "15"]
    assert doc["N"] == 10 and doc["k"] == 2


def test_hilbert_methods_agree(capsys):
    code, closed, _ = run(capsys, "hilbert", "--sizes", "3,4,5", "-k", "2")
    code2, from_complex, _ = run(
        capsys, "hilbert", "--sizes", "3,4,5", "-k", "2", "--method", "from-complex"
    )
    assert code == code2 == EXIT_OK
    assert closed.splitlines()[1] == from_complex.splitlines()[1]
    assert closed.startswith("N: 10\n")


def test_betti_formula_matches_golden_k2(capsys):
    code, out, _ = run(capsys, "betti", "--sizes", "3,4,5", "-k", "2", "--method", "formula")
    assert code == EXIT_OK
    assert out == (GOLDEN / "delta_3_4_5_k2.txt").read_text()


def test_betti_k3_diagonal_row(capsys):
    code, out, _ = run(capsys, "betti", "--sizes", "3,4,5", "-k", "3", "--method", "formula")
    assert code == EXIT_OK
    assert out == (GOLDEN / "delta_3_4_5_k3.txt").read_text()
    row4 = next(line for line in out.splitlines() if line.strip().startswith("4:"))
    assert row4.split() == ["4:", ".", "1", "5", "10", "10", "5", "1", ".", "."]


def test_betti_methods_emit_identical_tables(capsys):
    _, formula, _ = run(capsys, "betti", "--sizes", "3,4", "-k", "2", "--method", "formula")
    _, strands, _ = run(capsys, "betti", "--sizes", "3,4", "-k", "2", "--method", "strands")
    _, hochster, _ = run(capsys, "betti", "--sizes", "3,4", "-k", "2", "--method", "hochster")
    _, gf3, _ = run(
        capsys, "betti", "--sizes", "3,4", "-k", "2", "--method", "hochster", "--field", "gf3"
    )
    _, rational, _ = run(
        capsys, "betti", "--sizes", "3,4", "-k", "2", "--method", "hochster", "--field", "rat"
    )
    assert formula == strands == hochster == gf3 == rational


def test_betti_tabular(capsys):
    code, out, _ = run(capsys, "betti", "--sizes", "2,2", "-k", "1", "--format", "tabular")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "diagonal,0,1"
    assert lines[1] == "total,1,1"
    assert lines[2] == "0,1,0"
    assert lines[3] == "1,0,1"


def test_structured_and_table_numbers_agree(capsys):
    _, table_text, _ = run(capsys, "betti", "--sizes", "3,4,5", "-k", "2")
    _, doc_text, _ = run(
        capsys, "betti", "--sizes", "3,4,5", "-k", "2", "--format", "structured"
    )
    doc = json.loads(doc_text)
    for entry in doc["betti"]:
        if entry["i"] == 0:
            continue
        d = entry["j"] - entry["i"]
        row = next(l for l in table_text.splitlines() if l.strip().startswith(f"{d}:"))
        assert entry["value"] in row.split()


def test_betti_formula_rejects_k0(capsys):
    code, _, err = run(capsys, "betti", "--sizes", "3,4,5", "-k", "0")
    assert code == EXIT_INPUT
    assert "oracle" in err


def test_betti_hochster_k0_works(capsys):
    code, out, _ = run(capsys, "betti", "--sizes", "2,2", "-k", "0", "--method", "hochster")
    assert code == EXIT_OK
    # three isolated points: 2-linear resolution of the three-variable ideal
    assert "total: 1 3 2" in out


def test_invariants_closed_and_oracle(capsys):
    code, closed, _ = run(capsys, "invariants", "--sizes", "3,4,5", "-k", "2")
    code2, oracle, _ = run(
        capsys, "invariants", "--sizes", "3,4,5", "-k", "2", "--method", "oracle"
    )
    assert code == code2 == EXIT_OK
    assert closed == oracle == "pd=8 reg=3 depth=2 krull_dim=3 cohen_macaulay=no\n"


def test_verify_small_pass(capsys):
    code, out, _ = run(capsys, "verify", "--sizes", "2,2", "-k", "1")
    assert code == EXIT_OK
    assert "verdict: PASS" in out
    assert "NO" not in out


def test_verify_structured(capsys):
    code, out, _ = run(capsys, "verify", "--sizes", "2,3", "-k", "1", "--format", "structured")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["agreement"]["verdict"] == "pass"
    assert all(check["equal"] for check in doc["agreement"]["checks"])
    tables = doc["agreement"]["tables"]
    assert set(tables) == {"formula", "strands", "hochster-gf2", "hochster-gf3"}
    assert tables["formula"] == tables["hochster-gf2"]


def test_verify_repeatable_field_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "--sizes", "2,2", "-k", "1", "--field", "gf2", "--field", "gf5"
    )
    assert code == EXIT_OK
    assert "hochster-gf5" in out
    assert "verdict: PASS" in out


def test_second_field_is_invalid_outside_verify(capsys):
    # only verify compares fields; elsewhere a second --field used to be dropped
    two_fields = ("--field", "gf2", "--field", "rat", "--format", "structured")
    for argv in (
        ("betti", "--sizes", "3,4", "-k", "1", "--method", "hochster"),
        ("invariants", "--sizes", "3,4", "-k", "1", "--method", "oracle"),
        ("betti", "--sizes", "3,4", "-k", "1"),
    ):
        code, out, err = run(capsys, *argv, *two_fields)
        assert code == EXIT_INPUT, argv
        assert out == ""
        assert err == "error: --field may be given more than once only with verify\n"


def test_verify_rejects_a_repeated_field(capsys):
    # fields are compared after parsing, so rat and q are the same field
    for repeat in (("gf2", "gf2"), ("rat", "q"), ("gf3", "gf2", "GF3")):
        argv = [arg for label in repeat for arg in ("--field", label)]
        code, out, err = run(capsys, "verify", "--sizes", "2,2", "-k", "1", *argv)
        assert code == EXIT_INPUT, repeat
        assert out == ""
        assert err.startswith("error: --field names ") and err.count("\n") == 1


def test_verify_needs_two_routes(capsys):
    # without the closed forms (k = 0 or one block) one field leaves one route
    for sizes, k in (("3,4", "0"), ("5", "2")):
        code, out, err = run(capsys, "verify", "--sizes", sizes, "-k", k, "--field", "gf2")
        assert code == EXIT_INPUT, sizes
        assert out == ""
        assert err.startswith("error: closed forms do not apply to ") and "two fields" in err
        two_fields = ("--field", "gf2", "--field", "rat")
        code, out, _ = run(capsys, "verify", "--sizes", sizes, "-k", k, *two_fields)
        assert code == EXIT_OK and "hochster-gf2 == hochster-rat: yes" in out


def test_characteristic_zero_field_is_named_rat(capsys):
    argv = ("betti", "--sizes", "3,4", "-k", "1", "--method", "hochster", "--field", "gf0")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: bad field 'gf0': use rat for characteristic 0\n"


def test_verify_k0_uses_oracle_only(capsys):
    code, out, _ = run(capsys, "verify", "--sizes", "2,2", "-k", "0")
    assert code == EXIT_OK
    assert "formula" not in out
    assert "hochster-gf2 == hochster-gf3" in out


def test_verification_report_fails_on_mismatch():
    a = BettiTable(3, [((0, 0), 1), ((1, 2), 1)])
    b = BettiTable(3, [((0, 0), 1), ((1, 2), 2)])
    check = _compare_tables("x", a, "y", b)
    assert not check.equal
    assert check.mismatches == ((1, 2, 1, 2),)
    report = VerificationReport(
        query=SkeletonQuery((2, 2), 1),
        tables=(("x", a), ("y", b)),
        table_checks=(check,),
        invariants=(), invariant_checks=(),
    )
    assert not report.passed
    good = VerificationReport(
        query=SkeletonQuery((2, 2), 1),
        tables=(("x", a),),
        table_checks=(TableCheck("x", "x", True, ()),),
        invariants=(), invariant_checks=(("a", "b", True),),
    )
    assert good.passed


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--sizes", "4,4")
    assert code == EXIT_OK
    assert "all degrees agree" in out
    code, out, _ = run(capsys, "identities", "--sizes", "5", "--format", "structured")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_equal"] is True
    assert doc["degrees"][0]["equation"] == "1 = 1"
    assert doc["notes"]


def test_paper_examples_contains_goldens_and_note(capsys):
    code, out, _ = run(capsys, "paper-examples")
    assert code == EXIT_OK
    assert (GOLDEN / "delta_3_4_5_k2.txt").read_text().rstrip("\n") in out
    assert (GOLDEN / "delta_3_4_5_k3.txt").read_text().rstrip("\n") in out
    assert "(15, 99, 280, 440, 415, 235, 74, 10)" in out
    assert "(14, 92, 259, 405, 380, 214, 67, 9)" in out


def test_facet_file_input(tmp_path, capsys):
    path = tmp_path / "complex.txt"
    path.write_text("0 1\n1 2\n# path on three vertices\n")
    code, out, _ = run(capsys, "fvector", "--facets", str(path))
    assert code == EXIT_OK
    assert out == "(1, 3, 2)\n"
    code, out, _ = run(capsys, "betti", "--facets", str(path), "--method", "hochster")
    assert code == EXIT_OK
    assert "total: 1 1" in out
    code, out, _ = run(
        capsys, "hilbert", "--facets", str(path), "--method", "from-complex"
    )
    assert code == EXIT_OK
    assert out == "N: 3\nnumerator: (1, 0, -1)\n"
    code, out, _ = run(capsys, "invariants", "--facets", str(path), "--method", "oracle")
    assert code == EXIT_OK
    assert out == "pd=1 reg=1 depth=2 krull_dim=2 cohen_macaulay=yes\n"
    code, _, err = run(capsys, "betti", "--facets", str(path))
    assert code == EXIT_INPUT
    code, _, err = run(capsys, "fvector", "--facets", str(path), "--sizes", "2,2")
    assert code == EXIT_INPUT
    assert "mutually exclusive" in err


def test_hilbert_method_follows_the_input(tmp_path, capsys):
    path = tmp_path / "complex.txt"
    path.write_text("0 1\n1 2\n")
    code, out, _ = run(capsys, "hilbert", "--facets", str(path), "--format", "structured")
    assert code == EXIT_OK
    assert json.loads(out)["method"] == "from-complex"
    code, out, _ = run(capsys, "hilbert", "--sizes", "2,2", "--format", "structured")
    assert code == EXIT_OK
    assert json.loads(out)["method"] == "closed"
    # the closed forms need --sizes, so an explicit closed with --facets is refused
    code, out, err = run(capsys, "hilbert", "--facets", str(path), "--method", "closed")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: facet-file input supports only --method from-complex\n"


def test_missing_facet_file(capsys):
    code, _, err = run(capsys, "fvector", "--facets", "/nonexistent/file.txt")
    assert code == EXIT_INPUT


def test_guard_violation_exit_code(capsys):
    code, _, err = run(
        capsys, "betti", "--sizes", "3,4,5", "-k", "1", "--method", "hochster", "--guard", "5"
    )
    assert code == EXIT_GUARD
    assert "guard" in err and "10" in err
    # a guard equal to N admits it
    code, _, _ = run(
        capsys, "betti", "--sizes", "3,4", "-k", "1", "--method", "hochster", "--guard", "6"
    )
    assert code == EXIT_OK


def test_negative_guard_rejected(capsys):
    code, _, err = run(
        capsys, "betti", "--sizes", "3,4", "-k", "1", "--method", "hochster", "--guard", "-1"
    )
    assert code == EXIT_INPUT
    assert "-1" in err
    code, _, err = run(capsys, "invariants", "--sizes", "3,4", "-k", "1", "--guard", "-1")
    assert code == EXIT_INPUT


def test_oracle_flags_only_on_oracle_subcommands(capsys):
    # fvector and hilbert never run the oracle, so they take neither flag
    for argv in (["--field", "gf4"], ["--guard", "5"]):
        for command in ("fvector", "hilbert"):
            assert run(capsys, command, "--sizes", "3,4", *argv)[0] == EXIT_USAGE


def test_identities_takes_no_skeleton_parameter(capsys):
    # the identities compare whole-complex numerators, so -k would be ignored
    code, out, _ = run(capsys, "identities", "--sizes", "3,3", "-k", "1")
    assert code == EXIT_USAGE
    assert out == ""


def test_guard_checked_before_building_the_complex(capsys):
    # N = 40: the skeleton alone would take seconds to canonicalize
    for argv in (
        ["verify"],
        ["betti", "--method", "hochster"],
        ["invariants", "--method", "oracle"],
    ):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--sizes", "14,14,14", "-k", "6")
        elapsed = time.perf_counter() - start
        assert code == EXIT_GUARD, argv
        assert "40 vertices" in err
        assert elapsed < 1.0, (argv, elapsed)


def test_large_facet_file_reaches_the_guard_quickly(capsys, tmp_path):
    # all 14,950 4-subsets of 26 vertices: canonicalizing them pairwise took
    # seconds before the guard was ever consulted
    path = tmp_path / "quads.facets"
    path.write_text("".join(" ".join(map(str, q)) + "\n" for q in combinations(range(26), 4)))
    start = time.perf_counter()
    code, _, err = run(capsys, "betti", "--method", "hochster", "--facets", str(path))
    elapsed = time.perf_counter() - start
    assert code == EXIT_GUARD
    assert "26 vertices" in err
    assert elapsed < 1.0, elapsed


def test_structured_k_is_the_k_used(capsys, tmp_path):
    for argv in (["fvector"], ["hilbert"], ["betti"], ["invariants"], ["verify"]):
        code, out, _ = run(capsys, *argv, "--sizes", "2,3", "--format", "structured")
        assert code == EXIT_OK
        assert json.loads(out)["k"] == 2, argv
    path = tmp_path / "complex.txt"
    path.write_text("0 1 2\n")
    code, out, _ = run(capsys, "fvector", "--facets", str(path), "--format", "structured")
    assert code == EXIT_OK
    assert json.loads(out)["k"] is None


def test_bad_sizes_exit_code(capsys):
    code, _, err = run(capsys, "fvector", "--sizes", "3,x")
    assert code == EXIT_INPUT
    assert err.startswith("error:")
    # an empty token is an error, not a block to skip
    for sizes in ("3,,4", "3,4,", ",3,4"):
        code, out, err = run(capsys, "fvector", "--sizes", sizes, "-k", "1")
        assert code == EXIT_INPUT, sizes
        assert out == ""
        assert err.startswith("error:") and repr(sizes) in err and err.count("\n") == 1
    code, _, _ = run(capsys, "fvector", "--sizes", "1,2")
    assert code == EXIT_INPUT
    code, _, _ = run(capsys, "betti", "--sizes", "2,2", "-k", "1", "--gluing", "ring")
    assert code == EXIT_INPUT
    # an empty --sizes is a bad value, not a missing flag
    code, out, err = run(capsys, "fvector", "--sizes", "")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: bad --sizes value ''; expected comma-separated integers\n"
    code, out, err = run(capsys, "betti", "--facets", BOWTIE, "--method", "hochster", "--sizes", "")
    assert (code, out, err) == (EXIT_INPUT, "", "error: --sizes and --facets are mutually exclusive\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fvector"], "this method needs --sizes"),
        (["hilbert"], "this method needs --sizes"),
        (["betti", "-k", "1"], "this method needs --sizes"),
        (["betti", "--method", "hochster"], "either --sizes or --facets is required"),
        (["invariants", "--method", "oracle"], "either --sizes or --facets is required"),
        (["hilbert", "--method", "from-complex"], "either --sizes or --facets is required"),
        (["verify"], "verify needs --sizes"),
        (["verify", "--facets", BOWTIE], "verify needs --sizes"),
        (["identities"], "identities needs --sizes"),
        (["betti", "--facets", BOWTIE], "facet-file input supports only --method hochster"),
        (["invariants", "--facets", BOWTIE], "facet-file input supports only --method oracle"),
    ],
)
def test_input_error_messages(capsys, argv, message):
    assert run(capsys, *argv) == (EXIT_INPUT, "", f"error: {message}\n")


def test_gluing_is_invalid_with_facets(capsys):
    # a schedule shapes a --sizes complex; with a facet file it used to be
    # dropped unchecked, even when it named a target outside the complex
    for argv in (["fvector"], ["betti", "--method", "hochster"]):
        for gluing in ("star", "2:9"):
            code, out, err = run(capsys, *argv, "--facets", BOWTIE, "--gluing", gluing)
            assert (code, out) == (EXIT_INPUT, ""), (argv, gluing)
            assert err == "error: --gluing and --facets are mutually exclusive\n"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "betti", "--no-such-flag")[0] == EXIT_USAGE
    assert run(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run(capsys, "betti", "--sizes", "2,2", "--method", "magic")[0] == EXIT_USAGE


def test_out_path_writes_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, out, _ = run(
        capsys, "betti", "--sizes", "3,4,5", "-k", "2", "--out", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text() == (GOLDEN / "delta_3_4_5_k2.txt").read_text()


def test_gluing_schedule_checked_by_every_sizes_subcommand(capsys):
    # sizes 3,4: block 2 sees the 3 vertices of block 1, and there is no block 3
    expected = {
        "2:9": "error: gluing target 9 for block 2 is outside the current 3 vertices\n",
        "3:0": "error: explicit gluing must name each block 2..e exactly once\n",
    }
    for gluing, message in expected.items():
        for argv in (
            ["fvector"],
            ["hilbert"],
            ["betti", "--method", "formula"],
            ["betti", "--method", "strands"],
            ["betti", "--method", "hochster"],
            ["invariants", "--method", "closed"],
            ["invariants", "--method", "oracle"],
            ["verify"],
            ["identities"],
        ):
            code, out, err = run(capsys, *argv, "--sizes", "3,4", "--gluing", gluing)
            assert (code, out, err) == (EXIT_INPUT, "", message), argv


def test_unwritable_out_path_is_invalid_input(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "verify", "--sizes", "3,4", "--out", str(target))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_gluing_flag_accepted(capsys):
    code, a, _ = run(capsys, "fvector", "--sizes", "2,2,3", "-k", "1")
    code2, b, _ = run(capsys, "fvector", "--sizes", "2,2,3", "-k", "1", "--gluing", "star")
    code3, c, _ = run(
        capsys, "fvector", "--sizes", "2,2,3", "-k", "1", "--gluing", "2:0,3:1"
    )
    assert code == code2 == code3 == EXIT_OK
    assert a == b == c


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "betti", "--help")[0] == 0
