"""Golden CLI matrix: exact stdout and exit code of every subcommand in every
output format, plus one facet-file case per subcommand that takes --facets.

The expected bytes live in golden/cli_matrix.json. To record a deliberate
output change, run `PYTHONPATH=src python tests/test_cli_golden.py` and review
the diff of that file.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fatforest.cli import main

GOLDEN = Path(__file__).parent / "golden"
MATRIX = GOLDEN / "cli_matrix.json"
FACETS = str(GOLDEN / "bowtie.facets")
FORMATS = ("paper-table", "structured", "tabular")

_BY_FORMAT = {
    "fvector": ["fvector", "--sizes", "3,4,5", "-k", "2"],
    "hilbert": ["hilbert", "--sizes", "3,4,5", "-k", "2"],
    "hilbert-from-complex": ["hilbert", "--sizes", "2,3,3", "-k", "1", "--method", "from-complex"],
    "betti": ["betti", "--sizes", "3,4,5", "-k", "2"],
    "betti-strands": ["betti", "--sizes", "2,3,3", "-k", "2", "--method", "strands"],
    "betti-hochster": ["betti", "--sizes", "2,3,3", "-k", "1", "--method", "hochster", "--field", "gf3"],
    "invariants": ["invariants", "--sizes", "3,4,5", "-k", "2"],
    "invariants-oracle": ["invariants", "--sizes", "2,3,3", "-k", "1", "--method", "oracle"],
    "verify": ["verify", "--sizes", "2,3", "-k", "1"],
    "verify-k0": ["verify", "--sizes", "2,2", "-k", "0"],
    "identities": ["identities", "--sizes", "3,3"],
}

CASES = {
    f"{name}/{fmt}": argv + ["--format", fmt]
    for name, argv in _BY_FORMAT.items()
    for fmt in FORMATS
}
CASES.update(
    {
        "paper-examples": ["paper-examples"],
        "fvector-facets": ["fvector", "--facets", FACETS, "-k", "1"],
        "hilbert-facets": [
            "hilbert", "--facets", FACETS, "-k", "1", "--method", "from-complex",
            "--format", "structured",
        ],
        "betti-facets": [
            "betti", "--facets", FACETS, "-k", "1", "--method", "hochster",
            "--format", "structured",
        ],
        "invariants-facets": ["invariants", "--facets", FACETS, "-k", "1", "--method", "oracle"],
        "verify-facets": ["verify", "--facets", FACETS, "-k", "1"],
    }
)


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(MATRIX.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, expected):
    assert run_case(CASES[case]) == expected[case]


if __name__ == "__main__":
    recorded = {case: run_case(CASES[case]) for case in sorted(CASES)}
    MATRIX.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
