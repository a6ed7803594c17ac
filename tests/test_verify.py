"""Three-way checks far beyond the reach of a 2^N subset sweep: the closed
formula, strand subtraction and the Hochster oracle on skeleta with N = 16..28,
over GF(2), GF(3) and Q; and the rule that verify needs two routes to compare."""

import pytest

from fatforest.complexes import FatForestSpec
from fatforest.homology import GF2, GF3, RATIONALS
from fatforest.verify import verify_routes


@pytest.mark.parametrize(
    "sizes, k, gluing",
    [
        ((8, 8, 8), 2, "star"),
        ((8, 8, 8), 4, "chain-distinct"),
        ((6, 6, 6, 6), 3, "star"),
        ((7, 9, 10), 3, "star"),
        ((10, 10, 10), 2, "star"),
    ],
)
def test_three_routes_agree_beyond_the_default_guard(sizes, k, gluing):
    n = sum(sizes) - (len(sizes) - 1)
    report = verify_routes(FatForestSpec(sizes, gluing), k, (GF2,), guard=n)
    assert [name for name, _ in report.tables] == ["formula", "strands", "hochster-gf2"]
    assert report.passed


@pytest.mark.parametrize(
    "sizes, k, gluing, fields",
    [
        ((6, 6, 6), 3, "star", (GF3, RATIONALS)),
        ((7, 7, 7), 3, "chain-distinct", (RATIONALS,)),
        ((8, 8, 8), 3, "star", (RATIONALS,)),
    ],
)
def test_three_routes_agree_over_odd_characteristic_and_rationals(sizes, k, gluing, fields):
    n = sum(sizes) - (len(sizes) - 1)
    report = verify_routes(FatForestSpec(sizes, gluing), k, fields, guard=n)
    names = ["formula", "strands"] + [f"hochster-{field.label}" for field in fields]
    assert [name for name, _ in report.tables] == names
    assert report.passed


def test_three_routes_agree_over_every_field_at_n_above_twenty():
    # formula == strands == hochster over GF(2), GF(3) and Q, and the closed
    # invariants equal each oracle's, at N = 22 and N = 21
    fields = (GF2, GF3, RATIONALS)
    oracles = [f"hochster-{field.label}" for field in fields]
    for sizes in ((8, 8, 8), (6, 6, 6, 6)):
        report = verify_routes(FatForestSpec(sizes), 2, fields)
        assert [name for name, _ in report.tables] == ["formula", "strands"] + oracles
        assert [name for name, _ in report.invariants] == ["closed"] + oracles
        assert report.passed, sizes


def test_closed_routes_alone_skip_the_oracle_guard():
    # 39 vertices exceed the guard of 24, but with no field no oracle runs
    report = verify_routes(FatForestSpec((20, 20)), 2, (), 24)
    assert [name for name, _ in report.tables] == ["formula", "strands"]
    assert report.passed


@pytest.mark.parametrize("sizes, k", [((5,), 2), ((3, 4), 0)])
def test_fewer_than_two_routes_is_an_error(sizes, k):
    # the closed forms do not apply here, so only the oracle fields are routes
    for fields in ((), (GF2,)):
        with pytest.raises(ValueError, match="needs two"):
            verify_routes(FatForestSpec(sizes), k, fields)
    report = verify_routes(FatForestSpec(sizes), k, (GF2, GF3))
    assert [name for name, _ in report.tables] == ["hochster-gf2", "hochster-gf3"]
    assert report.passed
