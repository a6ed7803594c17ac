"""Identity-family tests: generated equations, rendering, and round-tripping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fatforest.identities import identity_report, parse_equation

sizes_lists = st.lists(st.integers(2, 8), min_size=1, max_size=4).map(tuple).filter(
    lambda s: sum(s) - (len(s) - 1) <= 20
)


def test_single_edge_block_degree_one():
    report = identity_report((2,))
    rec = report.degrees[1]
    assert rec.left_value == rec.right_value == 0
    # right side carries the two canceling terms -C(2,1) and 2*C(1,0)
    assert sorted(t.value for t in rec.right_terms) == [-2, 2]
    # left side keeps its structural term -C(0,1), which evaluates to zero
    assert [t.value for t in rec.left_terms] == [0]
    left, right = parse_equation(rec.equation)
    assert left == right == 0


def test_single_block_families_hold():
    for n in range(2, 13):
        report = identity_report((n,))
        assert report.all_equal
        # the glued-blocks numerator of one simplex is the constant 1
        assert report.degrees[0].left_value == 1
        assert all(rec.left_value == 0 for rec in report.degrees[1:])
        assert report.notes


def test_two_equal_blocks_report():
    report = identity_report((4, 4))
    assert report.all_equal
    assert report.n_vars == 7
    assert not report.notes


def test_degree_zero_renders_one_equals_one():
    report = identity_report((5,))
    assert report.degrees[0].equation == "1 = 1"


def test_path_degree_two():
    report = identity_report((2, 2))
    rec = report.degrees[2]
    assert rec.left_value == rec.right_value == -1
    left, right = parse_equation(rec.equation)
    assert left == right == -1


def test_triangles_degree_three():
    report = identity_report((3, 3))
    rec = report.degrees[3]
    assert rec.equal
    left, right = parse_equation(rec.equation)
    assert left == rec.left_value and right == rec.right_value


@given(sizes_lists)
def test_all_degrees_agree(sizes):
    assert identity_report(sizes).all_equal


@given(sizes_lists)
def test_rendered_equations_round_trip(sizes):
    report = identity_report(sizes)
    for rec in report.degrees:
        left, right = parse_equation(rec.equation)
        assert left == rec.left_value
        assert right == rec.right_value


def test_parse_equation_rejects_garbage():
    with pytest.raises(ValueError):
        parse_equation("1 = 1 = 1")
    with pytest.raises(ValueError):
        parse_equation("C(1 = 1")
