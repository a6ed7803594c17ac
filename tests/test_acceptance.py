"""Acceptance suite. Each criterion prints one pass/fail line; every
comparison is exact integer equality, and the stated time budgets are
asserted where the criteria give one.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement

import pytest

from fatforest.betti import invariants_from_table
from fatforest.cli import main
from fatforest.complexes import (
    FatForestSpec,
    build_fat_forest,
    f_vector,
    minimal_nonfaces,
    skeleton,
)
from fatforest.formulas import SkeletonQuery, invariants_closed, skeleton_numerator
from fatforest.homology import GF2, GF3, RATIONALS, hochster_betti, reisner_is_cm
from fatforest.identities import identity_report
from fatforest.polynomials import numerator_from_fvector
from fatforest.verify import verify_routes


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} {name}: FAIL")
        raise
    else:
        print(f"acceptance {number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def oracle():
    cache = {}

    def get(c, field=GF2):
        key = (c, field.characteristic)
        if key not in cache:
            cache[key] = hochster_betti(c, field)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def corpus():
    """Every block-size multiset with e in {2,3}, sizes in {2,3,4}, under both
    gluing presets (N <= 10 <= 12 throughout)."""
    entries = []
    for e in (2, 3):
        for sizes in combinations_with_replacement((2, 3, 4), e):
            for preset in ("chain-distinct", "star"):
                entries.append((sizes, preset, build_fat_forest(FatForestSpec(sizes, preset))))
    return entries


K2_TOTALS = (1, 32, 138, 282, 334, 240, 102, 23, 2)
K2_DIAG1 = (26, 103, 197, 224, 160, 71, 18, 2)
K2_DIAG3 = (6, 35, 85, 110, 80, 31, 5)
K3_TOTALS = (1, 27, 108, 207, 234, 165, 72, 18, 2)
K3_DIAG4 = (1, 5, 10, 10, 5, 1)
K1_DIAG1 = K2_DIAG1
K1_DIAG2_ORACLE = (15, 99, 280, 440, 415, 235, 74, 10)
K1_DIAG2_TABULATED = (14, 92, 259, 405, 380, 214, 67, 9)


def three_way(spec, k, fields=(GF2,)):
    """The formula table, after every route agreed on it through verify_routes."""
    report = verify_routes(spec, k, fields)
    names = [name for name, _ in report.tables]
    assert names == ["formula", "strands"] + [f"hochster-{f.label}" for f in fields]
    assert report.passed, (spec, k, report.table_checks, report.invariant_checks)
    return report.tables[0][1]


def test_criterion_1_golden_k2():
    with criterion(1, "golden reproduction k=2"):
        start = time.monotonic()
        table = three_way(FatForestSpec((3, 4, 5)), 2)
        elapsed = time.monotonic() - start
        assert table.column_totals() == K2_TOTALS
        assert table.diagonal(1) == K2_DIAG1
        assert table.diagonal(3) == K2_DIAG3
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_golden_k3():
    with criterion(2, "golden reproduction k=3"):
        table = three_way(FatForestSpec((3, 4, 5)), 3)
        assert table.column_totals() == K3_TOTALS
        assert table.diagonal(4) == K3_DIAG4


def test_criterion_3_k1_resolution(capsys):
    with criterion(3, "k=1 resolution by oracle"):
        table = three_way(FatForestSpec((3, 4, 5)), 1)
        assert table.diagonal(1) == K1_DIAG1
        assert table.diagonal(2) == K1_DIAG2_ORACLE
        assert table.diagonal(2) != K1_DIAG2_TABULATED
        code = main(["paper-examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert str(K1_DIAG2_ORACLE) in out
        assert str(K1_DIAG2_TABULATED) in out


def test_criterion_4_invariants(oracle):
    with criterion(4, "invariants closed == oracle"):
        base = build_fat_forest(FatForestSpec((3, 4, 5)))
        for k in (1, 2, 3):
            closed = invariants_closed(SkeletonQuery((3, 4, 5), k))
            ck = skeleton(base, k)
            from_oracle = invariants_from_table(oracle(ck), 10, ck.dim)
            assert closed == from_oracle
            assert closed.pd == 8
            assert closed.reg == k + 1
            assert closed.depth == 2
            assert closed.is_cm == (k <= 1)


def test_criterion_5_three_way_sweep(corpus):
    with criterion(5, "three-way Betti equality sweep"):
        start = time.monotonic()
        cases = 0
        for sizes, preset, _ in corpus:
            for k in range(1, max(sizes) + 1):
                three_way(FatForestSpec(sizes, preset), k, (GF2, GF3, RATIONALS))
                cases += 1
        elapsed = time.monotonic() - start
        assert cases == 110
        assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"


def test_criterion_6_generator_and_strand_structure(oracle, corpus):
    with criterion(6, "generator and strand structure"):
        for sizes, preset, base in corpus:
            n = max(sizes)
            full = oracle(base)
            degree_two = None
            for k in range(1, n + 1):
                ck = skeleton(base, k)
                nonfaces = minimal_nonfaces(ck)
                witnessed = {m.bit_count() for m in nonfaces}
                if k < n - 1:
                    assert witnessed <= {2, k + 2}
                else:
                    assert witnessed <= {2}
                pairs = frozenset(m for m in nonfaces if m.bit_count() == 2)
                if degree_two is None:
                    degree_two = pairs
                else:
                    assert pairs == degree_two
                table = oracle(ck)
                for (i, j), value in table.nonzero():
                    if value:
                        assert j - i <= k + 1
                keys = set(key for key, _ in table.nonzero()) | set(
                    key for key, _ in full.nonzero()
                )
                for (i, j) in keys:
                    if j - i < k + 1:
                        assert table[(i, j)] == full[(i, j)], (sizes, preset, k, i, j)


def test_criterion_7_hilbert_consistency(oracle, corpus):
    with criterion(7, "Hilbert series consistency"):
        for sizes, preset, base in corpus:
            for k in range(1, max(sizes) + 1):
                ck = skeleton(base, k)
                q = SkeletonQuery(sizes, k)
                num = skeleton_numerator(q)
                assert numerator_from_fvector(f_vector(ck), ck.n_vertices) == num
                table = oracle(ck)
                for j in range(ck.n_vertices + 1):
                    assert table.alternating_sum(j) == num.coefficient(j)


def test_criterion_8_cm_classification(oracle, corpus):
    with criterion(8, "Cohen-Macaulay classification"):
        for sizes, preset, base in corpus:
            n = max(sizes)
            for k in range(1, n + 1):
                ck = skeleton(base, k)
                via_links = reisner_is_cm(ck)
                inv = invariants_from_table(oracle(ck), ck.n_vertices, ck.dim)
                predicted = k <= 1 or n == 2
                assert via_links == inv.is_cm == predicted, (sizes, preset, k)


def test_criterion_9_identities():
    with criterion(9, "identity families"):
        start = time.monotonic()
        count = 0
        for e in range(1, 5):
            for sizes in combinations_with_replacement(range(2, 13), e):
                report = identity_report(sizes)
                assert report.all_equal, sizes
                count += 1
        elapsed = time.monotonic() - start
        assert count == 11 + 66 + 286 + 1001
        assert elapsed < 10.0, f"identity scan took {elapsed:.1f}s"


def random_schedule(rng, sizes):
    pairs = []
    count = sizes[0]
    for i in range(2, len(sizes) + 1):
        pairs.append((i, rng.randrange(count)))
        count += sizes[i - 1] - 1
    return tuple(pairs)


def test_criterion_10_gluing_invariance():
    with criterion(10, "gluing-schedule invariance"):
        rng = random.Random(91046)
        seen = 0
        while seen < 50:
            e = rng.randint(2, 4)
            sizes = tuple(rng.randint(2, 5) for _ in range(e))
            if sum(sizes) - (e - 1) > 12:
                continue
            first = random_schedule(rng, sizes)
            second = random_schedule(rng, sizes)
            while second == first:
                second = random_schedule(rng, sizes)
            a = build_fat_forest(FatForestSpec(sizes, first))
            b = build_fat_forest(FatForestSpec(sizes, second))
            assert f_vector(a) == f_vector(b)
            assert numerator_from_fvector(f_vector(a), a.n_vertices) == (
                numerator_from_fvector(f_vector(b), b.n_vertices)
            )
            assert hochster_betti(a) == hochster_betti(b), (sizes, first, second)
            seen += 1
