import hashlib
import random
from pathlib import Path

import pytest

from oracles import minor_gcd_invariant_factors

import chromhom.homology as homology
from chromhom import _snfpure
from chromhom.complexes import IntMatrix
from chromhom.homology import SNFResult, smith_normal_form


def dense_to_rows(m):
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def dense_to_triplets(m):
    return [
        (r, c, v)
        for r, row in enumerate(m)
        for c, v in enumerate(row)
        if v
    ]


def random_dense(rng, nr, nc, lo=-9, hi=9, density=1.0):
    return [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(nc)]
        for _ in range(nr)
    ]


# --- frozen cases backed by the minor-gcd oracle ---------------------------

def test_diag_2_3():
    m = [[2, 0], [0, 3]]
    assert minor_gcd_invariant_factors(m) == [1, 6]
    assert _snfpure.snf_invariant_factors(dense_to_rows(m))[0] == [1, 6]


def test_zero_matrix():
    assert _snfpure.snf_invariant_factors([{}, {}, {}]) == ([], frozenset())
    assert smith_normal_form(IntMatrix(3, 4, [{}, {}, {}])).rank == 0


def test_identity():
    rows = [{i: 1} for i in range(5)]
    assert _snfpure.snf_invariant_factors(rows) == ([1] * 5, frozenset(range(5)))


def test_cancelled_rows_are_the_leading_unit_pivots():
    # An identity block is cancelled row by row.  Here the only pivot
    # available first is the 2; the 1 it leaves behind comes after a
    # non-unit pivot, so no row is reported.
    assert _snfpure.snf_invariant_factors([{0: 1}, {1: -1}, {}]) == ([1, 1], {0, 1})
    assert _snfpure.snf_invariant_factors([{0: 2, 1: 3}]) == ([1], frozenset())
    # a dropped column is never read: here it would have been the unit pivot
    assert _snfpure.snf_invariant_factors([{0: 2, 1: 1}], drop={1}) == ([2], frozenset())
    res = smith_normal_form(IntMatrix(2, 3, [{0: 1, 2: 5}, {1: 1}]), frozenset({2}))
    assert res == SNFResult((1, 1)) and res.cancelled == {0, 1}


def test_divisibility_example():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    expected = minor_gcd_invariant_factors(m)
    assert _snfpure.snf_invariant_factors(dense_to_rows(m))[0] == expected


def test_pure_against_minor_gcd_oracle():
    rng = random.Random(17)
    for _ in range(120):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = random_dense(rng, nr, nc, density=rng.choice([0.4, 0.8, 1.0]))
        expected = minor_gcd_invariant_factors(m)
        rows = dense_to_rows(m)
        got, _ = _snfpure.snf_invariant_factors(rows)
        assert got == expected, m
        assert rows == dense_to_rows(m), "the kernel must not change its input"


def test_compiled_against_pure(compiled_snfcore):
    rng = random.Random(23)
    agreements = 0
    for _ in range(250):
        nr = rng.randint(1, 14)
        nc = rng.randint(1, 14)
        m = random_dense(rng, nr, nc, density=rng.choice([0.2, 0.5, 1.0]))
        expected, _ = _snfpure.snf_invariant_factors(dense_to_rows(m))
        try:
            got = compiled_snfcore.snf_invariant_factors(nr, nc, dense_to_triplets(m))
        except OverflowError:
            continue  # legitimate fallback path
        assert got == expected, m
        agreements += 1
    assert agreements > 150


def test_compiled_against_pure_on_sparse_matrices(compiled_snfcore, monkeypatch):
    # Sizes beyond the minor-gcd oracle.  Entries +-1, +-2, +-3 call for
    # both +-1 pivots and least-|entry| pivots; the +-1 pivots must be
    # counted as factors 1, never sent through the divisibility chain.
    chain = _snfpure.divisibility_chain
    chained = []

    def spy(diagonal):
        diagonal = list(diagonal)
        assert all(abs(d) > 1 for d in diagonal), "a unit pivot reached the chain"
        chained.extend(diagonal)
        return chain(diagonal)

    monkeypatch.setattr(_snfpure, "divisibility_chain", spy)
    rng = random.Random(29)
    compared = 0
    for _ in range(40):
        nr, nc = rng.randint(20, 60), rng.randint(20, 60)
        density = rng.choice([0.05, 0.1, 0.2])
        rows = [
            {
                c: rng.choice((1, -1, 2, -2, 3, -3))
                for c in range(nc)
                if rng.random() < density
            }
            for _ in range(nr)
        ]
        expected, _ = _snfpure.snf_invariant_factors(rows)
        trips = [(r, c, v) for r, row in enumerate(rows) for c, v in row.items()]
        try:
            got = compiled_snfcore.snf_invariant_factors(nr, nc, trips)
        except OverflowError:
            continue  # legitimate fallback path
        assert got == expected, rows
        compared += 1
    assert compared > 30
    assert chained, "no least-|entry| pivot was taken"


def test_compiled_overflow_falls_back(compiled_snfcore, monkeypatch):
    # Entries near 2^62 force checked arithmetic to give up; the dispatcher
    # must still return the exact answer via the pure kernel.
    big = 1 << 62
    dense = [[big, big - 1], [big - 3, big - 7]]
    with pytest.raises(OverflowError):
        compiled_snfcore.snf_invariant_factors(2, 2, dense_to_triplets(dense))
    monkeypatch.setattr(homology, "_snfcore", compiled_snfcore)
    monkeypatch.setattr(homology, "_KERNEL", "auto")
    res = smith_normal_form(IntMatrix(2, 2, dense_to_rows(dense)))
    assert list(res.factors) == minor_gcd_invariant_factors(dense)


def test_duplicate_triplets_accumulate(compiled_snfcore):
    trips = [(0, 0, 1), (0, 0, 1), (0, 0, -2)]
    assert compiled_snfcore.snf_invariant_factors(1, 1, trips) == []
    trips = [(0, 0, 1), (0, 0, 2)]
    assert compiled_snfcore.snf_invariant_factors(1, 1, trips) == [3]


def test_snfcore_pyx_is_the_source_of_the_tracked_c():
    # _snfcore.c is Cython output of _snfcore.pyx and is built without
    # Cython, so an edit to the .pyx needs the .c regenerated and this hash
    # updated in the same change.
    pyx = Path(homology.__file__).with_name("_snfcore.pyx").read_bytes()
    assert hashlib.sha256(pyx).hexdigest() == (
        "6e0248cf0988376a82f0f90ec696f3214cd6fe206f7296a5de3795598a231c46"
    )


def test_kernel_selection_round_trip(monkeypatch):
    m = IntMatrix(2, 2, [{0: 4}, {1: 6}])
    monkeypatch.setattr(homology, "_KERNEL", "pure")
    pure = smith_normal_form(m)
    monkeypatch.setattr(homology, "_KERNEL", "auto")
    auto = smith_normal_form(m)
    assert pure == auto == SNFResult((2, 12))


def test_pure_kernel_with_huge_entries():
    # entries far beyond 64 bits exercise the arbitrary-precision path end
    # to end against the minor-gcd oracle
    rng = random.Random(41)
    for _ in range(20):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [
            [rng.randint(-(10**30), 10**30) for _ in range(nc)]
            for _ in range(nr)
        ]
        expected = minor_gcd_invariant_factors(m)
        got, _ = _snfpure.snf_invariant_factors(dense_to_rows(m))
        assert got == expected


def test_snf_result_invariants():
    rng = random.Random(31)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = random_dense(rng, nr, nc)
        factors, _ = _snfpure.snf_invariant_factors(dense_to_rows(m))
        assert all(f >= 1 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
