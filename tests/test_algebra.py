import pytest

from chromhom.algebra import (
    make_deformed,
    make_poly_window,
    make_truncated,
    multiply,
    parse_algebra_spec,
    qdim,
    unit_vector,
)


def test_truncated_basics():
    a2 = make_truncated(2)
    assert a2.rank == 2 and a2.graded
    # x * x = 0
    assert multiply(a2, (0, 1), (0, 1)) == (0, 0)
    a3 = make_truncated(3)
    assert multiply(a3, (0, 1, 0), (0, 1, 0)) == (0, 0, 1)
    assert multiply(a3, (0, 0, 1), (0, 1, 0)) == (0, 0, 0)
    a1 = make_truncated(1)
    assert a1.rank == 1
    with pytest.raises(ValueError):
        make_truncated(0)


def test_unit_law():
    a = make_truncated(4)
    v = (3, -2, 0, 5)
    assert multiply(a, unit_vector(4, 0), v) == v


def test_qdim():
    assert qdim(make_truncated(2)) == {0: 1, 1: 1}
    assert qdim(make_truncated(4)) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert qdim(make_truncated(1)) == {0: 1}
    for m in (1, 3, 6):
        a = make_truncated(m)
        coeffs = qdim(a)
        assert sum(coeffs.values()) == a.rank and coeffs[0] >= 1
    with pytest.raises(ValueError):
        qdim(make_deformed([-1, -1, 1]))


def test_deformed_matches_truncated_for_xm():
    for m in (1, 2, 3, 4):
        if m == 1:
            continue  # degree-0 polynomial is rejected separately
        a = make_deformed([0] * m + [1])
        t = make_truncated(m)
        assert a.mult == t.mult
        assert a.graded and a.degrees == t.degrees


def test_deformed_quadratic():
    # x^2 = a + b x for p = x^2 - b x - a; here b = 3, a = 2
    alg = make_deformed([-2, -3, 1])
    assert not alg.graded
    assert multiply(alg, (0, 1), (0, 1)) == (2, 3)
    assert alg.degrees == (0, 0)


def test_deformed_xm_minus_1():
    alg = make_deformed([-1, 0, 0, 1])
    # x^2 * x = 1
    assert multiply(alg, (0, 0, 1), (0, 1, 0)) == (1, 0, 0)


def test_deformed_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        make_deformed([0, 2])
    with pytest.raises(ValueError):
        make_deformed([5])


def test_window():
    a = make_poly_window(5)
    assert a.window == 5 and a.rank == 6 and a.graded
    assert a.spec == "window:5"
    a0 = make_poly_window(0)
    assert a0.rank == 1


def test_associativity_holds_for_constructors():
    # constructor validation would raise; instantiating is the test
    for m in (2, 3, 5):
        make_truncated(m)
    make_deformed([-1, 0, 1])
    make_deformed([7, -3, 1])


def test_graded_products_are_homogeneous():
    a = make_truncated(4)
    for k in range(a.rank):
        for l in range(a.rank):
            row = a.mult[k][l]
            for m, c in enumerate(row):
                if c:
                    assert a.degrees[m] == a.degrees[k] + a.degrees[l]


def _tables(m):
    a = make_truncated(m)
    return [[list(row) for row in block] for block in a.mult]


def _freeze(mult):
    return tuple(tuple(tuple(v) for v in block) for block in mult)


def test_validation_rejects_broken_tables():
    from chromhom.algebra import Algebra

    labels = ("1", "x")
    degrees = (0, 1)
    # broken unit: 1 * x = 0
    mult = _tables(2)
    mult[0][1] = [0, 0]
    mult[1][0] = [0, 0]
    with pytest.raises(ValueError, match="unit"):
        Algebra(2, labels, degrees, _freeze(mult), True, "bad")
    # broken commutativity
    mult = _tables(2)
    mult[1][0] = [1, 0]
    with pytest.raises(ValueError, match="commutative"):
        Algebra(2, labels, degrees, _freeze(mult), True, "bad")
    # broken grading: x * x = 1 has degree 0 != 2
    mult = _tables(2)
    mult[1][1] = [1, 0]
    with pytest.raises(ValueError, match="associative|homogeneous"):
        Algebra(2, labels, degrees, _freeze(mult), True, "bad")
    # broken associativity over a rank-3 basis: y*y = 1 with x*y = 0
    mult3 = _tables(3)
    mult3[2][2] = [1, 0, 0]
    with pytest.raises(ValueError, match="associative|homogeneous"):
        Algebra(
            3, ("1", "x", "y"), (0, 1, 1), _freeze(mult3), False, "bad"
        )


def test_parse_spec():
    assert parse_algebra_spec("trunc:3").spec == "trunc:3"
    assert parse_algebra_spec("window:4").window == 4
    assert parse_algebra_spec("poly:-1,0,0,1").rank == 3
    for bad in ("trunc", "frobnicate:3", "poly:2,2", "trunc:x"):
        with pytest.raises(ValueError):
            parse_algebra_spec(bad)
