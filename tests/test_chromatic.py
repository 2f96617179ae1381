import random

import pytest

from oracles import whitney_chromatic

from chromhom.algebra import make_deformed, make_poly_window, make_truncated
from chromhom.chromatic import (
    Poly,
    chromatic_polynomial,
    euler_check,
    qdim_poly,
)
from chromhom.graph import Graph, complete, contract_edge, cycle, delete_edge, path, wedge
from chromhom.homology import AbelianGroup, compute_all


def test_poly_arithmetic():
    p = Poly.from_list([1, 2])  # 1 + 2x
    q = Poly.from_list([0, 1])  # x
    assert (p * q).coeff_list() == [0, 1, 2]
    assert (p**3).coeff_list() == [1, 6, 12, 8]
    assert (p - p).coeff_list() == []
    assert p.compose(q) == p
    assert Poly.from_list([0, 0, 1]).compose(Poly.from_list([1, 1])).coeff_list() == [1, 2, 1]


def test_poly_repr():
    assert repr(Poly()) == "0"
    assert repr(Poly.from_list([0, 1])) == "q"
    assert repr(Poly.from_list([2, 0, -1])) == "2 - q^2"


def test_chromatic_known_values():
    # triangle: x(x-1)(x-2)
    assert chromatic_polynomial(cycle(3)).coeff_list() == [0, 2, -3, 1]
    # single edge: x(x-1)
    assert chromatic_polynomial(path(2)).coeff_list() == [0, -1, 1]
    # loops kill it
    assert chromatic_polynomial(cycle(1)).coeff_list() == []
    # K_4 classical
    assert chromatic_polynomial(complete(4)).coeff_list() == [0, -6, 11, -6, 1]
    # null graph on zero vertices: empty product = 1
    assert chromatic_polynomial(Graph(0, ())).coeff_list() == [1]


def test_whitney_equals_deletion_contraction():
    rng = random.Random(4)
    for _ in range(30):
        v = rng.randint(1, 6)
        g = Graph(
            v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(0, 8)))
        )
        assert chromatic_polynomial(g) == whitney_chromatic(g), g


def test_deletion_contraction_identity():
    rng = random.Random(6)
    for _ in range(25):
        v = rng.randint(2, 6)
        g = Graph(
            v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 8)))
        )
        nonloops = [k for k, (u, w) in enumerate(g.edges) if u != w]
        if not nonloops:
            continue
        e = rng.choice(nonloops)
        lhs = whitney_chromatic(g)
        rhs = whitney_chromatic(delete_edge(g, e)) - whitney_chromatic(contract_edge(g, e))
        assert lhs == rhs


def test_chain_euler_equals_chromatic_composition():
    g = cycle(4)
    for a in (make_truncated(2), make_truncated(3)):
        lhs = euler_check(g, a, compute_all(g, a)).chain_side
        rhs = whitney_chromatic(g).compose(qdim_poly(a))
        assert lhs == rhs


def test_euler_check_passes_for_engine_output():
    rng = random.Random(8)
    for _ in range(12):
        v = rng.randint(1, 5)
        g = Graph(
            v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(0, 7)))
        )
        a = rng.choice([make_truncated(2), make_truncated(3)])
        h = compute_all(g, a)
        rep = euler_check(g, a, h)
        assert rep.passed, (g, a.spec, rep.residuals)


def test_euler_check_walks_no_subsets(monkeypatch):
    import sys

    # seven vertices: no other test has counted this graph before
    g, a = wedge(complete(4), cycle(4)), make_truncated(2)
    h = compute_all(g, a)

    def refuse(g, subset):
        raise AssertionError("the Euler check partitioned an edge subset")

    # graph.components and every module's imported binding of it
    for name, module in list(sys.modules.items()):
        if name.startswith("chromhom") and hasattr(module, "components"):
            monkeypatch.setattr(module, "components", refuse)
    assert euler_check(g, a, h).passed


def test_euler_check_detects_tampering():
    g = cycle(3)
    a = make_truncated(2)
    h = compute_all(g, a)

    h.groups[(0, 2)] = AbelianGroup(5)  # corrupt
    rep = euler_check(g, a, h)
    assert not rep.passed and 2 in rep.residuals


def test_euler_check_compares_window_algebras_inside_the_window():
    g = cycle(4)
    a = make_poly_window(3)
    h = compute_all(g, a)
    assert euler_check(g, a, h).passed
    for j in range(a.window + 1):
        tampered = compute_all(g, a)
        grp = tampered.group(0, j)
        tampered.groups[(0, j)] = AbelianGroup(grp.free_rank + 1, grp.torsion)
        rep = euler_check(g, a, tampered)
        assert not rep.passed and j in rep.residuals, j


def test_euler_check_rejects_ungraded():
    a = make_deformed([-1, -1, 1])
    g = cycle(3)
    h = compute_all(g, a)
    with pytest.raises(ValueError):
        euler_check(g, a, h)


def test_forest_euler_pattern():
    # both sides reduce to qdim(A) * (qdim(A) - 1)^edges for a tree
    g = path(4)
    a = make_truncated(3)
    qd = qdim_poly(a)
    expected = qd * (qd - Poly.from_list([1])) ** 3
    h = compute_all(g, a)
    rep = euler_check(g, a, h)
    assert rep.passed and rep.homology_side == expected
