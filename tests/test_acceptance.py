"""Acceptance suite: one test per criterion, exact group equality throughout.

Each test prints a ``criterion NN <name>: PASS|FAIL (x.xs)`` line (visible
with ``pytest -s``).  Computations made by criteria 1-6 are registered and
re-used by the piggybacking criteria 7 (Euler identity) and 8 (structural
bounds), which therefore must run after them -- pytest's in-file definition
order does exactly that; when run in isolation they fall back to a core
fixture set.
"""

import random
import time

import pytest

from oracles import minor_gcd_invariant_factors

from chromhom import _snfpure
from chromhom.algebra import make_poly_window, make_truncated
from chromhom.chromatic import Poly, euler_check
from chromhom.complexes import IntMatrix
from chromhom.graph import Graph, complete, cycle, delete_edge, polygon_with_diagonals, wedge
from chromhom.homology import AbelianGroup, compute_all, poincare_series, smith_normal_form
from chromhom.theorems import (
    CheckReport,
    check_del_contract_exactness,
    check_pendant,
    check_thickness,
    check_torsion_dichotomy,
    check_vanishing,
    check_polygon_formula,
    conjecture_polygon_h1,
    find_pendant_edges,
    random_multigraph,
    soft_triangle_square_torsion,
    _is_truncated_type,
)

Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))
A2 = make_truncated(2)
A3 = make_truncated(3)

# (graph, algebra, homology) triples accumulated by criteria 1-6 and re-used
# by the piggybacking criteria 7 and 8.
RESULTS: list[tuple[Graph, object, object]] = []


def compute_checked(g, a):
    h = compute_all(g, a)
    RESULTS.append((g, a, h))
    return h


def report(number: int, name: str, passed: bool, t0: float) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {name}: {verdict} ({time.time() - t0:.2f}s)")


# --- criterion 1: published polygon table, cell for cell --------------------

PUBLISHED_POLYGON_TABLE = {
    1: {},
    2: {(0, 2): Z, (0, 1): Z},
    3: {(0, 3): Z, (1, 2): Z2, (1, 1): Z},
    4: {(0, 4): Z, (0, 3): Z, (1, 3): Z, (2, 2): Z2, (2, 1): Z},
    5: {(0, 5): Z, (1, 4): Z2, (1, 3): Z, (2, 3): Z, (3, 2): Z2, (3, 1): Z},
    6: {
        (0, 6): Z, (0, 5): Z, (1, 5): Z, (2, 4): Z2, (2, 3): Z,
        (3, 3): Z, (4, 2): Z2, (4, 1): Z,
    },
}


def test_criterion_01_polygon_table():
    t0 = time.time()
    mismatches = {}
    for n, expected in PUBLISHED_POLYGON_TABLE.items():
        h = compute_checked(cycle(n), A2)
        if h.groups != expected:
            mismatches[n] = h.groups
    report(1, "polygon table n=1..6 over trunc:2", not mismatches, t0)
    assert not mismatches
    assert time.time() - t0 < 5


def test_criterion_02_polygon_closed_form():
    t0 = time.time()
    bad = []
    for n in range(1, 9):
        rep = check_polygon_formula(n)
        if not rep.passed:
            bad.append((n, rep.witness))
        RESULTS.append((cycle(n), A2, compute_all(cycle(n), A2)))
    report(2, "closed-form polygon check n=1..8", not bad, t0)
    assert not bad
    assert time.time() - t0 < 30


def test_criterion_03_triangle_over_truncated():
    t0 = time.time()
    ok = True
    for m in range(2, 6):
        a = make_truncated(m)
        h = compute_checked(cycle(3), a)
        torsion_cells = {k: grp.torsion for k, grp in h.groups.items() if grp.torsion}
        ok &= torsion_cells == {(1, m): (m,)}
        s = Poly({d: 1 for d in range(1, m)})
        expected = {(0, j): c for j, c in (s**3).c.items()}
        expected.update({(1, j): c for j, c in s.c.items()})
        ok &= poincare_series(h) == expected
    report(3, "triangle torsion and Poincare over trunc:m, m=2..5", ok, t0)
    assert ok
    assert time.time() - t0 < 10


def test_criterion_04_polynomial_ring_window():
    t0 = time.time()
    a = make_poly_window(8)
    h = compute_checked(cycle(3), a)
    ok = all(not grp.torsion for grp in h.groups.values())
    # H^{0,*}: (q + q^2 + ...)^3 truncated to j <= 8
    series = (Poly({d: 1 for d in range(1, 9)}) ** 3).truncate(8)
    height0 = {j: grp.free_rank for (i, j), grp in h.groups.items() if i == 0}
    ok &= height0 == series.c
    # H^{1,j} = Z exactly for 1 <= j <= 8
    height1 = {j: grp for (i, j), grp in h.groups.items() if i == 1}
    ok &= height1 == {j: Z for j in range(1, 9)}
    ok &= all(i < 2 for (i, _j) in h.groups)
    report(4, "polynomial-ring window J=8 for the triangle", ok, t0)
    assert ok
    assert time.time() - t0 < 10


def test_criterion_05_published_a3_fixtures():
    t0 = time.time()
    ok = True
    h = compute_checked(cycle(5), A3)
    ok &= h.group(1, 6) == AbelianGroup(0, (3,))
    h = compute_checked(cycle(4), A3)
    ok &= {j: grp for (i, j), grp in h.groups.items() if i == 1} == {4: Z, 5: Z}
    h = compute_checked(complete(4), A3)
    ok &= h.group(1, 5) == AbelianGroup(2, (3, 3, 6))
    k4e = delete_edge(complete(4), 0)
    for m in (2, 3):
        h = compute_checked(k4e, make_truncated(m))
        ok &= h.group(2, m) == AbelianGroup(0, (m,))
    report(5, "published trunc:3 fixtures and K_4-e", ok, t0)
    assert ok
    assert time.time() - t0 < 60


# --- criterion 6: exhaustive torsion dichotomy -------------------------------

def _atlas_connected_up_to_six():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    graphs = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if not (1 <= n <= 6):
            continue
        if not nx.is_connected(G):
            continue
        order = {v: k for k, v in enumerate(sorted(G.nodes()))}
        edges = tuple(sorted((min(order[u], order[w]), max(order[u], order[w]))
                             for u, w in G.edges()))
        graphs.append(Graph(n, edges))
    return graphs


def test_criterion_06_torsion_dichotomy_exhaustive():
    t0 = time.time()
    graphs = _atlas_connected_up_to_six()
    # 1 + 1 + 2 + 6 + 21 + 112 isomorphism classes of connected graphs
    assert len(graphs) == 143
    rng = random.Random(1234)
    graphs += [random_multigraph(rng, max_vertices=6, max_edges=8) for _ in range(50)]
    failures = []
    for g in graphs:
        h = compute_checked(g, A2)
        rep = check_torsion_dichotomy(g, h)
        if not rep.passed:
            failures.append(rep.to_json_dict())
    report(6, "torsion dichotomy, 143 graph classes + 50 multigraphs", not failures, t0)
    assert not failures, failures[:3]
    assert time.time() - t0 < 600


@pytest.mark.skipif(
    not __import__("os").environ.get("CHROMHOM_SLOW"),
    reason="set CHROMHOM_SLOW=1 for the extended seven-vertex sweep",
)
def test_extended_dichotomy_seven_vertices():
    """Optional extension past the required bound: 7-vertex classes (<= 14 edges)."""
    nx = pytest.importorskip("networkx")
    t0 = time.time()
    graphs = []
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() != 7 or G.number_of_edges() > 14:
            continue
        if not nx.is_connected(G):
            continue
        order = {v: k for k, v in enumerate(sorted(G.nodes()))}
        edges = tuple(sorted((min(order[u], order[w]), max(order[u], order[w]))
                             for u, w in G.edges()))
        graphs.append(Graph(7, edges))
    failures = []
    for g in graphs:
        h = compute_all(g, A2)
        rep = check_torsion_dichotomy(g, h)
        if not rep.passed:
            failures.append(rep.to_json_dict())
    print(f"extended dichotomy: {len(graphs)} seven-vertex classes in "
          f"{time.time() - t0:.1f}s, failures: {len(failures)}")
    assert not failures, failures[:3]


def _ensure_core_results():
    if not RESULTS:
        for n in (1, 2, 3, 4, 5, 6):
            compute_checked(cycle(n), A2)
        compute_checked(complete(4), A3)
        compute_checked(wedge(cycle(3), cycle(3)), A2)


def test_criterion_07_euler_characteristic_everywhere():
    t0 = time.time()
    _ensure_core_results()
    bad = []
    for g, a, h in RESULTS:
        if not a.graded:
            continue
        rep = euler_check(g, a, h)
        if not rep.passed:
            bad.append((g.to_json_dict(), a.spec, rep.residuals))
    report(7, f"Euler identity on {len(RESULTS)} computations", not bad, t0)
    assert not bad, bad[:3]


def test_criterion_08_structural_bounds_everywhere():
    t0 = time.time()
    _ensure_core_results()
    bad = []
    for g, a, h in RESULTS:
        rep = check_vanishing(g, a, h)
        if not rep.passed:
            bad.append(("vanishing", rep.to_json_dict()))
        if any(grp.torsion for (i, _j), grp in h.groups.items() if i == 0):
            bad.append(("H0-torsion", g.to_json_dict()))
        if (
            _is_truncated_type(a)
            and a.window is None
            and not g.has_loop()
            and all(g.degree(v) > 0 for v in range(g.vertex_count))
        ):
            rep = check_thickness(g, a, h)
            if not rep.passed:
                bad.append(("thickness", rep.to_json_dict()))
    report(8, f"vanishing/thickness bounds on {len(RESULTS)} computations", not bad, t0)
    assert not bad, bad[:3]


def test_criterion_09_chain_level_exactness():
    t0 = time.time()
    failures = []
    cases = (
        [(cycle(3), e) for e in range(3)]
        + [(cycle(4), e) for e in range(4)]
        + [(complete(4), e) for e in range(6)]
    )
    for g, e in cases:
        for a in (A2, A3):
            rep = check_del_contract_exactness(g, e, a)
            if not rep.passed:
                failures.append(rep.to_json_dict())
    report(9, "deletion/contraction exactness P_3, P_4, K_4 x trunc:2..3",
           not failures, t0)
    assert not failures, failures[:3]
    assert time.time() - t0 < 60


# --- criterion 10: deformed coefficients -------------------------------------

DEFORMED_TRIANGLE_CASES = [
    # (p low-to-high, published value or None when only the oracle equality applies)
    ([0, 0, 1], AbelianGroup(1, (2,))),
    ([0, 0, 0, 1], AbelianGroup(2, (3,))),
    ([0, 0, 0, 0, 1], AbelianGroup(3, (4,))),
    ([0, -1, 1], AbelianGroup(0, ())),
    ([-3, -2, 1], AbelianGroup(0, (2, 8))),  # b = 2 even: Z_2 + Z_{16/2}
    ([1, -2, 1], AbelianGroup(1, (2,))),
    ([-1, 0, 0, 1], AbelianGroup(0, (3, 3, 3))),
    ([-1, 0, 0, 0, 1], AbelianGroup(0, (4, 4, 4, 4))),
]


def test_criterion_10_deformed_against_oracle():
    from chromhom.algebra import make_deformed
    from chromhom.homology import cokernel_oracle
    from chromhom.theorems import poly_derivative

    t0 = time.time()
    bad = []
    for p, published in DEFORMED_TRIANGLE_CASES:
        a = make_deformed(p)
        h = compute_all(cycle(3), a)
        if a.graded:
            RESULTS.append((cycle(3), a, h))
        h1 = h.total(1)
        oracle = cokernel_oracle([p, poly_derivative(p)], 2 * (len(p) - 1) + 2)
        if h1 != oracle:
            bad.append((p, "engine != oracle", str(h1), str(oracle)))
        if published is not None and h1 != published:
            bad.append((p, "engine != published", str(h1), str(published)))
    report(10, "deformed-coefficient H^1 vs cokernel oracle", not bad, t0)
    assert not bad, bad
    assert time.time() - t0 < 60


# --- criterion 11: property suites -------------------------------------------

def test_criterion_11a_dd_zero_on_fixture_slices():
    t0 = time.time()
    fixtures = (
        [(cycle(n), A2) for n in range(1, 7)]
        + [(cycle(n), A3) for n in (3, 4, 5)]
        + [(complete(4), A2), (complete(4), A3)]
        + [(wedge(cycle(3), cycle(3)), A2)]
        + [(polygon_with_diagonals(4, [(0, 2)]), A3)]
    )
    for g, a in fixtures:
        compute_all(g, a, verify_dd=True)  # raises EngineError on violation
    report(11, "d o d = 0 on all fixture slices", True, t0)


def test_criterion_11b_snf_oracle_200_matrices():
    t0 = time.time()
    rng = random.Random(77)
    bad = 0
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
        expected = minor_gcd_invariant_factors(dense)
        got = list(smith_normal_form(IntMatrix(nr, nc, rows)).factors)
        pure = _snfpure.snf_invariant_factors(rows)
        if got != expected or pure != expected:
            bad += 1
    report(11, "SNF vs minor-gcd oracle on 200 random matrices", bad == 0, t0)
    assert bad == 0


def test_criterion_11c_edge_order_invariance():
    t0 = time.time()
    rng = random.Random(99)
    bad = []
    for base in (cycle(5), complete(4)):
        reference = compute_all(base, A2).groups
        for _ in range(10):
            edges = list(base.edges)
            rng.shuffle(edges)
            h = compute_all(Graph(base.vertex_count, tuple(edges)), A2)
            if h.groups != reference:
                bad.append(edges)
    report(11, "edge-order invariance on 20 permutations", not bad, t0)
    assert not bad


def _decorate_with_trees(rng, base: Graph, extra_edges: int) -> Graph:
    v = base.vertex_count
    edges = list(base.edges)
    for _ in range(extra_edges):
        anchor = rng.randrange(v)
        edges.append((anchor, v))
        v += 1
    return Graph(v, tuple(edges))


def test_criterion_11d_pendant_tensor_identity():
    t0 = time.time()
    rng = random.Random(55)
    bases = [cycle(3), cycle(4), cycle(5), complete(4), polygon_with_diagonals(4, [(0, 2)])]
    fixtures = []
    for base in bases:
        for _ in range(2):
            fixtures.append(_decorate_with_trees(rng, base, rng.randint(1, 3)))
    assert len(fixtures) == 10
    bad = []
    for k, g in enumerate(fixtures):
        a = A2 if k % 2 == 0 else A3
        pendants = find_pendant_edges(g)
        assert pendants
        rep = check_pendant(g, pendants[-1], a)
        if not rep.passed:
            bad.append(rep.to_json_dict())
    report(11, "pendant-edge tensor identity on 10 decorated fixtures", not bad, t0)
    assert not bad, bad[:2]
    assert time.time() - t0 < 300


def test_criterion_12_soft_check_report():
    t0 = time.time()
    lines = []
    for m in (2, 3):
        for v in (4, 5, 6):
            _agree, line = conjecture_polygon_h1(m, v)
            lines.append(line)
    small = [
        cycle(3), cycle(4), complete(4), polygon_with_diagonals(4, [(0, 2)]),
        polygon_with_diagonals(5, [(0, 2)]), wedge(cycle(3), cycle(3)),
        Graph(4, ((0, 1), (1, 2), (2, 0), (2, 3))),
        Graph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4))),
        cycle(5), cycle(6),
    ]
    rep = soft_triangle_square_torsion(small, 3)
    assert isinstance(rep, CheckReport) and rep.soft
    print("soft-check report (non-failing):")
    for line in lines:
        print("  polygon H^1 conjecture:", line)
    for chunk in rep.notes.split("; "):
        print("  triangle/square torsion conjecture:", chunk)
    # scan every trunc:2 computation made in this run for torsion of order
    # other than exactly 2 (conjectured impossible; reported, not asserted)
    _ensure_core_results()
    scanned = 0
    offenders = []
    for g, a, h in RESULTS:
        if a.spec != "trunc:2":
            continue
        scanned += 1
        for (i, j), grp in h.groups.items():
            offenders += [
                (g.to_json_dict(), i, j, t) for t in grp.torsion if t != 2
            ]
    print(f"  order-2 torsion conjecture: {scanned} computations scanned, "
          f"{'no counterexamples' if not offenders else offenders[:3]}")
    report(12, "soft-check report emitted", True, t0)
