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

from oracles import (
    first_cycle_node,
    full_cube_groups,
    gradient_pattern_cycle,
    idempotent_times_a2,
    minor_gcd_invariant_factors,
)

from chromhom import _snfpure
from chromhom.algebra import make_deformed, make_poly_window, make_truncated
from chromhom.chromatic import Poly, chromatic_polynomial, euler_check, qdim_poly
from chromhom.complexes import Cube, IntMatrix
from chromhom.graph import Graph, complete, cycle, delete_edge, polygon_with_diagonals, wedge
from chromhom.homology import (
    AbelianGroup,
    compute_all,
    cube_groups,
    degree_range,
    poincare_series,
    smith_normal_form,
)
from chromhom.morse import Matching
from chromhom.theorems import (
    CheckReport,
    check_a2_chromatic,
    check_del_contract_exactness,
    check_pendant,
    check_polygon_hh,
    check_torsion_dichotomy,
    check_vanishing,
    find_pendant_edges,
    random_multigraph,
    soft_triangle_square_torsion,
    _connected,
)

Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))
A2 = make_truncated(2)
A3 = make_truncated(3)
# x^3 - 1, x^2 - 2x - 3, (x - 1)^2, x^2 - x, x^2 - 2, low to high
DEFORMED_P = ([-1, 0, 0, 1], [-3, -2, 1], [1, -2, 1], [0, -1, 1], [-2, 0, 1])

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
    # cycle(1) is the loop and cycle(2) the double edge
    t0 = time.time()
    bad = []
    for n in range(1, 9):
        rep = check_a2_chromatic(cycle(n), compute_checked(cycle(n), A2))
        if not rep.passed:
            bad.append((n, rep.witness))
    report(2, "A_2 closed form from P_G on polygons n=1..8", not bad, t0)
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


# --- criterion 6: exhaustive torsion dichotomy and A_2 closed form -----------

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
        reps = [check_torsion_dichotomy(g, h)]
        if _connected(g):
            reps.append(check_a2_chromatic(g, h))
        failures += [rep.to_json_dict() for rep in reps if not rep.passed]
    report(6, "torsion dichotomy and A_2 closed form, 143 graph classes + 50 multigraphs",
           not failures, t0)
    assert not failures, failures[:3]
    assert time.time() - t0 < 600


def test_slice_loop_equals_the_full_cube_oracle():
    # compute_all reduces the Morse complex over a graded algebra, and over
    # any other d^i without the cells d^(i-1) cancelled; the oracle reduces
    # every full d^i of the cube.  The groups must be identical, and per j
    # the alternating count of critical cells must equal [q^j] P_G(qdim A).
    graphs = [g for g in _atlas_connected_up_to_six() if g.vertex_count <= 5]
    rng = random.Random(4321)
    multigraphs = [random_multigraph(rng, max_vertices=5, max_edges=7) for _ in range(50)]
    assert any(u == w for g in multigraphs for u, w in g.edges)
    assert any(len(set(map(frozenset, g.edges))) < g.edge_count for g in multigraphs)
    graded = (A2, A3, make_truncated(1), make_poly_window(3))
    cases = [(g, a) for g in graphs + multigraphs for a in graded]
    # idempotent_times_a2 is graded with a degree-0 non-unit: the only input
    # whose several degree slices compute_all reduces on the cube
    cases += [
        (g, a)
        for g in (complete(4), cycle(5))
        for a in [make_deformed(p) for p in DEFORMED_P]
        + [make_poly_window(3), idempotent_times_a2()]
    ]
    torsion = 0
    for g, a in cases:
        h = compute_all(g, a)
        assert h.groups == full_cube_groups(g, a), (g, a.spec)
        torsion += sum(1 for grp in h.groups.values() if grp.torsion)
        if a.connected:
            match = Matching(Cube(g, a))
            chrom = chromatic_polynomial(g).compose(qdim_poly(a))
            for j in degree_range(g, a):
                cells = sum(
                    (-1) ** i * len(match.critical(i, j)) for i in range(g.edge_count + 1)
                )
                assert cells == chrom.coeff(j), (g, a.spec, j)
    assert torsion > 100


def test_gradient_patterns_are_acyclic():
    # Evidence beside the proof in chromhom.morse: the digraph over unit
    # patterns over-approximates every gradient step and has no cycle.  The
    # x^3 - 1 graphs are the benchmark's; compute_all keeps them on the cube.
    graphs = [g for g in _atlas_connected_up_to_six() if g.vertex_count <= 5]
    cases = [(g, a) for g in graphs for a in (A2, A3)]
    cubic = make_deformed([-1, 0, 0, 1])
    cases += [
        (g, cubic)
        for g in (
            polygon_with_diagonals(6, [(0, 2), (0, 3), (0, 4)]), complete(5), cycle(7)
        )
    ]
    for g, a in cases:
        assert gradient_pattern_cycle(g, a) is None, (g, a.spec)
    # the search itself finds a cycle behind an acyclic prefix
    steps = {0: [1], 1: [2, 3], 2: [], 3: [4], 4: [1]}
    assert first_cycle_node([0], steps.get) in {1, 3, 4}
    assert first_cycle_node([0, 2], {0: [2], 2: []}.get) is None


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
        reps = [check_torsion_dichotomy(g, h), check_a2_chromatic(g, h)]
        failures += [rep.to_json_dict() for rep in reps if not rep.passed]
    print(f"extended dichotomy and A_2 closed form: {len(graphs)} seven-vertex classes in "
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
    report(8, f"support bounds on {len(RESULTS)} computations", not bad, t0)
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
        # each raises EngineError on violation: d_M o d_M, then the cube's d o d
        compute_all(g, a, verify_dd=True)
        cube_groups(g, a, degree_range(g, a), verify_dd=True)
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
        pure, _ = _snfpure.snf_invariant_factors(rows)
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
    for chunk in rep.notes.split("; "):
        print("  triangle/square torsion conjecture:", chunk)
    report(12, "soft-check report emitted", True, t0)


# --- criterion 13: polygons against Hochschild homology ----------------------

def test_criterion_13_polygon_hochschild():
    """``CHROMHOM_SLOW=1`` adds the octagon over the rank-3 and rank-4 algebras
    (about 110 s more on one core)."""
    t0 = time.time()
    octagon = [8] if __import__("os").environ.get("CHROMHOM_SLOW") else []
    cases = [
        (range(1, 9), [[0, 0, 1], [0, 0, 0, 1], [-3, -2, 1], [1, -2, 1], [0, -1, 1], [-2, 0, 1]]),
        ([*range(1, 8), *octagon], [[0, 0, 0, 0, 1], [-1, 0, 0, 1], [0, -1, 0, 1]]),
        ([*range(1, 7), *octagon], [[-1, 0, 0, 0, 1]]),
    ]
    failures = []
    for ns, polys in cases:
        for p in polys:
            a = make_deformed(p)
            for n in ns:
                rep = check_polygon_hh(cycle(n), a)
                if not rep.passed:
                    failures.append((n, a.spec, rep.witness))
    report(13, "polygon cohomology as Hochschild homology, n=1..8 over ten algebras",
           not failures, t0)
    assert not failures, failures[:3]
