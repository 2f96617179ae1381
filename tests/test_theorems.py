import pytest

from chromhom.algebra import Algebra, make_deformed, make_poly_window, make_truncated
from chromhom.chromatic import chromatic_polynomial
from chromhom.graph import (
    Graph,
    complete,
    cycle,
    delete_edge,
    path,
    polygon_with_diagonals,
    wedge,
)
from chromhom.homology import TRIVIAL_GROUP, AbelianGroup, BigradedHomology, compute_all
from chromhom.theorems import (
    a2_closed_form,
    check_a2_chromatic,
    check_conjecture_fixtures,
    check_del_contract_exactness,
    check_pendant,
    check_polygon_hh,
    check_torsion_dichotomy,
    check_vanishing,
    check_vgon_diagonals,
    find_pendant_edges,
    polygon_closed_form,
    run_suite,
    tensor_with_complement,
)

A2 = make_truncated(2)
A3 = make_truncated(3)
TRI_TAIL = Graph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))


def test_vanishing_examples():
    assert check_vanishing(cycle(6), A2).passed
    assert check_vanishing(Graph(5, ((0, 1), (2, 3))), A3).passed  # forest
    w = wedge(cycle(3), cycle(3))
    rep = check_vanishing(w, A2)
    assert rep.passed
    # wedge of triangles: H^3 = 0 (v1 - 2*mu1 = 5 - 2 = 3 is permitted but
    # the group itself vanishes per the source computation)
    h = compute_all(w, A3)
    assert all(i != 3 for (i, _j) in h.groups)


def test_thickness_a2_two_diagonals():
    # connected graphs over A_2 live on i+j in {v-1, v}; torsion on i+j = v
    for g in (cycle(4), cycle(5), complete(4), TRI_TAIL):
        assert check_vanishing(g, A2).passed
        h = compute_all(g, A2)
        v = g.vertex_count
        for (i, j), grp in h.groups.items():
            assert i + j in (v - 1, v)
            if grp.torsion:
                assert i + j == v
    assert check_vanishing(cycle(5), A3).passed
    assert check_vanishing(complete(4), A3).passed


def test_vanishing_needs_no_precondition():
    assert check_vanishing(cycle(1), A2).passed  # loop
    assert check_vanishing(Graph(2, ()), A2).passed  # isolated vertices
    assert check_vanishing(cycle(3), make_deformed([-1, -1, 1])).passed


def test_vanishing_names_the_violated_diagonal():
    # v - mu = 2 for the triangle, so a group at (0, 0) lies below the diagonal
    g = cycle(3)
    h = compute_all(g, A2)
    fake = BigradedHomology({**h.groups, (0, 0): AbelianGroup(1)}, A2.spec, g.to_json_dict())
    rep = check_vanishing(g, A2, fake)
    assert not rep.passed
    assert rep.witness["violated"].startswith("support diagonal")


def test_pendant_check():
    for e in find_pendant_edges(TRI_TAIL):
        assert check_pendant(TRI_TAIL, e, A2).passed
        assert check_pendant(TRI_TAIL, e, A3).passed
    with pytest.raises(ValueError):
        check_pendant(TRI_TAIL, 0, A2)  # cycle edge is not pendant


def test_tensor_with_complement_shapes():
    h = compute_all(cycle(3), A2)
    cells = tensor_with_complement(h, A2)
    # A' = Z{1}: everything shifts one degree up
    assert cells == {
        (0, 4): AbelianGroup(1),
        (1, 2): AbelianGroup(1),
        (1, 3): AbelianGroup(0, (2,)),
    }


def test_exactness_small():
    for g, e in ((cycle(3), 0), (cycle(3), 1), (cycle(4), 2)):
        assert check_del_contract_exactness(g, e, A2).passed
    assert check_del_contract_exactness(cycle(3), 0, A3).passed
    with pytest.raises(ValueError):
        check_del_contract_exactness(cycle(1), 0, A2)


def test_edge_checks_refuse_edges_outside_the_graph():
    # -1 would otherwise name the last edge, 3 is past it
    for check in (check_del_contract_exactness, check_pendant):
        for e in (-1, 3):
            with pytest.raises(ValueError, match="edge"):
                check(cycle(3), e, A2)


def test_exactness_on_multigraphs():
    # contracting an edge with a parallel partner creates a loop in G/e
    assert check_del_contract_exactness(cycle(2), 0, A2).passed
    tri_parallel = Graph(3, ((0, 1), (0, 1), (1, 2), (2, 0)))
    assert check_del_contract_exactness(tri_parallel, 0, A2).passed
    assert check_del_contract_exactness(tri_parallel, 1, A3).passed


def test_exactness_fails_on_a_sign_flip_in_either_chain_map_block(monkeypatch):
    # One entry of d_G^{i,j} negated at a time.  A flip among the states
    # without e breaks beta, one among the states with e breaks alpha, and
    # one in the block that adds e, the connecting map, leaves the sequence
    # exact.  e is already the last edge, so the check keeps this order.
    import chromhom.theorems as theorems
    from chromhom.complexes import Cube, differential, enumerate_basis

    g, e = Graph(4, ((0, 1), (2, 3), (3, 0), (1, 2))), 3
    cube = Cube(g, A2)
    expected = {
        (False, False): "beta is not a chain map",
        (True, True): "alpha is not a chain map",
        (True, False): None,
    }

    def with_e(basis):
        return {run.offset + t for run in basis.runs if run.mask >> e & 1
                for t in range(run.count)}

    seen = set()
    for i, j in ((1, 1), (2, 0)):
        src, dst = enumerate_basis(cube, i, j), enumerate_basis(cube, i + 1, j)
        rows, cols = with_e(dst), with_e(src)
        for r, c, _ in differential(src, dst).triplets():

            def mutated(s, d):
                mat = differential(s, d)
                if s.cube.g.edge_count == g.edge_count and (s.i, s.j) == (i, j):
                    mat.data[r][c] = -mat.data[r][c]
                return mat

            monkeypatch.setattr(theorems, "differential", mutated)
            rep = check_del_contract_exactness(g, e, A2)
            block = (r in rows, c in cols)
            seen.add(block)
            if expected[block] is None:
                assert rep.passed, (i, j, r, c)
            else:
                assert rep.witness == {"i": i, "j": j, "violated": expected[block]}, (r, c)
    assert seen == set(expected)


def test_k4_top_height_torsion():
    # the top-height group of the complete graph on 4 vertices at internal
    # degree m is finite with an element of order m (an extension of Z_m'
    # by Z_m); the exact shape is pinned as an engine regression
    for m in (2, 3, 4):
        h = compute_all(complete(4), make_truncated(m))
        grp = h.group(2, m)
        assert grp.free_rank == 0 and grp.has_torsion_of_order_divisible_by(m)
        assert grp == AbelianGroup(0, (m, m))


def test_dichotomy_cases():
    assert check_torsion_dichotomy(cycle(3)).passed  # odd cycle
    assert check_torsion_dichotomy(cycle(4)).passed  # even cycle
    assert check_torsion_dichotomy(Graph(4, ((0, 1), (1, 2)))).passed  # forest
    assert check_torsion_dichotomy(cycle(2)).passed  # multi-edge only
    assert check_torsion_dichotomy(cycle(1)).passed  # loop
    assert check_torsion_dichotomy(complete(4)).passed  # both parities


def test_polygon_closed_form_matches_table():
    expected_p5 = {
        (0, 5): AbelianGroup(1),
        (1, 4): AbelianGroup(0, (2,)),
        (1, 3): AbelianGroup(1),
        (2, 3): AbelianGroup(1),
        (3, 2): AbelianGroup(0, (2,)),
        (3, 1): AbelianGroup(1),
    }
    assert a2_closed_form(cycle(5)) == expected_p5
    for n in range(1, 9):
        assert check_a2_chromatic(cycle(n)).passed


def test_larger_polygons_match_closed_form():
    for n in (10, 12):
        assert check_a2_chromatic(cycle(n)).passed


def test_a2_closed_form_refuses_disconnected_graphs():
    # P_G cannot fix H of a disconnected graph: these two share
    # P_G = x^2 (x-1)^2 (x-2)^2 but not their groups
    two_triangles = Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    diamond_k2 = Graph(6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5)))
    assert chromatic_polynomial(two_triangles) == chromatic_polynomial(diamond_k2)
    assert compute_all(two_triangles, A2).groups != compute_all(diamond_k2, A2).groups
    for g in (two_triangles, complete(0)):
        with pytest.raises(ValueError, match="connected"):
            a2_closed_form(g)


def test_polygon_top_height_equals_triangle():
    # H^{v-2,*}(P_v) = H^{1,*}(P_3): free Z at degrees 1..m-1, Z_m at degree m
    for m, v in ((2, 5), (3, 4), (3, 6), (4, 5)):
        h = compute_all(cycle(v), make_truncated(m))
        top = {j: grp for (i, j), grp in h.groups.items() if i == v - 2}
        expected = {j: AbelianGroup(1) for j in range(1, m)}
        expected[m] = AbelianGroup(0, (m,))
        assert top == expected, (m, v, top)


def test_polygon_recursion():
    # H^{i+1}(P_{n+1}) == H^i(P_n) for i >= 1
    for n in (3, 4, 5):
        h_n = compute_all(cycle(n), A2)
        h_n1 = compute_all(cycle(n + 1), A2)
        for i in range(1, n + 1):
            left = {j: grp for (ii, j), grp in h_n1.groups.items() if ii == i + 1}
            right = {j: grp for (ii, j), grp in h_n.groups.items() if ii == i}
            assert left == right, (n, i)


def test_p3_am():
    # the triangle over trunc:m: Z at (1, 1..m-1) and a lone Z_m at (1, m)
    for m in (2, 3, 4):
        tri = polygon_closed_form(cycle(3), make_truncated(m))
        assert {k: g for k, g in tri.items() if k[0] == 1} == {
            (1, j): AbelianGroup(1) if j < m else AbelianGroup(0, (m,)) for j in range(1, m + 1)
        }
        assert check_polygon_hh(cycle(3), make_truncated(m)).passed


def test_deformed_p3_cases():
    # the triangle over Z[x]/(p): H^1 = A/(p') when A is ungraded
    for p, h1 in (([0, -1, 1], TRIVIAL_GROUP), ([-3, -2, 1], AbelianGroup(0, (2, 8))),
                  ([1, -2, 1], AbelianGroup(1, (2,))), ([-1, 0, 0, 1], AbelianGroup(0, (3, 3, 3))),
                  ([-1, 0, 0, 0, 1], AbelianGroup(0, (4, 4, 4, 4)))):
        a = make_deformed(p)
        assert polygon_closed_form(cycle(3), a).get((1, 0), TRIVIAL_GROUP) == h1
        rep = check_polygon_hh(cycle(3), a)
        assert rep.passed, (p, rep.witness)
    for p in ([0, 0, 1], [0, 0, 0, 1]):
        rep = check_polygon_hh(cycle(3), make_deformed(p))
        assert rep.passed, (p, rep.witness)


def test_polygon_hh_cases():
    # even and odd heights of longer polygons, windows, Z itself, a relabelled 5-gon
    for n in (1, 2, 4, 5, 6):
        for a in (make_truncated(3), make_deformed([-1, 0, 1]), make_poly_window(3),
                  make_truncated(1), make_deformed([5, 1])):
            rep = check_polygon_hh(cycle(n), a)
            assert rep.passed, (n, a.spec, rep.witness)
    relabelled = Graph(5, ((0, 3), (3, 1), (1, 4), (4, 2), (2, 0)))
    for a in (A3, make_deformed([-1, 0, 0, 1])):
        assert check_polygon_hh(relabelled, a).passed


_Z = (0, 0, 0)
XY = Algebra(  # Z[x, y]/(x, y)^2: rank 3 like Z[x]/(x^3), but x^2 = 0
    3, (0, 1, 1),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), _Z, _Z), ((0, 0, 1), _Z, _Z)),
    True, "xy",
)


@pytest.mark.parametrize(
    "g, a",
    [
        (path(4), A2),
        (complete(4), A2),
        (complete(0), A2),
        (complete(2), A2),
        (Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))), A2),
        (polygon_with_diagonals(5, [(0, 2)]), A2),
        (cycle(3), XY),
    ],
    ids=["path4", "k4", "k0", "k2", "two-triangles", "vgon5-chord", "not-a-quotient"],
)
def test_polygon_closed_form_refuses_inputs_outside_its_statement(g, a):
    with pytest.raises(ValueError):
        polygon_closed_form(g, a)


def test_conjecture_fixtures():
    rep = check_conjecture_fixtures()
    assert rep.passed, rep.witness


def test_vgon_diagonals():
    square_diag = polygon_with_diagonals(4, [(0, 2)])
    assert check_vgon_diagonals(square_diag, A2).passed
    assert check_vgon_diagonals(square_diag, A3).passed
    penta = polygon_with_diagonals(5, [(0, 2), (0, 3)])
    assert check_vgon_diagonals(penta, A2).passed
    k4_minus_e = delete_edge(complete(4), 0)
    assert check_vgon_diagonals(k4_minus_e, A3).passed
    # spot value: square with a diagonal has H^{2,2} = Z_2 over A_2
    h = compute_all(square_diag, A2)
    assert h.group(2, 2) == AbelianGroup(0, (2,))
    # parallel chords share endpoints, which is not a crossing
    assert check_vgon_diagonals(polygon_with_diagonals(5, [(0, 2), (0, 2)]), A2).passed


@pytest.mark.parametrize(
    "g",
    [
        path(4),
        cycle(1),
        cycle(2),
        complete(4),  # its first four edges are not a 4-gon
        Graph(4, ((0, 1), (1, 0), (2, 3), (3, 2))),  # two double edges
        polygon_with_diagonals(4, [(1, 1)]),
        polygon_with_diagonals(5, [(0, 2), (1, 3)]),
        polygon_with_diagonals(6, [(0, 3), (1, 4)]),
    ],
    ids=["path4", "loop", "digon", "k4", "double-edges", "loop-chord", "cross5", "cross6"],
)
def test_vgon_diagonals_refuses_graphs_outside_its_statement(g):
    with pytest.raises(ValueError):
        check_vgon_diagonals(g, A2)


def test_suite_runs_clean():
    reports = run_suite(seed=1)
    hard = [r for r in reports if not r.soft and not r.passed]
    assert hard == []
    assert any(r.soft for r in reports)
    # determinism
    again = run_suite(seed=1)
    assert [r.name for r in reports] == [r.name for r in again]
    assert [r.passed for r in reports] == [r.passed for r in again]
