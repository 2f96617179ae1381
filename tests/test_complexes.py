import hashlib
import random

import pytest

from oracles import brute_census

from chromhom.algebra import make_deformed, make_truncated, parse_algebra_spec
from chromhom.chromatic import Poly, qdim_poly
from chromhom.complexes import (
    Cube,
    EnhancedState,
    differential,
    dump_slice,
    enumerate_basis,
    per_edge_image,
    slice_dimension,
)
from chromhom.graph import (
    Graph,
    complete,
    components,
    cycle,
    polygon_with_diagonals,
    subset_census,
)
from chromhom.homology import degree_range

P3 = cycle(3)
A2 = make_truncated(2)
SPECS = ("trunc:2", "trunc:3", "poly:-1,0,0,1", "poly:-3,-2,1")


def random_multigraph(rng: random.Random, max_vertices: int, max_edges: int) -> Graph:
    """Endpoints drawn independently, so loops and parallel edges occur."""
    v = rng.randint(1, max_vertices)
    return Graph(
        v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, max_edges)))
    )


def slice_matrix(cube: Cube, i: int, j: int):
    return differential(enumerate_basis(cube, i, j), enumerate_basis(cube, i + 1, j))


def test_enumerate_counts_match_examples():
    cube = Cube(P3, A2)
    assert len(enumerate_basis(cube, 0, 3)) == 1
    assert enumerate_basis(cube, 0, 3).states[0] == EnhancedState(0, (1, 1, 1))
    assert len(enumerate_basis(cube, 0, 2)) == 3
    assert len(enumerate_basis(cube, 5, 1)) == 0


def test_enumerate_order_is_lexicographic():
    basis = enumerate_basis(Cube(P3, A2), 1, 1)
    pairs = [(s.subset, s.coloring) for s in basis.states]
    assert pairs == sorted(pairs)


def test_counts_match_counting_polynomial():
    # dim C^{i,j} is the q^j coefficient of sum over i-subsets of qdim^c(s)
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    a = make_truncated(3)
    qd = qdim_poly(a)
    cube = Cube(g, a)
    for i in range(g.edge_count + 1):
        expected = Poly()
        for mask in range(1 << g.edge_count):
            if mask.bit_count() == i:
                expected = expected + qd ** components(g, mask).component_count
        for j in range(10):
            assert slice_dimension(cube, i, j) == expected.coeff(j)
            assert len(enumerate_basis(cube, i, j)) == expected.coeff(j)


def test_per_edge_image_identity_on_cycle_closing():
    state = EnhancedState(0b011, (1,))
    [(target, coeff)] = per_edge_image(P3, A2, state, 2)
    assert target == EnhancedState(0b111, (1,)) and coeff == 1


def test_per_edge_image_merges_with_product():
    # colors (1, x, x); adding edge 0 merges components {0} and {1}: 1*x = x
    state = EnhancedState(0, (0, 1, 1))
    [(target, coeff)] = per_edge_image(P3, A2, state, 0)
    assert target == EnhancedState(0b001, (1, 1)) and coeff == 1
    # both colored x: x*x = 0, empty combination
    state = EnhancedState(0, (1, 1, 0))
    assert per_edge_image(P3, A2, state, 0) == []


def test_per_edge_image_rejects_present_edge():
    with pytest.raises(ValueError):
        per_edge_image(P3, A2, EnhancedState(0b001, (0, 0)), 0)


def test_per_edge_image_deformed_coefficients():
    alg = make_deformed([-2, -3, 1])  # x^2 = 2 + 3x
    g = Graph(2, ((0, 1),))
    state = EnhancedState(0, (1, 1))
    terms = per_edge_image(g, alg, state, 0)
    assert terms == [
        (EnhancedState(1, (0,)), 2),
        (EnhancedState(1, (1,)), 3),
    ]


def test_triangle_d02_matrix_is_the_displayed_one():
    # Each source state (one vertex colored 1) maps to the two one-edge
    # states whose edge touches that vertex, all coefficients +1.
    mat = slice_matrix(Cube(P3, A2), 0, 2)
    assert (mat.rows, mat.cols) == (3, 3)
    assert mat.triplets() == [
        (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 0, 1), (2, 2, 1),
    ]


def test_sign_flip_on_second_edge():
    # source: one edge present (e_0), adding e_1 has one set bit below it;
    # e_1 merges the colors 1 and x into x
    cube = Cube(P3, A2)
    src = enumerate_basis(cube, 1, 1)
    dst = enumerate_basis(cube, 2, 1)
    col = src.states.index(EnhancedState(0b001, (0, 1)))
    row = dst.states.index(EnhancedState(0b011, (1,)))
    assert differential(src, dst).data[row][col] == -1


def test_differential_needs_adjacent_bases_of_one_cube():
    cube = Cube(P3, A2)
    src = enumerate_basis(cube, 0, 2)
    for dst in (
        enumerate_basis(Cube(P3, A2), 1, 2),  # an equal graph, another cube
        enumerate_basis(cube, 2, 2),
        enumerate_basis(cube, 1, 1),
        src,
    ):
        with pytest.raises(ValueError):
            differential(src, dst)


def test_cube_keeps_colorings_of_one_degree():
    g = complete(4)
    cube = Cube(g, A2)
    for j in (2, 3):
        for i in range(g.edge_count):
            slice_matrix(cube, i, j)
    assert {key[1] for key in cube._colorings} == {3}
    assert cube._templates and {key[3] for key in cube._templates} == {3}
    # a basis of the dropped degree still lists its states
    assert len(enumerate_basis(cube, 1, 2).states) == slice_dimension(cube, 1, 2)
    assert {key[1] for key in cube._colorings} == {2}


def test_dd_zero_random():
    rng = random.Random(3)
    for _ in range(25):
        v = rng.randint(1, 5)
        g = Graph(
            v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(0, 7)))
        )
        a = rng.choice([A2, make_truncated(3), make_deformed([-1, -1, 1])])
        cube = Cube(g, a)
        jmax = a.max_degree * v if a.graded else 0
        for j in range(jmax + 1):
            for i in range(g.edge_count):
                d1 = slice_matrix(cube, i, j)
                d2 = slice_matrix(cube, i + 1, j)
                assert d2.compose(d1).is_zero(), (g, a.spec, i, j)


def test_degree_preservation():
    a = make_truncated(4)
    g = cycle(4)
    cube = Cube(g, a)
    rng = random.Random(1)
    for _ in range(60):
        i = rng.randint(0, 3)
        j = rng.randint(0, 10)
        basis = enumerate_basis(cube, i, j)
        if not basis.states:
            continue
        state = rng.choice(basis.states)
        absent = [e for e in range(4) if not state.subset >> e & 1]
        e = rng.choice(absent)
        for target, _coeff in per_edge_image(g, a, state, e):
            assert sum(a.degrees[c] for c in target.coloring) == j


def test_edge_cap():
    # Cube, subset_census and chromatic_polynomial take a Graph, which
    # cannot be built past the cap
    assert Graph(64, tuple((i, i + 1) for i in range(63))).edge_count == 63
    with pytest.raises(ValueError, match="63"):
        Graph(65, tuple((i, i + 1) for i in range(64)))


def test_dump_slice_format():
    cube = Cube(P3, A2)
    text = dump_slice(enumerate_basis(cube, 0, 2), enumerate_basis(cube, 1, 2))
    assert "state#0: subset=0b000, colors=[0, 1, 1]" in text
    assert "(0, 0, 1)" in text


def reference_differential(g, a, src, dst) -> dict[tuple[int, int], int]:
    """d^{i,j} built state by state from per_edge_image and the sign rule."""
    rows = {s: n for n, s in enumerate(dst.states)}
    entries: dict[tuple[int, int], int] = {}
    for col, state in enumerate(src.states):
        for e in range(g.edge_count):
            if state.subset >> e & 1:
                continue
            sign = -1 if (state.subset & ((1 << e) - 1)).bit_count() & 1 else 1
            for target, coeff in per_edge_image(g, a, state, e):
                key = (rows[target], col)
                entries[key] = entries.get(key, 0) + sign * coeff
    return {k: v for k, v in entries.items() if v}


def test_block_assembly_matches_per_state_rule():
    rng = random.Random(11)
    graphs = [random_multigraph(rng, 4, 6) for _ in range(30)]
    assert any(u == w for g in graphs for u, w in g.edges)
    assert any(len(set(g.edges)) < g.edge_count for g in graphs)
    tripled = Graph(3, ((0, 1), (1, 2), (0, 1), (2, 2), (0, 1), (0, 0)))
    for g in (complete(6), cycle(9), tripled):
        assert subset_census(g) == brute_census(g), g
    for g in graphs:
        assert subset_census(g) == brute_census(g), g
        for spec in SPECS:
            a = parse_algebra_spec(spec)
            cube = Cube(g, a)
            for j in degree_range(g, a):
                bases = [enumerate_basis(cube, i, j) for i in range(g.edge_count + 2)]
                for i, basis in enumerate(bases[:-1]):
                    assert len(basis) == slice_dimension(cube, i, j)
                    pairs = [(s.subset, s.coloring) for s in basis.states]
                    assert pairs == sorted(set(pairs))
                    assert len(pairs) == len(basis)
                    mat = differential(basis, bases[i + 1])
                    assert (mat.rows, mat.cols) == (len(bases[i + 1]), len(basis))
                    got = {(r, c): v for r, c, v in mat.triplets()}
                    assert got == reference_differential(
                        g, a, basis, bases[i + 1]
                    ), (g, spec, i, j)


def dump_fixtures() -> list[Graph]:
    rng = random.Random(2024)
    return [
        complete(4),
        cycle(5),
        polygon_with_diagonals(6, [(0, 2), (0, 3)]),
        *(random_multigraph(rng, 4, 6) for _ in range(3)),
    ]


def test_bases_dump_is_unchanged():
    # SHA-256 of every dump_slice over the fixtures, recorded with the
    # per-state assembly this block assembly replaced.
    digest = hashlib.sha256()
    for g in dump_fixtures():
        for spec in SPECS:
            a = parse_algebra_spec(spec)
            cube = Cube(g, a)
            for j in degree_range(g, a):
                for i in range(g.edge_count + 1):
                    src, dst = enumerate_basis(cube, i, j), enumerate_basis(cube, i + 1, j)
                    digest.update(dump_slice(src, dst).encode() + b"\n")
    assert digest.hexdigest() == (
        "9cd8fb868db5c952d8bc3287556fb0f32ced3842d1d7b1aa068e3b2869599611"
    )
