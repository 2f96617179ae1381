import json
import random

import pytest

from oracles import full_cube_groups, idempotent_times_a2

from chromhom.algebra import make_deformed, make_poly_window, make_truncated
from chromhom.complexes import Cube, EnhancedState, IntMatrix, per_edge_image
from chromhom.graph import Graph, complete, cycle, path, wedge
from chromhom.homology import (
    AbelianGroup,
    BigradedHomology,
    EngineError,
    SNFResult,
    TRIVIAL_GROUP,
    WindowError,
    cokernel_oracle,
    compute_all,
    cube_groups,
    degree_range,
    group_from_cyclic,
    homology_group,
    invariant_factors_from_cyclic,
    morse_groups,
    poincare_series,
)
from chromhom.morse import CRITICAL, UP, Matching, _Walk, unit_pattern

A2 = make_truncated(2)
A3 = make_truncated(3)


# --- abelian groups ---------------------------------------------------------

def test_group_canonical_form():
    assert invariant_factors_from_cyclic([2, 3]) == (6,)
    assert invariant_factors_from_cyclic([2, 2, 3]) == (2, 6)
    assert invariant_factors_from_cyclic([4, 6]) == (2, 12)
    assert invariant_factors_from_cyclic([1, 1]) == ()
    assert group_from_cyclic(1, [3, 3, 6]) == AbelianGroup(1, (3, 3, 6))


def test_group_rejects_bad_chain():
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(-1)


def test_zero_invariant_factor_is_a_value_error():
    with pytest.raises(ValueError):
        AbelianGroup(0, (0, 2))
    data = {
        "algebra": "trunc:2", "graph": {}, "window": None,
        "groups": [{"i": 1, "j": 0, "free": 0, "torsion": [0, 2]}],
    }
    with pytest.raises(ValueError):
        BigradedHomology.from_json_dict(data)


def test_direct_sum():
    a = AbelianGroup(1, (2,))
    b = AbelianGroup(0, (3,))
    assert a.direct_sum(b) == AbelianGroup(1, (6,))
    assert str(a.direct_sum(b)) == "Z + Z_6"


def test_homology_group_assembly():
    # H^{1,2}(P_3) over A_2: dim C^{1,2} = 3, d_in has SNF (1, 1, 2), d_out rank 2
    grp = homology_group(3, SNFResult((1, 1, 2)), 0)
    assert grp == AbelianGroup(0, (2,))
    grp = homology_group(5, SNFResult(()), 2)
    assert grp == AbelianGroup(3)
    with pytest.raises(EngineError):
        homology_group(2, SNFResult((1, 1)), 1)


# --- compute_all on known values -------------------------------------------

def test_single_vertex():
    h = compute_all(Graph(1, ()), A2)
    assert h.groups == {(0, 0): AbelianGroup(1), (0, 1): AbelianGroup(1)}


def test_loop_graph_trivial():
    h = compute_all(cycle(1), A2)
    assert h.groups == {}
    # loops anywhere kill everything
    g = Graph(3, ((0, 1), (1, 2), (2, 2)))
    assert compute_all(g, A3).groups == {}


def test_forest_concentrated_in_height_zero():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 5)
        h = compute_all(path(n), rng.choice([A2, A3]))
        assert all(i == 0 for (i, _j) in h.groups)
        assert all(not grp.torsion for grp in h.groups.values())


def test_p3_table_row():
    h = compute_all(cycle(3), A2)
    assert h.groups == {
        (0, 3): AbelianGroup(1),
        (1, 1): AbelianGroup(1),
        (1, 2): AbelianGroup(0, (2,)),
    }


def test_p6_published_cell():
    h = compute_all(cycle(6), A2)
    assert h.group(2, 4) == AbelianGroup(0, (2,))
    assert h.group(2, 3) == AbelianGroup(1)
    assert h.total(2) == AbelianGroup(1, (2,))


def test_h0_total_of_forest_matches_tensor_formula():
    # tree with n edges: H^0 = A tensor A'^n, so over A_2 qdim = q^n (1 + q)
    h = compute_all(path(4), A2)  # 3 edges
    assert {j: grp.free_rank for (i, j), grp in h.groups.items()} == {3: 1, 4: 1}
    h3 = compute_all(path(3), A3)  # 2 edges over A_3: (1+q+q^2)(q+q^2)^2
    assert {j: grp.free_rank for (i, j), grp in h3.groups.items()} == {
        2: 1, 3: 3, 4: 4, 5: 3, 6: 1,
    }


def test_empty_graph():
    h = compute_all(Graph(0, ()), A2)
    assert h.groups == {(0, 0): AbelianGroup(1)}


def test_multi_edge_simplification_invariance():
    # collapsing parallel classes to single edges never changes cohomology
    from chromhom.graph import simplify

    rng = random.Random(13)
    for _ in range(12):
        v = rng.randint(2, 5)
        g = Graph(
            v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 7)))
        )
        a = rng.choice([A2, A3])
        assert compute_all(g, a).groups == compute_all(simplify(g), a).groups, g


def test_edge_order_invariance():
    rng = random.Random(9)
    base = cycle(5)
    reference = compute_all(base, A2).groups
    for _ in range(5):
        edges = list(base.edges)
        rng.shuffle(edges)
        h = compute_all(Graph(5, tuple(edges)), A2)
        assert h.groups == reference


def test_vertex_relabeling_invariance():
    # relabeling vertices permutes the canonical component order everywhere;
    # the homology must not notice
    rng = random.Random(14)
    for _ in range(8):
        v = rng.randint(2, 5)
        g = Graph(
            v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 7)))
        )
        perm = list(range(v))
        rng.shuffle(perm)
        relabeled = Graph(v, tuple((perm[u], perm[w]) for u, w in g.edges))
        a = rng.choice([A2, A3])
        assert compute_all(g, a).groups == compute_all(relabeled, a).groups, (g, perm)


def test_verify_dd_flag():
    compute_all(complete(4), A2, verify_dd=True)


@pytest.mark.parametrize("bad_i, named_i", [(0, 0), (2, 1)])
def test_verify_dd_names_the_broken_composite(monkeypatch, bad_i, named_i):
    # One flipped sign in d^{bad_i,j} first breaks d^{bad_i} o d^{bad_i - 1},
    # or d^1 o d^0 when the flip is in d^0.
    import chromhom.homology as hom

    real = hom.differential

    def flipped(src, dst):
        m = real(src, dst)
        if (src.i, src.j) == (bad_i, 2):
            row = next(row for row in m.data if row)
            c = min(row)
            row[c] = -row[c]
        return m

    monkeypatch.setattr(hom, "differential", flipped)
    g = complete(4)
    with pytest.raises(EngineError, match=rf"\(i, j\) = \({named_i}, 2\)"):
        cube_groups(g, A2, degree_range(g, A2), verify_dd=True)


def test_verify_dd_sees_a_broken_column_that_the_reduction_drops(monkeypatch):
    # d^1's unit pivots cancel cells of C^{1,2}, so the Smith reduction of d^2
    # skips their columns; the d o d check must still see a wrong entry there.
    import chromhom.homology as hom

    monkeypatch.setattr(hom, "_KERNEL", "pure")
    real_snf, real_diff = hom.smith_normal_form, hom.differential
    last = []
    broken = []

    def snf(m, drop=frozenset()):
        last.append(real_snf(m, drop))
        return last[-1]

    def flipped(src, dst):
        m = real_diff(src, dst)
        if (src.i, src.j) == (2, 2):
            cancelled = last[-1].cancelled  # d^{1,2} was reduced just before
            r, c = next((r, c) for r, row in enumerate(m.data) for c in row if c in cancelled)
            m.data[r][c] = -m.data[r][c]
            broken.append(c)
        return m

    monkeypatch.setattr(hom, "smith_normal_form", snf)
    monkeypatch.setattr(hom, "differential", flipped)
    g = complete(4)
    with pytest.raises(EngineError, match=r"\(i, j\) = \(1, 2\)"):
        cube_groups(g, A2, degree_range(g, A2), verify_dd=True)
    assert broken


def test_slice_loop_skips_the_cancelled_columns(monkeypatch):
    # About half the columns of complete(5)/trunc:2 are cells that d^(i-1)
    # cancelled; a slice loop that lost the drop would hand the kernel all.
    import chromhom.homology as hom

    monkeypatch.setattr(hom, "_KERNEL", "pure")
    real = hom.smith_normal_form
    handed = []
    columns = []

    def spy(m, drop=frozenset()):
        handed.append(m.cols - len(drop))
        columns.append(m.cols)
        return real(m, drop)

    monkeypatch.setattr(hom, "smith_normal_form", spy)
    g = complete(5)
    cube_groups(g, A2, degree_range(g, A2))
    assert sum(handed) < 0.6 * sum(columns)


def test_morse_path_takes_connected_graded_algebras():
    assert all(a.connected for a in (A2, A3, make_truncated(1), make_poly_window(3)))
    assert make_deformed([0, 0, 1]).connected  # x^2 is graded
    assert not make_deformed([-1, 0, 0, 1]).connected
    assert not idempotent_times_a2().connected  # e is a degree-0 non-unit
    # compute_all keeps the others on the cube, but the Morse path takes them
    cubic = make_deformed([-1, 0, 0, 1])
    assert morse_groups(cycle(3), cubic, [0]) == full_cube_groups(cycle(3), cubic)


def test_matching_shares_the_cube_table_and_its_down_pairs():
    cube = Cube(complete(5), A2)
    match = Matching(cube)
    assert match.parts is cube.partitions()  # the cube's table, not a copy
    assert len(match.down) == 1 << cube.g.edge_count  # one slot per subset
    values = [v for v in match.down if v]
    assert all(isinstance(v, tuple) and v for v in values)
    assert len({id(v) for v in values}) == len(set(values))  # equal ones are one object


def test_matching_buckets_its_critical_subsets_without_the_mask_table(monkeypatch):
    # critical_masks comes from the subsets the match pass left live, not
    # from a list of all 2^n masks; it is the same bucketed filter by free.
    nx = pytest.importorskip("networkx")

    def refuse(self):
        raise AssertionError("Matching called Cube.masks_by_count")

    monkeypatch.setattr(Cube, "masks_by_count", refuse)
    graphs = [
        Graph(G.number_of_nodes(), tuple(G.edges()))
        for G in nx.graph_atlas_g()
        if G.number_of_nodes() <= 5
    ]
    for g in graphs:
        for a in (A2, A3):
            match = Matching(Cube(g, a))
            n = g.edge_count
            expected = [[] for _ in range(n + 1)]
            for s in range(1 << n):
                if match.free[s]:
                    expected[s.bit_count()].append(s)
            assert match.critical_masks == expected, (g, a.spec)


@pytest.mark.parametrize(
    "g, a, digest",
    [
        (complete(4), A3, "447f38305da0c71e0539f0279230f98d31c6c7098f050669e0a17384bbc969fd"),
        (
            cycle(7),
            make_poly_window(3),
            "da055950dd866f09d5e50cd9a0a397f13ac67738b833289bf175d42bdb612c58",
        ),
    ],
)
def test_morse_path_outputs_are_pinned(g, a, digest):
    # SHA-256 over the repr of every critical(i, j) list, then of every
    # differential's row dicts, slice by slice: the cells, their order and
    # every d_M entry, as they were when the pins were recorded
    import hashlib

    match = Matching(Cube(g, a))
    h = hashlib.sha256()
    for j in degree_range(g, a):
        cells = [match.critical(i, j) for i in range(g.edge_count + 2)]
        for crit in cells:
            h.update(repr(crit).encode())
        for i in range(g.edge_count + 1):
            if cells[i] and cells[i + 1]:
                h.update(repr(match.differential(cells[i], cells[i + 1]).data).encode())
    assert h.hexdigest() == digest


def test_morse_path_peak_on_complete6():
    # the bound sits between the tracemalloc peaks of the whole computation
    # with the matching at one list slot per subset (1.2 MiB) and with a list
    # of all 2^n mask ints and a dict of matched-down subsets beside it
    # (3.2 MiB)
    import tracemalloc

    tracemalloc.start()
    try:
        compute_all(complete(6), A2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024**2


@pytest.mark.parametrize("bad_i", [0, 1])
def test_verify_dd_names_the_broken_morse_slice(monkeypatch, bad_i):
    # complete(4)/trunc:3 has nonzero d_M^{0,3} and d_M^{1,3}; one flipped
    # entry in either breaks d_M^1 o d_M^0, which names (0, 3).  In d_M^1
    # the entry sits in a column that d_M^0 maps onto.
    real = Matching.differential
    built = []

    def flipped(self, src, dst):
        m = real(self, src, dst)
        (s, col) = src[0]
        if (s.bit_count(), sum(col)) == (bad_i, 3):
            onto = {k for k, row in enumerate(built[-1].data) if row} if bad_i else None
            r, c = next(
                (r, c) for r, row in enumerate(m.data) for c in row if onto is None or c in onto
            )
            m.data[r][c] = -m.data[r][c]
        built.append(m)
        return m

    monkeypatch.setattr(Matching, "differential", flipped)
    with pytest.raises(EngineError, match=r"\(i, j\) = \(0, 3\)"):
        compute_all(complete(4), A3, verify_dd=True)


def test_morse_walk_raises_at_a_gradient_cycle(monkeypatch):
    # Match every matched-up pattern of a one-edge subset down along its
    # edge, as if the unit rule held at slot p2.  The walk from the one
    # critical cell of C^{0,3} then reaches a cell still in progress.
    g = complete(4)
    real = Matching.status
    looped_at = []

    def looped(self, t, z):
        got = real(self, t, z)
        if got is UP and t.bit_count() == 1:
            looped_at.append((t, z))
            u, w = g.edges[t.bit_length() - 1]
            return 0, max(u, w), 1
        return got

    monkeypatch.setattr(Matching, "status", looped)
    with pytest.raises(EngineError, match="gradient cycle"):
        compute_all(g, A3, j_range=[3])
    assert looped_at


def _brute_terms(walk, s, col, skip, scale):
    """``_Walk.terms`` from ``per_edge_image``, each term's pattern read off
    its coloring."""
    g, a = walk.match.cube.g, walk.match.cube.a
    acc, down = {}, []
    for e in range(g.edge_count):
        t = s | 1 << e
        if t == s or t == skip:
            continue
        sign = -scale if (s & ((1 << e) - 1)).bit_count() & 1 else scale
        for (_, tcol), c in per_edge_image(g, a, EnhancedState(s, col), e):
            z = unit_pattern(tcol)
            st = walk.match.status(t, z)
            if st is CRITICAL:
                r = walk.rows[(t, tcol)]
                acc[r] = acc.get(r, 0) + sign * c
            elif st is not UP:
                down.append(((t, tcol), z, st, sign * c))
    return acc, down


@pytest.mark.parametrize(
    "g, a",
    [
        (complete(4), A3),
        (cycle(5), A3),
        (complete(4), make_deformed([-1, 0, 0, 1])),
        (cycle(4), idempotent_times_a2()),
    ],
)
def test_walk_terms_carry_the_unit_pattern_of_their_coloring(monkeypatch, g, a):
    # Every cell the walk expands, critical sources and matched-down
    # partners alike, comes with the pattern of its coloring, and its terms
    # are d's terms with their own patterns, less the matched-up ones.
    real = _Walk.terms
    seen = {"sources": 0, "partners": 0, "down terms": 0}

    def checked(self, s, col, z, skip, scale):
        assert z == unit_pattern(col), (s, col, z)
        got = real(self, s, col, z, skip, scale)
        assert got == _brute_terms(self, s, col, skip, scale), (s, col, skip)
        seen["partners" if skip >= 0 else "sources"] += 1
        seen["down terms"] += len(got[1])
        return got

    monkeypatch.setattr(_Walk, "terms", checked)
    assert morse_groups(g, a, degree_range(g, a)) == full_cube_groups(g, a)
    assert min(seen.values()) > 0, seen


def test_compiled_kernel_gives_the_pure_groups(compiled_snfcore, monkeypatch):
    import types

    import chromhom.homology as hom

    cases = [
        (cycle(5), A2),
        (complete(4), A3),
        (Graph(3, ((0, 1), (0, 1), (1, 2), (2, 0), (2, 2))), A2),
        (complete(4), make_deformed([-1, 0, 0, 1])),
    ]

    def no_fallback(rows, drop=frozenset()):
        raise AssertionError("the pure kernel ran")

    monkeypatch.setattr(hom, "_KERNEL", "auto")
    for g, a in cases:
        monkeypatch.setattr(hom, "_snfcore", None)
        pure = compute_all(g, a)
        monkeypatch.setattr(hom, "_snfcore", compiled_snfcore)
        with monkeypatch.context() as m:
            # no fallback: every matrix here fits the compiled kernel
            m.setattr(hom, "_snfpure", types.SimpleNamespace(snf_invariant_factors=no_fallback))
            assert compute_all(g, a) == pure, (g, a.spec)


def test_window_errors_above_certified_range():
    a = make_poly_window(4)
    compute_all(cycle(3), a, j_range=range(0, 5))
    with pytest.raises(WindowError):
        compute_all(cycle(3), a, j_range=range(0, 6))


def test_window_agrees_with_larger_truncations():
    # the degree window into Z[x] must be exact: groups at j <= J coincide
    # with those over any truncation of order > J + 1
    rng = random.Random(12)
    for _ in range(6):
        v = rng.randint(2, 4)
        g = Graph(
            v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 5)))
        )
        J = rng.randint(1, 4)
        hw = compute_all(g, make_poly_window(J))
        for extra in (1, 2):
            ht = compute_all(g, make_truncated(J + 1 + extra))
            restricted = {k: grp for k, grp in ht.groups.items() if k[1] <= J}
            assert hw.groups == restricted, (g, J, extra)


def test_j_range_slices_are_independent():
    g = complete(4)
    full = compute_all(g, A3)
    for j in (2, 4, 5):
        partial = compute_all(g, A3, j_range=[j])
        assert partial.groups == {k: v for k, v in full.groups.items() if k[1] == j}


def test_ungraded_single_slice():
    a = make_deformed([-1, 0, 0, 1])
    h = compute_all(cycle(3), a)
    assert all(j == 0 for (_i, j) in h.groups)
    with pytest.raises(ValueError):
        compute_all(cycle(3), a, j_range=[1])


def test_poincare_series():
    h = compute_all(cycle(3), A3)
    series = poincare_series(h)
    s = {(0, 3): 1, (0, 4): 3, (0, 5): 3, (0, 6): 1, (1, 1): 1, (1, 2): 1}
    assert series == s


def test_json_round_trip():
    h = compute_all(wedge(cycle(3), cycle(3)), A2)
    data = json.loads(json.dumps(h.to_json_dict()))
    back = BigradedHomology.from_json_dict(data)
    assert back == h


# --- cokernel oracle --------------------------------------------------------

def test_big_coefficients_survive_kernel_fallback():
    # structure constants near 10^7 push intermediate entries past 64 bits;
    # the dispatcher must still return the exact group
    from chromhom.theorems import poly_derivative

    big = 10**7
    p = [-big, -big, 1]
    h = compute_all(cycle(3), make_deformed(p))
    h1 = h.total(1)
    expected_order = (big * big + 4 * big) // 2
    assert h1 == AbelianGroup(0, (2, expected_order))
    assert h1 == cokernel_oracle([p, poly_derivative(p)], 8)


def test_cokernel_oracle_xm():
    for m in (2, 3, 4):
        p = [0] * m + [1]
        dp = [k * c for k, c in enumerate(p)][1:]
        grp = cokernel_oracle([p, dp], 2 * m + 2)
        assert grp == AbelianGroup(m - 1, (m,))


def test_cokernel_oracle_quadratic_cases():
    # b odd, b^2+4a != 0: Z_|b^2+4a|
    p = [0, -1, 1]  # x^2 - x: b=1, a=0 -> trivial
    assert cokernel_oracle([p, [-1, 2]], 8) == TRIVIAL_GROUP
    # b even: Z_2 + Z_{|b^2+4a|/2}
    p = [-3, -2, 1]  # b=2, a=3 -> 16
    assert cokernel_oracle([p, [-2, 2]], 8) == AbelianGroup(0, (2, 8))
    # b^2+4a = 0: Z + Z_2
    p = [1, -2, 1]
    assert cokernel_oracle([p, [-2, 2]], 8) == AbelianGroup(1, (2,))


def test_cokernel_oracle_xm_minus_1():
    for m in (2, 3):
        p = [-1] + [0] * (m - 1) + [1]
        dp = [k * c for k, c in enumerate(p)][1:]
        grp = cokernel_oracle([p, dp], 2 * m + 4)
        assert grp == group_from_cyclic(0, [m] * m)


def test_cokernel_oracle_stabilizes_in_bound():
    p = [-3, -2, 1]
    dp = [-2, 2]
    assert cokernel_oracle([p, dp], 6) == cokernel_oracle([p, dp], 12)


def test_cokernel_oracle_requires_monic():
    with pytest.raises(ValueError, match="monic|unbounded"):
        cokernel_oracle([[0, 2], [2]], 6)


def test_intmatrix_compose():
    a = IntMatrix(2, 2, [{0: 1}, {1: 2}])
    b = IntMatrix(2, 2, [{1: 3}, {0: -1}])
    ab = a.compose(b)
    assert ab.triplets() == [(0, 1, 3), (1, 0, -2)]
