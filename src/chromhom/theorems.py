"""Executable property suites for the engine's structural statements.

Each check is a named, parameterized assertion over engine outputs and
returns a CheckReport; failing reports always carry a witness.  Soft checks
(statements the source material only conjectures) report their findings but
never fail the suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import Algebra, make_deformed, make_truncated, qdim
from .chromatic import Poly, chromatic_polynomial, euler_check
from .complexes import Cube, differential, enumerate_basis
from .graph import (
    Graph,
    complete,
    components,
    contract_edge,
    cycle,
    delete_edge,
    polygon_with_diagonals,
    shortest_cycle_parity,
    simplify,
    wedge,
)
from .homology import (
    AbelianGroup,
    BigradedHomology,
    TRIVIAL_GROUP,
    cokernel_oracle,
    compute_all,
    degree_range,
    group_from_cyclic,
)


@dataclass
class CheckReport:
    name: str
    params: dict
    passed: bool
    witness: object = None
    soft: bool = False
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "check": self.name,
            "params": {k: str(v) for k, v in self.params.items()},
            "passed": self.passed,
            "soft": self.soft,
            "witness": None if self.witness is None else str(self.witness),
            "notes": self.notes,
        }


def _component_counts(g: Graph) -> tuple[int, int, int]:
    """(vertices, components) of the non-tree part of the graph, and all components."""
    part = components(g, (1 << g.edge_count) - 1)
    vs = [0] * part.component_count
    es = [0] * part.component_count
    for v in range(g.vertex_count):
        vs[part.component_id[v]] += 1
    for u, w in g.edges:
        es[part.component_id[u]] += 1
    v1 = mu1 = 0
    for k in range(part.component_count):
        if es[k] != vs[k] - 1:  # a component is a tree iff e = v - 1
            v1 += vs[k]
            mu1 += 1
    return v1, mu1, part.component_count


def _is_truncated_type(a: Algebra) -> bool:
    """True for Z[x]/(x^m) shaped algebras (window algebras included)."""
    return a.graded and a.degrees == tuple(range(a.rank))


def check_vanishing(g: Graph, a: Algebra, h: BigradedHomology | None = None) -> CheckReport:
    """Where H^{i,j}(G) over A may be nonzero, and where it may have torsion.

    Let v and mu count the vertices and components of G, and v1 and mu1
    those of its components that are not trees.  Over every algebra,
    H^{i,j} = 0 unless 0 <= i <= v1 - 2*mu1, and torsion needs i >= 1.
    Over Z[x]/(x^m), window algebras included, also H^{i,j} = 0 unless
    i + j >= v - mu and (m-1) i + j <= (m-1) v, and torsion needs
    i + j >= v - mu + 1 (Helme-Guizon, Przytycki and Rong, *Torsion in
    graph homology*).  No graph is excluded: a loop makes every group 0;
    an isolated vertex tensors H with A, which adds one to v and to mu and
    0..m-1 to j, so both diagonal bounds still hold; and the height bound
    already leaves tree components out.  A failing report's witness names
    the violated bound.
    """
    h = h if h is not None else compute_all(g, a)
    v1, mu1, mu = _component_counts(g)
    v, m = g.vertex_count, a.rank
    diagonals = _is_truncated_type(a)
    params = {"graph": g.to_json_dict(), "algebra": a.spec}
    for (i, j), grp in h.items_sorted():
        bad = None
        if not 0 <= i <= v1 - 2 * mu1:
            bad = "support height (1a)"
        elif diagonals and i + j < v - mu:
            bad = "support diagonal (1b)"
        elif diagonals and (m - 1) * i + j > (m - 1) * v:
            bad = "support degree (1c)"
        elif grp.torsion and i < 1:
            bad = "torsion height (2a)"
        elif grp.torsion and diagonals and i + j < v - mu + 1:
            bad = "torsion diagonal (2b)"
        if bad:
            return CheckReport(
                "vanishing", params, False,
                witness={"i": i, "j": j, "group": str(grp), "violated": bad},
            )
    return CheckReport("vanishing", params, True)


def tensor_with_complement(h: BigradedHomology, a: Algebra) -> dict:
    """Graded groups of H tensor A', where A = Z*1 (+) A' as Z-modules.

    A' is free, so the tensor multiplies free ranks and replicates torsion,
    with a degree shift per A' basis degree in the graded case.
    """
    ranks = Poly(qdim(a) if a.graded else {0: a.rank}) - Poly({0: 1})
    acc: dict[tuple[int, int], list] = {}
    for (i, j), grp in h.groups.items():
        for d, r in ranks.c.items():
            cell = acc.setdefault((i, j + d), [0, []])
            cell[0] += r * grp.free_rank
            cell[1].extend(list(grp.torsion) * r)
    out = {}
    for key, (free, parts) in acc.items():
        grp = group_from_cyclic(free, parts)
        if not grp.is_trivial:
            out[key] = grp
    return out


def find_pendant_edges(g: Graph) -> list[int]:
    return [
        k
        for k, (u, w) in enumerate(g.edges)
        if u != w and (g.degree(u) == 1 or g.degree(w) == 1)
    ]


def _endpoints(g: Graph, e: int) -> tuple[int, int]:
    if not 0 <= e < g.edge_count:
        raise ValueError(f"edge {e} is not in 0..{g.edge_count - 1}")
    return g.edges[e]


def _group_diff(actual: dict, expected: dict) -> dict:
    """Each key where two tables of nonzero groups differ -> (actual, expected)."""
    return {
        k: (str(actual.get(k, TRIVIAL_GROUP)), str(expected.get(k, TRIVIAL_GROUP)))
        for k in set(actual) | set(expected)
        if actual.get(k) != expected.get(k)
    }


def check_pendant(g: Graph, e: int, a: Algebra) -> CheckReport:
    """H^*(G) == H^*(G/e) tensor A' when e is a pendant edge."""
    _endpoints(g, e)
    if e not in find_pendant_edges(g):
        raise ValueError(f"edge {e} is not pendant")
    params = {"graph": g.to_json_dict(), "edge": e, "algebra": a.spec}
    hg = compute_all(g, a)
    hc = compute_all(contract_edge(g, e), a)
    diff = _group_diff(hg.groups, tensor_with_complement(hc, a))
    return CheckReport("pendant", params, not diff, witness=diff or None)


def check_del_contract_exactness(g: Graph, e: int, a: Algebra) -> CheckReport:
    """Chain-level short exact sequence 0 -> C^{*-1}(G/e) -> C^*(G) -> C^*(G-e) -> 0.

    Helme-Guizon and Rong, *A categorification for the chromatic
    polynomial* (AGT 2005).  The edge e is relabeled last, so it is the top
    bit of every mask and sits below no other edge.  In mask order each
    basis C^{i,j}(G) is then C^{i,j}(G-e) followed by C^{i-1,j}(G/e), run
    for run, with e's bit added to each G/e mask and no sign changed.  So
    alpha (insert e) is a block inclusion, beta (drop the states with e) a
    block projection, and both are onto, with image alpha = kernel beta,
    once the runs correspond in masks and component counts and the
    dimensions add up.  beta is a chain map iff the rows of d_G over G-e
    equal d_{G-e}, with no entry in a column with e; alpha is one iff the
    block of d_G from states with e to states with e equals d_{G/e}.  The
    block from states without e to states with e adds e: it is the
    connecting map, and the sequence leaves it free.  One height of each
    degree is held at a time.
    """
    u, w = _endpoints(g, e)
    if u == w:
        raise ValueError("exactness needs a non-loop edge")
    params = {"graph": g.to_json_dict(), "edge": e, "algebra": a.spec}
    n = g.edge_count
    reordered = Graph(
        g.vertex_count, tuple(ed for k, ed in enumerate(g.edges) if k != e) + (g.edges[e],)
    )
    # (cube, height shift): C^{i,j}(G), C^{i,j}(G-e) and C^{i-1,j}(G/e) at height i
    cubes = ((Cube(reordered, a), 0), (Cube(delete_edge(reordered, n - 1), a), 0),
             (Cube(contract_edge(reordered, n - 1), a), 1))
    last_bit = 1 << (n - 1)

    def fail(i, j, what):
        return CheckReport(
            "del-contract-exactness", params, False,
            witness={"i": i, "j": j, "violated": what},
        )

    def runs(basis, bit=0):
        return [(run.mask | bit, run.partition.component_count) for run in basis.runs]

    for j in degree_range(reordered, a):
        prev = None
        for i in range(n + 1):
            cur = bg, bd, bc = [enumerate_basis(cube, i - s, j) for cube, s in cubes]
            if len(bg) != len(bd) + len(bc):
                return fail(i, j, "dimension identity")
            if runs(bg) != runs(bd) + runs(bc, last_bit):
                return fail(i, j, "runs of G != runs of G-e, then of G/e with e")
            if prev is not None:
                d_g, d_d, d_c = (differential(src, dst).data for src, dst in zip(prev, cur))
                top, left = len(bd), len(prev[1])
                with_e = [{c - left: v for c, v in row.items() if c >= left} for row in d_g[top:]]
                if with_e != d_c:
                    return fail(i - 1, j, "alpha is not a chain map")
                if d_g[:top] != d_d:
                    return fail(i - 1, j, "beta is not a chain map")
            prev = cur
    return CheckReport("del-contract-exactness", params, True)


def check_torsion_dichotomy(g: Graph, h: BigradedHomology | None = None) -> CheckReport:
    """Torsion over Z[x]/(x^2) iff loop-free with a cycle of length >= 3.

    When an odd cycle exists, 2-torsion must sit in H^{1,v-1}; when the
    graph is simple with an even cycle, in H^{2,v-2}.
    """
    a2 = make_truncated(2)
    h = h if h is not None else compute_all(g, a2)
    info = shortest_cycle_parity(g)
    expected = not info.has_loop and (info.has_odd_cycle or info.has_even_cycle)
    actual = any(grp.torsion for grp in h.groups.values())
    params = {"graph": g.to_json_dict()}
    if expected != actual:
        return CheckReport(
            "torsion-dichotomy", params, False,
            witness={"expected_torsion": expected, "found_torsion": actual},
        )
    v = g.vertex_count
    if expected and info.has_odd_cycle:
        if not h.group(1, v - 1).has_torsion_of_order_divisible_by(2):
            return CheckReport(
                "torsion-dichotomy", params, False,
                witness={"missing": f"Z_2 in H^(1,{v - 1})",
                         "group": str(h.group(1, v - 1))},
            )
    if expected and info.has_even_cycle and simplify(g) == g:
        if not h.group(2, v - 2).has_torsion_of_order_divisible_by(2):
            return CheckReport(
                "torsion-dichotomy", params, False,
                witness={"missing": f"Z_2 in H^(2,{v - 2})",
                         "group": str(h.group(2, v - 2))},
            )
    return CheckReport("torsion-dichotomy", params, True)


def _connected(g: Graph) -> bool:
    return components(g, (1 << g.edge_count) - 1).component_count == 1


def a2_closed_form(g: Graph) -> dict[tuple[int, int], AbelianGroup]:
    """Every H^{i,j}(G) over Z[x]/(x^2) from P_G alone, for a connected graph G.

    Indices as in the engine: i counts the edges of a state and j is the
    q-degree, with x in degree 1.  A loop makes every group 0.  Otherwise
    let v be the vertex count and b = 1 if G is bipartite, else 0; then
    P_G(1+q) - b q^(v-1) (1+q) = (q^2 - 1) sum_i (-1)^i u_i q^(v-2-i) exactly,
    H^{0,v} = Z, H^{0,v-1} = Z^b, and for i >= 1
    H^{i,v-i} = Z^(u_i) + Z_2^(u_(i-1)) and H^{i,v-1-i} = Z^(u_(i-1));
    every other group is 0.  Parallel edges change neither P_G nor H.
    The free part is the knight-move pairing of Chmutov-Chmutov-Rong,
    *Knight move in chromatic cohomology* (European J. Combin., 2008); that
    Z_2 is the only torsion and P_G fixes the groups is Lowrance-Sazdanovic,
    *Chromatic homology, Khovanov homology, and torsion* (Topology Appl.,
    2017).  A graph without exactly one component raises ValueError:
    diamond + K2 and K3 + K3 share P_G but not H.
    """
    if not _connected(g):
        raise ValueError("the A_2 closed form needs a connected graph")
    if g.has_loop():
        return {}
    v = g.vertex_count
    b = 0 if shortest_cycle_parity(g).has_odd_cycle else 1
    shifted = chromatic_polynomial(g).compose(Poly({0: 1, 1: 1}))
    rest = shifted - Poly({v - 1: b, v: b})
    quot = [0] * (v + 1)  # divide by q^2 - 1 from the top, degree v down
    for k in range(v, 1, -1):
        quot[k - 2] = rest.coeff(k) + quot[k]
    if rest.coeff(0) + quot[0] or rest.coeff(1) + quot[1]:
        raise ArithmeticError(f"q^2 - 1 does not divide {shifted} for {g}")
    u = [(-1) ** i * quot[v - 2 - i] for i in range(v - 1)] + [0]
    cells = {(0, v): (1, 0), (0, v - 1): (b, 0)}
    for i in range(1, v):
        cells[(i, v - i)] = (u[i], u[i - 1])
        cells[(i, v - 1 - i)] = (u[i - 1], 0)
    groups = {k: AbelianGroup(free, (2,) * twos) for k, (free, twos) in cells.items()}
    return {k: grp for k, grp in groups.items() if not grp.is_trivial}


def check_a2_chromatic(g: Graph, h: BigradedHomology | None = None) -> CheckReport:
    """H over Z[x]/(x^2) of a connected graph equals ``a2_closed_form``."""
    expected = a2_closed_form(g)
    h = h if h is not None else compute_all(g, make_truncated(2))
    diff = _group_diff(h.groups, expected)
    return CheckReport("a2-chromatic", {"graph": g.to_json_dict()}, not diff,
                       witness=diff or None)


def poly_derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def polygon_closed_form(g: Graph, a: Algebra) -> dict[tuple[int, int], AbelianGroup]:
    """Every H^{i,j} of a polygon over A = Z[x]/(p), p monic of degree m.

    The polygon is any connected graph whose every vertex has degree 2, so
    n = v counts its edges; the loop (n = 1) and the double edge (n = 2)
    are polygons.  Indices as in the engine: i counts the edges of a state
    and j is the q-degree, with x in degree 1 when p = x^m.  For
    1 <= i <= n-2, H^{i,j} = HH_{n-1-i,j}(A), the Hochschild homology of A
    with j not shifted; every group with i >= n-1 is 0.  A monic p gives A a
    2-periodic resolution, so for k >= 1, HH_k = A/(p') when k is odd and
    Ann_A(p') = Z^(rank of A/(p')) when k is even, with A/(p') computed by
    ``cokernel_oracle``.  For p = x^m, with s = floor(k/2) m, HH_k is Z at
    each j = s+1 .. s+m-1, plus Z_m at j = s+m when k is odd; for any other
    p, A is ungraded and every group sits at j = 0.  H^{0,j} is free, of the
    rank the Euler characteristic leaves: [q^j] P_G(qdim A), or P_G(m) when A
    is ungraded, plus the sum over i >= 1 of (-1)^(i+1) rank H^{i,j}.  Over
    Z (m = 1) only H^0 can be nonzero.  A ``window:J`` algebra is x^(J+1)
    with the degrees j > J dropped.  That polygon cohomology is Hochschild
    homology is Przytycki, *When the theories meet: Khovanov homology as
    Hochschild homology of links* (Quantum Topology 1, 2010); Lowrance and
    Sazdanovic, *Chromatic homology, Khovanov homology, and torsion*
    (Topology Appl., 2017), extend it.  Any other graph, and any algebra
    that is not Z[x]/(p) as ``make_deformed`` builds it, raises ValueError.
    """
    n = g.vertex_count
    if not _connected(g) or any(g.degree(v) != 2 for v in range(n)):
        raise ValueError("the polygon closed form needs a connected graph of degree-2 vertices")
    m = a.rank
    cells: dict[tuple[int, int], AbelianGroup] = {}
    if m >= 2:  # Z itself has HH_k = 0 for k >= 1
        p = [-c for c in a.mult[1][m - 1]] + [1]  # x^m = x * x^(m-1) mod p
        ref = make_deformed(p)
        if (ref.mult, ref.degrees, ref.graded) != (a.mult, a.degrees, a.graded):
            raise ValueError(f"{a.spec} is not Z[x]/(p) for a monic p")
        odd = cokernel_oracle([p, poly_derivative(p)], 2 * m + 2)
        for i in range(1, n - 1):
            k = n - 1 - i
            if not a.graded:
                cells[(i, 0)] = odd if k % 2 else AbelianGroup(odd.free_rank)
                continue
            s = k // 2 * m
            cells.update({(i, j): AbelianGroup(1) for j in range(s + 1, s + m)})
            if k % 2:
                cells[(i, s + m)] = AbelianGroup(0, (m,))
    h0 = chromatic_polynomial(g).compose(Poly(qdim(a) if a.graded else {0: m}))
    for (i, j), grp in cells.items():
        h0 = h0 + Poly({j: (-1) ** (i + 1) * grp.free_rank})
    cells.update({(0, j): AbelianGroup(r) for j, r in h0.c.items()})
    return {
        k: grp for k, grp in cells.items()
        if not grp.is_trivial and (a.window is None or k[1] <= a.window)
    }


def check_polygon_hh(g: Graph, a: Algebra, h: BigradedHomology | None = None) -> CheckReport:
    """H of a polygon over Z[x]/(p) equals ``polygon_closed_form``."""
    expected = polygon_closed_form(g, a)
    h = h if h is not None else compute_all(g, a)
    diff = _group_diff(h.groups, expected)
    return CheckReport("polygon-hh", {"graph": g.to_json_dict(), "algebra": a.spec},
                       not diff, witness=diff or None)


def check_conjecture_fixtures() -> CheckReport:
    """Published spot values of trunc:3 cohomology."""
    failures = {}
    h5 = compute_all(cycle(5), make_truncated(3))
    if h5.group(1, 6) != AbelianGroup(0, (3,)):
        failures["H^(1,6) P_5 A_3"] = str(h5.group(1, 6))
    h4 = compute_all(cycle(4), make_truncated(3))
    height1 = {j: grp for (i, j), grp in h4.groups.items() if i == 1}
    if height1 != {4: AbelianGroup(1), 5: AbelianGroup(1)}:
        failures["H^1 P_4 A_3"] = {j: str(grp) for j, grp in height1.items()}
    hk = compute_all(complete(4), make_truncated(3))
    if hk.group(1, 5) != AbelianGroup(2, (3, 3, 6)):
        failures["H^(1,5) K_4 A_3"] = str(hk.group(1, 5))
    return CheckReport("published-fixtures", {}, not failures, witness=failures or None)


def _require_polygon_with_chords(g: Graph) -> None:
    """Refuse g unless its first v >= 3 edges are one polygon through every
    vertex and the later edges are loop-free chords, no two crossing along it.
    """
    v = g.vertex_count
    neigh: list[list[int]] = [[] for _ in range(v)]
    for x, y in g.edges[:v]:
        neigh[x].append(y)
        neigh[y].append(x)
    pos = {0: 0}
    if v >= 3 and all(len(n) == 2 for n in neigh):
        prev, cur = 0, neigh[0][0]
        while cur not in pos:  # walk the polygon, numbering its vertices in order
            pos[cur] = len(pos)
            x, y = neigh[cur]
            prev, cur = cur, y if x == prev else x
    if len(pos) < max(v, 3):
        raise ValueError("vgon needs a polygon through all v >= 3 vertices on its first v edges")
    chords = [sorted((pos[x], pos[y])) for x, y in g.edges[v:]]
    for k, (p1, q1) in enumerate(chords):
        if p1 == q1:
            raise ValueError("a vgon diagonal is a loop")
        if any(p1 < p2 < q1 < q2 or p2 < p1 < q2 < q1 for p2, q2 in chords[:k]):
            raise ValueError("vgon diagonals cross")  # sharing an endpoint is no crossing


def check_vgon_diagonals(g: Graph, a: Algebra) -> CheckReport:
    """Top-height groups of a v-gon with diagonals equal H^{1,*} of the triangle.

    Stated for a polygon with non-crossing diagonals; any other graph is
    refused with ``ValueError``.
    """
    _require_polygon_with_chords(g)
    v = g.vertex_count
    params = {"graph": g.to_json_dict(), "algebra": a.spec}
    h = compute_all(g, a)
    top = {j: grp for (i, j), grp in h.groups.items() if i == v - 2}
    tri = {j: grp for (i, j), grp in polygon_closed_form(cycle(3), a).items() if i == 1}
    diff = _group_diff(top, tri)  # j -> (top group, triangle H^1)
    return CheckReport("vgon-diagonals", params, not diff, witness=diff or None)


# ---------------------------------------------------------------------------
# soft checks: conjectures are reported, never failed on


def soft_triangle_square_torsion(graphs: list[Graph], m: int) -> CheckReport:
    """Conjecture: a triangle forces Z_m in H^{1,*}, a square in H^{2,*}."""
    a = make_truncated(m)
    lines = []
    for g in graphs:
        if g.has_loop():
            continue
        h = compute_all(g, a)
        info = shortest_cycle_parity(g)
        if info.has_triangle:
            found = any(
                grp.has_torsion_of_order_divisible_by(m)
                for (i, _j), grp in h.groups.items()
                if i == 1
            )
            lines.append(f"triangle graph v={g.vertex_count} e={g.edge_count}: "
                         f"Z_{m} in H^1 {'found' if found else 'MISSING'}")
        if info.has_square:
            found = any(
                grp.has_torsion_of_order_divisible_by(m)
                for (i, _j), grp in h.groups.items()
                if i == 2
            )
            lines.append(f"square graph v={g.vertex_count} e={g.edge_count}: "
                         f"Z_{m} in H^2 {'found' if found else 'MISSING'}")
    return CheckReport(
        "soft-triangle-square-torsion", {"m": m}, True, soft=True,
        notes="; ".join(lines) or "no applicable fixtures",
    )


# ---------------------------------------------------------------------------
# the full suite


def random_simple_graph(rng: random.Random, max_vertices: int = 6, max_edges: int = 8) -> Graph:
    v = rng.randint(3, max_vertices)
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    rng.shuffle(pairs)
    k = rng.randint(1, min(max_edges, len(pairs)))
    return Graph(v, tuple(pairs[:k]))


def random_multigraph(rng: random.Random, max_vertices: int = 6, max_edges: int = 8) -> Graph:
    v = rng.randint(2, max_vertices)
    k = rng.randint(1, max_edges)
    edges = tuple(
        (rng.randrange(v), rng.randrange(v)) for _ in range(k)
    )
    return Graph(v, edges)


def _wrap(fn, *args, **kwargs) -> CheckReport:
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a crash is a failure with the error as witness
        return CheckReport(
            getattr(fn, "__name__", "check"), {"args": repr(args)}, False,
            witness=f"{type(exc).__name__}: {exc}",
        )


def run_suite(seed: int = 0) -> list[CheckReport]:
    """Every desk-scale check over the standard fixture set, deterministically."""
    rng = random.Random(seed)
    reports: list[CheckReport] = []
    a2 = make_truncated(2)
    a3 = make_truncated(3)

    polygons = [cycle(n) for n in range(1, 9)]
    fixtures: list[Graph] = list(polygons)
    k4 = complete(4)
    fixtures += [k4, delete_edge(k4, 0), wedge(cycle(3), cycle(3))]
    fixtures += [random_simple_graph(rng) for _ in range(6)]

    for g in fixtures:
        for a in (a2, a3):
            h = compute_all(g, a)
            reports.append(_wrap(check_vanishing, g, a, h))
            rep = euler_check(g, a, h)
            reports.append(
                CheckReport(
                    "euler-characteristic",
                    {"graph": g.to_json_dict(), "algebra": a.spec},
                    rep.passed,
                    witness=rep.residuals or None,
                )
            )
            if g in polygons:
                reports.append(_wrap(check_polygon_hh, g, a, h))
            if a is a2:
                reports.append(_wrap(check_torsion_dichotomy, g, h))
                if _connected(g):
                    reports.append(_wrap(check_a2_chromatic, g, h))

    # The fixture loop has the triangle over trunc:2 and trunc:3, and the
    # polygon loop below the triangle over x^3 - 1.
    triangle_algebras = [make_truncated(4), make_truncated(5)] + [
        make_deformed(p) for p in ([0, 0, 1], [0, 0, 0, 1], [0, -1, 1], [-3, -2, 1], [1, -2, 1])
    ]
    for a in triangle_algebras:
        reports.append(_wrap(check_polygon_hh, cycle(3), a))
    for p in ([-1, 0, 1], [-1, 0, 0, 1]):
        for n in (2, 3, 4, 5):
            reports.append(_wrap(check_polygon_hh, cycle(n), make_deformed(p)))
    for g, e in ((cycle(3), 0), (cycle(4), 1), (k4, 0)):
        for a in (a2, a3):
            reports.append(_wrap(check_del_contract_exactness, g, e, a))
    square_diag = polygon_with_diagonals(4, [(0, 2)])
    pentagon_diag = polygon_with_diagonals(5, [(0, 2), (0, 3)])
    for g, a in ((square_diag, a2), (square_diag, a3), (pentagon_diag, a2),
                 (delete_edge(k4, 0), a3)):
        reports.append(_wrap(check_vgon_diagonals, g, a))
    tri_tail = Graph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
    for a in (a2, a3):
        for e in find_pendant_edges(tri_tail):
            reports.append(_wrap(check_pendant, tri_tail, e, a))
    reports.append(_wrap(check_conjecture_fixtures))

    reports.append(_wrap(soft_triangle_square_torsion,
                         [cycle(3), k4, square_diag, tri_tail, cycle(4)], 3))
    return reports
