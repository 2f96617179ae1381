"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's algorithms: determinants come from
cofactor expansion and invariant factors from gcds of k x k minors, so they
can arbitrate the Smith normal form implementations; the subset census walks
all 2^n edge subsets and merges vertex labels, so it can arbitrate the
library's deletion-contraction.  ``full_cube_groups`` shares the library's
differentials and kernel but reduces every d^i whole, so it arbitrates the
slice loop's dropping of cancelled cells.  ``gradient_pattern_cycle`` walks
a digraph over unit patterns whose arrows over-approximate every gradient
step of the Morse matching, so finding no cycle there backs the acyclicity
proof in ``chromhom.morse`` without trusting its argument.
``idempotent_times_a2`` is not an oracle but an input: a graded algebra with
a degree-0 non-unit, the only one the tests have that keeps ``compute_all``
on the cube with several degree slices.
"""

from itertools import combinations
from math import gcd

from chromhom.algebra import Algebra
from chromhom.chromatic import Poly
from chromhom.complexes import Cube, differential, enumerate_basis
from chromhom.homology import AbelianGroup, degree_range, smith_normal_form
from chromhom.morse import Matching


def idempotent_times_a2() -> Algebra:
    """Z[e]/(e^2 - e) tensor Z[x]/(x^2), basis e^a x^b at index a + 2b."""
    def product(k, l):
        a, b = max(k % 2, l % 2), k // 2 + l // 2
        return tuple(int(b < 2 and m == a + 2 * b) for m in range(4))

    mult = tuple(tuple(product(k, l) for l in range(4)) for k in range(4))
    return Algebra(4, (0, 0, 1, 1), mult, True, "idempotent-x-trunc:2")


def det_cofactor(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    rest = m[1:]
    for c in range(n):
        if not m[0][c]:
            continue
        minor = [row[:c] + row[c + 1 :] for row in rest]
        term = m[0][c] * det_cofactor(minor)
        total += term if c % 2 == 0 else -term
    return total


def minor_gcd_invariant_factors(m: list[list[int]]) -> list[int]:
    """d_k = g_k / g_{k-1} where g_k is the gcd of all k x k minors."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    factors = []
    g_prev = 1
    for k in range(1, min(nr, nc) + 1):
        g_k = 0
        for rows in combinations(range(nr), k):
            for cols in combinations(range(nc), k):
                sub = [[m[r][c] for c in cols] for r in rows]
                g_k = gcd(g_k, det_cofactor(sub))
        if g_k == 0:
            break
        factors.append(g_k // g_prev)
        g_prev = g_k
    return factors


def relabel_component_count(g, mask: int) -> int:
    """Components of [G:s] by merging vertex labels edge by edge."""
    label = list(range(g.vertex_count))
    for e, (u, w) in enumerate(g.edges):
        if mask >> e & 1:
            keep, gone = label[u], label[w]
            label = [keep if x == gone else x for x in label]
    return len(set(label))


def brute_census(g) -> list[list[int]]:
    """``counts[i][c]`` over all 2^n edge subsets, one at a time."""
    counts = [[0] * (g.vertex_count + 1) for _ in range(g.edge_count + 1)]
    for mask in range(1 << g.edge_count):
        counts[mask.bit_count()][relabel_component_count(g, mask)] += 1
    return counts


def whitney_chromatic(g) -> Poly:
    """Whitney's rank expansion: sum over edge subsets of (-1)^|s| x^c(s)."""
    out: dict[int, int] = {}
    for i, row in enumerate(brute_census(g)):
        for c, n in enumerate(row):
            out[c] = out.get(c, 0) + (-n if i & 1 else n)
    return Poly(out)


def full_cube_groups(g, a) -> dict:
    """Every nonzero H^{i,j}, from the Smith form of every full d^{i,j}."""
    cube = Cube(g, a)
    n = g.edge_count
    groups = {}
    for j in degree_range(g, a):
        bases = [enumerate_basis(cube, i, j) for i in range(n + 2)]
        snfs = [smith_normal_form(differential(bases[i], bases[i + 1])) for i in range(n + 1)]
        for i in range(n + 1):
            rank_in = snfs[i - 1].rank if i else 0
            torsion = tuple(f for f in snfs[i - 1].factors if f > 1) if i else ()
            grp = AbelianGroup(len(bases[i]) - snfs[i].rank - rank_in, torsion)
            if not grp.is_trivial:
                groups[(i, j)] = grp
    return groups


def gradient_pattern_cycle(g, a):
    """A node on a cycle of the unit-pattern digraph of the matching, or None.

    A node (s, z) stands for the cells of subset s whose unit slots are z;
    the nodes are those matched up, the x of a gradient step x -> w' => x'.
    For each edge e not in s, the arrows go from (s, z) to the down-partner
    pattern of every pattern that d can reach at s + e, other than (s, z)
    itself: a cycle-closing edge keeps z, and a merge of slots p1 < p2 drops
    p2 and gives p1 each unit status that a product of two basis elements
    with the statuses of p1 and p2 has a term of, read from ``a.mult``.
    """
    match = Matching(Cube(g, a))
    parts, free, down = match.parts, match.free, match.down
    merged: dict[tuple[bool, bool], set[bool]] = {}
    for k in range(a.rank):
        for l in range(a.rank):
            for m, c in enumerate(a.mult[k][l]):
                if c:
                    merged.setdefault((k == 0, l == 0), set()).add(m == 0)

    def drop(z, p):  # pattern z without slot p
        return (z & ((1 << p) - 1)) | ((z >> (p + 1)) << p)

    def insert(z, p, unit):  # pattern z with a slot at p
        return (z & ((1 << p) - 1)) | (unit << p) | ((z >> p) << (p + 1))

    def partner(t, z):  # the pattern (t, z) is matched down to, or None
        for e, bits in down[t]:
            if bits >> z & 1:
                s = t ^ (1 << e)
                ids = parts[s].component_id
                u, w = g.edges[e]
                return (s, z) if ids[u] == ids[w] else (s, insert(z, max(ids[u], ids[w]), 1))
        return None

    def arrows(node):
        s, z = node
        ids = parts[s].component_id
        for e, (u, w) in enumerate(g.edges):
            t = s | 1 << e
            if t == s:
                continue
            p1, p2 = sorted((ids[u], ids[w]))
            if p1 == p2:
                targets = [z]
            else:
                rest = drop(z, p2) & ~(1 << p1)
                key = (bool(z >> p1 & 1), bool(z >> p2 & 1))
                targets = [rest | unit << p1 for unit in merged.get(key, ())]
            for zt in targets:
                if free[t] >> zt & 1:
                    continue
                nxt = partner(t, zt)
                if nxt is not None and nxt != node:
                    yield nxt

    def matched_up(s, z):
        return not free[s] >> z & 1 and partner(s, z) is None

    nodes = (
        (s, z)
        for s, part in enumerate(parts)
        for z in range(1 << part.component_count)
        if matched_up(s, z)
    )
    return first_cycle_node(nodes, arrows)


def first_cycle_node(nodes, arrows):
    """A node on a cycle reachable from ``nodes`` along ``arrows(node)``, or
    None; an iterative depth-first search, so deep digraphs are fine."""
    done: set = set()
    for start in nodes:
        if start in done:
            continue
        on_path = {start}
        stack = [(start, iter(arrows(start)))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt in on_path:
                    return nxt
                if nxt not in done:
                    on_path.add(nxt)
                    stack.append((nxt, iter(arrows(nxt))))
                    break
            else:
                on_path.discard(node)
                done.add(node)
                stack.pop()
    return None
