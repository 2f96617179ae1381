"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's algorithms: determinants come from
cofactor expansion and invariant factors from gcds of k x k minors, so they
can arbitrate the Smith normal form implementations; the subset census walks
all 2^n edge subsets and merges vertex labels, so it can arbitrate the
library's deletion-contraction.  ``full_cube_groups`` shares the library's
differentials and kernel but reduces every d^i whole, so it arbitrates the
slice loop's dropping of cancelled cells.
"""

from itertools import combinations
from math import gcd

from chromhom.chromatic import Poly
from chromhom.complexes import Cube, differential, enumerate_basis
from chromhom.homology import AbelianGroup, degree_range, smith_normal_form


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
