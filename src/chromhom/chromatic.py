"""Chromatic polynomial and the graded-Euler-characteristic cross-check.

The chromatic polynomial is Whitney's rank expansion of the subset census.
The Euler check counts the census once and compares, coefficient by
coefficient, three quantities: the alternating sum of homology ranks, the
alternating sum of chain-group dimensions, and the chromatic polynomial
evaluated at qdim A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .algebra import Algebra, qdim
from .complexes import Cube
from .graph import Graph, subset_census

if TYPE_CHECKING:  # pragma: no cover
    from .homology import BigradedHomology


class Poly:
    """Univariate polynomial with exact integer coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.c = {e: v for e, v in (coeffs or {}).items() if v}

    @classmethod
    def from_list(cls, coeffs) -> "Poly":
        return cls({e: int(v) for e, v in enumerate(coeffs)})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self) -> bool:
        return bool(self.c)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) - v
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({e: -v for e, v in self.c.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly({e: v * other for e, v in self.c.items()})
        out: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + v1 * v2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly({0: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def compose(self, other: "Poly") -> "Poly":
        """Substitute the variable by another polynomial, exactly."""
        out = Poly()
        for e, v in self.c.items():
            out = out + (other**e) * v
        return out

    def coeff(self, e: int) -> int:
        return self.c.get(e, 0)

    def degree(self) -> int:
        return max(self.c, default=-1)

    def coeff_list(self) -> list[int]:
        d = self.degree()
        return [self.c.get(e, 0) for e in range(d + 1)] if d >= 0 else []

    def eval_int(self, x: int) -> int:
        return sum(v * x**e for e, v in self.c.items())

    def truncate(self, max_exp: int) -> "Poly":
        return Poly({e: v for e, v in self.c.items() if e <= max_exp})

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        terms = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                terms.append(str(v))
            else:
                head = "" if v == 1 else ("-" if v == -1 else str(v))
                terms.append(f"{head}q^{e}" if e != 1 else f"{head}q")
        return " + ".join(terms).replace("+ -", "- ")


def qdim_poly(a: Algebra) -> Poly:
    return Poly(qdim(a))


def chromatic_polynomial(g: Graph) -> Poly:
    """Whitney's expansion, the census folded at x = -1: the coefficient of
    x^c is sum_i (-1)^i counts[i][c].  A loop cancels every term; parallel
    edges leave the sum unchanged.  Past ``MAX_EDGES`` edges it raises."""
    out: dict[int, int] = {}
    for i, row in enumerate(subset_census(g)):
        for c, n in enumerate(row):
            out[c] = out.get(c, 0) + (-n if i & 1 else n)
    return Poly(out)


@dataclass
class EulerReport:
    """Outcome of the graded-Euler-characteristic identity check."""

    passed: bool
    homology_side: Poly
    chain_side: Poly
    chromatic_side: Poly
    # q-degree -> (homology-side diff, chain-side diff), both vs chromatic
    residuals: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


def euler_check(g: Graph, a: Algebra, h: "BigradedHomology") -> EulerReport:
    """Alternating homology ranks must equal P_G evaluated at qdim A.

    Compares coefficient lists exactly, and also checks the chain-level
    identity (alternating chain dimensions equal the same polynomial).  A
    mismatch signals an engine bug; ``residuals`` maps each offending
    q-degree to its (homology-side, chain-side) coefficient differences.
    A window algebra is compared only at q-degrees up to its window, the
    degrees its homology is computed in.
    """
    if not a.graded:
        raise ValueError("the graded Euler check needs a graded algebra")
    hom = Poly()
    for (i, j), grp in h.groups.items():
        if grp.free_rank:
            term = Poly({j: grp.free_rank})
            hom = hom + (term if i % 2 == 0 else -term)
    p = chromatic_polynomial(g)  # one census for both sides
    chrom = p.compose(qdim_poly(a))
    # chain side: P_G with x^c read as the engine's colorings of c components
    cube = Cube(g, a)
    chain_c: dict[int, int] = {}
    for c, n in p.c.items():
        for j in range(c * a.max_degree + 1):
            chain_c[j] = chain_c.get(j, 0) + n * cube.coloring_count(c, j)
    chain = Poly(chain_c)
    if a.window is not None:
        hom, chain, chrom = (side.truncate(a.window) for side in (hom, chain, chrom))
    hom_diff = (hom - chrom).c
    chain_diff = (chain - chrom).c
    residuals = {
        e: (hom_diff.get(e, 0), chain_diff.get(e, 0))
        for e in sorted(set(hom_diff) | set(chain_diff))
    }
    return EulerReport(not residuals, hom, chain, chrom, residuals)
