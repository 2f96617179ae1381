"""Coefficient algebras: commutative unital Z-algebras of finite free rank.

An algebra is given by a basis (element 0 is the unit), integer degrees and
dense multiplication structure constants.  Every constructor output is
validated exhaustively over the basis: unit law, commutativity,
associativity, and degree homogeneity when graded.  Ranks stay small
(<= ~12), so the r^3 validation cost is irrelevant.  ``qdim`` gives the
graded dimension of a graded algebra as a ``{degree: rank}`` dict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Algebra:
    rank: int
    basis_labels: tuple[str, ...]
    degrees: tuple[int, ...]
    # mult[k][l] is the coefficient vector of b_k * b_l over the basis.
    mult: tuple[tuple[tuple[int, ...], ...], ...]
    graded: bool
    spec: str
    window: int | None = None

    def __post_init__(self):
        r = self.rank
        if r < 1:
            raise ValueError("rank must be positive")
        if len(self.basis_labels) != r or len(self.degrees) != r or len(self.mult) != r:
            raise ValueError("inconsistent table sizes")
        if self.degrees[0] != 0:
            raise ValueError("unit must have degree 0")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be nonnegative")
        unit = tuple(1 if m == 0 else 0 for m in range(r))
        for l in range(r):
            if self.mult[0][l] != tuple(1 if m == l else 0 for m in range(r)):
                raise ValueError("basis element 0 is not a two-sided unit")
        for k in range(r):
            for l in range(k):
                if self.mult[k][l] != self.mult[l][k]:
                    raise ValueError(f"not commutative at ({k}, {l})")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    left = multiply(self, self.mult[i][j], unit_vector(r, k))
                    right = multiply(self, unit_vector(r, i), self.mult[j][k])
                    if left != right:
                        raise ValueError(f"not associative at ({i}, {j}, {k})")
        if self.graded:
            for k in range(r):
                for l in range(r):
                    for m, c in enumerate(self.mult[k][l]):
                        if c and self.degrees[m] != self.degrees[k] + self.degrees[l]:
                            raise ValueError(
                                f"product b_{k} b_{l} not homogeneous"
                            )

    @property
    def max_degree(self) -> int:
        return max(self.degrees)


def unit_vector(rank: int, k: int) -> tuple[int, ...]:
    return tuple(1 if m == k else 0 for m in range(rank))


def multiply(a: Algebra, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Bilinear extension of the structure constants to coefficient vectors."""
    r = a.rank
    if len(u) != r or len(v) != r:
        raise ValueError("coefficient vectors must have length rank")
    out = [0] * r
    for k, uk in enumerate(u):
        if not uk:
            continue
        for l, vl in enumerate(v):
            if not vl:
                continue
            row = a.mult[k][l]
            c = uk * vl
            for m, w in enumerate(row):
                if w:
                    out[m] += c * w
    return tuple(out)


def qdim(a: Algebra) -> dict[int, int]:
    """Graded dimension: degree -> rank of the homogeneous part."""
    if not a.graded:
        raise ValueError("graded dimension needs a graded algebra")
    coeff: dict[int, int] = {}
    for d in a.degrees:
        coeff[d] = coeff.get(d, 0) + 1
    return coeff


def _monomial_labels(m: int) -> tuple[str, ...]:
    return tuple("1" if k == 0 else ("x" if k == 1 else f"x^{k}") for k in range(m))


def make_truncated(m: int) -> Algebra:
    """Z[x]/(x^m): basis 1, x, ..., x^{m-1} with deg x^k = k."""
    if m < 1:
        raise ValueError("truncation order must be >= 1")
    mult = tuple(
        tuple(
            tuple(1 if (k + l < m and n == k + l) else 0 for n in range(m))
            for l in range(m)
        )
        for k in range(m)
    )
    return Algebra(m, _monomial_labels(m), tuple(range(m)), mult, True, f"trunc:{m}")


def make_deformed(p: list[int]) -> Algebra:
    """Z[x]/(p(x)) for monic p, coefficients low to high.

    Graded only when p = x^m; otherwise the algebra is merely filtered, all
    degrees are reported as 0 and only j-collapsed cohomology is meaningful.
    Non-monic p is rejected: the quotient need not be a free Z-module then,
    and the chain groups require free finite-rank coefficients.
    """
    coeffs = [int(c) for c in p]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValueError("p must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError(
            "p must be monic: a non-monic quotient Z[x]/(p) need not be free"
        )
    m = len(coeffs) - 1
    # x^t mod p for t = 0 .. 2(m-1)
    reduced: list[list[int]] = []
    cur = [0] * m
    cur[0] = 1
    for _ in range(2 * m - 1):
        reduced.append(list(cur))
        top = cur[m - 1]
        cur = [0] + cur[:-1]
        if top:
            for n in range(m):
                cur[n] -= top * coeffs[n]
    mult = tuple(
        tuple(tuple(reduced[k + l]) for l in range(m)) for k in range(m)
    )
    graded = all(c == 0 for c in coeffs[:-1])
    spec = "poly:" + ",".join(str(c) for c in coeffs)
    degrees = tuple(range(m)) if graded else tuple([0] * m)
    return Algebra(m, _monomial_labels(m), degrees, mult, graded, spec)


def make_poly_window(J: int) -> Algebra:
    """Degree window into Z[x]: results are certified only for j <= J.

    Realized as Z[x]/(x^{J+1}); truncating above the window changes nothing
    at or below it because the differential preserves total degree and every
    color degree in C^{i,j} is <= j.
    """
    if J < 0:
        raise ValueError("window must be >= 0")
    return replace(make_truncated(J + 1), spec=f"window:{J}", window=J)


def parse_algebra_spec(spec: str) -> Algebra:
    """Parse a CLI algebra spec: trunc:m | poly:c0,c1,...,1 | window:J."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"unknown algebra spec {spec!r}")
    try:
        if kind == "trunc":
            return make_truncated(int(rest))
        if kind == "window":
            return make_poly_window(int(rest))
        if kind == "poly":
            return make_deformed([int(c) for c in rest.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad algebra spec {spec!r}: {exc}")
    raise ValueError(f"unknown algebra spec {spec!r}")
