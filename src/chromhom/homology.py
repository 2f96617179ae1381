"""Cohomology groups: exact Smith reduction and slice-by-slice assembly.

H^{i,j} = ker d^{i,j} / im d^{i-1,j} is reported as a free rank plus the
ascending invariant-factor chain of its torsion; ``poincare_series`` reads
the free ranks off as a ``{(i, j): rank}`` dict.  ``degree_range`` is the
one place that decides, and checks, which internal degrees j a computation
or a memory estimate covers.  A computation runs in the calling process and
builds one ``Cube`` for the (graph, algebra) pair, reading every slice from
it: the slices of the Morse-reduced complex (``morse_groups``, see
``chromhom.morse``) over a graded algebra whose unit is its only degree-0
element, and of the whole cube (``cube_groups``) over any other.  Both run
one slice loop, degree after degree.  Smith normal form runs on the compiled
kernel when the extension is importable (falling back per matrix on int64
overflow), otherwise on the pure-Python reference kernel; both return the
same invariant factors.  Within a degree slice the pure kernel reduces d^i
without the cells of C^i that d^(i-1)'s leading +-1 pivots cancelled (see
``SNFResult``); the compiled kernel reports no cancelled cells, so on that
path every d^i is reduced whole.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import _snfpure
from .algebra import Algebra
from .complexes import (
    Cube,
    EngineError,
    IntMatrix,
    differential,
    enumerate_basis,
    slice_dimension,
)
from .graph import Graph

try:  # compiled kernel is optional
    from . import _snfcore
except ImportError:  # pragma: no cover - depends on build environment
    _snfcore = None


class WindowError(ValueError):
    """A degree above the certified window of a poly-window algebra was requested."""


_KERNEL = "auto" if os.environ.get("CHROMHOM_PURE_SNF", "") in ("", "0") else "pure"


def compiled_kernel_available() -> bool:
    return _snfcore is not None


@dataclass(frozen=True)
class SNFResult:
    """Nonzero invariant factors (ascending, each dividing the next).

    ``cancelled`` holds the rows the pure kernel removed with a +-1 pivot
    before its first non-unit pivot (empty from the compiled kernel).  For
    d^(i-1) these are cells of C^i, each split off with a partner in C^(i-1)
    as a contractible summand (Bar-Natan's Lemma 4.2, see ``_snfpure``), so
    d^i has the same invariant factors without those columns.  Equality
    compares the factors only.
    """

    factors: tuple[int, ...]
    cancelled: frozenset[int] = field(default=frozenset(), compare=False)

    @property
    def rank(self) -> int:
        return len(self.factors)


_EMPTY_SNF = SNFResult(())


def smith_normal_form(m: IntMatrix, drop=frozenset()) -> SNFResult:
    """Invariant factors of ``m`` without its columns in ``drop``."""
    if m.is_zero():
        return _EMPTY_SNF
    if _KERNEL == "auto" and _snfcore is not None:
        # last row first, as the pure kernel queues them
        rows = reversed(range(m.rows))
        trips = (
            (r, c, v) for r in rows for c, v in m.data[r].items() if c not in drop
        )
        try:
            return SNFResult(tuple(_snfcore.snf_invariant_factors(m.rows, m.cols, trips)))
        except OverflowError:
            pass  # redone below with arbitrary precision
    factors, cancelled = _snfpure.snf_invariant_factors(m.data, drop)
    return SNFResult(tuple(factors), cancelled)


# ---------------------------------------------------------------------------
# abelian groups


def invariant_factors_from_cyclic(parts) -> tuple[int, ...]:
    """Canonical divisibility chain of a direct sum of cyclic groups Z_k."""
    chain = _snfpure.divisibility_chain([k for k in parts if k > 1])
    return tuple(d for d in chain if d > 1)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in canonical form.

    ``torsion`` is the ascending invariant-factor chain (entries >= 2 and
    each dividing the next), so equal groups compare equal structurally.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(t < 2 for t in self.torsion):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion is not a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup(
            self.free_rank + other.free_rank,
            invariant_factors_from_cyclic(self.torsion + other.torsion),
        )

    def has_torsion_of_order_divisible_by(self, m: int) -> bool:
        return any(t % m == 0 for t in self.torsion)

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts += [f"Z_{t}" for t in self.torsion]
        return " + ".join(parts)


TRIVIAL_GROUP = AbelianGroup()


def group_from_cyclic(free_rank: int, parts) -> AbelianGroup:
    return AbelianGroup(free_rank, invariant_factors_from_cyclic(parts))


def homology_group(dim_cij: int, d_in: SNFResult, d_out_rank: int) -> AbelianGroup:
    """ker/im quotient of one slice from the surrounding SNF data."""
    free = dim_cij - d_out_rank - d_in.rank
    if free < 0:
        raise EngineError(
            "rank(d_in) + rank(d_out) exceeds the chain dimension; "
            "the differential assembly is broken"
        )
    torsion = tuple(f for f in d_in.factors if f > 1)
    return AbelianGroup(free, torsion)


# ---------------------------------------------------------------------------
# bigraded homology


@dataclass
class BigradedHomology:
    """Nonzero cohomology groups of one (graph, algebra) computation."""

    groups: dict[tuple[int, int], AbelianGroup]
    algebra_spec: str
    graph_fingerprint: dict
    window: int | None = None

    def group(self, i: int, j: int) -> AbelianGroup:
        return self.groups.get((i, j), TRIVIAL_GROUP)

    def total(self, i: int) -> AbelianGroup:
        """Direct sum over j of H^{i,j} (degree information dropped)."""
        out = TRIVIAL_GROUP
        for (gi, _), grp in self.groups.items():
            if gi == i:
                out = out.direct_sum(grp)
        return out

    def items_sorted(self):
        return sorted(self.groups.items())

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra_spec,
            "graph": self.graph_fingerprint,
            "window": self.window,
            "groups": [
                {"i": i, "j": j, "free": g.free_rank, "torsion": list(g.torsion)}
                for (i, j), g in self.items_sorted()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BigradedHomology":
        groups = {
            (int(e["i"]), int(e["j"])): AbelianGroup(
                int(e["free"]), tuple(int(t) for t in e["torsion"])
            )
            for e in data["groups"]
        }
        return cls(groups, data["algebra"], data["graph"], data.get("window"))


def degree_range(g: Graph, a: Algebra, j_range=None) -> list[int]:
    """The internal degrees j a computation over (g, a) covers, ascending.

    ``None`` means every degree: 0 .. max_degree * v, or 0 .. J for a
    ``window:J`` algebra, and the single j-collapsed slice j = 0 for an
    ungraded one.  A given ``j_range`` (an iterable of j values) is
    de-duplicated and checked: a degree above a window raises WindowError,
    and j != 0 on an ungraded algebra or a negative j raises ValueError.
    """
    if j_range is None:
        if not a.graded:
            return [0]
        top = a.window if a.window is not None else a.max_degree * g.vertex_count
        return list(range(top + 1))
    js = sorted(set(int(j) for j in j_range))
    if a.window is not None and any(j > a.window for j in js):
        raise WindowError(f"degree window is {a.window}; higher degrees are not certified")
    if not a.graded and any(j != 0 for j in js):
        raise ValueError("ungraded algebras have a single slice at j = 0")
    if any(j < 0 for j in js):
        raise ValueError("degrees are nonnegative")
    return js


def _slice_groups(
    top: int, j: int, basis, matrix, verify_dd: bool
) -> dict[tuple[int, int], AbelianGroup]:
    """All nonzero H^{i,j}, 0 <= i <= top, of one degree slice of a complex.

    ``basis(i)`` lists the cells of C^{i,j} and ``matrix(src, dst)`` builds
    d^i between two of them.  Each d^i is reduced as soon as it is built and
    then dropped, so at most one matrix is live (two with ``verify_dd``,
    which checks the full d^i o d^(i-1)).  The reduction skips the columns
    of d^i that d^(i-1)'s unit pivots cancelled, which leaves its invariant
    factors unchanged.
    """
    groups: dict[tuple[int, int], AbelianGroup] = {}
    src = basis(0)
    d_in = _EMPTY_SNF
    prev: IntMatrix | None = None
    for i in range(top + 1):
        dst = basis(i + 1)
        mat = None
        d_out = _EMPTY_SNF
        if len(src) and len(dst):
            mat = matrix(src, dst)
            if prev is not None and not mat.compose(prev).is_zero():
                raise EngineError(f"d o d != 0 at (i, j) = ({i - 1}, {j})")
            d_out = smith_normal_form(mat, d_in.cancelled)
        if len(src):
            grp = homology_group(len(src), d_in, d_out.rank)
            if i == 0 and grp.torsion:
                raise EngineError("H^0 acquired torsion; kernel of d^0 must be free")
            if not grp.is_trivial:
                groups[(i, j)] = grp
        prev = mat if verify_dd else None
        src, d_in = dst, d_out
    return groups


def _degree_slice_groups(
    cube: Cube, j: int, verify_dd: bool
) -> dict[tuple[int, int], AbelianGroup]:
    """All nonzero H^{i,j} of the cube for one internal degree j."""
    return _slice_groups(
        cube.g.edge_count, j, lambda i: enumerate_basis(cube, i, j), differential, verify_dd
    )


def cube_groups(
    g: Graph, a: Algebra, js, verify_dd: bool = False
) -> dict[tuple[int, int], AbelianGroup]:
    """Every nonzero H^{i,j} with j in ``js``, from the full cube of states.

    The degrees are reduced one after another on one cube, whose partitions
    and coloring counts every slice shares.
    """
    cube = Cube(g, a)
    groups: dict[tuple[int, int], AbelianGroup] = {}
    for j in js:
        groups.update(_degree_slice_groups(cube, j, verify_dd))
    return groups


def morse_groups(
    g: Graph, a: Algebra, js, verify_dd: bool = False
) -> dict[tuple[int, int], AbelianGroup]:
    """Every nonzero H^{i,j} with j in ``js``, from the Morse-reduced complex.

    Takes any algebra; see ``chromhom.morse``.  With ``verify_dd`` the check
    is d_M o d_M = 0.
    """
    from .morse import Matching  # on first use: cube-path runs never load it

    match = Matching(Cube(g, a))
    groups: dict[tuple[int, int], AbelianGroup] = {}
    for j in js:
        groups.update(_slice_groups(
            g.edge_count, j, lambda i: match.critical(i, j), match.differential, verify_dd
        ))
    return groups


def compute_all(
    g: Graph,
    a: Algebra,
    j_range=None,
    jobs: int = 1,
    verify_dd: bool = False,
) -> BigradedHomology:
    """All cohomology groups H^{i,j}(G) over A, exactly, in the calling process.

    ``j_range`` restricts the internal degree; ``degree_range`` resolves and
    checks it.  A connected graded algebra (``Algebra.connected``) is
    reduced by ``morse_groups``, any other by ``cube_groups``.  ``jobs``
    must be at least 1 and changes nothing: every path runs in this
    process.  It is kept only for callers that still pass it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    js = degree_range(g, a, j_range)
    reduce = morse_groups if a.connected else cube_groups
    groups = reduce(g, a, js, verify_dd)
    return BigradedHomology(groups, a.spec, g.to_json_dict(), a.window)


def poincare_series(h: BigradedHomology) -> dict[tuple[int, int], int]:
    """Free ranks as the nonzero coefficients of t^i q^j: {(i, j): rank}."""
    return {(i, j): grp.free_rank for (i, j), grp in h.groups.items() if grp.free_rank}


# Bytes per item, measured on CPython 3.11 (64-bit) with the pure kernel and
# rounded up; estimate_peak_bytes says what each one prices.
_SUBSET_BYTES = 400
_STATE_BYTES = 96
_MATRIX_ENTRY_BYTES = 100
_KERNEL_ENTRY_BYTES = 300
# Fill-in of the pure kernel's maps during elimination, as a multiple of the
# stored nonzeros, measured on every differential of over 1000 nonzeros: at
# most 1.15x over trunc:2 and trunc:3, and 1.5-3.6x over the ungraded
# x^3 - 1 (at most 2.7x the nonzeros of the graph's largest differential).
_GRADED_FILL = 1.25
_UNGRADED_FILL = 4


def peak_bytes_floor(g: Graph, a: Algebra, j_range=None) -> int:
    """The partition term of ``estimate_peak_bytes``: a lower bound on it that,
    unlike the census (exponential on wide or dense graphs), counts nothing."""
    degree_range(g, a, j_range)  # refuses what compute_all refuses
    return (1 << g.edge_count) * _SUBSET_BYTES


def estimate_peak_bytes(g: Graph, a: Algebra, j_range=None) -> int:
    """Estimate of peak memory above the imported engine, made before the computation.

    It prices the cube path, so it over-bounds the Morse path that
    ``compute_all`` takes over every ``trunc:m`` and ``window:J``: 46 MiB
    against a measured peak of about 13 MiB on complete(6) over trunc:2.
    On the cube path a slice reduces each differential as soon as it is
    built, so one matrix is live at a time.  The estimate prices (a) the
    cached partition of every edge subset, (b) every state of the requested
    slices, for the cached colorings and merge blocks, and (c) the largest
    differential: its entries plus the Smith kernel's row and column maps
    after fill-in.
    A differential's nonzeros are bounded by dim C^{i,j} times the n - i
    absent edges times the most terms any product of two basis elements
    has.  Dimensions come from one subset census: the estimate holds no
    per-subset data.  ``degree_range`` refuses the degrees ``compute_all``
    refuses.
    """
    cube = Cube(g, a)
    n = g.edge_count
    js = degree_range(g, a, j_range)
    terms = max(sum(1 for c in vec if c) for products in a.mult for vec in products)
    states = 0
    nnz = 0
    for j in js:
        for i in range(n + 1):
            dim = slice_dimension(cube, i, j)
            states += dim
            nnz = max(nnz, dim * (n - i) * terms)
    fill = _GRADED_FILL if a.graded else _UNGRADED_FILL
    per_entry = _MATRIX_ENTRY_BYTES + _KERNEL_ENTRY_BYTES * fill
    return peak_bytes_floor(g, a, js) + states * _STATE_BYTES + int(nnz * per_entry)


# ---------------------------------------------------------------------------
# independent cokernel oracle


def cokernel_oracle(generators, degree_bound: int) -> AbelianGroup:
    """The group Z[x]/(g_1, ..., g_k), computed as a plain integer cokernel.

    Columns are the shifts x^t * g_s written over the monomial basis
    1, x, ..., x^(bound-1); the quotient of Z^bound by their span is the
    group.  A monic generator must be present, otherwise the quotient has
    unbounded rank and the truncation would be meaningless.  This path never
    touches the chain complexes, so it can act as an oracle for them; it does
    share ``smith_normal_form`` with the engine, so ``tests/test_homology.py``
    pins its values as literals.
    """
    polys = []
    for gen in generators:
        coeffs = [int(c) for c in gen]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if coeffs:
            polys.append(coeffs)
    if not any(p[-1] in (1, -1) for p in polys):
        raise ValueError("no monic generator: the quotient group is unbounded")
    bound = int(degree_bound)
    if bound < 1:
        raise ValueError("degree bound must be positive")
    data: list[dict[int, int]] = [{} for _ in range(bound)]
    col = 0
    for p in polys:
        deg = len(p) - 1
        for t in range(bound - deg):
            for k, c in enumerate(p):
                if c:
                    data[t + k][col] = c
            col += 1
    snf = smith_normal_form(IntMatrix(bound, col, data))
    return AbelianGroup(
        bound - snf.rank, tuple(f for f in snf.factors if f > 1)
    )
