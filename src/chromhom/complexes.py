"""Bigraded cochain complexes from the edge cube of a graph.

A chain-group basis element is an enhanced state: an edge subset s (bitmask)
together with one algebra basis index per connected component of the
spanning subgraph [G:s], components listed in canonical order (ascending
minimal vertex).  The differential adds one absent edge at a time: a
cycle-closing edge acts as the identity, a merging edge multiplies the two
component colors through the structure constants.  The sign of adding edge e
to subset s is (-1)^(number of edges of s with index below e).

A basis is stored as runs: the states of one subset are consecutive and
colored in a fixed order, so a subset is an offset and a count.  The map
from subset s to s + e then depends only on how the partition changes: the
identity on the run of s for a cycle-closing edge, or a block fixed by
(component count, merged positions, degree) for a merging edge.  The
differential writes these blocks at the two run offsets.  ``dump_slice``
takes the same two bases as ``differential``, so a dump of many slices can
pass each basis on from one slice to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .algebra import Algebra
from .graph import ComponentPartition, Graph, components, subset_census


class EngineError(RuntimeError):
    """A structural invariant of the chain complex failed: engine bug."""


class EnhancedState(NamedTuple):
    subset: int
    coloring: tuple[int, ...]


class BasisRun(NamedTuple):
    """The states of one subset: positions offset .. offset + count - 1."""

    mask: int
    offset: int
    partition: ComponentPartition
    count: int


class StateBasis:
    """All enhanced states of one bidegree of ``cube``, in deterministic order.

    Ordering is lexicographic by (subset bitmask, coloring vector), so bases
    and matrices are reproducible across runs.  Only subsets with at least
    one coloring have a run; a run's states are colored in
    ``Cube.colorings`` order.  ``states`` lists every state and is built on
    first use.
    """

    def __init__(self, i: int, j: int, runs: list[BasisRun], cube: Cube):
        self.i = i
        self.j = j
        self.runs = runs
        self.offsets = {run.mask: run.offset for run in runs}
        self.cube = cube
        self._size = runs[-1].offset + runs[-1].count if runs else 0

    def __len__(self) -> int:
        return self._size

    @cached_property
    def states(self) -> list[EnhancedState]:
        colorings = self.cube.colorings
        return [
            EnhancedState(run.mask, col)
            for run in self.runs
            for col in colorings(run.partition.component_count, self.j)
        ]


@dataclass
class IntMatrix:
    """Sparse integer matrix by rows: ``data[r]`` maps column -> nonzero value."""

    rows: int
    cols: int
    data: list[dict[int, int]]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ValueError("one row dict per row is required")
        self.data = [
            row if 0 not in row.values() else {c: v for c, v in row.items() if v}
            for row in self.data
        ]

    @property
    def nnz(self) -> int:
        return sum(map(len, self.data))

    def is_zero(self) -> bool:
        return not any(self.data)

    def triplets(self) -> list[tuple[int, int, int]]:
        """Nonzero entries as (row, column, value), sorted."""
        return [(r, c, row[c]) for r, row in enumerate(self.data) for c in sorted(row)]

    def compose(self, other: "IntMatrix") -> "IntMatrix":
        """self @ other, exact integer product."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.data:
            acc: dict[int, int] = {}
            for k, w in row.items():
                for c, v in other.data[k].items():
                    acc[c] = acc.get(c, 0) + w * v
            out.append(acc)
        return IntMatrix(self.rows, other.cols, out)


class Cube:
    """The cube of one (graph, algebra) pair and the caches its slices share.

    Caches component partitions in a table indexed by subset, coloring
    counts per (component count, degree), and, for one degree at a time,
    coloring enumerations and merge blocks per (component count, merged
    positions); nothing is cached per (subset, edge).  The table holds one
    shared ``ComponentPartition`` per distinct set partition (203 for the
    2^15 subsets of K_6), and it is allocated on the first ``part`` call, so
    a cube that only sizes slices holds none.  Enumerating colorings of a
    new degree forgets those of the previous one.  All cached data is
    immutable once stored.
    """

    def __init__(self, g: Graph, a: Algebra):
        self.g = g
        self.a = a
        self._parts: list[ComponentPartition | None] | None = None
        # the one shared object of each set partition, by its component ids
        self._distinct: dict[tuple[int, ...], ComponentPartition] = {}
        self._degree: int | None = None  # the degree of _colorings and _templates
        self._colorings: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._counts: dict[tuple[int, int], int] = {}
        self._templates: dict[tuple[int, int, int, int], list[tuple[int, int, int]]] = {}
        self._masks_by_count: list[list[int]] | None = None

    def part(self, subset: int) -> ComponentPartition:
        """The partition of [G:subset], from one ``components`` call on first use."""
        parts = self._parts
        if parts is None:
            parts = self._parts = [None] * (1 << self.g.edge_count)
        if not 0 <= subset < len(parts):
            raise ValueError("subset mask wider than edge count")
        p = parts[subset]
        if p is None:
            p = components(self.g, subset)
            p = parts[subset] = self._distinct.setdefault(p.component_id, p)
        return p

    def partitions(self) -> list[ComponentPartition]:
        """The cube's own table: the partition of every subset, indexed by
        subset, after partitioning those no ``part`` call has reached."""
        part = self.part
        for s in range(1 << self.g.edge_count):
            part(s)
        return self._parts

    @cached_property
    def census(self) -> list[list[int]]:
        """``subset_census`` of the graph, counted on first use."""
        return subset_census(self.g)

    def masks_by_count(self) -> list[list[int]]:
        if self._masks_by_count is None:
            n = self.g.edge_count
            buckets: list[list[int]] = [[] for _ in range(n + 1)]
            for mask in range(1 << n):
                buckets[mask.bit_count()].append(mask)
            self._masks_by_count = buckets
        return self._masks_by_count

    def template(self, k: int, p1: int, p2: int, j: int) -> list[tuple[int, int, int]]:
        """Block of the map merging components p1 < p2 of k, in degree j.

        Entries are (local row, local column, coefficient): the column
        indexes ``colorings(k, j)``, the row indexes ``colorings(k - 1, j)``.
        The block is the same for every subset with this merge pattern.
        """
        key = (k, p1, p2, j)
        block = self._templates.get(key)
        if block is None:
            rows = {col: n for n, col in enumerate(self.colorings(k - 1, j))}
            block = [
                (rows[target], c, coeff)
                for c, col in enumerate(self.colorings(k, j))
                for target, coeff in _merge_terms(self.a, col, p1, p2)
            ]
            self._templates[key] = block
        return block

    def colorings(self, k: int, j: int) -> list[tuple[int, ...]]:
        """All length-k basis-index tuples of total degree j, lex order."""
        key = (k, j)
        cached = self._colorings.get(key)
        if cached is not None:
            return cached
        if j != self._degree:
            self._colorings.clear()
            self._templates.clear()
            self._degree = j
        degrees = self.a.degrees
        lo = min(degrees)
        hi = max(degrees)
        out: list[tuple[int, ...]] = []
        buf = [0] * k

        def rec(pos: int, remaining: int):
            left = k - pos
            if remaining < left * lo or remaining > left * hi:
                return
            if pos == k:
                out.append(tuple(buf))
                return
            for b, d in enumerate(degrees):
                if d <= remaining:
                    buf[pos] = b
                    rec(pos + 1, remaining - d)

        rec(0, j)
        self._colorings[key] = out
        return out

    def coloring_count(self, k: int, j: int) -> int:
        """len(colorings(k, j)), counted by a memoized recursion on k.

        It never lists the colorings, so it can size slices whose colorings
        would be too many to list.
        """
        key = (k, j)
        got = self._counts.get(key)
        if got is not None:
            return got
        if k == 0:
            n = 1 if j == 0 else 0
        else:
            n = sum(
                self.coloring_count(k - 1, j - d)
                for d in self.a.degrees
                if d <= j
            )
        self._counts[key] = n
        return n


def enumerate_basis(cube: Cube, i: int, j: int) -> StateBasis:
    """Basis of C^{i,j}: states with i edges and total color degree j."""
    runs: list[BasisRun] = []
    if 0 <= i <= cube.g.edge_count and j >= 0:
        offset = 0
        for mask in cube.masks_by_count()[i]:
            part = cube.part(mask)
            count = cube.coloring_count(part.component_count, j)
            if count:
                runs.append(BasisRun(mask, offset, part, count))
                offset += count
    return StateBasis(i, j, runs, cube)


def slice_dimension(cube: Cube, i: int, j: int) -> int:
    """dim C^{i,j} from the cube's subset census, without enumerating states."""
    if not (0 <= i <= cube.g.edge_count) or j < 0:
        return 0
    return sum(n * cube.coloring_count(c, j) for c, n in enumerate(cube.census[i]))


def _merge_terms(a: Algebra, coloring: tuple[int, ...], p1: int, p2: int):
    """Colorings and coefficients after merging components p1 < p2.

    The merged component keeps position p1 and later colors shift down,
    because components are ordered by minimal vertex and the merged class
    inherits the smaller minimum.
    """
    head = coloring[:p1]
    mid = coloring[p1 + 1 : p2]
    tail = coloring[p2 + 1 :]
    return [
        (head + (m,) + mid + tail, c)
        for m, c in enumerate(a.mult[coloring[p1]][coloring[p2]])
        if c
    ]


def per_edge_image(
    g: Graph, a: Algebra, state: EnhancedState, e: int
) -> list[tuple[EnhancedState, int]]:
    """Image of one state under the unsigned per-edge map for absent edge e.

    A cycle-closing edge (loops included) keeps the coloring with
    coefficient 1; a merging edge replaces the two component colors by each
    basis term of their product.
    """
    if not (0 <= e < g.edge_count):
        raise IndexError(f"edge index {e} out of range")
    if state.subset >> e & 1:
        raise ValueError(f"edge {e} already in the subset")
    new_subset = state.subset | (1 << e)
    u, w = g.edges[e]
    ids = components(g, state.subset).component_id
    cu, cw = sorted((ids[u], ids[w]))
    if cu == cw:
        return [(EnhancedState(new_subset, state.coloring), 1)]
    return [
        (EnhancedState(new_subset, col), c)
        for col, c in _merge_terms(a, state.coloring, cu, cw)
    ]


def differential(src: StateBasis, dst: StateBasis) -> IntMatrix:
    """Matrix of d^{i,j} from the basis of C^{i,j} to that of C^{i+1,j}.

    Both bases belong to one cube, which supplies the graph and the merge
    blocks.  Each (source run, absent edge) pair writes one block at the two
    run offsets, and distinct pairs write disjoint entries.  A target subset
    without a run has no coloring of degree j, so its block is empty.
    """
    cube = src.cube
    j = src.j
    if dst.cube is not cube or (dst.i, dst.j) != (src.i + 1, j):
        raise ValueError(
            f"d^{{{src.i},{j}}} needs the ({src.i + 1}, {j}) basis of the same cube"
        )
    # (bit, bits below it, endpoints) per edge
    edges = [(1 << e, (1 << e) - 1, u, w) for e, (u, w) in enumerate(cube.g.edges)]
    dst_offsets = dst.offsets
    template = cube.template
    data: list[dict[int, int]] = [{} for _ in range(len(dst))]
    for mask, col0, part, count in src.runs:
        ids = part.component_id
        k = part.component_count
        for bit, below, u, w in edges:
            if mask & bit:
                continue
            row0 = dst_offsets.get(mask | bit)
            if row0 is None:
                continue
            sign = -1 if (mask & below).bit_count() & 1 else 1
            cu, cw = ids[u], ids[w]
            if cu == cw:
                for t in range(count):
                    data[row0 + t][col0 + t] = sign
            else:
                if cu > cw:
                    cu, cw = cw, cu
                for r, c, v in template(k, cu, cw, j):
                    data[row0 + r][col0 + c] = sign * v
    return IntMatrix(len(dst), len(src), data)


def dump_slice(src: StateBasis, dst: StateBasis) -> str:
    """Debug dump of one slice: the states of ``src`` and the triplets of
    the differential from it to ``dst``, the next basis of its degree."""
    i, j = src.i, src.j
    width = max(src.cube.g.edge_count, 1)
    lines = [f"slice i={i} j={j} dim={len(src)}"]
    for k, s in enumerate(src.states):
        lines.append(f"state#{k}: subset=0b{s.subset:0{width}b}, colors={list(s.coloring)}")
    mat = differential(src, dst)
    lines.append(f"d^{{{i},{j}}}: {mat.rows}x{mat.cols}, nnz={mat.nnz}")
    for r, c, v in mat.triplets():
        lines.append(f"({r}, {c}, {v})")
    return "\n".join(lines)
