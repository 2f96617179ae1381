"""Finite multigraphs with ordered edges.

The edge order is part of the data: it fixes the signs of the cube
differential, so every editing operation documents how it shifts edge
indices.  Loops and parallel edges are legal everywhere except that a loop
cannot be contracted.  Graphs are immutable values; all operations return
new graphs.  ``Graph`` refuses more than ``MAX_EDGES`` edges, so no other
layer checks the cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

# Edge subsets are bitmasks in a machine word.
MAX_EDGES = 63


class GraphFormatError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        edges = tuple((int(u), int(w)) for u, w in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, w in edges:
            if not (0 <= u < self.vertex_count and 0 <= w < self.vertex_count):
                raise ValueError(f"edge ({u}, {w}) endpoint out of range")
        if len(edges) > MAX_EDGES:
            raise ValueError(
                f"graph has {len(edges)} edges; the engine is capped at {MAX_EDGES}"
            )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Vertex degree; a loop contributes 2."""
        return sum((u == v) + (w == v) for u, w in self.edges)

    def has_loop(self) -> bool:
        return any(u == w for u, w in self.edges)

    def to_json_dict(self) -> dict:
        return {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}

    def to_text(self) -> str:
        lines = [f"vertices {self.vertex_count}"]
        lines += [f"{u} {w}" for u, w in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of a spanning subgraph, numbered by minimal vertex."""

    component_id: tuple[int, ...]
    component_count: int


def components(g: Graph, subset: int) -> ComponentPartition:
    """Components of [G:s], the spanning subgraph with edge set ``subset``.

    ``subset`` is a bitmask over edge indices.  Components are numbered
    0..count-1 in ascending order of their minimal vertex.
    """
    if subset >> g.edge_count:
        raise ValueError("subset mask wider than edge count")
    parent = list(range(g.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    mask = subset
    while mask:
        e = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        u, w = g.edges[e]
        ru, rw = find(u), find(w)
        if ru != rw:
            # Root at the smaller vertex so roots stay class minima.
            if ru > rw:
                ru, rw = rw, ru
            parent[rw] = ru
    ids = [-1] * g.vertex_count
    count = 0
    for v in range(g.vertex_count):
        r = find(v)
        if ids[r] < 0:
            ids[r] = count
            count += 1
        ids[v] = ids[r]
    return ComponentPartition(tuple(ids), count)


def _canonical(edges) -> tuple[tuple[int, int], ...]:
    """Sorted edges, endpoints ordered, the vertices in use relabelled 0, 1, ..."""
    label = {x: k for k, x in enumerate(sorted({x for e in edges for x in e}))}
    return tuple(sorted((label[min(e)], label[max(e)]) for e in edges))


def subset_census(g: Graph) -> list[list[int]]:
    """``counts[i][c]``: the i-edge subsets s for which [G:s] has c components.

    The table is Whitney's S(G) = sum_s x^|s| y^c(s), by memoized
    deletion-contraction (Haggard, Pearce and Royle, ACM TOMS 2010): an
    edgeless graph on v vertices gives y^v, a loop e gives (1 + x) S(G - e),
    and any other edge S(G - e) + x S(G / e); a parallel class is taken in
    one step.  Subsets are kept by rank v - c(s), which ignores isolated
    vertices, so the memo (one per call) is keyed on the canonical edge list.
    Contracting each edge into its larger endpoint eliminates the vertices in
    order, which keeps sparse graphs cheap.
    """
    memo: dict[tuple[tuple[int, int], ...], dict[tuple[int, int], int]] = {(): {(0, 0): 1}}

    def ranks(edges: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], int]:
        # {(|s|, rank of s): number of subsets s}
        if edges not in memo:
            u, w = edges[0]
            m = edges.count(edges[0])  # sorted, so the parallel class leads
            out = dict(ranks(_canonical(edges[m:])))
            # Contract u into w; for a loop class this is the deletion again.
            moved = [(w if a == u else a, w if b == u else b) for a, b in edges[m:]]
            step = int(u != w)
            for (i, r), n in ranks(_canonical(moved)).items():
                for j in range(1, m + 1):
                    out[i + j, r + step] = out.get((i + j, r + step), 0) + comb(m, j) * n
            memo[edges] = out
        return memo[edges]

    counts = [[0] * (g.vertex_count + 1) for _ in range(g.edge_count + 1)]
    for (i, r), n in ranks(_canonical(g.edges)).items():
        counts[i][g.vertex_count - r] = n
    return counts


def delete_edge(g: Graph, e: int) -> Graph:
    """G - e: vertices kept, edge removed, later edges shift down one index."""
    if not (0 <= e < g.edge_count):
        raise IndexError(f"edge index {e} out of range")
    return Graph(g.vertex_count, g.edges[:e] + g.edges[e + 1 :])


def contract_edge(g: Graph, e: int) -> Graph:
    """G / e: identify the endpoints of a non-loop edge.

    The smaller endpoint index is kept; larger vertex indices shift down by
    one so vertex labels stay contiguous.  Edges parallel to e become loops.
    """
    if not (0 <= e < g.edge_count):
        raise IndexError(f"edge index {e} out of range")
    u, w = g.edges[e]
    if u == w:
        raise ValueError("cannot contract a loop")
    if u > w:
        u, w = w, u

    def relabel(x: int) -> int:
        if x == w:
            return u
        return x - 1 if x > w else x

    new_edges = tuple(
        (relabel(a), relabel(b)) for k, (a, b) in enumerate(g.edges) if k != e
    )
    return Graph(g.vertex_count - 1, new_edges)


def simplify(g: Graph) -> Graph:
    """Collapse each parallel class to its first edge; loops are kept as-is."""
    seen: set[tuple[int, int]] = set()
    kept = []
    for u, w in g.edges:
        if u == w:
            kept.append((u, w))
            continue
        key = (min(u, w), max(u, w))
        if key not in seen:
            seen.add(key)
            kept.append((u, w))
    return Graph(g.vertex_count, tuple(kept))


@dataclass(frozen=True)
class CycleInfo:
    """Cycle structure of a graph after conceptual simplification.

    ``has_loop`` reads the graph as given; the other flags describe its
    simplified loop-free graph: whether it has a triangle, a square (a
    4-cycle), an odd cycle (length >= 3) and an even cycle (length >= 4).
    """

    has_loop: bool
    has_triangle: bool
    has_square: bool
    has_odd_cycle: bool
    has_even_cycle: bool


def _adjacency(g: Graph) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for k, (u, w) in enumerate(g.edges):
        adj[u].append((w, k))
        if u != w:
            adj[w].append((u, k))
    return adj


def _cycle_parities(g: Graph, adj: list[list[tuple[int, int]]]) -> tuple[bool, bool]:
    """(some odd cycle, some even cycle) of a simple loop-free graph with
    adjacency ``adj``.

    Each edge outside a spanning forest closes one fundamental cycle, and
    parity is additive over the cycle space they span.  An odd cycle exists
    iff some fundamental cycle is odd.  Two fundamental cycles that share a
    forest edge span a theta graph, and two of its three paths close an even
    cycle, of length >= 4 since the graph is simple.  When no forest edge is
    shared, every cycle is a single fundamental cycle.
    """
    depth = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    for s in range(g.vertex_count):
        if depth[s] >= 0:
            continue
        depth[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w, _ in adj[v]:
                if depth[w] < 0:
                    depth[w], parent[w] = depth[v] + 1, v
                    stack.append(w)
    used = set()  # u for each forest edge (u, parent[u]) on a cycle so far
    has_odd = has_even = False
    for u, w in g.edges:
        if parent[u] == w or parent[w] == u:
            continue  # a forest edge: the graph is simple
        length = 1
        while u != w:  # climb the deeper endpoint to the common ancestor
            if depth[u] < depth[w]:
                u, w = w, u
            has_even |= u in used
            used.add(u)
            u = parent[u]
            length += 1
        has_odd |= length % 2 == 1
        has_even |= length % 2 == 0
    return has_odd, has_even


def shortest_cycle_parity(g: Graph) -> CycleInfo:
    """Loop presence, then the short cycles and cycle parities of the
    simplified loop-free graph.

    There, an edge closes a triangle iff its endpoints share a neighbour,
    and two vertices lie opposite on a square iff they share two.
    """
    simple = simplify(Graph(g.vertex_count, tuple(e for e in g.edges if e[0] != e[1])))
    adj = _adjacency(simple)
    neigh = [{w for w, _ in ws} for ws in adj]
    n = simple.vertex_count
    has_triangle = any(neigh[u] & neigh[w] for u, w in simple.edges)
    has_square = any(
        len(neigh[u] & neigh[w]) >= 2 for u in range(n) for w in range(u + 1, n)
    )
    return CycleInfo(g.has_loop(), has_triangle, has_square, *_cycle_parities(simple, adj))


# ---------------------------------------------------------------------------
# generators


def path(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """Polygon with n vertices and n edges; edge i joins v_i, v_{i+1 mod n}.

    n = 1 is a single vertex with a loop and n = 2 a double edge, matching
    the degenerate polygons the recursion needs.
    """
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("complete needs n >= 0")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def polygon_with_diagonals(v: int, diagonals: list[tuple[int, int]]) -> Graph:
    """Polygon on v vertices with extra chord edges appended in given order.

    Whether the chords can be drawn without crossing is not checked.
    """
    base = cycle(v)
    return Graph(v, base.edges + tuple((int(a), int(b)) for a, b in diagonals))


def wedge(g1: Graph, g2: Graph, v1: int = 0, v2: int = 0) -> Graph:
    """One-vertex product: glue vertex v2 of g2 onto vertex v1 of g1."""
    if not (0 <= v1 < g1.vertex_count and 0 <= v2 < g2.vertex_count):
        raise ValueError("wedge vertices out of range")

    def relabel(x: int) -> int:
        if x == v2:
            return v1
        return g1.vertex_count + x - (1 if x > v2 else 0)

    edges = g1.edges + tuple((relabel(a), relabel(b)) for a, b in g2.edges)
    return Graph(g1.vertex_count + g2.vertex_count - 1, edges)


# ---------------------------------------------------------------------------
# file formats


def parse_graph_text(text: str) -> Graph:
    """Text format: line ``vertices N`` then one ``u w`` line per edge.

    The edge order in the file is the differential-sign order.
    """
    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if vertices is None:
            if parts[0] != "vertices" or len(parts) != 2:
                raise GraphFormatError("expected 'vertices N'", lineno)
            try:
                vertices = int(parts[1])
            except ValueError:
                raise GraphFormatError("vertex count is not an integer", lineno)
            continue
        if len(parts) != 2:
            raise GraphFormatError("expected edge line 'u w'", lineno)
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge endpoints are not integers", lineno)
        edges.append((u, w))
    if vertices is None:
        raise GraphFormatError("missing 'vertices N' header")
    try:
        return Graph(vertices, tuple(edges))
    except ValueError as exc:
        raise GraphFormatError(str(exc))


def parse_graph_json(data) -> Graph:
    """JSON format: {"vertices": N, "edges": [[u, w], ...]}."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        vertices = data["vertices"]
        edges = tuple((u, w) for u, w in data["edges"])
        # exact type: JSON true/false arrive as bool, an int subclass
        if any(type(x) is not int for x in (vertices, *(v for e in edges for v in e))):
            raise TypeError("vertex count and endpoints must be JSON integers")
        return Graph(vertices, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad graph JSON: {exc}")


def load_graph(path_: str) -> Graph:
    with open(path_, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)
