"""Morse-reduced complex of the edge cube over a graded algebra.

``compute_all`` takes this path for a graded algebra whose unit is its only
degree-0 basis element (``Algebra.connected``: every ``trunc:m`` and
``window:J``).  The cube's cells are its enhanced states (s, c).  A sequence of
element matchings (Jonsson, *Simplicial Complexes of Graphs*, LNM 1928,
2008) pairs most of them, and the algebraic Morse differential (Skoldberg,
*Morse theory from an algebraic viewpoint*, TAMS 2006) connects the
unmatched, critical, cells into a complex with the same cohomology.

**Matching.**  Walk the edges in index order.  At edge e, pair each
still-free cell (s, c) with e not in s with a still-free (s + e, c') when

- e closes a cycle in [G:s], and c' = c; or
- e merges components p1 < p2 and c[p2] is the unit, and c' is c without
  slot p2 (the merged component keeps slot p1 and its color c[p1]).

Either way <d(s, c), (s + e, c')> = +-1.  Both rules read only which slots
hold the unit, and the partner keeps every other color, so whether a cell is
free depends only on (s, z), z the set of unit slots: its *unit pattern*.
One pass therefore keeps, per subset, a bitset of the free patterns.  The
cycle rule matches ``free[s] & free[s + e]``; the unit rule spreads
``free[s + e]`` to the patterns of s with slot p2 set, matches those, and
compresses the match back.  Each subset records the (edge, bitset) pairs of
its patterns matched down; a pattern that is neither free nor recorded was
matched up.

**Morse differential.**  Write R(w) for the image of a cell w on the
critical cells: R(w) = w if w is critical, 0 if w is matched up, and
R(w) = -a * sum_{w' != w} <dx, w'> R(w') if w is matched down to x with
a = <dx, w>.  Then d_M(c) = sum_w <dc, w> R(w).  Every cell R reads has the
degree of w, so one memo per (i, j) suffices.  The memo is filled by an
explicit stack, and a cell met again while still in progress raises
``EngineError`` (a gradient cycle), so no walk recurses or loops without
bound.

**Why there is no gradient cycle.**  Let P(s, c) be the sum, over the
components K of [G:s], of deg(c_K) * (v - min K).

- A matched pair has equal P: the cycle rule keeps partition and colors,
  and the unit rule drops a slot of degree 0.
- Along d, P never falls: a cycle-closing edge keeps it, and merging
  K1 < K2 into a component with minimum min K1 carries the degree of c_K2
  from weight v - min K2 to the larger v - min K1.  It rises strictly when
  c_K2 is not the unit, because only the unit has degree 0.
- So on a gradient cycle x0 -> w1 => x1 -> w2 => ... (d-steps ->, reversed
  matched pairs =>) P is constant.  Every d-step is cycle-closing or a
  merge with the unit in the later slot, so it has exactly one term: the
  rule's partner of its source along its edge.
- Take the least matching edge index k on the cycle.  Each => removes its
  matching edge, so some d-step x -> w' adds e_k back.  x and w' were both
  matched along edges >= k.  Were either matched along e_k, the rule's
  pairing along e_k is one-to-one, so w' would be x's own partner, which a
  gradient step excludes.  Otherwise both were free at step k and the rule
  holds, so step k would have matched them to each other: a contradiction.

No such argument is known for Z[x]/(p) with p != x^m, where a product of
non-units can be the unit (x * x^2 = 1 in Z[x]/(x^3 - 1)); those algebras
stay on the cube.
"""

from __future__ import annotations

from .complexes import Cube, EngineError, IntMatrix

# memo value of a cell R maps to 0, and of a cell still being resolved
_ZERO: dict[int, int] = {}
_BUSY: dict[int, int] = {}


def _spread(bits: int, p2: int) -> int:
    """The patterns z with slot p2 set whose slot-p2-free compression is in ``bits``."""
    low = (1 << p2) - 1
    out = 0
    while bits:
        lsb = bits & -bits
        z = lsb.bit_length() - 1
        bits ^= lsb
        out |= 1 << ((z & low) | (1 << p2) | ((z >> p2) << (p2 + 1)))
    return out


def _compress(bits: int, p2: int) -> int:
    """Each pattern of ``bits`` (slot p2 set) with slot p2 removed."""
    low = (1 << p2) - 1
    out = 0
    while bits:
        lsb = bits & -bits
        z = lsb.bit_length() - 1
        bits ^= lsb
        out |= 1 << ((z & low) | ((z >> (p2 + 1)) << p2))
    return out


def unit_pattern(col: tuple[int, ...]) -> int:
    """The set of slots of ``col`` that hold the unit, as a bitmask."""
    z = 0
    for p, b in enumerate(col):
        if not b:
            z |= 1 << p
    return z


class Matching:
    """The matching of one cube, kept at the level of unit patterns.

    ``free[s]`` has bit z set when the cells of subset s with unit pattern z
    are critical; ``down[t]`` lists the (edge, pattern bitset) pairs of t
    matched down along that edge.  ``parts[s]`` is the cube's partition of s.
    """

    def __init__(self, cube: Cube):
        self.cube = cube
        g = cube.g
        n = g.edge_count
        by_count = cube.masks_by_count()
        parts = [None] * (1 << n)
        for bucket in by_count:
            for s in bucket:
                parts[s] = cube.part(s)
        self.parts = parts
        counts = [p.component_count for p in parts]
        free = [(1 << (1 << k)) - 1 for k in counts]
        down: dict[int, list[tuple[int, int]]] = {}
        spread: dict[tuple[int, int], int] = {}
        compress: dict[tuple[int, int], int] = {}
        live = range(1 << n)
        for e, (u, w) in enumerate(g.edges):
            bit = 1 << e
            for s in live:
                if s & bit:
                    continue
                fs = free[s]
                t = s | bit
                ft = free[t]
                if not (fs and ft):
                    continue
                if counts[s] == counts[t]:  # e closes a cycle
                    m = fs & ft
                    if not m:
                        continue
                    free[s] = fs ^ m
                    free[t] = ft ^ m
                else:  # e merges slots p1 < p2; slot p2 must hold the unit
                    ids = parts[s].component_id
                    p2 = max(ids[u], ids[w])
                    key = (ft, p2)
                    up = spread.get(key)
                    if up is None:
                        up = spread[key] = _spread(ft, p2)
                    hit = fs & up
                    if not hit:
                        continue
                    key = (hit, p2)
                    m = compress.get(key)
                    if m is None:
                        m = compress[key] = _compress(hit, p2)
                    free[s] = fs ^ hit
                    free[t] = ft ^ m
                down.setdefault(t, []).append((e, m))
            live = [s for s in live if free[s]]
        self.free = free
        self.down = down
        self.critical_masks = [[s for s in bucket if free[s]] for bucket in by_count]
        # (bit, bits below it, endpoints) per edge
        self._edges = [(1 << e, (1 << e) - 1, u, w) for e, (u, w) in enumerate(g.edges)]
        # the nonzero (basis index, coefficient) terms of each product b_k b_l
        self._products = [
            [tuple((m, c) for m, c in enumerate(vec) if c) for vec in row]
            for row in cube.a.mult
        ]

    def critical(self, i: int, j: int) -> list[tuple[int, tuple[int, ...]]]:
        """The critical cells (s, c) of C^{i,j}, by subset and then coloring."""
        if not 0 <= i < len(self.critical_masks):
            return []
        colorings = self.cube.colorings
        out = []
        for s in self.critical_masks[i]:
            f = self.free[s]
            for col in colorings(self.parts[s].component_count, j):
                if f >> unit_pattern(col) & 1:
                    out.append((s, col))
        return out

    def image(self, s: int, col: tuple[int, ...]) -> list[tuple[tuple, int]]:
        """d(s, col) as (cell, coefficient) terms."""
        ids = self.parts[s].component_id
        products = self._products
        out = []
        for bit, below, u, w in self._edges:
            if s & bit:
                continue
            t = s | bit
            sign = -1 if (s & below).bit_count() & 1 else 1
            cu, cw = ids[u], ids[w]
            if cu == cw:
                out.append(((t, col), sign))
            else:
                if cu > cw:
                    cu, cw = cw, cu
                # the merged component keeps slot cu; later slots shift down
                head, mid, tail = col[:cu], col[cu + 1 : cw], col[cw + 1 :]
                for m, c in products[col[cu]][col[cw]]:
                    out.append(((t, head + (m,) + mid + tail), sign * c))
        return out

    def matched_down(self, t: int, col: tuple[int, ...]):
        """(x, <dx, (t, col)>) for the cell x that (t, col) is matched down
        to, or None when (t, col) is critical or matched up."""
        z = unit_pattern(col)
        for e, bits in self.down.get(t, ()):
            if bits >> z & 1:
                bit, below, u, w = self._edges[e]
                s = t ^ bit
                ids = self.parts[s].component_id
                if ids[u] != ids[w]:  # the unit rule: put the unit back at p2
                    p2 = max(ids[u], ids[w])
                    col = col[:p2] + (0,) + col[p2:]
                return (s, col), -1 if (s & below).bit_count() & 1 else 1
        return None

    def _settle(self, w, memo, rows) -> bool:
        """Memoize R(w) when w is critical or matched up; True when w is
        matched down and not yet resolved, so its gradient terms need a walk."""
        got = memo.get(w)
        if got is _BUSY:
            raise EngineError(f"gradient cycle through the cell {w}")
        if got is not None:
            return False
        t, col = w
        if self.free[t] >> unit_pattern(col) & 1:
            memo[w] = {rows[w]: 1}
        elif self.matched_down(t, col) is None:
            memo[w] = _ZERO
        else:
            return True
        return False

    def _resolve(self, w, memo, rows) -> dict[int, int]:
        """R(w) on the critical cells indexed by ``rows``, memoized in ``memo``."""
        # stack entries: [cell, None] before the cell is opened, then
        # [cell, its gradient terms] until every term is resolved
        stack = [[w, None]] if self._settle(w, memo, rows) else []
        while stack:
            top = stack[-1]
            cell = top[0]
            if top[1] is None:
                if not self._settle(cell, memo, rows):  # resolved on another path
                    stack.pop()
                    continue
                memo[cell] = _BUSY
                x, a = self.matched_down(*cell)
                top[1] = [(nxt, -a * c) for nxt, c in self.image(*x) if nxt != cell]
                stack.extend([nxt, None] for nxt, _ in top[1] if self._settle(nxt, memo, rows))
            else:
                acc: dict[int, int] = {}
                for nxt, c in top[1]:
                    for r, v in memo[nxt].items():
                        acc[r] = acc.get(r, 0) + c * v
                memo[cell] = {r: v for r, v in acc.items() if v} or _ZERO
                stack.pop()
        return memo[w]

    def differential(self, src: list, dst: list) -> IntMatrix:
        """Matrix of d_M from the critical cells ``src`` of C^{i,j} to the
        critical cells ``dst`` of C^{i+1,j}."""
        rows = {cell: r for r, cell in enumerate(dst)}
        memo: dict = {}
        data: list[dict[int, int]] = [{} for _ in dst]
        for col_index, (s, col) in enumerate(src):
            acc: dict[int, int] = {}
            for w, c in self.image(s, col):
                for r, v in self._resolve(w, memo, rows).items():
                    acc[r] = acc.get(r, 0) + c * v
            for r, v in acc.items():
                if v:
                    data[r][col_index] = v
        return IntMatrix(len(dst), len(src), data)
