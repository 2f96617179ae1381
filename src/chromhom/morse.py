"""Morse-reduced complex of the edge cube over a coefficient algebra.

``compute_all`` takes this path for a graded algebra whose unit is its only
degree-0 basis element (``Algebra.connected``: every ``trunc:m`` and
``window:J``); ``morse_groups`` takes any algebra.  The cube's cells are its
enhanced states (s, c).  A sequence of element matchings (Jonsson,
*Simplicial Complexes of Graphs*, LNM 1928, 2008) pairs most of them, and
the algebraic Morse differential (Skoldberg, *Morse theory from an
algebraic viewpoint*, TAMS 2006) connects the unmatched, critical, cells
into a complex with the same cohomology.

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
explicit stack, and a term met again while still in progress raises
``EngineError`` (a gradient cycle), so no walk recurses or loops without
bound.

**The walk reads patterns.**  Each cell travels with its unit pattern, so
no walked cell is scanned for its unit slots: a cycle-closing term keeps
the pattern, and a merge of slots p1 < p2 drops slot p2 and sets slot p1
exactly when the product term is the unit.  ``Matching.status`` reads what
the cells of a (subset, pattern) are: critical, matched up, or matched down
to (s, p2, a), the cell of s with the unit put back at slot p2 (p2 = -1
under the cycle rule) and a = <dx, w>.  A term that lands on a matched-up
pattern has R = 0 and is dropped before its coloring is built; on
cycle(9) over trunc:3 that is 40 618 of the 66 560 terms the walk reads.

**Why there is no gradient cycle.**  The argument needs only that the unit
is basis element 0, which every ``Algebra`` checks.  Take two potentials of
a cell (s, c): N, its number of non-unit slots, and P', the sum over the
components K of [G:s] with c_K not the unit of (v - min K).

- A matched pair has equal N and P': the cycle rule keeps partition and
  colors, and the unit rule drops a unit slot while the merged component
  keeps the minimum and the color of slot p1.
- Along d, N never rises: a merge replaces c_K1 and c_K2 by one term of
  their product, which is the other color when either is the unit.  It
  falls at every merge of two non-units.
- So on a gradient cycle x0 -> w1 => x1 -> w2 => ... (d-steps ->, reversed
  matched pairs =>) N is constant, and no d-step merges two non-units.
  Then P' never falls along a d-step, and it rises strictly when a
  non-unit moves from slot p2 to slot p1: merging K1 < K2 carries it from
  weight v - min K2 to the larger v - min K1.  So P' is constant too, and
  every d-step is cycle-closing or a merge with the unit in slot p2.  Such
  a step has exactly one term: the rule's partner of its source along its
  edge.
- Take the least matching edge index k on the cycle.  Each => removes its
  matching edge, so some d-step x -> w' adds e_k back.  x and w' were both
  matched along edges >= k.  Were either matched along e_k, the rule's
  pairing along e_k is one-to-one, so w' would be x's own partner, which a
  gradient step excludes.  Otherwise both were free at step k and the rule
  holds, so step k would have matched them to each other: a contradiction.
"""

from __future__ import annotations

from .complexes import Cube, EngineError, IntMatrix

# memo value of a cell R maps to 0, and of a cell still being resolved
_ZERO: dict[int, int] = {}
_BUSY: dict[int, int] = {}
# status of a (subset, pattern) whose cells are critical or matched up
CRITICAL = "critical"
UP = "up"


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
    are critical; ``down[t]`` is the tuple of (edge, pattern bitset) pairs of
    t matched down along that edge, one shared object per distinct tuple
    (the shared ``()`` where there is none).  ``parts`` is the cube's table
    of partitions.  All three are lists indexed by subset.
    """

    def __init__(self, cube: Cube):
        self.cube = cube
        g = cube.g
        n = g.edge_count
        parts = self.parts = cube.partitions()
        counts = [p.component_count for p in parts]
        free = [(1 << (1 << k)) - 1 for k in counts]
        down: list[tuple[tuple[int, int], ...]] = [()] * (1 << n)
        shared: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}
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
                pairs = down[t] + ((e, m),)
                down[t] = shared.setdefault(pairs, pairs)
            live = [s for s in live if free[s]]
        self.free = free
        self.down = down
        # live now holds, ascending, the subsets with a critical pattern
        critical_masks: list[list[int]] = [[] for _ in range(n + 1)]
        for s in live:
            critical_masks[s.bit_count()].append(s)
        self.critical_masks = critical_masks
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

    def status(self, t: int, z: int):
        """What the cells of subset t with unit pattern z are: ``CRITICAL``,
        ``UP`` (matched up), or (s, p2, a) when each cell w is matched down
        to the cell x of subset s with the unit put back at slot p2 (p2 = -1
        under the cycle rule: the same coloring), and <dx, w> = a."""
        if self.free[t] >> z & 1:
            return CRITICAL
        for e, bits in self.down[t]:
            if bits >> z & 1:
                bit, below, u, w = self._edges[e]
                s = t ^ bit
                ids = self.parts[s].component_id
                p2 = max(ids[u], ids[w]) if ids[u] != ids[w] else -1
                return s, p2, -1 if (s & below).bit_count() & 1 else 1
        return UP

    def differential(self, src: list, dst: list) -> IntMatrix:
        """Matrix of d_M from the critical cells ``src`` of C^{i,j} to the
        critical cells ``dst`` of C^{i+1,j}."""
        walk = _Walk(self, dst)
        data: list[dict[int, int]] = [{} for _ in dst]
        for col_index, (s, col) in enumerate(src):
            for r, v in walk.resolve(*walk.terms(s, col, unit_pattern(col), -1, 1)).items():
                data[r][col_index] = v
        return IntMatrix(len(dst), len(src), data)


class _Walk:
    """The state of one ``Matching.differential`` call, dropped with it:
    ``rows`` indexes the target critical cells, and ``memo`` holds R of each
    matched-down cell walked so far (``_BUSY`` while it is in progress)."""

    def __init__(self, match: Matching, dst: list):
        self.match = match
        self.rows = {cell: r for r, cell in enumerate(dst)}
        self.memo: dict[tuple, dict[int, int]] = {}

    def terms(self, s: int, col: tuple, z: int, skip: int, scale: int):
        """scale * d(s, col), col of unit pattern z, without its terms at
        subset ``skip`` and on matched-up cells: the critical terms as a
        {row: coefficient} dict, and the others as a list of (cell, pattern,
        status, coefficient)."""
        match = self.match
        look = match.status
        products = match._products
        rows = self.rows
        ids = match.parts[s].component_id
        acc: dict[int, int] = {}
        down = []
        for bit, below, u, w in match._edges:
            if s & bit:
                continue
            t = s | bit
            if t == skip:
                continue
            sign = -scale if (s & below).bit_count() & 1 else scale
            p1, p2 = ids[u], ids[w]
            if p1 == p2:  # e closes a cycle: the same coloring and pattern
                st = look(t, z)
                if st is UP:
                    continue
                if st is CRITICAL:
                    r = rows[(t, col)]
                    acc[r] = acc.get(r, 0) + sign
                else:
                    down.append(((t, col), z, st, sign))
                continue
            if p1 > p2:
                p1, p2 = p2, p1
            # slot p2 goes; slot p1 holds the unit exactly when the term m does
            zt = (z & ((1 << p2) - 1) & ~(1 << p1)) | (z >> (p2 + 1) << p2)
            for m, c in products[col[p1]][col[p2]]:
                zm = zt if m else zt | 1 << p1
                st = look(t, zm)
                if st is UP:
                    continue
                cell = (t, col[:p1] + (m,) + col[p1 + 1 : p2] + col[p2 + 1 :])
                if st is CRITICAL:
                    r = rows[cell]
                    acc[r] = acc.get(r, 0) + sign * c
                else:
                    down.append((cell, zm, st, sign * c))
        return acc, down

    def resolve(self, acc: dict[int, int], down: list) -> dict[int, int]:
        """acc + sum c R(w) over the down terms (w, z, status, c), as
        ``terms`` returns them, with zeros dropped.

        Every down term is checked against the memo, and one still in
        progress closes a gradient cycle.  A term not yet resolved is
        expanded into its partner's terms, less w itself, on the same stack.
        """
        memo = self.memo
        # frames: [cell, acc, iterator over its down terms, its coefficient in the parent]
        stack = [[None, acc, iter(down), 0]]
        while True:
            frame = stack[-1]
            acc = frame[1]
            for w, z, st, c in frame[2]:
                got = memo.get(w)
                if got is _BUSY:
                    raise EngineError(f"gradient cycle through the cell {w}")
                if got is None:
                    memo[w] = _BUSY
                    t, col = w
                    s, p2, a = st
                    if p2 >= 0:  # put the unit back at slot p2
                        col = col[:p2] + (0,) + col[p2:]
                        z = (z & ((1 << p2) - 1)) | 1 << p2 | (z >> p2 << (p2 + 1))
                    sub_acc, sub_down = self.terms(s, col, z, t, -a)
                    stack.append([w, sub_acc, iter(sub_down), c])
                    break
                for r, v in got.items():
                    acc[r] = acc.get(r, 0) + c * v
            else:
                stack.pop()
                value = {r: v for r, v in acc.items() if v} or _ZERO
                if not stack:
                    return value
                memo[frame[0]] = value
                c, parent = frame[3], stack[-1][1]
                for r, v in value.items():
                    parent[r] = parent.get(r, 0) + c * v
