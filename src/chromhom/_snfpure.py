"""Pure-Python Smith normal form kernel.

Reference twin of the compiled kernel in ``_snfcore``: same algorithm,
arbitrary-precision throughout, reading row dicts where ``_snfcore`` reads
(row, column, value) triplets.  Two phases:

1. Sparse elimination of +-1 pivots.  Clearing the pivot column by row
   operations leaves the pivot alone in its column, after which clearing the
   pivot row by column operations touches nothing else, so the pivot row and
   column can simply be dropped, splitting off one invariant factor 1.
2. Classic dense Smith reduction of the small residual, pivoting on the
   nonzero entry of minimal absolute value (ties: lowest row, then column)
   to damp coefficient growth.
"""

from __future__ import annotations

from collections import deque


def _dense_snf(matrix: list[list[int]]) -> list[int]:
    """Invariant factors (nonzero diagonal) of a dense integer matrix.

    Every reduction round re-selects the globally minimal nonzero |entry| of
    the active submatrix as the pivot (ties: lowest row, then column).
    Re-selecting after each sweep is what keeps coefficient growth tame: any
    leftover remainder is strictly smaller than the old pivot, so pivots
    decrease until a sweep is clean.
    """
    if not matrix or not matrix[0]:
        return []
    m = [row[:] for row in matrix]
    nr, nc = len(m), len(m[0])
    factors: list[int] = []
    t = 0
    while t < nr and t < nc:
        while True:
            pr = pc = -1
            best = None
            for r in range(t, nr):
                row = m[r]
                for c in range(t, nc):
                    v = row[c]
                    if v:
                        a = -v if v < 0 else v
                        if best is None or a < best:
                            best, pr, pc = a, r, c
            if best is None:
                return factors  # active submatrix is zero
            if pr != t:
                m[t], m[pr] = m[pr], m[t]
            if pc != t:
                for row in m:
                    row[t], row[pc] = row[pc], row[t]
            if m[t][t] < 0:
                m[t] = [-v for v in m[t]]
            p = m[t][t]
            clean = True
            prow = m[t]
            for r in range(t + 1, nr):
                v = m[r][t]
                if v:
                    q = v // p
                    if q:
                        row = m[r]
                        for c in range(t, nc):
                            row[c] -= q * prow[c]
                    if m[r][t]:
                        clean = False
            for c in range(t + 1, nc):
                v = m[t][c]
                if v:
                    q = v // p
                    if q:
                        for row in m:
                            row[c] -= q * row[t]
                    if m[t][c]:
                        clean = False
            if not clean:
                continue
            culprit = None
            for r in range(t + 1, nr):
                row = m[r]
                for c in range(t + 1, nc):
                    if row[c] % p:
                        culprit = r
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            crow = m[culprit]
            for c in range(t, nc):
                prow[c] += crow[c]
        factors.append(m[t][t])
        t += 1
    return factors


def snf_invariant_factors(rows) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... (ascending) of a sparse matrix.

    ``rows`` is ``IntMatrix.data``; the elimination runs on copies of them.
    """
    rowdata = {r: dict(row) for r, row in enumerate(rows) if row}
    colrows: dict[int, set[int]] = {}
    for r, row in rowdata.items():
        for c in row:
            colrows.setdefault(c, set()).add(r)

    units = 0
    # Last row first: of the queue orders measured on cube differentials
    # (row order, assembly order, reversed), this one was fastest.
    queue = deque(reversed(rowdata))
    queued = set(rowdata)
    while queue:
        r0 = queue.popleft()
        queued.discard(r0)
        row0 = rowdata.get(r0)
        if not row0:
            continue
        c0 = None
        best = None
        for c, v in row0.items():
            if v == 1 or v == -1:
                size = len(colrows[c])
                if best is None or size < best:
                    best, c0 = size, c
        if c0 is None:
            continue
        eps = row0[c0]
        for s in list(colrows[c0]):
            if s == r0:
                continue
            srow = rowdata[s]
            q = srow[c0] * eps
            for c, v in row0.items():
                nv = srow.get(c, 0) - q * v
                if nv:
                    if c not in srow:
                        colrows.setdefault(c, set()).add(s)
                    srow[c] = nv
                else:
                    if c in srow:
                        del srow[c]
                        colrows[c].discard(s)
            if srow:
                if s not in queued:
                    queue.append(s)
                    queued.add(s)
            else:
                del rowdata[s]
        for c in row0:
            colrows[c].discard(r0)
        del rowdata[r0]
        units += 1

    # Compact the residual into a small dense matrix.
    rset = sorted(rowdata)
    cset = sorted({c for row in rowdata.values() for c in row})
    cpos = {c: k for k, c in enumerate(cset)}
    dense = [[0] * len(cset) for _ in rset]
    for k, r in enumerate(rset):
        for c, v in rowdata[r].items():
            dense[k][cpos[c]] = v
    return [1] * units + _dense_snf(dense)
