"""Pure-Python Smith normal form kernel.

The reference kernel: arbitrary precision throughout, reading the row dicts
of ``IntMatrix``.  One sparse elimination loop diagonalizes the matrix:

* Pivots.  Rows are taken from a queue, last row first, and a row with a
  +-1 entry pivots on the one whose column is sparsest.  When the queue is
  empty no +-1 entry is left, and the pivot is an entry of least absolute
  value, which keeps coefficients from growing.
* Row operations clear the pivot column with floor quotients.  Remainders
  are smaller than the pivot, so when any are left the loop goes on and a
  smaller pivot is found; every changed row is queued again.
* Once the pivot is alone in its column, column operations touch only the
  pivot row.  A +-1 pivot clears it outright: the row is dropped and counted
  as an invariant factor 1.  Any other pivot p reduces its row modulo p; if
  nothing else is left, |p| joins the diagonal and the row is dropped,
  otherwise the row is queued again.

The diagonal found this way is not yet a divisibility chain;
``divisibility_chain`` makes it one.  The compiled kernel in ``_snfcore``
eliminates the +-1 pivots the same way but reduces what is left as a dense
matrix; both return the same invariant factors.

Cancelled rows.  The kernel also reports the rows it removed with a +-1
pivot before it took its first least-|entry| pivot.  When the matrix is
d^(i-1) of a cochain complex, those rows are cells of C^i that the next
differential d^i may simply lose as columns (Bar-Natan, *Fast Khovanov
homology computations*, JKTR 2007, Lemma 4.2: Gaussian elimination of a
unit entry b -> c splits off a contractible summand).  Each row operation
up to then has a +-1 pivot row c, so as a change of basis of C^i it
changes only column c of d^i; once every such c is cleared, d^i o d^(i-1)
= 0 makes those columns zero.  Dropping them (``drop``) therefore leaves
the rank and invariant factors of d^i unchanged.  After a non-unit pivot,
row operations change other columns too, so later +-1 pivots are not
reported.
"""

from __future__ import annotations

from collections import deque
from math import gcd


def divisibility_chain(diagonal) -> list[int]:
    """Invariant factors d_1 | d_2 | ... (ascending) of a diagonal matrix.

    ``diagonal`` holds the nonzero diagonal entries.  Replacing a pair (a, b)
    by (gcd, lcm) keeps the group Z_a + Z_b; after the pass over all pairs
    each entry divides every later one.  The result has the same length, so
    1s may appear in it.
    """
    d = sorted(abs(v) for v in diagonal)
    for i in range(len(d)):
        a = d[i]
        for k in range(i + 1, len(d)):
            b = d[k]
            if b % a:
                g = gcd(a, b)
                d[k] = a // g * b
                a = g
        d[i] = a
    return d


def snf_invariant_factors(rows, drop=frozenset()) -> tuple[list[int], frozenset[int]]:
    """Nonzero invariant factors d_1 | d_2 | ... (ascending) of a sparse matrix,
    and the rows cancelled by +-1 pivots before any other pivot.

    ``rows`` is ``IntMatrix.data``; the elimination runs on copies of them,
    without the columns in ``drop``.
    """
    kept = ({c: v for c, v in row.items() if c not in drop} for row in rows)
    rowdata = {r: row for r, row in enumerate(kept) if row}
    colrows: dict[int, set[int]] = {}
    for r, row in rowdata.items():
        for c in row:
            colrows.setdefault(c, set()).add(r)

    units = 0
    diagonal: list[int] = []
    cancelled: list[int] = []
    only_units = True  # no least-|entry| pivot taken yet
    # Last row first: of the queue orders measured on cube differentials
    # (row order, assembly order, reversed), this one was fastest.
    queue = deque(reversed(rowdata))
    queued = set(rowdata)
    while rowdata:
        if queue:
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
        else:
            # No +-1 entry is left: pivot on one of least absolute value.
            only_units = False
            best = None
            for r, row in rowdata.items():
                for c, v in row.items():
                    a = -v if v < 0 else v
                    if best is None or a < best:
                        best, r0, c0 = a, r, c
            row0 = rowdata[r0]
        p = row0[c0]
        clean = True
        for s in list(colrows[c0]):
            if s == r0:
                continue
            srow = rowdata[s]
            q = srow[c0] // p
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
            if c0 in srow:
                clean = False
            if srow:
                if s not in queued:
                    queue.append(s)
                    queued.add(s)
            else:
                del rowdata[s]
        if not clean:
            continue  # a remainder smaller than p is left in column c0
        if p == 1 or p == -1:
            units += 1
            if only_units:
                cancelled.append(r0)
        else:
            for c, v in list(row0.items()):
                if c != c0:
                    nv = v % p
                    if nv:
                        row0[c] = nv
                    else:
                        del row0[c]
                        colrows[c].discard(r0)
            if len(row0) > 1:
                if r0 not in queued:
                    queue.append(r0)
                    queued.add(r0)
                continue
            diagonal.append(p)
        for c in row0:
            colrows[c].discard(r0)
        del rowdata[r0]
    return [1] * units + divisibility_chain(diagonal), frozenset(cancelled)
