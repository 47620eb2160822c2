"""Sparse elimination of unit pivots, ahead of the dense Smith form.

Vertex matrices of graphs are sparse and most of their entries are +-1.
Each +-1 pivot is an invariant factor 1, and eliminating it on sparse rows
costs only the fill-in it causes, so these pivots go first and the dense
elimination in :mod:`graphkt.intlinalg` only sees what is left. Most of
them cause none: a +-1 alone in its row or in its column only deletes
entries, and the tails and sinks of graphs are chains of such pivots.
Those are taken first, without ranking; the rest go in Markowitz order.
The rows are the ``{column: entry}`` dicts that
:class:`~graphkt.intlinalg.IntMatrix` stores, copied, so no dense form of
the matrix is ever built. See Dumas, Saunders and Villard, "On efficient
sparse integer matrix Smith normal form computations", J. Symb. Comput. 32
(2001).
"""

from __future__ import annotations

import heapq


def eliminate_units(rows: list, ncols: int) -> tuple:
    """Eliminate the +-1 pivots of sparse rows, in place.

    ``rows[i]`` is ``{column: entry}`` with nonzero entries. A unit pivot
    clears its column by row operations, after which column operations
    clear its row without touching the rest, so it contributes an
    invariant factor 1 and its row and column drop out (the row becomes
    None). Fill-free pivots go first: a +-1 alone in its row, whose column
    is cleared by deleting entries, and a +-1 alone in its column, whose
    row is simply dropped. Each can leave other rows or columns with one
    entry, which are tried next. The remaining pivots are taken in order
    of lowest Markowitz cost (row nnz - 1) * (col nnz - 1), which keeps
    fill-in low.

    Returns ``(units, residual, width)``: the number of pivots taken, and
    the remaining nonzero rows restricted to the ``width`` columns that
    still hold entries, as dense lists. The invariant factors of the
    matrix are ``units`` ones followed by those of the residual.
    """
    nr = len(rows)
    count = [0] * ncols  # nonzeros per column
    holders = [[] for _ in range(ncols)]  # rows that gained an entry in each column
    for i, row in enumerate(rows):
        for j in row:
            count[j] += 1
            holders[j].append(i)
    pivots = 0
    # The fill-free cascade: rows and columns with one entry, taken as a
    # worklist. A lone entry other than +-1 is no pivot and stays.
    single_rows = [i for i, row in enumerate(rows) if len(row) == 1]
    single_cols = [j for j in range(ncols) if count[j] == 1]
    while single_rows or single_cols:
        if single_rows:
            i = single_rows.pop()
            prow = rows[i]
            if prow is None or len(prow) != 1:
                continue
            ((j, p),) = prow.items()
            if p != 1 and p != -1:
                continue
            rows[i] = None
            for r in holders[j]:
                target = rows[r]
                if target is not None and j in target:
                    del target[j]
                    if len(target) == 1:
                        single_rows.append(r)
            count[j] = 0
            holders[j] = []
        else:
            j = single_cols.pop()
            if count[j] != 1:
                continue
            i = next(r for r in holders[j] if rows[r] is not None and j in rows[r])
            prow = rows[i]
            if prow[j] != 1 and prow[j] != -1:
                continue
            rows[i] = None
            for k in prow:
                count[k] -= 1
                if count[k] == 1:
                    single_cols.append(k)
        pivots += 1
    # A heap key packs (cost, row, column) into one int. Keys are checked
    # when popped and pushed again when the cost has grown since.
    size = nr * ncols
    heap = [
        ((len(row) - 1) * (count[j] - 1) * nr + i) * ncols + j
        for i, row in enumerate(rows)
        if row
        for j, e in row.items()
        if e == 1 or e == -1
    ]
    heapq.heapify(heap)
    while heap:
        cost, at = divmod(heapq.heappop(heap), size)
        i, j = divmod(at, ncols)
        prow = rows[i]
        if prow is None:
            continue
        p = prow.get(j)
        if p != 1 and p != -1:
            continue
        now = (len(prow) - 1) * (count[j] - 1)
        if now > cost:
            heapq.heappush(heap, now * size + at)
            continue
        rows[i] = None
        for k in prow:
            count[k] -= 1
        for r in holders[j]:
            target = rows[r]
            if target is None or j not in target:
                continue
            f = target[j] * p
            for k, x in prow.items():
                y = target.get(k)
                if y is None:
                    y = -f * x
                    count[k] += 1
                    holders[k].append(r)
                else:
                    y -= f * x
                    if not y:
                        del target[k]
                        count[k] -= 1
                        continue
                target[k] = y
                if y == 1 or y == -1:
                    heapq.heappush(heap, ((len(target) - 1) * (count[k] - 1) * nr + r) * ncols + k)
        holders[j] = []
        pivots += 1
    live = [j for j in range(ncols) if count[j]]
    return pivots, [[r.get(j, 0) for j in live] for r in rows if r], len(live)
