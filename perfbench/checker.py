"""Integer arithmetic that shares no code with graphkt.

Every result the benchmark accepts is confirmed here by a second route:
rank modulo primes (sparse Gaussian elimination over GF(p)), exact rank
and determinant by fraction-free (Bareiss) elimination, and a plain
integer matrix product. Matrices are lists of rows of Python ints; sparse
matrices are lists of {column: value} dicts. Nothing here imports graphkt.
"""

from __future__ import annotations

import heapq

# 2 and 3 divide small torsion often; 2**61 - 1 is a large prime that
# almost never divides a factor, so it pins down the rank itself.
PRIMES = (2, 3, 5, 2**61 - 1)


def sparse_rows(rows) -> list:
    """{column: value} dicts for the nonzero entries of dense rows."""
    return [{j: e for j, e in enumerate(r) if e} for r in rows]


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of a sparse matrix given as {column: value} rows.

    Pivots are taken from the shortest remaining row, on its column with
    the fewest entries, which keeps fill-in low on the sparse maps of
    graphs with hundreds of vertices.
    """
    work = []
    for r in rows:
        d = {}
        for j, e in r.items():
            e %= p
            if e:
                d[j] = e
        work.append(d)
    col_rows: dict = {}
    for i, r in enumerate(work):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in enumerate(work) if r]
    heapq.heapify(heap)
    done = set()
    rank = 0
    while heap:
        length, i = heapq.heappop(heap)
        piv = work[i]
        if i in done or length != len(piv):
            continue
        if not piv:
            continue
        done.add(i)
        rank += 1
        c = min(piv, key=lambda j: len(col_rows[j]))
        inv = pow(piv[c], -1, p)
        for j in piv:
            col_rows[j].discard(i)
        for k in list(col_rows[c]):
            row = work[k]
            f = row[c] * inv % p
            for j, e in piv.items():
                v = (row.get(j, 0) - f * e) % p
                if v:
                    if j not in row:
                        col_rows[j].add(k)
                    row[j] = v
                elif j in row:
                    del row[j]
                    col_rows[j].discard(k)
            heapq.heappush(heap, (len(row), k))
    return rank


def _bareiss(rows, ncols: int):
    """Fraction-free elimination; returns (rank, sign, last pivot).

    For a square nonsingular matrix the last pivot times the sign is the
    determinant. Every intermediate entry is a minor of the input, so the
    divisions are exact.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    sign, prev, rank = 1, 1, 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = None
        for i in range(rank, nrows):
            e = a[i][col]
            if e and (piv is None or abs(e) < abs(a[piv][col])):
                piv = i
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        rk = a[rank]
        pk = rk[col]
        for i in range(rank + 1, nrows):
            ri = a[i]
            f = ri[col]
            if f:
                ri[col:] = [(x * pk - f * y) // prev for x, y in zip(ri[col:], rk[col:])]
            else:
                ri[col:] = [x * pk // prev for x in ri[col:]]
        prev = pk
        rank += 1
    return rank, sign, prev


def rank_exact(rows, ncols: int) -> int:
    """Rank over the rationals."""
    return _bareiss(rows, ncols)[0]


def det_exact(rows) -> int:
    """Determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    rank, sign, last = _bareiss(rows, n)
    return sign * last if rank == n else 0


def matmul(a, b, inner: int) -> list:
    """Product of an r x inner and an inner x c matrix, as lists of rows."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for t in range(inner):
            e = row[t]
            if e:
                bt = b[t]
                for j in range(cols):
                    acc[j] += e * bt[j]
        out.append(acc)
    return out


def max_bits(values) -> int:
    """Largest bit length of any integer in ``values``."""
    return max((abs(v).bit_length() for v in values), default=0)


def torsion_rank_problems(rows, rank: int, torsions: dict) -> list:
    """Check 1: rank mod p equals rank minus the factors p divides.

    ``rows`` is the map as sparse rows and ``rank`` its claimed rank over
    Q. ``torsions`` maps a name to claimed invariant factors (>= 2) of the
    cokernel of this map or of its transpose, which share them.
    """
    problems = []
    for p in PRIMES:
        got = rank_mod_p(rows, p)
        for name, torsion in torsions.items():
            want = rank - sum(1 for d in torsion if d % p == 0)
            if got != want:
                problems.append(f"{name}: rank mod {p} is {got}, factors imply {want}")
    return problems
