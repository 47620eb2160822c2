"""Exact linear algebra over the integers.

Everything works on plain Python ints, so arithmetic never overflows and
results are exact at any size. Matrices keep only their nonzero entries,
one ``{column: entry}`` dict per row, so the sparse vertex-matrix maps of
graphs cost their nonzeros, not rows times columns. The central routine
is one Smith elimination, whose unimodular transforms build up in identity
blocks appended to the matrix; kernels, cokernels and the normal form of
finitely generated abelian groups are read off from it.

:func:`snf` keeps its result on the matrix instance (never on an equal
matrix built separately). :func:`kernel_basis` runs it and reads V; once it
has run, :func:`invariant_factors` and :func:`cokernel` read the diagonal,
and before that they run a cheaper elimination and keep nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .sparse import eliminate_units


class IntMatrix:
    """Integer matrix, immutable after construction.

    Stored as one ``{column: entry}`` dict per row that holds the nonzero
    entries only, so transposing, multiplying and comparing cost the number
    of nonzeros. ``row`` and ``to_rows`` still give dense rows. Zero-
    dimensional shapes (0 x n, n x 0) are legal and represent maps to or
    from the zero group.

    ``_snf`` is None until :func:`snf` first runs on the instance and then
    holds its result, which the kernel and the cokernel also read.
    """

    __slots__ = ("rows", "cols", "_sparse", "_snf")

    def __init__(self, rows: int, cols: int, entries):
        if index(rows) < 0 or index(cols) < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._sparse = [_row_dict(data[i * cols:(i + 1) * cols]) for i in range(rows)]
        self._snf = None

    @classmethod
    def _of_rows(cls, rows: int, cols: int, sparse: list) -> "IntMatrix":
        """Matrix owning ``sparse``: row dicts of nonzero ints, unchecked."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._sparse = sparse
        m._snf = None
        return m

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        # Lists and tuples are only read, so they are not copied.
        rows = [r if isinstance(r, (list, tuple)) else list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
        if index(cols) < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return cls._of_rows(len(rows), cols, [_row_dict(r) for r in rows])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls.zeros(n, n)
        for i, row in enumerate(m._sparse):
            row[i] = 1
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        if index(rows) < 0 or index(cols) < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return cls._of_rows(rows, cols, [{} for _ in range(rows)])

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self._sparse[i].get(j, 0)

    def _dense(self, i: int) -> list:
        out = [0] * self.cols
        for j, e in self._sparse[i].items():
            out[j] = e
        return out

    def row(self, i: int) -> tuple:
        return tuple(self._dense(i))

    def to_rows(self) -> list:
        return [self._dense(i) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._sparse):
            for j, e in r.items():
                out[j][i] = e
        return IntMatrix._of_rows(self.cols, self.rows, out)

    def diagonal(self) -> tuple:
        return tuple(self._sparse[i].get(i, 0) for i in range(min(self.rows, self.cols)))

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        out = []
        for r in self._sparse:
            acc = {}
            for t, a in r.items():
                for j, b in other._sparse[t].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: e for j, e in acc.items() if e})
        return IntMatrix._of_rows(self.rows, other.cols, out)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._sparse == other._sparse
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._sparse)))

    def __repr__(self):
        if self.rows <= 6 and self.cols <= 6:
            # With no row to read it from, the width must be given.
            cols = f", cols={self.cols}" if self.cols and not self.rows else ""
            return f"IntMatrix.from_rows({self.to_rows()!r}{cols})"
        return f"IntMatrix({self.rows}x{self.cols})"


def _row_dict(row) -> dict:
    """The nonzero entries of a dense row, checked to be ints."""
    for e in row:
        if not isinstance(e, int):
            raise TypeError(f"non-integer entry: {e!r}")
    return {j: e for j, e in enumerate(row) if e}


@dataclass(frozen=True)
class SnfResult:
    """Diagonalization u @ m @ v == s with u, v unimodular.

    The diagonal of ``s`` starts with ``rank`` positive entries forming a
    divisibility chain d1 | d2 | ... and is zero afterwards.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    rank: int


@dataclass(frozen=True)
class AbelianGroup:
    """Normal form of a finitely generated abelian group.

    ``torsion`` is the invariant-factor chain d1 | d2 | ... | dk with every
    di >= 2; two groups are isomorphic exactly when these fields agree.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for d in (self.free_rank, *self.torsion):
            if not isinstance(d, int):
                raise TypeError(f"non-integer invariant: {d!r}")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion entries must be >= 2, got {d}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion must form a divisibility chain, got {self.torsion}")

    def __str__(self):
        return group_format(self)


def group_format(g: AbelianGroup) -> str:
    """Canonical rendering of an abelian group.

    >>> group_format(AbelianGroup(0))
    '0'
    >>> group_format(AbelianGroup(2, (2, 4)))
    'Z^2 (+) Z/2 (+) Z/4'
    """
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append(f"Z^{g.free_rank}")
    parts.extend(f"Z/{d}" for d in g.torsion)
    return " (+) ".join(parts) if parts else "0"


def _xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b; g >= 0 for a, b >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _row_submul(m, i, t, q):
    # row i -= q * row t
    ri, rt = m[i], m[t]
    for k, e in enumerate(rt):
        if e:
            ri[k] -= q * e


def _find_pivot(sm, nr, nc, t):
    """Position of a nonzero entry of minimal absolute value in sm[t:nr, t:nc]."""
    best = None
    best_abs = None
    for i in range(t, nr):
        row = sm[i]
        for j in range(t, nc):
            e = row[j]
            if e:
                a = -e if e < 0 else e
                if a == 1:
                    return i, j
                if best is None or a < best_abs:
                    best = (i, j)
                    best_abs = a
    return best


def _merge_diag_pair(sm, k):
    """Replace diag entries (a, b) at k, k+1 by (gcd, lcm)."""
    a = sm[k][k]
    b = sm[k + 1][k + 1]
    g, x, y = _xgcd(a, b)
    ag = a // g
    bg = b // g
    _row_submul(sm, k, k + 1, -1)
    for row in sm:
        ck, cl = row[k], row[k + 1]
        row[k] = x * ck + y * cl
        row[k + 1] = ag * cl - bg * ck
    _row_submul(sm, k + 1, k, y * bg)


def _smith(sm, nr, nc) -> int:
    """Diagonalize the top-left nr x nc block of the rows sm in place and
    return its rank.

    Pivots are looked for and tested only inside that block, but every row
    operation acts on the whole row (rows 0..nr-1) and every column
    operation on the whole column (all rows of sm). So an identity block
    appended to the right of the first nr rows ends up holding the left
    transform, and unit rows appended below the block the right transform.

    Pivot choice: nonzero entry of minimal absolute value in the working
    submatrix, which bounds coefficient growth at the sizes this package
    produces. A final gcd-repair pass restores the divisibility chain.

    The pivot row is fixed while it clears the pivot column, and the pivot
    column while it clears the pivot row. So each pass lists their nonzeros
    once and updates only the entries those reach; the arithmetic is that
    of whole-row and whole-column operations.
    """
    t = 0
    while t < nr and t < nc:
        piv = _find_pivot(sm, nr, nc, t)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != t:
                sm[pi], sm[t] = sm[t], sm[pi]
            if pj != t:
                _swap_cols(sm, pj, t)
            prow = sm[t]
            p = prow[t]
            dirty = False
            pnz = [(k, x) for k, x in enumerate(prow) if x]
            for i in range(t + 1, nr):
                ri = sm[i]
                e = ri[t]
                if e:
                    q = e // p
                    if q:
                        for k, x in pnz:
                            ri[k] -= q * x
                    if ri[t]:
                        dirty = True
            if not dirty:
                pcol = [(row, row[t]) for row in sm if row[t]]
                for j in range(t + 1, nc):
                    e = prow[j]
                    if e:
                        q = e // p
                        if q:
                            for row, x in pcol:
                                row[j] -= q * x
                        if prow[j]:
                            dirty = True
            if not dirty:
                break
            piv = _find_pivot(sm, nr, nc, t)
        t += 1
    rank = t
    for k in range(rank):
        if sm[k][k] < 0:
            sm[k] = [-e for e in sm[k]]
    if rank > 1:
        changed = True
        while changed:
            changed = False
            for k in range(rank - 1):
                if sm[k + 1][k + 1] % sm[k][k]:
                    _merge_diag_pair(sm, k)
                    changed = True
    return rank


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form with transforms: u @ m @ v == s.

    Eliminates ``[m | I] over [I 0]``: u is read from the right block of
    the first rows and v from the rows below. Deterministic for a fixed
    input. Works for any shape, including zero-dimensional matrices.

    The result is kept on ``m`` (never on an equal matrix built
    separately): later calls return the same object, and
    :func:`kernel_basis` and :func:`invariant_factors` read it.
    """
    if m._snf is None:
        nr, nc = m.rows, m.cols
        sm = [r + e for r, e in zip(m.to_rows(), IntMatrix.identity(nr).to_rows())]
        sm += IntMatrix.identity(nc).to_rows()
        rank = _smith(sm, nr, nc)
        m._snf = SnfResult(
            IntMatrix.from_rows([r[nc:] for r in sm[:nr]], cols=nr),
            IntMatrix.from_rows([r[:nc] for r in sm[:nr]], cols=nc),
            IntMatrix.from_rows(sm[nr:], cols=nc),
            rank,
        )
    return m._snf


def invariant_factors(m: IntMatrix) -> tuple:
    """Nonzero diagonal d1 | d2 | ... of the Smith form, without transforms.

    Once :func:`snf` has run on ``m``, this is the diagonal of its S.
    Otherwise it is cheaper than :func:`snf` and keeps nothing: unit
    pivots are eliminated sparsely first (each is an invariant factor 1),
    and the remaining rows and columns go through the dense elimination.
    """
    if m._snf is not None:
        return m._snf.s.diagonal()[: m._snf.rank]
    units, sm, nc = eliminate_units([dict(r) for r in m._sparse], m.cols)
    rank = _smith(sm, len(sm), nc)
    return (1,) * units + tuple(sm[k][k] for k in range(rank))


def cokernel_of_factors(rows: int, factors) -> AbelianGroup:
    """Normal form of Z^rows modulo a map with these invariant factors."""
    return AbelianGroup(rows - len(factors), tuple(x for x in factors if x >= 2))


def kernel_basis(m: IntMatrix) -> list:
    """Basis of {x : m @ x = 0} spanning a direct summand of Z^cols.

    Returns cols - rank vectors, the trailing columns of the right
    transform V of :func:`snf`; empty when the map is injective. It runs
    :func:`snf` on ``m``, which keeps its result there.
    """
    res = snf(m)
    vt = res.v.transpose()
    return [vt.row(j) for j in range(res.rank, m.cols)]


def cokernel(m: IntMatrix) -> AbelianGroup:
    """Normal form of Z^rows / image(m).

    >>> cokernel(IntMatrix.from_rows([[0], [1]]))
    AbelianGroup(free_rank=1, torsion=())
    """
    return cokernel_of_factors(m.rows, invariant_factors(m))


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - aik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]
