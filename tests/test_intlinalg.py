"""Exact linear algebra: frozen examples plus randomized invariants.

The independent oracles are cofactor expansion (torsion orders) and
determinantal divisors (invariant factors), written here and never used
by the library code.
"""

import hashlib
import random
import tracemalloc
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphkt import intlinalg
from graphkt.graphio import parse_matrix
from graphkt.graphs import INF, Graph, block_decomposition
from graphkt.harness import RandomGraphParams, random_graph
from graphkt.intlinalg import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    det_bareiss,
    group_format,
    invariant_factors,
    kernel_basis,
    snf,
)
from graphkt.ktheory import row_matrix, stacked_matrix
from graphkt.tails import desingularize


def cofactor_det(rows):
    """Independent determinant oracle: textbook cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def determinantal_factors(rows, ncols):
    """Independent invariant-factor oracle: d_k = D_k / D_(k-1), where D_k
    is the gcd of all k x k minors, computed by cofactor expansion."""
    out = []
    prev = 1
    for k in range(1, min(len(rows), ncols) + 1):
        dk = 0
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(ncols), k):
                dk = gcd(dk, cofactor_det([[rows[i][j] for j in ci] for i in ri]))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return tuple(out)


@st.composite
def sparse_matrices(draw, max_dim):
    """Matrices of every shape up to max_dim x max_dim, zero dimensions
    included, from all-zero through dense, rich in +-1 entries."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    zero_share = draw(st.integers(0, 4))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from([1, -1, 1, -1, 2, -2, 3, 6, -9])),
            min_size=r * c,
            max_size=r * c,
        )
    )
    return IntMatrix(r, c, [0 if k < zero_share else e for k, e in cells])


@st.composite
def unit_phase_matrices(draw, max_dim):
    """sparse_matrices(max_dim) with planted shapes that the sparse unit
    phase treats apart: rows that are a multiple of another row plus at
    most one change, so that eliminating the other row cancels entries and
    column counts drop; lone +-1 and +-2 entries in a row or a column; and
    empty rows and columns."""
    m = draw(sparse_matrices(max_dim))
    rows, ncols = m.to_rows(), m.cols
    if not rows or not ncols:
        return m
    for _ in range(draw(st.integers(0, 2))):
        row = [draw(st.sampled_from([1, -1, 2])) * e for e in draw(st.sampled_from(rows))]
        row[draw(st.integers(0, ncols - 1))] += draw(st.sampled_from([0, 1, -2]))
        rows.insert(draw(st.integers(0, len(rows))), row)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["row", "column", "empty row", "empty column"]))
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, ncols - 1))
        v = draw(st.sampled_from([1, -1, 2, -2]))
        if kind == "row":
            rows[i] = [v if k == j else 0 for k in range(ncols)]
        elif kind == "column":
            for k, row in enumerate(rows):
                row[j] = v if k == i else 0
        elif kind == "empty row":
            rows[i] = [0] * ncols
        else:
            for row in rows:
                row[j] = 0
    return IntMatrix.from_rows(rows, cols=ncols)


@st.composite
def desingularized_maps(draw):
    """Stacked maps of small random graphs with tails, whose long chains of
    +-1 entries the unit phase takes as fill-free pivots."""
    g = random_graph(RandomGraphParams(seed=draw(st.integers(0, 2**32)), max_vertices=8,
                                       max_multiplicity=3))
    return stacked_matrix(block_decomposition(desingularize(g, draw(st.integers(1, 3)))))


def random_matrix(rng, max_dim=6, lo=-9, hi=9):
    r, c = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)], cols=c
    )


def dependent_matrix(seed, nrows, ncols, dependent):
    """Seeded nrows x ncols matrix with entries in [-3, 3] whose rows include
    ``dependent`` sums or differences of two other rows (or a negated row
    when no such sum stays in range), placed at seeded positions."""
    rng = random.Random(seed)
    rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows - dependent)]
    for _ in range(dependent):
        pairs = [(a, b, s) for a in range(len(rows)) for b in range(a) for s in (1, -1)]
        rng.shuffle(pairs)
        for a, b, s in pairs:
            row = [x + s * y for x, y in zip(rows[a], rows[b])]
            if all(-3 <= x <= 3 for x in row):
                break
        else:
            row = [-x for x in rows[rng.randrange(len(rows))]]
        rows.insert(rng.randrange(len(rows) + 1), row)
    return IntMatrix.from_rows(rows, cols=ncols)


# No entry is +-1 and the minimal |entry| 2 occurs with both signs in every
# row, so the pivot choice among ties decides the transforms.
TIED_MINIMA = [
    [4, -2, 6, 2, -6, 3],
    [-2, 6, 2, 4, 3, -4],
    [6, 2, -2, 8, -3, 2],
    [2, -4, 8, -2, 6, 6],
    [-4, 3, -2, 2, 9, -2],
]


def assert_snf_contract(m, res):
    assert res.u @ m @ res.v == res.s
    assert abs(det_bareiss(res.u)) == 1
    assert abs(det_bareiss(res.v)) == 1
    d = res.s.diagonal()
    assert all(d[k] >= 1 for k in range(res.rank))
    assert all(d[k] == 0 for k in range(res.rank, len(d)))
    for a, b in zip(d[: res.rank - 1], d[1: res.rank]):
        assert b % a == 0
    # off-diagonal must vanish
    for i in range(res.s.rows):
        for j in range(res.s.cols):
            if i != j:
                assert res.s[i, j] == 0


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, [1, 2, 3])
        with pytest.raises(TypeError):
            IntMatrix(1, 1, [1.5])
        with pytest.raises(ValueError):
            IntMatrix(-1, 0, [])

    def test_zero_dimensional_shapes_are_legal(self):
        assert IntMatrix(0, 3, []).rows == 0
        assert IntMatrix(3, 0, []).cols == 0
        assert IntMatrix.from_rows([], cols=2).transpose() == IntMatrix(2, 0, [])
        for m in (IntMatrix(0, 3, []), IntMatrix(3, 0, []), IntMatrix(0, 0, []),
                  IntMatrix.from_rows([[1, 0], [0, -2]])):
            assert eval(repr(m)) == m

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])
        with pytest.raises(ValueError):
            a @ IntMatrix.from_rows([[1, 2, 3]])

    def test_matmul_through_zero_dim(self):
        a = IntMatrix.from_rows([[], []], cols=0)  # 2x0
        b = IntMatrix(0, 3, [])
        assert a @ b == IntMatrix.zeros(2, 3)

    def test_transpose_involution(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m

    def test_from_rows_validation(self):
        with pytest.raises(ValueError, match="ragged rows"):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(TypeError, match="non-integer entry: 1.5"):
            IntMatrix.from_rows([[1, 2], [1.5, 0]])
        # zero-valued entries are checked too, not just the stored ones
        with pytest.raises(TypeError, match="non-integer entry: 0.0"):
            IntMatrix.from_rows([[1, 0.0]])
        # a ragged row anywhere is reported before a bad entry in an earlier row
        with pytest.raises(ValueError, match="ragged rows"):
            IntMatrix.from_rows([[0.5, 1], [1]])
        with pytest.raises(ValueError, match="nonnegative"):
            IntMatrix.from_rows([], cols=-1)
        # rows may be any iterables
        rows = iter([(1, 0), iter([0, 2]), [3, 0]])
        assert IntMatrix.from_rows(rows) == IntMatrix(3, 2, [1, 0, 0, 2, 3, 0])

    def test_dimensions_must_be_ints(self):
        # checked at construction, as zeros checks them, not later in transpose
        for build in (lambda: IntMatrix.from_rows([], cols=2.5), lambda: IntMatrix(0, 2.5, []),
                      lambda: IntMatrix(2.0, 0, []), lambda: IntMatrix("1", 1, [1])):
            with pytest.raises(TypeError):
                build()
        m = IntMatrix.from_rows([], cols=3)
        assert (m.rows, m.cols, m.transpose()) == (0, 3, IntMatrix(3, 0, []))

    def test_parsing_holds_no_flat_copy(self):
        # 3600 entries: one flat list of them and its tuple copy would add
        # 58 KB to the peak; the row dicts themselves hold about 133 KB
        text = "60 60\n" + "".join(
            " ".join(str((i * 7 + j * 3) % 7 - 3) for j in range(60)) + "\n" for i in range(60)
        )
        tracemalloc.start()
        try:
            m = parse_matrix(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.rows == m.cols == 60
        assert peak - held < 100_000

    def test_identity_and_zeros_store_only_their_nonzeros(self):
        assert IntMatrix.identity(3) == IntMatrix(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1])
        assert IntMatrix.zeros(2, 3) == IntMatrix(2, 3, [0] * 6)
        assert IntMatrix.zeros(0, 3) == IntMatrix(0, 3, [])
        assert IntMatrix.identity(0) == IntMatrix(0, 0, [])
        for build in (lambda: IntMatrix.zeros(-1, 2), lambda: IntMatrix.zeros(2, -1),
                      lambda: IntMatrix.identity(-1)):
            with pytest.raises(ValueError, match="nonnegative"):
                build()
        # a flat list of 4 million entries would peak above 30 MB
        for build in (lambda: IntMatrix.zeros(2000, 2000), lambda: IntMatrix.identity(2000)):
            tracemalloc.start()
            try:
                m = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert m.rows == m.cols == 2000 and stores_no_zero(m)
            assert peak < 1_000_000


def stores_no_zero(m):
    """The storage invariant: one dict per row, nonzero ints in range only."""
    return len(m._sparse) == m.rows and all(
        isinstance(e, int) and e and 0 <= j < m.cols for r in m._sparse for j, e in r.items()
    )


def dense_stacked(g):
    """(B^t - I ; C^t) from the edge map alone, the way harness P4 builds
    the full vertex matrix, independently of block_decomposition."""
    emits = {}
    for (v, _w), m in g.edges.items():
        emits[v] = INF if m is INF or emits.get(v) is INF else emits.get(v, 0) + m
    singular = [v for v in g.vertices
                if v in g.declared_singular or emits.get(v, 0) is INF or not emits.get(v)]
    regular = [v for v in g.vertices if v not in singular]
    pos = {v: k for k, v in enumerate(regular + singular)}
    n = len(regular)
    rows = [[-1 if i == j else 0 for j in range(n)] for i in range(len(pos))]
    for (v, w), m in g.edges.items():
        if v in regular:
            rows[pos[w]][pos[v]] += m
    return IntMatrix.from_rows(rows, cols=n)


class TestSparseStorage:
    @given(sparse_matrices(6), sparse_matrices(6))
    def test_every_matrix_route_stores_no_zero(self, a, b):
        rebuilt = IntMatrix.from_rows(a.to_rows(), cols=a.cols)
        for m in (a, b, rebuilt, a.transpose(), a @ a.transpose(), a.transpose() @ a):
            assert stores_no_zero(m)
        if a.cols == b.rows:
            assert stores_no_zero(a @ b)
        # == and hash agree with the dense rows, however the dicts were filled
        for x, y in ((a, b), (a, rebuilt), (a, a.transpose().transpose()), (a, b.transpose())):
            same = (x.rows, x.cols, x.to_rows()) == (y.rows, y.cols, y.to_rows())
            assert (x == y) == same
            if same:
                assert hash(x) == hash(y)

    @given(st.integers(0, 2**32), st.integers(0, 2), st.sampled_from([0.0, 0.12, 0.4]),
           st.sampled_from([0.0, 0.2, 0.5]))
    def test_graph_maps_store_no_zero_and_match_the_edge_map(self, seed, declare, inf, sink):
        g = random_graph(RandomGraphParams(seed=seed, max_vertices=10, max_multiplicity=3,
                                           infinite_probability=inf, sink_probability=sink))
        g = Graph(g.vertices, g.edges, g.vertices[:declare])
        dec = block_decomposition(g)
        stacked, row = stacked_matrix(dec), row_matrix(dec)
        for m in (stacked, row):
            assert stores_no_zero(m)
        dense = dense_stacked(g)
        assert stacked == dense
        assert hash(stacked) == hash(dense)
        assert row == dense.transpose()


class TestSnfExamples:
    def test_identity(self):
        res = snf(IntMatrix.identity(3))
        assert res.s == IntMatrix.identity(3)
        assert res.rank == 3

    def test_zero_matrix(self):
        res = snf(IntMatrix.zeros(2, 3))
        assert res.s == IntMatrix.zeros(2, 3)
        assert res.rank == 0
        assert res.u == IntMatrix.identity(2)
        assert res.v == IntMatrix.identity(3)

    def test_2x2_derived(self):
        # d1 = gcd of all entries = 2; d1*d2 = |det| = 8 by the cofactor oracle
        rows = [[2, 4], [6, 8]]
        assert abs(cofactor_det(rows)) == 8
        m = IntMatrix.from_rows(rows)
        res = snf(m)
        assert res.s.diagonal() == (2, 4)
        assert_snf_contract(m, res)

    def test_zero_dimensional(self):
        for shape in [(0, 0), (0, 4), (4, 0)]:
            res = snf(IntMatrix.zeros(*shape))
            assert res.rank == 0
            assert res.s == IntMatrix.zeros(*shape)

    @pytest.mark.parametrize("rows,u,s,v", [
        # (2, 3) is not a divisibility chain; the gcd repair makes it (1, 6)
        ([[2, 0], [0, 3]],
         [[1, 1], [-3, -2]],
         [[1, 0], [0, 6]],
         [[-1, -3], [1, 2]]),
        ([[2, 4, 4, -6], [-6, 6, 12, 10], [10, -4, -16, 2]],
         [[1, 0, 0], [-3, -1, 0], [-65, -20, 1]],
         [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 12, 0]],
         [[1, -4, -2, 17], [0, -1, 4, -20], [0, 0, -3, 16], [0, -2, 0, 3]]),
    ])
    def test_frozen_transforms(self, rows, u, s, v):
        # the exact transforms are part of the output (K1 generators, CLI snf)
        res = snf(IntMatrix.from_rows(rows))
        assert (res.u.to_rows(), res.s.to_rows(), res.v.to_rows()) == (u, s, v)
        assert res.rank == len(rows)

    @pytest.mark.parametrize("m,rank,digest", [
        (dependent_matrix(1, 12, 12, 2), 10,
         "d9edb668b2d6bedd71f02d964c3a1178fa7f84e653318c41531c6657ab5bce91"),
        (dependent_matrix(2, 18, 16, 3), 15,
         "b8db3c14e899a3ef2a20a5e462d7b9e5e76ed9ff6110055767db78cee1915d9d"),
        (dependent_matrix(3, 24, 24, 5), 19,
         "c08d29d5db5b06d9f9c080ad5b32fb1d414327c7ca4f0fa3053b25abaee1d8cf"),
        (IntMatrix.from_rows(TIED_MINIMA), 5,
         "e1409acc731b9bc4e739b75b852b302473be225c6708524e4aa29c0f88e07546"),
    ], ids=["12x12", "18x16", "24x24", "tied-minima"])
    def test_frozen_transform_digests(self, m, rank, digest):
        # larger transforms, pinned by the sha256 of their dense rows
        res = snf(m)
        assert_snf_contract(m, res)
        assert res.rank == rank
        text = repr((res.u.to_rows(), res.s.to_rows(), res.v.to_rows(), res.rank))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSnfProperties:
    def test_reconstruction_randomized(self):
        rng = random.Random(20240917)
        for _ in range(120):
            m = random_matrix(rng)
            assert_snf_contract(m, snf(m))

    def test_reconstruction_large(self):
        rng = random.Random(7)
        for _ in range(6):
            r, c = rng.randint(25, 40), rng.randint(25, 40)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c
            )
            assert_snf_contract(m, snf(m))

    @given(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_reconstruction_hypothesis(self, rows):
        m = IntMatrix.from_rows(rows, cols=len(rows[0]))
        assert_snf_contract(m, snf(m))

    def test_transpose_symmetry(self):
        rng = random.Random(99)
        for _ in range(80):
            m = random_matrix(rng)
            assert invariant_factors(m) == invariant_factors(m.transpose())

    def test_determinism(self):
        # two instances: a second call on one instance returns its memo
        rows = [[3, 1, -4], [1, 5, 9], [-2, 6, 5]]
        assert snf(IntMatrix.from_rows(rows)) == snf(IntMatrix.from_rows(rows))

    def test_torsion_order_vs_cofactor_oracle(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            d = cofactor_det(rows)
            if d == 0:
                continue
            factors = invariant_factors(IntMatrix.from_rows(rows, cols=n))
            prod = 1
            for f in factors:
                prod *= f
            assert prod == abs(d)
            checked += 1

    @given(st.one_of(sparse_matrices(8), unit_phase_matrices(8), desingularized_maps()))
    def test_factors_match_the_diagonal_of_snf(self, m):
        # invariant_factors eliminates unit pivots sparsely; snf is dense.
        # The fresh equal matrix carries no memo, so its call takes the
        # sparse route; the call on m reads the diagonal snf kept.
        fresh = IntMatrix.from_rows(m.to_rows(), cols=m.cols)
        res = snf(m)
        factors = invariant_factors(fresh)
        assert fresh._snf is None
        assert factors == res.s.diagonal()[: res.rank]
        assert repr(invariant_factors(m)) == repr(factors)

    @given(sparse_matrices(4))
    def test_factors_match_determinantal_divisors(self, m):
        assert invariant_factors(m) == determinantal_factors(m.to_rows(), m.cols)

    def test_unit_pivots_with_fill_in(self):
        # the unit at (0, 0) clears its column, which turns the 3 at (1, 1)
        # into a new unit pivot and row 2 into zeros
        m = IntMatrix.from_rows([[1, 2, 2], [1, 3, 2], [2, 4, 4]])
        assert invariant_factors(m) == (1, 1)
        assert invariant_factors(m) == determinantal_factors(m.to_rows(), 3)

    def test_det_bareiss_matches_cofactor(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(0, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(IntMatrix.from_rows(rows, cols=n)) == cofactor_det(rows)


class TestKernel:
    def test_sum_map(self):
        m = IntMatrix.from_rows([[1, 1]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        (x,) = basis
        assert x[0] + x[1] == 0
        from math import gcd

        assert gcd(x[0], x[1]) == 1

    def test_injective(self):
        assert kernel_basis(IntMatrix.identity(4)) == []

    def test_hand_eliminated(self):
        # kernel of this 3x2 map is exactly the multiples of (1, 0)
        m = IntMatrix.from_rows([[0, 1], [0, -1], [0, 1]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        assert basis[0] in ((1, 0), (-1, 0))

    def test_zero_source_map(self):
        # a map out of Z^0 has empty kernel basis
        assert kernel_basis(IntMatrix(3, 0, [])) == []

    def test_map_to_zero_group(self):
        # a map into Z^0 has everything in its kernel
        basis = kernel_basis(IntMatrix(0, 3, []))
        assert len(basis) == 3

    @given(sparse_matrices(6))
    def test_basis_is_the_tail_of_the_snf_right_transform(self, m):
        # the fresh equal matrix carries no memo, so its basis comes from an
        # elimination of its own; the call on m reads the V that snf kept
        fresh = IntMatrix.from_rows(m.to_rows(), cols=m.cols)
        res = snf(m)
        tail = [tuple(res.v[i, j] for i in range(m.cols)) for j in range(res.rank, m.cols)]
        basis = kernel_basis(fresh)
        assert basis == tail
        assert repr(kernel_basis(m)) == repr(basis)

    def test_soundness_randomized(self):
        from math import gcd

        rng = random.Random(555)
        for _ in range(80):
            m = random_matrix(rng)
            rank = len(invariant_factors(m))
            basis = kernel_basis(m)
            assert len(basis) == m.cols - rank
            for x in basis:
                prod = [sum(m[i, j] * x[j] for j in range(m.cols)) for i in range(m.rows)]
                assert all(e == 0 for e in prod)
                g = 0
                for e in x:
                    g = gcd(g, e)
                assert g == 1


MEMO_TEXT = "3 4\n2 4 -6 0\n1 -1 3 5\n3 3 -3 5\n"


class TestSnfMemo:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        smith = intlinalg._smith

        def counting(sm, nr, nc):
            seen.append((nr, nc))
            return smith(sm, nr, nc)

        monkeypatch.setattr(intlinalg, "_smith", counting)
        return seen

    def test_snf_kernel_cokernel_eliminate_once(self, calls):
        m = parse_matrix(MEMO_TEXT)
        res = snf(m)
        basis = kernel_basis(m)
        group = cokernel(m)
        assert len(calls) == 1
        assert m._snf is res
        assert (res.rank, len(basis), group) == (2, 2, AbelianGroup(1, (2,)))

    def test_snf_returns_its_memo(self, calls):
        m = parse_matrix(MEMO_TEXT)
        assert snf(m) is snf(m)
        assert len(calls) == 1

    def test_equal_matrices_eliminate_separately(self, calls):
        for m in (parse_matrix(MEMO_TEXT), parse_matrix(MEMO_TEXT)):
            snf(m)
            kernel_basis(m)
            cokernel(m)
        assert len(calls) == 2

    def test_lone_kernel_basis_keeps_the_snf(self, calls):
        m = parse_matrix(MEMO_TEXT)
        basis = kernel_basis(m)
        res = snf(m)
        group = cokernel(m)
        assert len(calls) == 1
        assert res is m._snf
        assert (res.rank, len(basis), group) == (2, 2, AbelianGroup(1, (2,)))

    @pytest.mark.parametrize("lone", [cokernel, invariant_factors])
    def test_lone_call_eliminates_and_keeps_nothing(self, calls, lone):
        m = parse_matrix(MEMO_TEXT)
        first = lone(m)
        assert lone(m) == first
        assert len(calls) == 2
        assert m._snf is None

    @given(st.integers(0, 2**32), st.integers(0, 2))
    def test_builders_leave_their_input_matrices_unchanged(self, seed, declare):
        # the stacked map carries a memo here; no builder may change the
        # rows of a matrix it reads
        g = random_graph(RandomGraphParams(seed=seed, max_vertices=10, max_multiplicity=3))
        g = Graph(g.vertices, g.edges, g.vertices[:declare])
        dec = block_decomposition(g)
        stacked = stacked_matrix(dec)
        memo = snf(stacked)
        before = [dict(r) for r in stacked._sparse]
        block_decomposition(g)
        stacked_matrix(dec)
        row_matrix(dec)
        assert stacked._sparse == before
        assert stacked._snf is memo
        assert snf(IntMatrix.from_rows(stacked.to_rows(), cols=stacked.cols)) == memo


class TestCokernel:
    @pytest.mark.parametrize("n,expected", [
        (2, AbelianGroup(0)),
        (3, AbelianGroup(0, (2,))),
        (4, AbelianGroup(0, (3,))),
        (7, AbelianGroup(0, (6,))),
    ])
    def test_one_by_one(self, n, expected):
        assert cokernel(IntMatrix.from_rows([[n - 1]])) == expected

    def test_zero_column_matrix(self):
        assert cokernel(IntMatrix(2, 0, [])) == AbelianGroup(2)

    def test_hand_smith(self):
        assert cokernel(IntMatrix.from_rows([[0], [1]])) == AbelianGroup(1)

    def test_map_to_zero_group(self):
        assert cokernel(IntMatrix(0, 3, [])) == AbelianGroup(0)


class TestAbelianGroup:
    def test_normal_form_is_validated(self):
        with pytest.raises(ValueError):
            AbelianGroup(-1)
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))  # not a divisibility chain

    def test_invariants_must_be_ints(self):
        # int() would turn these into Z/2, Z/4 and a free rank of 1.5
        for args in ((0, (2.5,)), (0, ("4",)), (1.5,)):
            with pytest.raises(TypeError, match="non-integer invariant"):
                AbelianGroup(*args)

    def test_equality_is_componentwise(self):
        assert AbelianGroup(1, (2, 4)) == AbelianGroup(1, [2, 4])
        assert AbelianGroup(1) != AbelianGroup(2)

    @pytest.mark.parametrize("group,text", [
        (AbelianGroup(0), "0"),
        (AbelianGroup(1), "Z"),
        (AbelianGroup(0, (3,)), "Z/3"),
        (AbelianGroup(2), "Z^2"),
        (AbelianGroup(2, (2, 4)), "Z^2 (+) Z/2 (+) Z/4"),
        (AbelianGroup(1, (5,)), "Z (+) Z/5"),
    ])
    def test_group_format(self, group, text):
        assert group_format(group) == text
