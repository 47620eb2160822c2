"""K0, K1 and Ext from the block matrices."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphkt import intlinalg, ktheory
from graphkt.errors import ConditionLViolation
from graphkt.graphio import emit_graph, parse_graph
from graphkt.graphs import Graph, INF, block_decomposition, singular_vertices
from graphkt.harness import RandomGraphParams, derive_seed, ea_family, random_graph
from graphkt.intlinalg import AbelianGroup, IntMatrix, cokernel, invariant_factors
from graphkt.ktheory import (
    corollary_applies,
    ext_group,
    k_groups,
    row_matrix,
    stacked_matrix,
)

TRIVIAL = AbelianGroup(0)


def two_loops():
    return Graph(["v"], {("v", "v"): 2})


def n_loops(n):
    return Graph(["v"], {("v", "v"): n})


def infinite_loop():
    return Graph(["v"], {("v", "v"): INF})


def loop_fed_by_infinite_emitter():
    return Graph(["w", "v"], {("w", "w"): 1, ("v", "w"): INF})


class TestKGroups:
    def test_two_loops_trivial_pair(self):
        r = k_groups(two_loops())
        assert r.k0 == TRIVIAL
        assert r.k1 == TRIVIAL
        assert r.stacked_matrix == IntMatrix.from_rows([[1]])

    def test_infinite_loop(self):
        r = k_groups(infinite_loop())
        assert r.k0 == AbelianGroup(1)
        assert r.k1 == TRIVIAL

    def test_loop_fed_by_infinite_emitter(self):
        # stacked map is the 2x1 zero matrix, so K0 = Z^2 and K1 = Z
        r = k_groups(loop_fed_by_infinite_emitter())
        assert r.stacked_matrix == IntMatrix.zeros(2, 1)
        assert r.k0 == AbelianGroup(2)
        assert r.k1 == AbelianGroup(1)

    @pytest.mark.parametrize("n", [3, 4, 5, 9])
    def test_n_loops(self, n):
        r = k_groups(n_loops(n))
        assert r.k0 == AbelianGroup(0, (n - 1,))
        assert r.k1 == TRIVIAL

    def test_empty_graph(self):
        r = k_groups(Graph())
        assert r.k0 == TRIVIAL
        assert r.k1 == TRIVIAL


class TestExtGroup:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_n_loops(self, n):
        res = ext_group(n_loops(n))
        assert res.ext == AbelianGroup(0, (n - 1,))
        assert res.condition_l_holds

    def test_all_singular_graph(self):
        res = ext_group(Graph(["a", "b"]))
        assert res.ext == TRIVIAL

    def test_condition_l_gate(self):
        with pytest.raises(ConditionLViolation) as exc:
            ext_group(loop_fed_by_infinite_emitter())
        assert exc.value.witness == ("w",)

    def test_force_computes_formula_anyway(self):
        res = ext_group(loop_fed_by_infinite_emitter(), force=True)
        assert res.ext == AbelianGroup(1)
        assert not res.condition_l_holds


class TestCorollary:
    def test_three_sinks(self):
        assert corollary_applies(Graph(["a", "b", "c"]))

    def test_regular_loop_vertex(self):
        assert not corollary_applies(two_loops())

    def test_sink_plus_infinite_emitter(self):
        g = Graph(["s", "v"], {("v", "s"): INF})
        assert corollary_applies(g)


class TestStructuralInvariants:
    def test_row_matrix_is_transpose_of_stacked(self):
        for i in range(80):
            g = random_graph(RandomGraphParams(seed=derive_seed(300, i)))
            dec = block_decomposition(g)
            assert row_matrix(dec) == stacked_matrix(dec).transpose()

    def test_rank_identity_on_200_random_graphs(self):
        for i in range(200):
            g = random_graph(RandomGraphParams(seed=derive_seed(88, i)))
            r = k_groups(g)
            assert r.k0.free_rank == r.k1.free_rank + len(singular_vertices(g))
            assert r.k1.torsion == ()

    def test_torsion_duality(self):
        for i in range(120):
            g = random_graph(
                RandomGraphParams(seed=derive_seed(17, i), max_multiplicity=6)
            )
            r = k_groups(g)
            dual = cokernel(r.stacked_matrix.transpose())
            assert r.k0.torsion == dual.torsion

    def test_corollary_consistency(self):
        seen = 0
        for i in range(200):
            g = random_graph(
                RandomGraphParams(seed=derive_seed(23, i), sink_probability=0.6,
                                  infinite_probability=0.5)
            )
            if not corollary_applies(g):
                continue
            seen += 1
            r = k_groups(g)
            assert r.k0 == AbelianGroup(len(g.vertices))
            assert r.k1 == TRIVIAL
            assert cokernel(row_matrix(block_decomposition(g))) == TRIVIAL
        assert seen > 20

    def test_row_finite_reduction(self):
        # with no singular vertices the invariants come straight from the
        # full vertex matrix (transposed, minus the identity)
        seen = 0
        for i in range(200):
            g = random_graph(
                RandomGraphParams(seed=derive_seed(41, i), density=0.6,
                                  infinite_probability=0.0, sink_probability=0.0)
            )
            if singular_vertices(g):
                continue
            seen += 1
            n = len(g.vertices)
            full = IntMatrix.from_rows(
                [[g.multiplicity(w, v) - (1 if v == w else 0) for w in g.vertices]
                 for v in g.vertices],
                cols=n,
            )
            d = invariant_factors(full)
            r = k_groups(g)
            assert r.k0 == AbelianGroup(n - len(d), tuple(x for x in d if x >= 2))
            assert r.k1 == AbelianGroup(n - len(d))
        assert seen > 50


class TestSharedElimination:
    @pytest.fixture
    def calls(self, monkeypatch):
        # Counted at both module attributes, so that an elimination through
        # intlinalg.cokernel would count too.
        seen = []

        def counting(m):
            seen.append(m)
            return invariant_factors(m)

        monkeypatch.setattr(ktheory, "invariant_factors", counting)
        monkeypatch.setattr(intlinalg, "invariant_factors", counting)
        return seen

    def test_k_groups_then_ext_eliminates_once(self, calls):
        g = loop_fed_by_infinite_emitter()
        k_groups(g)
        ext_group(g, force=True)
        assert len(calls) == 1

    def test_ext_then_k_groups_eliminates_once(self, calls):
        g = n_loops(4)
        ext_group(g)
        k_groups(g)
        assert len(calls) == 1

    def test_equal_graphs_eliminate_separately(self, calls):
        text = emit_graph(n_loops(4))
        for g in (parse_graph(text), parse_graph(text)):
            k_groups(g)
            ext_group(g)
        assert len(calls) == 2

    def test_condition_l_gate_eliminates_nothing(self, calls):
        with pytest.raises(ConditionLViolation):
            ext_group(loop_fed_by_infinite_emitter())
        assert calls == []

    @given(st.integers(0, 2**32), st.booleans())
    def test_shared_results_match_separate_routes(self, seed, ext_first):
        params = RandomGraphParams(seed=seed, max_vertices=10)
        g, g2 = random_graph(params), random_graph(params)
        if ext_first:
            res = ext_group(g, force=True)
            r = k_groups(g)
        else:
            r = k_groups(g)
            res = ext_group(g, force=True)
        row = row_matrix(block_decomposition(g2))
        assert res.ext == cokernel(row)
        assert r == k_groups(g2)


def test_650_vertex_graph_allocates_no_dense_map():
    # One dense 650 x 650 map of pointers alone is 3.4 MB; the stacked map
    # of this truncation has 648 nonzeros.
    g = ea_family(650)
    tracemalloc.start()
    try:
        k_groups(g)
        ext_group(g, force=True)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
