"""Graph data model, singular-vertex detection and condition (L)."""

import random

import pytest

from graphkt.graphs import (
    Graph,
    INF,
    block_decomposition,
    condition_l,
    is_row_finite,
    out_multiplicity,
    singular_vertices,
)
from graphkt.harness import RandomGraphParams, derive_seed, random_graph
from graphkt.intlinalg import IntMatrix


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError, match="invalid vertex id"):
        Graph(["a b"])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(["a", "a"])
    with pytest.raises(ValueError, match="source not declared"):
        Graph(["a"], {("x", "a"): 1})
    with pytest.raises(ValueError, match="multiplicity"):
        Graph(["a"], {("a", "a"): 0})
    with pytest.raises(ValueError, match="declared-singular"):
        Graph(["a"], declared_singular=["b"])


def test_graph_equality_and_membership():
    g = Graph(["a", "b"], {("a", "b"): 2})
    assert g == Graph(["a", "b"], {("a", "b"): 2})
    assert g != Graph(["b", "a"], {("a", "b"): 2})
    assert "a" in g and "z" not in g


def test_out_edges_follow_vertex_order():
    # edges given in reverse target order come back in vertex order, on
    # every call
    g = Graph(["a", "b", "c", "d"], {("a", "d"): 2, ("a", "b"): INF, ("a", "a"): 1})
    expected = [("a", 1), ("b", INF), ("d", 2)]
    assert g.out_edges("a") == expected
    assert g.out_edges("a") == expected
    assert g.out_edges("c") == []
    with pytest.raises(ValueError, match="'nope'"):
        g.out_edges("nope")


class TestOutMultiplicity:
    def test_sink(self):
        assert out_multiplicity(Graph(["v"]), "v") == 0

    def test_loop(self):
        assert out_multiplicity(Graph(["v"], {("v", "v"): 2}), "v") == 2

    def test_infinity_absorbs(self):
        g = Graph(["v", "w", "u"], {("v", "w"): 3, ("v", "u"): INF})
        assert out_multiplicity(g, "v") is INF

    def test_unknown_vertex_reports_token(self):
        with pytest.raises(ValueError, match="'nope'"):
            out_multiplicity(Graph(["v"]), "nope")


class TestSingularVertices:
    def test_two_isolated(self):
        assert singular_vertices(Graph(["a", "b"])) == ["a", "b"]

    def test_infinite_loop(self):
        assert singular_vertices(Graph(["v"], {("v", "v"): INF})) == ["v"]

    def test_declared_override(self):
        g = Graph(["v", "w"], {("v", "w"): 1, ("w", "v"): 1}, {"w"})
        assert singular_vertices(g) == ["w"]

    def test_no_duplicates_when_declared_and_sink(self):
        g = Graph(["v"], declared_singular={"v"})
        assert singular_vertices(g) == ["v"]


class TestBlockDecomposition:
    def test_single_regular_vertex(self):
        dec = block_decomposition(Graph(["v"], {("v", "v"): 2}))
        assert dec.regular == ("v",)
        assert dec.singular == ()
        # Bᵗ − I with B = [[2]], over an empty Cᵗ
        assert dec.stacked == IntMatrix.from_rows([[1]])

    def test_infinite_emitter_to_loop(self):
        # oracle: enumerate edges from the regular side by hand
        g = Graph(["w", "v"], {("w", "w"): 1, ("v", "w"): INF})
        dec = block_decomposition(g)
        assert dec.regular == ("w",)
        assert dec.singular == ("v",)
        # B = [[1]] (w -> w) and C = [[0]] (no edge w -> v)
        assert dec.stacked == IntMatrix.from_rows([[0], [0]])

    def test_two_sinks(self):
        dec = block_decomposition(Graph(["s1", "s2"]))
        assert dec.regular == ()
        assert dec.singular == ("s1", "s2")
        assert dec.stacked == IntMatrix(2, 0, [])

    def test_partition_and_row_sums_randomized(self):
        for i in range(60):
            g = random_graph(RandomGraphParams(seed=derive_seed(12, i)))
            dec = block_decomposition(g)
            assert set(dec.regular) | set(dec.singular) == set(g.vertices)
            assert not set(dec.regular) & set(dec.singular)
            merged = [v for v in g.vertices if v in set(dec.regular) | set(dec.singular)]
            assert merged == list(g.vertices)
            # column k of the stacked map holds the k-th regular vertex's
            # out-edges, less the diagonal 1
            rows = dec.stacked.to_rows()
            for k, v in enumerate(dec.regular):
                assert sum(row[k] for row in rows) + 1 == out_multiplicity(g, v)


def simple_cycles(g):
    """All vertex-simple directed cycles, as vertex lists (test oracle)."""
    order = {v: i for i, v in enumerate(g.vertices)}
    adj = {v: [w for w, _m in g.out_edges(v)] for v in g.vertices}
    found = []

    def dfs(start, cur, path, onpath):
        for w in adj[cur]:
            if w == start:
                found.append(path[:])
            elif w not in onpath and order[w] > order[start]:
                onpath.add(w)
                path.append(w)
                dfs(start, w, path, onpath)
                path.pop()
                onpath.remove(w)

    for start in g.vertices:
        dfs(start, start, [start], {start})
    return found


def cycle_has_exit(g, cyc):
    n = len(cyc)
    for k, x in enumerate(cyc):
        if x in g.declared_singular:
            return True  # hidden edges provide an exit
        nxt = cyc[(k + 1) % n]
        for y, m in g.out_edges(x):
            if y != nxt:
                return True
            if m is INF or m >= 2:
                return True
    return False


def oracle_condition_l(g):
    return all(cycle_has_exit(g, c) for c in simple_cycles(g))


class TestConditionL:
    def test_single_loop_no_exit(self):
        assert condition_l(Graph(["v"], {("v", "v"): 1})) == (False, ["v"])

    def test_parallel_loops_are_an_exit(self):
        assert condition_l(Graph(["v"], {("v", "v"): 2})) == (True, None)

    def test_two_cycle_with_exit(self):
        g = Graph(
            ["v", "w", "u"], {("v", "w"): 1, ("w", "v"): 1, ("w", "u"): 1}
        )
        assert condition_l(g) == (True, None)

    def test_two_cycle_without_exit(self):
        g = Graph(["v", "w"], {("v", "w"): 1, ("w", "v"): 1})
        holds, witness = condition_l(g)
        assert not holds
        assert witness == ["v", "w"]

    def test_declared_singular_vertex_provides_exit(self):
        # the loop is a truncated stand-in for an infinite emitter
        g = Graph(["v"], {("v", "v"): 1}, {"v"})
        assert condition_l(g) == (True, None)

    def test_cross_check_against_cycle_enumeration(self):
        for i in range(120):
            g = random_graph(
                RandomGraphParams(seed=derive_seed(77, i), max_vertices=6, density=0.35)
            )
            holds, witness = condition_l(g)
            assert holds == oracle_condition_l(g), g.edges
            if not holds:
                # the witness must be a real cycle without exit
                n = len(witness)
                for k in range(n):
                    assert g.multiplicity(witness[k], witness[(k + 1) % n]) == 1
                assert not cycle_has_exit(g, list(witness))

    def test_witness_after_single_edge_addition(self):
        # adding one edge to a graph satisfying condition (L): any witness of
        # the enlarged graph passes only through out-multiplicity-1 vertices
        rng = random.Random(2024)
        checked = 0
        for i in range(200):
            g = random_graph(
                RandomGraphParams(seed=derive_seed(5150, i), max_vertices=6)
            )
            if not condition_l(g)[0] or not g.vertices:
                continue
            src = rng.choice(g.vertices)
            dst = rng.choice(g.vertices)
            edges = g.edges
            edges[(src, dst)] = edges.get((src, dst), 0) + 1
            g2 = Graph(g.vertices, edges, g.declared_singular)
            holds, witness = condition_l(g2)
            if not holds:
                assert all(out_multiplicity(g2, x) == 1 for x in witness)
            checked += 1
        assert checked > 50


class TestRowFinite:
    def test_finite_loop(self):
        assert is_row_finite(Graph(["v"], {("v", "v"): 3}))

    def test_infinite_loop(self):
        assert not is_row_finite(Graph(["v"], {("v", "v"): INF}))

    def test_sinks_do_not_violate(self):
        assert is_row_finite(Graph(["a", "b"]))

    def test_declared_non_sink_violates(self):
        g = Graph(["v", "w"], {("v", "w"): 1}, {"v"})
        assert not is_row_finite(g)

    def test_declared_sink_is_allowed(self):
        assert is_row_finite(Graph(["v"], declared_singular={"v"}))
