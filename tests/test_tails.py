"""Tail construction and truncated desingularization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphkt import tails
from graphkt.errors import TailError
from graphkt.graphio import emit_graph
from graphkt.graphs import (
    Graph,
    INF,
    condition_l,
    is_row_finite,
    out_multiplicity,
    singular_vertices,
)
from graphkt.harness import (
    RandomGraphParams,
    derive_seed,
    random_graph,
    truncation_scan,
)
from graphkt.intlinalg import AbelianGroup, IntMatrix, kernel_basis
from graphkt.ktheory import k_groups
from graphkt.tails import desingularize


def infinite_loop():
    return Graph(["v0"], {("v0", "v0"): INF})


class TestAddTail:
    """The tail that desingularize adds at one singular vertex."""

    def test_sink_pure_tail(self):
        out = desingularize(Graph(["v0"]), 1)
        assert out.vertices == ("v0", "v0$1")
        assert out.edges == {("v0", "v0$1"): 1}
        assert out_multiplicity(out, "v0$1") == 0

    def test_infinite_loop_length_one(self):
        # the single in-range re-emission lands back on the base vertex
        out = desingularize(infinite_loop(), 1)
        assert out.edges == {("v0", "v0"): 1, ("v0", "v0$1"): 1}
        assert singular_vertices(out) == ["v0$1"]

    def test_infinite_emitter_length_three(self):
        g = Graph(["v0", "w"], {("v0", "w"): INF, ("w", "w"): 1})
        out = desingularize(g, 3)
        assert out.edges == {
            ("w", "w"): 1,
            ("v0", "v0$1"): 1,
            ("v0$1", "v0$2"): 1,
            ("v0$2", "v0$3"): 1,
            ("v0", "w"): 1,
            ("v0$1", "w"): 1,
            ("v0$2", "w"): 1,
        }

    def test_finite_multiplicities_spread_along_tail(self):
        # v0 emits infinitely to a and twice to b: b (position 1, count 2)
        # receives edges from tail positions 1 and 2 only
        g = Graph(["v0", "a", "b"], {("v0", "a"): INF, ("v0", "b"): 2})
        out = desingularize(g, 4)
        b_edges = {(s, t) for (s, t) in out.edges if t == "b"}
        assert b_edges == {("v0$1", "b"), ("v0$2", "b")}
        a_edges = {(s, t) for (s, t) in out.edges if t == "a"}
        assert a_edges == {("v0", "a"), ("v0$1", "a"), ("v0$2", "a"), ("v0$3", "a")}

    def test_rejects_declared_singular_base(self):
        g = Graph(["v0", "w"], {("v0", "w"): 1}, {"v0"})
        with pytest.raises(TailError, match="hidden edges"):
            desingularize(g, 1)

    def test_rejects_name_collision(self):
        g = Graph(["v0", "v0$1"])
        with pytest.raises(TailError, match=r"already in use: 'v0\$1'"):
            desingularize(g, 1)

    def test_ordering_must_cover_targets(self):
        g = Graph(["v0", "a", "b"], {("v0", "a"): INF, ("v0", "b"): INF,
                                     ("a", "a"): 1, ("b", "b"): 1})
        for order in (["a"], ["a", "a"], ["a", "b", "b"], ["a", "b", "v0"]):
            with pytest.raises(ValueError, match="'v0' must list each of its targets exactly once"):
                desingularize(g, 2, {"v0": order})
        out = desingularize(g, 2, {"v0": ["b", "a"]})
        assert {(s, t) for (s, t) in out.edges if s == "v0"} == {("v0", "b"), ("v0", "v0$1")}

    def test_ordering_with_a_foreign_type_is_a_bad_ordering(self):
        # entries are compared with the targets, neither sorted against them
        # nor hashed
        g = Graph(["v", "a", "b"], {("v", "a"): INF, ("v", "b"): INF})
        for order in ([1, "a"], ["a", "b", 1], [None, "b"], [["a"], "b"], ["a", {"b": 1}]):
            with pytest.raises(ValueError, match="'v' must list each of its targets exactly once"):
                desingularize(g, 2, {"v": order})
            with pytest.raises(ValueError, match="'v' must list each of its targets exactly once"):
                truncation_scan(g, {"v": order})


def reference_tails(g, n, orderings):
    """The truncated tail graph, built from the rule in the tails module
    docstring and nothing else: each singular vertex v_0 of g loses its
    out-edges and gains a chain v_0 -> v_1 -> ... -> v_n, and tail vertex
    v_i emits one edge to the j-th target (multiplicity c) when
    j <= i < j + c."""
    index = {v: k for k, v in enumerate(g.vertices)}
    out = {v: [] for v in g.vertices}
    for (src, dst), m in g.edges.items():
        out[src].append((dst, m))
    vertices = list(g.vertices)
    edges = {}
    for v in g.vertices:
        targets = sorted(out[v], key=lambda t: index[t[0]])
        if targets and all(m is not INF for _w, m in targets):
            edges.update(((v, w), m) for w, m in targets)
            continue
        if v in orderings:
            mult = dict(targets)
            targets = [(w, mult[w]) for w in orderings[v]]
        chain = [v] + [f"{v}${k}" for k in range(1, n + 1)]
        vertices += chain[1:]
        for i in range(n):
            edges[chain[i], chain[i + 1]] = 1
            for j, (w, c) in enumerate(targets):
                if j <= i and (c is INF or i < j + c):
                    edges[chain[i], w] = 1
    return Graph(vertices, edges)


class TestDesingularize:
    def test_identity_on_regular_graph(self):
        g = Graph(["v"], {("v", "v"): 2})
        assert desingularize(g, 3) == g

    def test_two_sinks_get_disjoint_tails(self):
        out = desingularize(Graph(["a", "b"]), 2)
        assert out.vertices == ("a", "b", "a$1", "a$2", "b$1", "b$2")
        assert out.edges == {
            ("a", "a$1"): 1,
            ("a$1", "a$2"): 1,
            ("b", "b$1"): 1,
            ("b$1", "b$2"): 1,
        }

    def test_truncation_sinks_not_reprocessed(self):
        out = desingularize(Graph(["a"]), 3)
        assert singular_vertices(out) == ["a$3"]

    def test_infinite_loop_invariants_preserved(self):
        g = infinite_loop()
        out = desingularize(g, 4)
        assert len(out.vertices) == 5
        r = k_groups(out)
        assert (r.k0, r.k1) == (AbelianGroup(1), AbelianGroup(0))
        assert (r.k0, r.k1) == (k_groups(g).k0, k_groups(g).k1)

    def test_rejects_declared_singular_graphs(self):
        g = Graph(["v", "w"], {("v", "w"): 1}, {"v"})
        with pytest.raises(TailError, match="declared-singular"):
            desingularize(g, 2)

    def test_rejects_length_below_one(self):
        g = Graph(["v0", "w"], {("v0", "w"): INF, ("w", "w"): 1})
        for n in (0, -1):
            with pytest.raises(ValueError, match="tail_length must be >= 1"):
                desingularize(g, n)
            # a length below 1 is reported before a bad ordering
            with pytest.raises(ValueError, match="tail_length must be >= 1"):
                desingularize(g, n, {"v0": []})

    def test_length_must_be_an_integer(self):
        # checked as IntMatrix checks its dimensions, before anything else
        for g in (Graph(["v0", "w"], {("v0", "w"): INF, ("w", "w"): 1}),
                  Graph(["v"], {("v", "v"): 2}),
                  Graph(["v", "w"], {("v", "w"): 1}, {"v"})):
            for n in (2.5, 0.5):
                with pytest.raises(TypeError):
                    desingularize(g, n)

    def test_rejects_ordering_for_regular_vertex(self):
        g = Graph(["v", "s"], {("v", "v"): 2})
        # keys of different types are named, not sorted against each other
        for orderings, name in (({"v": ["v"]}, "'v'"), ({"x": [], 1: [], "s": []}, "1$")):
            for call in (lambda: desingularize(g, 2, orderings),
                         lambda: truncation_scan(g, orderings)):
                with pytest.raises(ValueError, match=f"non-singular vertex: {name}"):
                    call()

    def test_output_sanity_randomized(self):
        checked = 0
        for i in range(60):
            g = random_graph(RandomGraphParams(seed=derive_seed(606, i)))
            sing = singular_vertices(g)
            if not sing:
                continue
            checked += 1
            out = desingularize(g, 3)
            assert all(m is not INF for m in out.edges.values())
            assert singular_vertices(out) == [f"{v}$3" for v in sing]
        assert checked > 30

    @given(
        seed=st.integers(0, 2**32),
        infinite=st.sampled_from([0.0, 0.12, 0.4]),
        sinks=st.sampled_from([0.0, 0.2, 0.5]),
        n=st.integers(1, 6),
        data=st.data(),
    )
    def test_equals_the_reference_tail_graph(self, seed, infinite, sinks, n, data):
        g = random_graph(RandomGraphParams(
            seed=seed, max_vertices=10, infinite_probability=infinite,
            sink_probability=sinks,
        ))
        orderings = {}
        for v in singular_vertices(g):
            targets = [w for w, _m in g.out_edges(v)]
            if len(targets) >= 2 and data.draw(st.booleans()):
                orderings[v] = data.draw(st.permutations(targets))
        out = desingularize(g, n, orderings)
        ref = reference_tails(g, n, orderings)
        assert out == ref
        assert emit_graph(out) == emit_graph(ref)

    @given(
        seed=st.integers(0, 2**32),
        infinite=st.sampled_from([0.0, 0.12, 0.4]),
        sinks=st.sampled_from([0.0, 0.2, 0.5]),
        n=st.integers(1, 5),
        data=st.data(),
    )
    def test_unchecked_graph_equals_a_checked_rebuild(self, seed, infinite, sinks, n, data):
        # desingularize builds its graph without the constructor's checks;
        # a checked rebuild from the public fields must agree with it, and
        # its graph-side answers must match a reference from the edges alone
        g = random_graph(RandomGraphParams(
            seed=seed, max_vertices=10, infinite_probability=infinite,
            sink_probability=sinks,
        ))
        orderings = {}
        for v in singular_vertices(g):
            targets = [w for w, _m in g.out_edges(v)]
            if len(targets) >= 2 and data.draw(st.booleans()):
                orderings[v] = data.draw(st.permutations(targets))
        out = desingularize(g, n, orderings)
        ref = Graph(out.vertices, out.edges, out.declared_singular)
        assert out.vertices == ref.vertices
        assert list(out.edges.items()) == list(ref.edges.items())
        assert emit_graph(out) == emit_graph(ref)
        assert [out.out_edges(v) for v in out.vertices] == [ref.out_edges(v) for v in ref.vertices]

        emits = dict.fromkeys(out.vertices, 0)
        for (src, _dst), m in out.edges.items():
            emits[src] = INF if m is INF or emits[src] is INF else emits[src] + m
        assert [out_multiplicity(out, v) for v in out.vertices] == list(emits.values())
        assert singular_vertices(out) == [v for v, m in emits.items() if m == 0 or m is INF]
        assert is_row_finite(out) == all(m is not INF for m in emits.values())
        # condition (L) fails exactly when the vertices with one edge of
        # multiplicity 1 carry a cycle: a walk of len(nxt) steps inside them
        nxt = {src: dst for (src, dst) in out.edges if emits[src] == 1}
        cyclic = False
        for start in nxt:
            cur = start
            for _ in range(len(nxt)):
                cur = nxt.get(cur)
            cyclic = cyclic or cur in nxt
        holds, witness = condition_l(out)
        assert (holds, witness) == condition_l(ref)
        assert holds == (not cyclic)
        if witness:
            assert all(nxt[x] == y for x, y in zip(witness, witness[1:] + witness[:1]))

    def test_builds_one_graph(self, monkeypatch):
        built = []

        def counting_graph(*args, **kwargs):
            built.append(args)
            return Graph(*args, **kwargs)

        g = Graph(["a", "b", "v", "w"], {("v", "w"): INF, ("w", "w"): 1})
        assert singular_vertices(g) == ["a", "b", "v"]
        monkeypatch.setattr(tails, "Graph", counting_graph)
        out = desingularize(g, 2)
        assert len(built) == 1
        assert len(out.vertices) == 4 + 3 * 2

    def test_first_failing_vertex_raises(self):
        # a's fresh name a$1 is taken; v, later in vertex order, has a bad
        # ordering. Tailing one vertex at a time stops at a, and so does a
        # scan, which tails through desingularize.
        edges = {("v", "w"): INF, ("v", "a"): INF, ("w", "w"): 1}
        g = Graph(["a", "a$1", "v", "w"], edges)
        with pytest.raises(TailError, match=r"already in use: 'a\$1'"):
            desingularize(g, 1, {"v": ["w"]})
        with pytest.raises(TailError, match=r"already in use: 'a\$1'"):
            truncation_scan(g, {"v": ["w"]})
        g = Graph(["a", "v", "w"], edges)
        with pytest.raises(ValueError, match="exactly once"):
            desingularize(g, 1, {"v": ["w"]})
        with pytest.raises(ValueError, match="exactly once"):
            truncation_scan(g, {"v": ["w"]})


class TestWorkedTruncation:
    def test_length_one_stacked_matrix_and_kernel(self):
        # truncating the infinite emitter feeding a loop at length 1 gives
        # the 3x2 stacked matrix used as a kernel example elsewhere
        g = Graph(["w", "v"], {("w", "w"): 1, ("v", "w"): INF})
        out = desingularize(g, 1)
        r = k_groups(out)
        assert r.stacked_matrix == IntMatrix.from_rows([[0, 1], [0, -1], [0, 1]])
        assert r.k0 == AbelianGroup(2)
        assert r.k1 == AbelianGroup(1)
        basis = kernel_basis(r.stacked_matrix)
        assert basis in ([(1, 0)], [(-1, 0)])

    def test_single_sink_equality_for_every_length(self):
        # line graphs have a unimodular top block: K-groups stay (Z, 0)
        g = Graph(["s"])
        base = k_groups(g)
        for n in range(1, 8):
            r = k_groups(desingularize(g, n))
            assert (r.k0, r.k1) == (base.k0, base.k1)

    def test_scan_skips_regular_graphs(self):
        g = Graph(["v"], {("v", "v"): 3})
        # no vertex gets a tail, so every length keeps the K-groups
        assert truncation_scan(g) is None
        assert truncation_scan(g, {}) is None
        # an ordering for a regular or a missing vertex is an error, with
        # desingularize's message
        for orderings, name in (({"v": ["v"]}, "'v'"), ({"x": ["v"], "w": []}, "'w'"),
                                ({1: [], "x": []}, "1$")):
            for call in (lambda: desingularize(g, 1, orderings),
                         lambda: truncation_scan(g, orderings)):
                with pytest.raises(ValueError, match=f"non-singular vertex: {name}"):
                    call()

    def test_scan_finds_stabilization(self):
        assert truncation_scan(infinite_loop()) is None

    def test_ordering_invariance_of_stabilized_groups(self):
        checked = 0
        for i in range(40):
            g = random_graph(
                RandomGraphParams(seed=derive_seed(909, i), infinite_probability=0.3)
            )
            sing = singular_vertices(g)
            perm = {}
            for v in sing:
                targets = [w for w, _m in g.out_edges(v)]
                if len(targets) >= 2:
                    perm[v] = list(reversed(targets))
            if not perm:
                continue
            default = truncation_scan(g)
            other = truncation_scan(g, orderings=perm)
            assert (default, other) == (None, None), i
            checked += 1
        assert checked > 5
