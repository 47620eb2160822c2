"""Graph DSL and matrix file parsing, canonical emission, round-trips."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphkt.errors import ParseError
from graphkt.graphio import MATRIX_CAP, emit_graph, parse_graph, parse_matrix
from graphkt.graphs import Graph, INF
from graphkt.harness import RandomGraphParams, derive_seed, random_graph
from graphkt.intlinalg import IntMatrix
from graphkt.tails import desingularize


class TestParseGraph:
    def test_loop_with_multiplicity(self):
        g = parse_graph("edge v v 2")
        assert g == Graph(["v"], {("v", "v"): 2})

    def test_infinite_edge(self):
        g = parse_graph("edge v w inf")
        assert g.multiplicity("v", "w") is INF

    def test_vertex_only_lines(self):
        g = parse_graph("vertex a\nvertex b")
        assert g == Graph(["a", "b"])

    def test_omitted_multiplicity_means_one(self):
        assert parse_graph("edge a b").multiplicity("a", "b") == 1

    def test_edges_accumulate(self):
        g = parse_graph("edge a b 2\nedge a b 3")
        assert g.multiplicity("a", "b") == 5
        g = parse_graph("edge a b 2\nedge a b inf")
        assert g.multiplicity("a", "b") is INF

    def test_auto_declaration_order(self):
        g = parse_graph("edge b a\nedge c a")
        assert g.vertices == ("b", "a", "c")

    def test_graph_name_line_and_comments(self):
        g = parse_graph("# hello\ngraph demo\nvertex a  # trailing\n")
        assert g.vertices == ("a",)

    def test_singular_declaration(self):
        g = parse_graph("vertex a\nsingular a")
        assert g.declared_singular == frozenset({"a"})

    def test_repeated_declarations_are_harmless(self):
        g = parse_graph("edge a b\nvertex a\nsingular b\nsingular b")
        assert g.vertices == ("a", "b")
        assert g.declared_singular == frozenset({"b"})

    @pytest.mark.parametrize("text,line,fragment", [
        ("frob v", 1, "unknown keyword"),
        ("vertex a\nedge a a x", 2, "malformed multiplicity"),
        ("edge a a 0", 1, "multiplicity 0"),
        ("edge a a -2", 1, "malformed multiplicity"),
        ("singular ghost", 1, "undeclared"),
        ("vertex a\nvertex a@b", 2, "invalid vertex id"),
        ("edge a", 1, "edge takes"),
        ("graph a b", 1, "graph takes"),
    ])
    def test_rejects_with_line_numbers(self, text, line, fragment):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.line == line
        assert fragment in str(exc.value)


class TestEmitGraph:
    def test_empty_graph_is_header_only(self):
        assert emit_graph(Graph()) == "# directed multigraph\n"

    def test_canonical_ordering(self):
        g = Graph(
            ["b", "a"],
            {("a", "b"): 2, ("b", "a"): 1, ("b", "b"): INF},
            {"a"},
        )
        assert emit_graph(g) == (
            "# directed multigraph\n"
            "vertex b\n"
            "vertex a\n"
            "edge b b inf\n"
            "edge b a\n"
            "edge a b 2\n"
            "singular a\n"
        )

    def test_desingularized_infinite_loop(self):
        g = parse_graph("edge v0 v0 inf")
        text = emit_graph(desingularize(g, 2))
        for line in ("edge v0 v0", "edge v0 v0$1", "edge v0$1 v0", "edge v0$1 v0$2"):
            assert f"\n{line}\n" in text


def graphs_strategy():
    @st.composite
    def build(draw):
        n = draw(st.integers(0, 6))
        vs = [f"v{i}" for i in range(n)]
        edges = {}
        if n:
            pairs = draw(
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=12,
                )
            )
            for i, j in pairs:
                edges[(vs[i], vs[j])] = draw(
                    st.one_of(st.integers(1, 9), st.just(INF))
                )
        declared = [vs[i] for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))] if n else []
        return Graph(vs, edges, declared)

    return build()


class TestRoundTrip:
    @given(graphs_strategy())
    def test_parse_emit_identity(self, g):
        assert parse_graph(emit_graph(g)) == g

    @given(graphs_strategy())
    def test_emit_parse_idempotent(self, g):
        text = emit_graph(g)
        assert emit_graph(parse_graph(text)) == text

    def test_random_graphs_round_trip(self):
        for i in range(100):
            g = random_graph(RandomGraphParams(seed=derive_seed(1234, i)))
            assert parse_graph(emit_graph(g)) == g

    def test_desingularized_names_survive(self):
        g = desingularize(parse_graph("edge a b inf\nvertex s"), 3)
        assert parse_graph(emit_graph(g)) == g


class TestParseMatrix:
    def test_basic(self):
        m = parse_matrix("2 3\n1 2 3\n4 -5 6\n")
        assert m == IntMatrix.from_rows([[1, 2, 3], [4, -5, 6]])

    def test_zero_rows(self):
        assert parse_matrix("0 4\n") == IntMatrix(0, 4, [])

    def test_zero_columns(self):
        assert parse_matrix("3 0\n\n\n") == IntMatrix(3, 0, [])
        with pytest.raises(ParseError, match="expected 0 entries"):
            parse_matrix("1 0\n5\n")

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("2\n1\n2\n", "rows cols"),
        ("1 2\n1 2 3\n", "expected 2 entries"),
        ("2 2\n1 2\n", "expected 2 matrix rows"),
        ("1 1\nx\n", "malformed integer"),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_matrix(text)

    def test_cap_is_checked_before_any_row_is_built(self):
        # An R x 0 header needs no row lines, so without the check these
        # 12 bytes would ask for 10^9 row dicts.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                parse_matrix("1000000000 0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cap = MATRIX_CAP
        assert str(info.value) == f"matrix must be at most {cap} x {cap}, got 1000000000 x 0"
        assert peak < 1_000_000

    def test_cap_error_beats_a_malformed_body(self):
        with pytest.raises(ValueError) as info:
            parse_matrix(f"{MATRIX_CAP + 1000} 3\n1 x 2\n")
        assert not isinstance(info.value, ParseError)
        assert str(info.value).startswith(f"matrix must be at most {MATRIX_CAP} x {MATRIX_CAP}")

    def test_cap_itself_is_accepted(self):
        m = parse_matrix(f"{MATRIX_CAP} 0\n")
        assert (m.rows, m.cols) == (MATRIX_CAP, 0)
