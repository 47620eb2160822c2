"""Random graph generator, the truncation family, and the property runner."""

import json
from dataclasses import replace

import pytest

from graphkt import catalog, cli, harness, ktheory, tails
from graphkt.catalog import CATALOG, CatalogEntry, load, verify_catalog
from graphkt.graphio import emit_graph
from graphkt.graphs import INF, Graph, block_decomposition, singular_vertices
from graphkt.harness import (
    RandomGraphParams,
    derive_seed,
    ea_family,
    ea_table,
    random_graph,
    run_properties,
)
from graphkt.intlinalg import AbelianGroup, IntMatrix
from graphkt.ktheory import corollary_applies, k_groups


class TestEaFamily:
    def test_structure_at_five(self):
        g = ea_family(5)
        assert g.vertices == ("1", "2", "3", "4", "5")
        assert g.declared_singular == frozenset({"1", "2"})
        expected = {
            ("1", "1"), ("2", "2"),
            ("1", "3"), ("1", "4"), ("1", "5"),
            ("2", "3"), ("2", "4"), ("2", "5"),
            ("3", "3"), ("3", "1"),
            ("4", "4"), ("4", "2"),
            ("5", "5"), ("5", "3"),
        }
        assert set(g.edges) == expected
        assert all(m == 1 for m in g.edges.values())

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ea_family(4)

    def test_hand_checked_stacked_matrix_at_six(self):
        # derived by hand from the edge rule: column for regular vertex j
        # carries a single 1, in the row of vertex j-2
        expected = IntMatrix.from_rows(
            [
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [1, 0, 0, 0],
                [0, 1, 0, 0],
            ]
        )
        r = k_groups(ea_family(6))
        assert r.stacked_matrix == expected
        assert r.k0 == AbelianGroup(2)
        assert r.k1 == AbelianGroup(0)

    def test_invariants_for_all_truncations(self):
        for n, k0, k1 in ea_table(40):
            assert k0 == AbelianGroup(2), n
            assert k1 == AbelianGroup(0), n

    def test_one_one_per_column(self):
        for n in (5, 9, 17):
            m = k_groups(ea_family(n)).stacked_matrix
            for j in range(m.cols):
                col = [m[i, j] for i in range(m.rows)]
                assert sorted(col) == [0] * (m.rows - 1) + [1]


class TestRandomGraph:
    def test_zero_density_gives_sinks(self):
        g = random_graph(RandomGraphParams(seed=3, density=0.0))
        assert singular_vertices(g) == list(g.vertices)
        assert not g.edges

    def test_everything_infinite_is_corollary_regime(self):
        g = random_graph(
            RandomGraphParams(seed=5, density=1.0, infinite_probability=1.0,
                              sink_probability=0.0, min_vertices=3)
        )
        assert singular_vertices(g) == list(g.vertices)
        assert all(m is INF for m in g.edges.values())

    def test_deterministic_in_seed(self):
        p = RandomGraphParams(seed=424242)
        assert random_graph(p) == random_graph(p)
        assert random_graph(p) != random_graph(RandomGraphParams(seed=424243))

    def test_at_least_one_vertex(self):
        for s in range(30):
            assert len(random_graph(RandomGraphParams(seed=s)).vertices) >= 1

    def test_validates_params(self):
        with pytest.raises(ValueError):
            random_graph(RandomGraphParams(min_vertices=0))
        with pytest.raises(ValueError):
            random_graph(RandomGraphParams(density=1.5))
        with pytest.raises(ValueError, match="infinite_probability"):
            random_graph(RandomGraphParams(infinite_probability=7))
        with pytest.raises(ValueError, match="sink_probability"):
            random_graph(RandomGraphParams(sink_probability=-3))

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestRunProperties:
    def test_small_run_is_clean(self):
        report = run_properties(RandomGraphParams(seed=7), 40)
        assert report.ok
        for name in ("P1", "P2", "P3", "P4", "P5", "P6"):
            assert report.properties[name].failed == 0
        assert report.properties["P1"].passed == 40
        assert report.properties["P2"].passed == 40
        # stabilization must actually be exercised
        assert report.properties["P5"].passed > 20

    def test_failures_carry_reproduction_seeds(self):
        report = run_properties(RandomGraphParams(seed=11), 25)
        for st in report.properties.values():
            for f in st.failures:
                assert "seed" in f and "graph" in f

    def test_a_crash_fails_every_property_with_its_seed(self, monkeypatch):
        params = RandomGraphParams(seed=5)
        crash_seed = derive_seed(params.seed, 3)
        crash_graph = random_graph(replace(params, seed=crash_seed))
        cokernel = harness.cokernel
        calls = []

        def raising(m):
            # the harness takes one cokernel per graph, so the fourth call
            # belongs to the graph at index 3
            calls.append(m)
            if len(calls) == 4:
                raise RuntimeError("planted")
            return cokernel(m)

        monkeypatch.setattr(harness, "cokernel", raising)
        report = run_properties(params, 6)
        assert not report.ok
        for st in report.properties.values():
            assert st.failed == 1
            (f,) = st.failures
            assert f["seed"] == crash_seed
            assert f["graph"] == emit_graph(crash_graph)
            assert f["detail"].startswith("crash: ")
            assert "planted" in f["detail"]

    def test_rejects_a_count_below_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_properties(RandomGraphParams(seed=7), 0)

    def test_scans_reuse_the_known_k_groups(self, monkeypatch):
        params = RandomGraphParams(seed=1, min_vertices=5, max_vertices=5,
                                   sink_probability=0.4)
        g = random_graph(replace(params, seed=derive_seed(params.seed, 0)))
        built = []

        def counting(h):
            built.append(h)
            return block_decomposition(h)

        monkeypatch.setattr(ktheory, "block_decomposition", counting)
        report = run_properties(params, 1)
        assert report.properties["P5"].passed == 1
        assert report.properties["P6"].passed == 1
        # P1 builds and eliminates the graph's stacked map; the P5 and P6
        # scans read the graph's K-groups from the same instance
        assert sum(h == g for h in built) == 1

    def test_p3_reads_the_row_map_off_the_stacked_map(self, monkeypatch):
        params = RandomGraphParams(seed=3, density=0.0)
        g = random_graph(replace(params, seed=derive_seed(params.seed, 0)))
        assert corollary_applies(g) and len(g.vertices) == 7
        built = []

        def counting(h):
            built.append(h)
            return block_decomposition(h)

        monkeypatch.setattr(ktheory, "block_decomposition", counting)
        monkeypatch.setattr(harness, "block_decomposition", counting, raising=False)
        report = run_properties(params, 1)
        assert report.properties["P3"].passed == 1
        # k_groups builds the one decomposition of g; P5's tailed graphs
        # build their own
        assert sum(h == g for h in built) == 1

    def test_p5_and_p6_run_the_public_scan(self, monkeypatch):
        params = RandomGraphParams(seed=1, min_vertices=5, max_vertices=5,
                                   sink_probability=0.4)
        g = random_graph(replace(params, seed=derive_seed(params.seed, 0)))
        scan = harness.truncation_scan
        calls = []

        def counting(h, orderings=None):
            calls.append((h, orderings))
            return scan(h, orderings)

        monkeypatch.setattr(harness, "truncation_scan", counting)
        report = run_properties(params, 1)
        assert report.properties["P5"].passed == 1
        assert report.properties["P6"].passed == 1
        assert [h for h, _o in calls] == [g, g]
        assert calls[0][1] is None
        permuted = calls[1][1]
        assert permuted and set(permuted) <= set(singular_vertices(g))

    def test_scan_desingularizes_once_per_length(self, monkeypatch):
        g = Graph(["a", "b", "s"], {("a", "b"): 1, ("b", "a"): 2, ("b", "s"): 1,
                                    ("a", "a"): INF})
        calls = []

        def counting(h, n, orderings=None):
            calls.append((h, n, orderings))
            return tails.desingularize(h, n, orderings)

        monkeypatch.setattr(harness, "desingularize", counting)
        # every length must keep the K-groups, so a passing scan tries
        # each of SCAN_LENGTHS once, in order
        assert list(harness.SCAN_LENGTHS) == [1, 2, 3, 4, 5, 6]
        for orderings in (None, {"a": ["b", "a"]}):
            calls.clear()
            assert harness.truncation_scan(g, orderings) is None
            lengths = [n for _h, n, _o in calls]
            assert lengths == list(harness.SCAN_LENGTHS)
            assert all(h is g and o is orderings for h, _n, o in calls)

    def test_scan_stops_at_the_first_length_that_differs(self, monkeypatch):
        # a fault at length 2 only: an isolated sink adds a Z to K0. Every
        # later length is right again, so a scan that waits for the groups
        # to settle would miss it.
        def faulty(h, n, orderings=None):
            calls.append(n)
            out = tails.desingularize(h, n, orderings)
            if n == 2:
                out = Graph([*out.vertices, "extra"], out.edges)
            return out

        calls = []
        monkeypatch.setattr(harness, "desingularize", faulty)
        g = Graph(["w", "v"], {("w", "w"): 1, ("v", "w"): INF})
        detail = harness.truncation_scan(g)
        assert detail == "tail length 2 gave (Z^3, Z) instead of (Z^2, Z)"
        assert calls == [1, 2]

        params = RandomGraphParams(seed=1, max_vertices=8)
        report = run_properties(params, 50)
        p5 = report.properties["P5"]
        assert not report.ok
        assert p5.failed == 50 - p5.skipped > 40
        seeds = [derive_seed(params.seed, i) for i in range(50)]
        for f in p5.failures:
            assert f["seed"] in seeds
            g = random_graph(replace(params, seed=f["seed"]))
            assert singular_vertices(g)
            assert f["detail"].startswith("tail length 2 gave ")

    def test_loop_only_graph_skips_p5(self):
        # a graph with no singular vertices has nothing to desingularize
        report = run_properties(
            RandomGraphParams(seed=13, min_vertices=1, max_vertices=1,
                              density=1.0, infinite_probability=0.0,
                              sink_probability=0.0),
            5,
        )
        assert report.properties["P5"].skipped == 5
        assert report.properties["P4"].passed == 5


Z, Z2, ZERO = AbelianGroup(1), AbelianGroup(2), AbelianGroup(0)
Z_2, Z_3 = AbelianGroup(0, (2,)), AbelianGroup(0, (3,))


class TestCatalog:
    def test_verify_catalog_is_clean(self):
        assert verify_catalog() == []

    @pytest.mark.parametrize("planted, problem", [
        (CatalogEntry("inf_to_loop", Z2, Z, Z),
         "inf_to_loop: witness = ('w',), expected ()"),
        (CatalogEntry("o3", Z_3, ZERO, Z_2), "o3: K0 = Z/2, expected Z/3"),
        (CatalogEntry("o3", Z_2, ZERO, Z_3), "o3: Ext = Z/2, expected Z/3"),
        (CatalogEntry("inf_to_loop", Z2, Z, Z, ("v",)),
         "inf_to_loop: witness = ('w',), expected ('v',)"),
        (CatalogEntry("inf_to_loop", Z2, Z, ZERO, ("w",)),
         "inf_to_loop: Ext = Z, expected 0"),
        (CatalogEntry("o3", Z_2, ZERO, Z_2, ("v",)),
         "o3: witness = (), expected ('v',)"),
    ], ids=["condition-l-fails", "k0", "ext", "witness", "forced-ext", "condition-l-holds"])
    def test_each_planted_problem_is_one_line(self, monkeypatch, planted, problem):
        entries = [planted if e.name == planted.name else e for e in CATALOG]
        monkeypatch.setattr(catalog, "CATALOG", tuple(entries))
        assert verify_catalog() == [problem]

    @pytest.mark.parametrize("field, attr", [
        ("K0", "k0"), ("K1", "k1"), ("Ext", "ext"), ("witness", "witness"),
    ], ids=["k0", "k1", "ext", "witness"])
    @pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
    def test_one_wrong_value_is_one_line(self, monkeypatch, entry, field, attr):
        locked = getattr(entry, attr)
        if attr == "witness":
            wrong = locked + ("x",)
        else:
            wrong = AbelianGroup(locked.free_rank + 1, locked.torsion)
        entries = [replace(e, **{attr: wrong}) if e is entry else e for e in CATALOG]
        monkeypatch.setattr(catalog, "CATALOG", tuple(entries))
        assert verify_catalog() == [f"{entry.name}: {field} = {locked}, expected {wrong}"]

    def test_a_non_canonical_file_is_one_line(self, monkeypatch):
        text = catalog.catalog_text
        monkeypatch.setattr(
            catalog, "catalog_text",
            lambda name: text(name) + "\n" if name == "o4" else text(name),
        )
        assert verify_catalog() == ["o4: stored file is not canonical"]

    def test_harness_reports_a_catalog_problem(self, monkeypatch, capsys):
        # an entry expecting condition (L) on a graph that fails it is a
        # problem line in the report, not an uncaught domain error
        entries = [CatalogEntry("inf_to_loop", Z2, Z, Z) if e.name == "inf_to_loop" else e
                   for e in CATALOG]
        monkeypatch.setattr(catalog, "CATALOG", tuple(entries))
        problem = "inf_to_loop: witness = ('w',), expected ()"
        assert cli.main(["harness", "--count", "2"]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"catalog: 1 problem(s)\n  {problem}\n")
        assert out.rstrip().endswith("result: FAIL")
        assert cli.main(["harness", "--count", "2", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["catalog"] == {"ok": False, "problems": [problem]}
        assert payload["ok"] is False

    def test_catalog_covers_the_expected_families(self):
        names = {e.name for e in CATALOG}
        assert {"o2", "o3", "o4", "o5", "oinf", "sink1", "sink2", "sink3",
                "inf_to_loop"} <= names
        assert {f"ea{n}" for n in range(5, 11)} <= names

    def test_loading_a_catalog_graph(self):
        g = load("oinf")
        assert g.multiplicity("v", "v") is INF
