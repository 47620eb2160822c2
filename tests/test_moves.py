"""Graph moves that give Morita-equivalent algebras leave K0, K1 and Ext alone.

A check of the whole graph-to-stacked-map route against the theory rather
than against another formula: edge subdivision, out-splitting and
in-splitting a regular vertex (Bates and Pask, "Flow equivalence of graph
algebras", Ergodic Theory Dynam. Systems 24 (2004)) and deleting a regular
source (Sørensen, Ergodic Theory Dynam. Systems 33 (2013), move (S)).
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from graphkt.graphs import INF, Graph, out_multiplicity, singular_vertices
from graphkt.harness import RandomGraphParams, random_graph
from graphkt.ktheory import ext_group, k_groups


def groups(g):
    r = k_groups(g)
    return r.k0, r.k1, ext_group(g, force=True).ext


def regular_vertices(g):
    sing = set(singular_vertices(g))
    return [v for v in g.vertices if v not in sing]


def subdivide(g, rng):
    """One copy of an edge u -> w becomes u -> x -> w; ``inf`` stays ``inf``."""
    edges = g.edges
    if not edges:
        return None
    u, w = rng.choice(list(edges))
    m = edges[u, w]
    if m == 1:
        del edges[u, w]
    elif m is not INF:
        edges[u, w] = m - 1
    edges[u, "x"] = 1
    edges["x", w] = 1
    return Graph([*g.vertices, "x"], edges)


def share(edges, rng):
    """Two non-empty parts of the (vertex, multiplicity) list ``edges``,
    whose multiplicities add up to at least 2."""
    parts = [{w: rng.randint(0, m) for w, m in edges}]
    parts.append({w: m - parts[0][w] for w, m in edges})
    if not all(any(p.values()) for p in parts):
        first = edges[0][0]
        parts = [{first: 1}, {w: m - (w == first) for w, m in edges}]
    return parts


def out_split(g, rng):
    """Split a regular vertex v into v_1, v_2, sharing v's out-edges (with
    multiplicity) in two non-empty parts; every edge into v, a loop at v
    included, goes into both halves."""
    choices = [v for v in regular_vertices(g) if out_multiplicity(g, v) >= 2]
    if not choices:
        return None
    v = rng.choice(choices)
    parts = share(g.out_edges(v), rng)
    halves = [f"{v}_1", f"{v}_2"]
    edges = {}
    for (src, dst), m in g.edges.items():
        if src == v:
            continue
        for d in halves if dst == v else [dst]:
            edges[src, d] = m
    for half, part in zip(halves, parts):
        for w, m in part.items():
            if m:
                for d in halves if w == v else [w]:
                    edges[half, d] = m
    vertices = [x for u in g.vertices for x in (halves if u == v else [u])]
    return Graph(vertices, edges)


def in_split(g, rng):
    """Split a regular vertex v into v_1, v_2, sharing v's in-edges (with
    multiplicity) in two non-empty parts; each half emits all of v's
    out-edges, so a loop at v, an in-edge from v, leaves from both halves.

    Only a regular v with at least 2 in-edges, all finite, is split. At a
    sink or an infinite emitter both halves are singular, so the split adds
    a singular vertex, and K0 and K1 change.
    """
    ins = {v: [] for v in g.vertices}
    for (src, dst), m in g.edges.items():
        ins[dst].append((src, m))
    choices = [
        v for v in regular_vertices(g)
        if all(m is not INF for _, m in ins[v]) and sum(m for _, m in ins[v]) >= 2
    ]
    if not choices:
        return None
    v = rng.choice(choices)
    parts = share(ins[v], rng)
    halves = [f"{v}_1", f"{v}_2"]
    edges = {}
    for (src, dst), m in g.edges.items():
        if dst == v:
            continue
        for s in halves if src == v else [src]:
            edges[s, dst] = m
    for half, part in zip(halves, parts):
        for u, m in part.items():
            if m:
                for s in halves if u == v else [u]:
                    edges[s, half] = m
    vertices = [x for u in g.vertices for x in (halves if u == v else [u])]
    return Graph(vertices, edges)


def delete_source(g, rng):
    """Remove a regular vertex that receives no edge, and its out-edges."""
    targets = {dst for (_src, dst) in g.edges}
    choices = [v for v in regular_vertices(g) if v not in targets]
    if not choices:
        return None
    v = rng.choice(choices)
    edges = {e: m for e, m in g.edges.items() if e[0] != v}
    return Graph([u for u in g.vertices if u != v], edges)


@given(
    seed=st.integers(0, 2**32),
    infinite=st.sampled_from([0.0, 0.12, 0.3]),
    sinks=st.sampled_from([0.0, 0.2, 0.4]),
)
def test_moves_keep_k_theory_and_ext(seed, infinite, sinks):
    g = random_graph(RandomGraphParams(
        seed=seed, max_vertices=9, max_multiplicity=3, infinite_probability=infinite,
        sink_probability=sinks,
    ))
    rng = random.Random(seed)
    before = groups(g)
    for move in (subdivide, out_split, in_split, delete_source):
        moved = move(g, rng)
        if moved is not None:
            assert groups(moved) == before, (move.__name__, g.edges, moved.edges)


def test_each_move_changes_the_graph_as_described():
    g = Graph(["a", "b", "s"], {("a", "a"): 1, ("a", "b"): 2, ("b", "a"): INF, ("s", "a"): 1})
    rng = random.Random(0)
    sub = subdivide(Graph(["a"], {("a", "a"): INF}), rng)
    assert sub.edges == {("a", "a"): INF, ("a", "x"): 1, ("x", "a"): 1}
    split = out_split(Graph(["a", "b"], {("a", "a"): 1, ("a", "b"): 1}), rng)
    assert split.vertices == ("a_1", "a_2", "b")
    assert sorted(out_multiplicity(split, v) for v in ("a_1", "a_2")) == [1, 2]
    assert groups(split) == groups(Graph(["a", "b"], {("a", "a"): 1, ("a", "b"): 1}))
    # the loop at a and the edge b -> a go to different halves; the loop
    # leaves from both halves, and so does a -> b
    g2 = Graph(["a", "b"], {("a", "a"): 1, ("a", "b"): 1, ("b", "a"): 1})
    split = in_split(g2, rng)
    assert split.vertices == ("a_1", "a_2", "b")
    into = {h: sum(m for (_, d), m in split.edges.items() if d == h) for h in ("a_1", "a_2")}
    assert sorted(into.values()) == [1, 2]
    assert [out_multiplicity(split, h) for h in ("a_1", "a_2")] == [2, 2]
    assert split.multiplicity("b", "a_1") + split.multiplicity("b", "a_2") == 1
    assert groups(split) == groups(g2)
    # a sink, an infinite in-edge and a single in-edge are not split
    assert in_split(Graph(["a", "b"], {("a", "b"): 2}), rng) is None
    assert in_split(Graph(["a", "b"], {("a", "b"): INF, ("b", "b"): 1}), rng) is None
    assert in_split(Graph(["a"], {("a", "a"): 1}), rng) is None
    assert delete_source(g, rng).vertices == ("a", "b")
    assert delete_source(Graph(["a"], {("a", "a"): 1}), rng) is None
