"""Tail construction: turning singular vertices into regular ones.

Adding a tail at a singular vertex v0 removes all of v0's out-edges,
appends a chain v0 -> v1 -> ... -> vn of fresh vertices, and re-emits the
removed edges along the chain: the j-th target (0-indexed, multiplicity C)
receives one edge from each of v_j, v_{j+1}, ..., v_{j+C-1}. Tails here
are truncated at a finite length n, so edges whose source index would be
n or larger are dropped and vn stays a sink. Different target orderings
are all valid and can produce non-isomorphic graphs; the computed
invariants must not depend on the choice, which the harness checks
empirically. Every tail of one call is written into a single copy of the
edge map, and one graph is built from it without checking again what the
input graph already passed.
"""

from __future__ import annotations

from operator import index

from .errors import TailError
from .graphs import Graph, INF, singular_vertices


def desingularize(g: Graph, tail_length: int, orderings=None) -> Graph:
    """Add one truncated tail at every singular vertex of ``g``.

    Only the original graph's singular vertices are processed; the sinks
    created by truncation are left alone. ``orderings`` optionally maps a
    singular vertex to its target order, which must list each distinct
    target exactly once; by default targets come in vertex order. Fresh
    vertices are named ``<base>$1 .. <base>$n``. The first vertex, in
    vertex order, with a bad ordering or a fresh name already in the
    graph raises.
    """
    n = index(tail_length)
    if n < 1:
        raise ValueError("tail_length must be >= 1")
    if g.declared_singular:
        raise TailError(
            "graph has declared-singular vertices; their hidden edges cannot be given tails"
        )
    orderings = dict(orderings or {})
    sing = singular_vertices(g)
    unknown = [v for v in orderings if v not in sing]
    if unknown:
        # Keys of different types need not compare; their names do.
        raise ValueError(f"ordering given for non-singular vertex: {min(unknown, key=str)!r}")
    vertices = list(g.vertices)
    edges = g.edges
    for base in sing:
        targets = g.out_edges(base)
        order = orderings.get(base)
        if order is not None:
            by_target = dict(targets)
            order = list(order)
            # Same length and every target present make a permutation; no entry is hashed.
            if len(order) != len(by_target) or not all(w in order for w in by_target):
                raise ValueError(
                    f"ordering for {base!r} must list each of its targets exactly once"
                )
            targets = [(w, by_target[w]) for w in order]
        fresh = [f"{base}${k}" for k in range(1, n + 1)]
        for name in fresh:
            if name in g:
                raise TailError(f"fresh tail vertex name already in use: {name!r}")
        for w, _c in targets:
            del edges[(base, w)]
        chain = [base, *fresh]
        edges.update(dict.fromkeys(zip(chain, fresh), 1))
        for j, (w, c) in enumerate(targets):
            hi = n if c is INF else min(j + c, n)
            for src in chain[j:hi]:
                edges[(src, w)] = edges.get((src, w), 0) + 1
        vertices += fresh
    # Fresh names are valid ids, so the graph is built unchecked.
    return Graph(vertices, edges, g.declared_singular, _check=False)
