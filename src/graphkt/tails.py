"""Tail construction: turning singular vertices into regular ones.

Adding a tail at a singular vertex v0 removes all of v0's out-edges,
appends a chain v0 -> v1 -> ... -> vn of fresh vertices, and re-emits the
removed edges along the chain: the j-th target (0-indexed, multiplicity C)
receives one edge from each of v_j, v_{j+1}, ..., v_{j+C-1}. Tails here
are truncated at a finite length n, so edges whose source index would be
n or larger are dropped and vn stays a sink. Every tail of one call is
written into a single copy of the edge map, and one graph is built from
it without checking again what the input graph already passed.
:func:`add_tail` checks a caller's plan against the graph; the plans of
:func:`desingularize` come from the graph, so only fresh names are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TailError
from .graphs import Graph, INF, out_multiplicity, singular_vertices


@dataclass(frozen=True)
class TailPlan:
    """One tail: base vertex, its targets in emission order (with
    multiplicities), and the truncated tail length.

    Different target orderings are all valid and can produce
    non-isomorphic graphs; the computed invariants must not depend on the
    choice, which the harness checks empirically.
    """

    base: str
    ordering: tuple
    tail_length: int


def tail_plan(g: Graph, base: str, tail_length: int, order=None) -> TailPlan:
    """Build a plan for ``base`` from the graph's edges.

    ``order`` optionally permutes the targets; by default they come in
    vertex order. It must list each distinct target of ``base`` exactly
    once.
    """
    targets = g.out_edges(base)
    if order is not None:
        by_target = dict(targets)
        order = list(order)
        if sorted(order) != sorted(by_target):
            raise ValueError(
                f"ordering for {base!r} must list each of its targets exactly once"
            )
        targets = [(w, by_target[w]) for w in order]
    return TailPlan(base, tuple(targets), tail_length)


def _write_tails(g: Graph, plans) -> Graph:
    """Write each plan's tail into one copy of ``g``'s vertices and edges and
    build one graph. Each plan must fit ``g`` as :func:`add_tail` checks,
    with distinct bases; only fresh-name clashes, which depend on the
    length, are checked here. Fresh names are valid ids, so the graph is
    built unchecked."""
    vertices = list(g.vertices)
    edges = g.edges
    for plan in plans:
        base, n = plan.base, plan.tail_length
        fresh = [f"{base}${k}" for k in range(1, n + 1)]
        for name in fresh:
            if name in g:
                raise TailError(f"fresh tail vertex name already in use: {name!r}")
        for w, _c in plan.ordering:
            del edges[(base, w)]
        chain = [base, *fresh]
        edges.update(dict.fromkeys(zip(chain, fresh), 1))
        for j, (w, c) in enumerate(plan.ordering):
            hi = n if c is INF else min(j + c, n)
            for src in chain[j:hi]:
                edges[(src, w)] = edges.get((src, w), 0) + 1
        vertices += fresh
    return Graph(vertices, edges, g.declared_singular, _check=False)


def add_tail(g: Graph, plan: TailPlan) -> Graph:
    """Apply one truncated tail; returns a new graph, input unchanged.

    Fresh vertices are named ``<base>$1 .. <base>$n``. Vertex ids may
    contain '$'; a fresh name already in the graph raises TailError.
    """
    base = plan.base
    if base not in g:
        raise ValueError(f"unknown vertex: {base!r}")
    if plan.tail_length < 1:
        raise ValueError("tail_length must be >= 1")
    if base in g.declared_singular:
        raise TailError(
            f"{base!r} is declared singular: its hidden edges are not represented, "
            "so a tail cannot reproduce them"
        )
    m = out_multiplicity(g, base)
    if m != 0 and m is not INF:
        raise TailError(f"{base!r} is not singular (it emits {m} edges)")
    targets = g.out_edges(base)
    if dict(plan.ordering) != dict(targets) or len(plan.ordering) != len(targets):
        raise ValueError(f"tail plan does not match the out-edges of {base!r}")
    return _write_tails(g, [plan])


def desingularize(g: Graph, tail_length: int, orderings=None) -> Graph:
    """Add one truncated tail at every singular vertex of ``g``.

    Only the original graph's singular vertices are processed; the sinks
    created by truncation are left alone. ``orderings`` optionally maps a
    singular vertex to its target order. The first vertex, in vertex
    order, with a bad ordering or a fresh-name clash raises.
    """
    if tail_length < 1:
        raise ValueError("tail_length must be >= 1")
    if g.declared_singular:
        raise TailError(
            "graph has declared-singular vertices; their hidden edges cannot be given tails"
        )
    orderings = dict(orderings or {})
    sing = singular_vertices(g)
    unknown = sorted(set(orderings) - set(sing))
    if unknown:
        raise ValueError(f"ordering given for non-singular vertex: {unknown[0]!r}")
    return _write_tails(g, (tail_plan(g, v, tail_length, orderings.get(v)) for v in sing))
