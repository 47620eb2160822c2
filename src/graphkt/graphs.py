"""Directed multigraphs with edge multiplicities in {1, 2, ...} or infinity.

A vertex is *singular* when it emits no edges (a sink) or infinitely many;
everything downstream (block decomposition, K-groups, tails) is organized
around the split of the vertex set into regular and singular vertices.
A graph sums each vertex's out-multiplicity while it is built, so that
split, row-finiteness and condition (L) read one number per vertex, and
:func:`block_decomposition` builds the stacked map (Bᵗ − I over Cᵗ) from
the edges in one pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .intlinalg import IntMatrix

# Vertex ids, shared with the graph file parser.
VERTEX_ID = re.compile(r"[A-Za-z0-9_$]+\Z")


class _Infinity:
    """Absorbing infinite multiplicity (spelled ``inf`` in graph files)."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self


INF = _Infinity()


class Graph:
    """Immutable directed multigraph.

    Vertices keep insertion order; that order fixes every matrix row and
    column downstream, so two runs over the same input produce identical
    matrices. ``declared_singular`` marks vertices whose stored out-edges
    are a finite stand-in for infinitely many edges (truncations of
    infinite graphs); their rows are never read by the invariant formulas.

    ``_emits`` holds each vertex's out-multiplicity, by vertex index.
    ``_stacked`` is None until :mod:`graphkt.ktheory` first needs the
    stacked map; it then holds that map and its invariant factors, so
    K0, K1 and Ext of one instance share one elimination.
    """

    __slots__ = ("vertices", "declared_singular", "_edges", "_index", "_out", "_emits", "_stacked")

    def __init__(self, vertices=(), edges=None, declared_singular=(), _check=True):
        # _check=False skips the id and edge checks, for parts known valid
        # (a checked graph's, grown by unused valid ids); ``edges`` is owned.
        vlist: list[str] = []
        index: dict[str, int] = {}
        for v in vertices:
            if _check and (not isinstance(v, str) or not VERTEX_ID.match(v)):
                raise ValueError(f"invalid vertex id: {v!r}")
            if v in index:
                raise ValueError(f"duplicate vertex: {v!r}")
            index[v] = len(vlist)
            vlist.append(v)
        emap = dict(edges or {}) if _check else edges
        # Targets of each vertex's out-edges, by source index, in edge
        # order (out_edges sorts one list into vertex order when asked),
        # and each vertex's out-multiplicity, absorbing to INF.
        out: list[list[str]] = [[] for _ in vlist]
        emits: list = [0] * len(vlist)
        for (src, dst), mult in emap.items():
            s = index.get(src)
            if _check:
                if s is None:
                    raise ValueError(f"edge source not declared: {src!r}")
                if dst not in index:
                    raise ValueError(f"edge target not declared: {dst!r}")
                if mult is not INF and not (isinstance(mult, int) and mult >= 1):
                    raise ValueError(
                        f"invalid multiplicity for edge {src}->{dst}: {mult!r}"
                    )
            out[s].append(dst)
            emits[s] += mult
        declared = frozenset(declared_singular)
        for v in declared:
            if v not in index:
                raise ValueError(f"declared-singular vertex not declared: {v!r}")
        self.vertices = tuple(vlist)
        self.declared_singular = declared
        self._edges = emap
        self._index = index
        self._out = out
        self._emits = emits
        self._stacked = None

    @property
    def edges(self) -> dict:
        """Copy of the edge map {(source, target): multiplicity}."""
        return dict(self._edges)

    def multiplicity(self, src: str, dst: str):
        """Multiplicity of src -> dst, 0 when there is no such edge."""
        return self._edges.get((src, dst), 0)

    def out_edges(self, v: str) -> list:
        """(target, multiplicity) pairs for v, targets in vertex order."""
        if v not in self._index:
            raise ValueError(f"unknown vertex: {v!r}")
        targets = self._out[self._index[v]]
        targets.sort(key=self._index.__getitem__)
        return [(w, self._edges[(v, w)]) for w in targets]

    def index(self, v: str) -> int:
        if v not in self._index:
            raise ValueError(f"unknown vertex: {v!r}")
        return self._index[v]

    def __contains__(self, v) -> bool:
        return v in self._index

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self._edges == other._edges
            and self.declared_singular == other.declared_singular
        )

    def __hash__(self):
        return hash((self.vertices, frozenset(self._edges.items()), self.declared_singular))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self._edges)} edges)"


@dataclass(frozen=True)
class BlockDecomposition:
    """Regular/singular vertex split and the stacked map it gives.

    ``stacked`` is the (r+s) x r map (Bᵗ − I over Cᵗ): its column k is the
    k-th regular vertex, rows are the regular then the singular vertices,
    and each entry counts the edges from the column's vertex to the row's,
    less one on the diagonal. It stores only its nonzero entries, one per
    edge from a regular vertex, so building it costs O(V + E). Its top r
    rows are Bᵗ − I and its bottom s rows Cᵗ, where B counts the edges
    regular -> regular and C the edges regular -> singular.
    """

    regular: tuple
    singular: tuple
    stacked: IntMatrix


def out_multiplicity(g: Graph, v: str):
    """Total number of edges leaving v, absorbing to INF."""
    return g._emits[g.index(v)]


def singular_vertices(g: Graph) -> list:
    """Sinks, infinite emitters and declared-singular vertices, in vertex order."""
    declared = g.declared_singular
    return [v for v, m in zip(g.vertices, g._emits) if m == 0 or m is INF or v in declared]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Split vertices into regular/singular and build the stacked map."""
    singular = singular_vertices(g)
    sset = set(singular)
    regular = [v for v in g.vertices if v not in sset]
    nr = len(regular)
    # Row of each vertex; column s of the map is filled from the s-th
    # regular vertex's out-edges, so each row's keys come in column order.
    row = dict(zip(regular, range(nr)))
    row.update(zip(singular, range(nr, len(g.vertices))))
    rows = [{} for _ in g.vertices]
    edges, out, index = g._edges, g._out, g._index
    for s, v in enumerate(regular):
        for w in out[index[v]]:
            rows[row[w]][s] = edges[v, w]
    # The -1 diagonal goes in last, so each row keeps its keys in column
    # order apart from the diagonal.
    for k, r in enumerate(rows[:nr]):
        e = r.pop(k, 0) - 1
        if e:
            r[k] = e
    stacked = IntMatrix._of_rows(len(rows), nr, rows)
    return BlockDecomposition(tuple(regular), tuple(singular), stacked)


def condition_l(g: Graph):
    """Check that every directed cycle has an exit.

    An exit is an edge leaving a cycle vertex that is not the cycle edge
    itself; a parallel edge counts. A cycle with no exit can only pass
    through vertices of total out-multiplicity exactly 1, so it suffices to
    look for a cycle in that functional restriction. Declared-singular
    vertices stand in for infinite emitters, so they always have an exit.

    Returns (True, None) or (False, witness) with a vertex-simple cycle.
    """
    nxt = {}
    for v, m, targets in zip(g.vertices, g._emits, g._out):
        if m == 1 and v not in g.declared_singular:
            nxt[v] = targets[0]
    done = set()
    for start in g.vertices:
        if start not in nxt or start in done:
            continue
        path: list[str] = []
        pos: dict[str, int] = {}
        cur = start
        while cur in nxt and cur not in done and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = nxt[cur]
        if cur in pos:
            cyc = path[pos[cur]:]
            k = min(range(len(cyc)), key=lambda i: g.index(cyc[i]))
            return False, cyc[k:] + cyc[:k]
        done.update(path)
    return True, None


def is_row_finite(g: Graph) -> bool:
    """True when no vertex emits infinitely many edges.

    A declared-singular vertex that is not a sink hides infinitely many
    edges, so it breaks row-finiteness; declared sinks do not.
    """
    declared = g.declared_singular
    return not any(m is INF or (m and v in declared) for v, m in zip(g.vertices, g._emits))
