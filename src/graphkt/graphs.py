"""Directed multigraphs with edge multiplicities in {1, 2, ...} or infinity.

A vertex is *singular* when it emits no edges (a sink) or infinitely many;
everything downstream (block decomposition, K-groups, tails) is organized
around the split of the vertex set into regular and singular vertices.
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

    ``_stacked`` is None until :mod:`graphkt.ktheory` first needs the
    stacked map; it then holds that map and its invariant factors, so
    K0, K1 and Ext of one instance share one elimination.
    """

    __slots__ = ("vertices", "declared_singular", "_edges", "_index", "_out", "_stacked")

    def __init__(self, vertices=(), edges=None, declared_singular=()):
        vlist: list[str] = []
        index: dict[str, int] = {}
        for v in vertices:
            if not isinstance(v, str) or not VERTEX_ID.match(v):
                raise ValueError(f"invalid vertex id: {v!r}")
            if v in index:
                raise ValueError(f"duplicate vertex: {v!r}")
            index[v] = len(vlist)
            vlist.append(v)
        emap = dict(edges or {})
        # Targets of each vertex's out-edges, by source index, in edge
        # order; out_edges sorts one list into vertex order when asked.
        out: list[list[str]] = [[] for _ in vlist]
        for (src, dst), mult in emap.items():
            s = index.get(src)
            if s is None:
                raise ValueError(f"edge source not declared: {src!r}")
            if dst not in index:
                raise ValueError(f"edge target not declared: {dst!r}")
            if mult is not INF and not (isinstance(mult, int) and mult >= 1):
                raise ValueError(
                    f"invalid multiplicity for edge {src}->{dst}: {mult!r}"
                )
            out[s].append(dst)
        declared = frozenset(declared_singular)
        for v in declared:
            if v not in index:
                raise ValueError(f"declared-singular vertex not declared: {v!r}")
        self.vertices = tuple(vlist)
        self.declared_singular = declared
        self._edges = emap
        self._index = index
        self._out = out
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
    """Regular/singular vertex split with the finite blocks of the vertex matrix.

    ``b_block`` holds edge counts regular -> regular, ``c_block`` regular ->
    singular. Rows indexed by singular vertices are never materialized, and
    both blocks store only their nonzero entries, one per edge, so building
    them costs O(V + E).
    """

    regular: tuple
    singular: tuple
    b_block: IntMatrix
    c_block: IntMatrix


def out_multiplicity(g: Graph, v: str):
    """Total number of edges leaving v, absorbing to INF."""
    total = 0
    for w in g._out[g.index(v)]:
        total = total + g._edges[(v, w)]
    return total


def singular_vertices(g: Graph) -> list:
    """Sinks, infinite emitters and declared-singular vertices, in vertex order."""
    out = []
    for v in g.vertices:
        m = out_multiplicity(g, v)
        if m == 0 or m is INF or v in g.declared_singular:
            out.append(v)
    return out


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Split vertices into regular/singular and extract the finite blocks."""
    singular = singular_vertices(g)
    sset = set(singular)
    regular = [v for v in g.vertices if v not in sset]
    # Block (0 for B, 1 for C) and column of each target vertex; each
    # regular vertex gets one row dict per block, filled from its out-edges.
    col = {v: (0, k) for k, v in enumerate(regular)}
    col.update((v, (1, k)) for k, v in enumerate(singular))
    b_rows, c_rows = [], []
    for v in regular:
        row = {}, {}
        for w in g._out[g._index[v]]:
            m = g._edges[(v, w)]
            assert m is not INF, "regular vertex with an infinite edge"
            block, k = col[w]
            row[block][k] = m
        b_rows.append(row[0])
        c_rows.append(row[1])
    nr = len(regular)
    return BlockDecomposition(
        tuple(regular),
        tuple(singular),
        IntMatrix._of_rows(nr, nr, b_rows),
        IntMatrix._of_rows(nr, len(singular), c_rows),
    )


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
    for v in g.vertices:
        if v in g.declared_singular:
            continue
        out = g.out_edges(v)
        if len(out) == 1 and out[0][1] == 1:
            nxt[v] = out[0][0]
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
    for v in g.vertices:
        m = out_multiplicity(g, v)
        if m is INF:
            return False
        if v in g.declared_singular and m != 0:
            return False
    return True
