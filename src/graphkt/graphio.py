"""Reading and writing the line-oriented .graph format and matrix files.

Graph files are a small keyword DSL:

    graph <name>          optional, purely informational
    vertex <id>           declare a vertex (order of declaration matters)
    edge <src> <dst> [m]  m is a positive integer or "inf"; omitted means 1
    singular <id>         mark a declared vertex as singular
    # ...                 comment, to end of line

Vertices are auto-declared on first mention in edge lines. Repeated edge
lines for the same pair accumulate, absorbing to "inf". Emission is
canonical (vertices, then edges in source/target vertex order, then
singular marks), so emit(parse(emit(g))) == emit(g) byte for byte.

Matrix files have a first line "rows cols" and then one line of integers
per row. parse_matrix rejects a declared side above MATRIX_CAP from the
first line alone, so the library and `graphkt snf` share one bound.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .graphs import INF, VERTEX_ID, Graph
from .intlinalg import IntMatrix

_NUM = re.compile(r"[0-9]+\Z")
_INT = re.compile(r"-?[0-9]+\Z")

HEADER = "# directed multigraph"

# Largest matrix side parse_matrix accepts.
MATRIX_CAP = 2000


def _check_id(tok: str, ln: int) -> str:
    if not VERTEX_ID.match(tok):
        raise ParseError(ln, f"invalid vertex id: {tok!r}")
    return tok


def parse_graph(text: str) -> Graph:
    """Parse DSL text into a Graph; rejects bad lines with their number."""
    vertices: list[str] = []
    seen: set[str] = set()
    edges: dict = {}
    declared: list[str] = []

    def declare(tok: str, ln: int) -> None:
        _check_id(tok, ln)
        if tok not in seen:
            seen.add(tok)
            vertices.append(tok)

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "graph":
            if len(parts) != 2:
                raise ParseError(ln, "graph takes exactly one name")
        elif kw == "vertex":
            if len(parts) != 2:
                raise ParseError(ln, "vertex takes exactly one id")
            declare(parts[1], ln)
        elif kw == "edge":
            if len(parts) not in (3, 4):
                raise ParseError(
                    ln, "edge takes source, target and an optional multiplicity"
                )
            src, dst = parts[1], parts[2]
            mult = 1
            if len(parts) == 4:
                tok = parts[3]
                if tok == "inf":
                    mult = INF
                elif _NUM.match(tok):
                    mult = int(tok)
                    if mult == 0:
                        raise ParseError(
                            ln, "multiplicity 0 is not allowed (omit the edge instead)"
                        )
                else:
                    raise ParseError(ln, f"malformed multiplicity: {tok!r}")
            declare(src, ln)
            declare(dst, ln)
            edges[(src, dst)] = edges.get((src, dst), 0) + mult
        elif kw == "singular":
            if len(parts) != 2:
                raise ParseError(ln, "singular takes exactly one id")
            tok = parts[1]
            if tok not in seen:
                raise ParseError(ln, f"singular names undeclared vertex {tok!r}")
            if tok not in declared:
                declared.append(tok)
        else:
            raise ParseError(ln, f"unknown keyword: {kw!r}")
    return Graph(vertices, edges, declared)


def emit_graph(g: Graph) -> str:
    """Canonical DSL text for g; parse(emit_graph(g)) reproduces g exactly."""
    lines = [HEADER]
    for v in g.vertices:
        lines.append(f"vertex {v}")
    for src in g.vertices:
        for dst, m in g.out_edges(src):
            if m is INF:
                lines.append(f"edge {src} {dst} inf")
            elif m == 1:
                lines.append(f"edge {src} {dst}")
            else:
                lines.append(f"edge {src} {dst} {m}")
    for v in g.vertices:
        if v in g.declared_singular:
            lines.append(f"singular {v}")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntMatrix:
    """Parse a matrix file: first line "rows cols", then that many rows of
    space-separated integers. Blank lines are ignored, so a matrix with no
    columns has no row lines. A side above MATRIX_CAP is rejected before
    any row is read or built (an R x 0 file needs no row lines)."""
    lines = [(i, l.strip()) for i, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if not lines:
        raise ParseError(1, "empty matrix file")
    ln0, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or not all(_NUM.match(p) for p in parts):
        raise ParseError(ln0, "first line must be 'rows cols'")
    rows, cols = int(parts[0]), int(parts[1])
    if max(rows, cols) > MATRIX_CAP:
        raise ValueError(f"matrix must be at most {MATRIX_CAP} x {MATRIX_CAP}, got {rows} x {cols}")
    body = lines[1:]
    if cols == 0 and not body:
        return IntMatrix(rows, 0, ())
    if len(body) != rows:
        raise ParseError(ln0, f"expected {rows} matrix rows, got {len(body)}")
    data = []
    for ln, line in body:
        toks = line.split()
        if len(toks) != cols:
            raise ParseError(ln, f"expected {cols} entries, got {len(toks)}")
        for tok in toks:
            if not _INT.match(tok):
                raise ParseError(ln, f"malformed integer: {tok!r}")
        data.append([int(t) for t in toks])
    return IntMatrix.from_rows(data, cols=cols)
