"""Tour of the graph model: multiplicities, singular vertices, the stacked map.

Run:  python3 demos/01_graphs_and_blocks.py
"""

from graphkt import (
    block_decomposition,
    condition_l,
    is_row_finite,
    out_multiplicity,
    parse_graph,
    singular_vertices,
)

TEXT = """\
# a loop vertex, an infinite emitter and a sink
edge w w 2
edge v w inf
edge v u
vertex s
"""

g = parse_graph(TEXT)
print("vertices:", " ".join(g.vertices))
for v in g.vertices:
    print(f"  out-multiplicity of {v}: {out_multiplicity(g, v)}")

print("\nsingular vertices:", singular_vertices(g))
print("row-finite:", is_row_finite(g))

dec = block_decomposition(g)
print("\nregular part:", dec.regular)
print("singular part:", dec.singular)
# one column per regular vertex; rows are the regular then the singular
# vertices, each entry the edge count from column to row, less 1 on the diagonal
print("stacked map (B^t - I over C^t):", dec.stacked.to_rows())

holds, witness = condition_l(g)
print("\nevery cycle has an exit:", holds)

# a cycle with no exit: one vertex chasing its own tail
bad = parse_graph("edge a b\nedge b a")
holds, witness = condition_l(bad)
print("two-cycle with no exit detected:", not holds, "witness:", witness)
