"""Tails: removing singular vertices without changing the invariants.

A tail replaces a singular vertex's out-edges by a chain of fresh
vertices that re-emit those edges one step at a time. With a finite
truncation the result is again a finite graph, and the K-groups are
those of the original graph at every tail length n >= 1: each chain edge
puts the only +1 in its row, so the tail is eliminated by unit pivots.
This demo prints the invariants at lengths 1 to 6, which is what
``truncation_scan`` checks: it returns None when every length keeps the
original K-groups, and otherwise the first length that does not.

Run:  python3 demos/03_tails_and_truncation.py
"""

from graphkt import (
    Graph,
    INF,
    desingularize,
    emit_graph,
    group_format,
    k_groups,
    truncation_scan,
)

g = Graph(["w", "v"], {("w", "w"): 1, ("v", "w"): INF})
base = k_groups(g)
print("original graph: loop at w, infinitely many edges v -> w")
print(f"  K0 = {group_format(base.k0)}, K1 = {group_format(base.k1)}\n")

print("tail length n vs invariants of the desingularized graph:")
for n in range(1, 7):
    r = k_groups(desingularize(g, n))
    print(f"  n = {n}:  K0 = {group_format(r.k0):<6} K1 = {group_format(r.k1)}")

print(f"\nscan verdict: {truncation_scan(g)}\n")

print("the desingularized graph at n = 2, in canonical form:")
print(emit_graph(desingularize(g, 2)))

# different target orderings can give non-isomorphic graphs, but both
# keep the original invariants
g2 = Graph(["v", "a", "b"], {("v", "a"): INF, ("v", "b"): INF})
base2 = k_groups(g2)
print("two target orderings at an infinite emitter:")
print(f"  original K0 = {group_format(base2.k0)}, K1 = {group_format(base2.k1)}")
print(f"  default  -> scan verdict {truncation_scan(g2)}")
print(f"  permuted -> scan verdict {truncation_scan(g2, orderings={'v': ['b', 'a']})}")
