#!/usr/bin/env python3
"""Tour of the six graph products and their vertex maps.

Builds each product of two small factors, prints the vertex/edge counts
against the closed-form expectations, and shows how to read coordinates
back out of a product vertex id.
"""

from weakiasi import (
    cartesian_product,
    complete_graph,
    corona,
    cycle_graph,
    direct_product,
    is_bipartite,
    lexicographic_product,
    path_graph,
    restrict_to_layer,
    rooted_product,
    strong_product,
)

p3 = path_graph(3)
c4 = cycle_graph(4)
k2 = complete_graph(2)

print("Factors: P3 (3 vertices, 2 edges), C4 (4 vertices, 4 edges), K2\n")

g, vmap = cartesian_product(p3, c4)
print(f"P3 [] C4 : n={g.n} (=3*4), m={g.m} (=n1*m2+n2*m1 = 3*4+4*2 = 20)")
print(f"  product vertex 7 is the coordinate pair {vmap.inverse(7)}")

layer, ids = restrict_to_layer(g, vmap, 1, 2)
print(f"  layer j=2 has edges {layer.sorted_edges()} -- a copy of P3")

g, _ = direct_product(p3, c4)
print(f"P3 x  C4 : n={g.n}, m={g.m} (=2*m1*m2 = 2*2*4 = 16), "
      f"connected={g.is_connected()}")

g, _ = strong_product(p3, c4)
cart, _ = cartesian_product(p3, c4)
tens, _ = direct_product(p3, c4)
print(f"P3 [x] C4: n={g.n}, m={g.m} = {cart.m} (Cartesian) + {tens.m} (direct)")

g, _ = lexicographic_product(p3, k2)
print(f"P3 o  K2 : n={g.n}, m={g.m} (=n2^2*m1+n1*m2 = 4*2+3*1 = 11)")

g, cmap = corona(c4, k2)
print(f"C4 (.) K2: n={g.n} (=p1(1+p2)), m={g.m} (=q1+p1*q2+p1*p2 = 4+4+8)")
print(f"  copy attached to cycle vertex 1 occupies vertices {list(cmap.copy_vertices(1))}")

g, rmap = rooted_product(c4, p3, root=1)
print(f"C4 or P3 : n={g.n} (=n1+n1(n2-1) = 4+8); cycle vertex 2 merged with "
      f"the root of copy 2 at id {rmap.merged_vertex(2)}")

res = is_bipartite(cartesian_product(c4, k2)[0])
print(f"\nC4 [] K2 bipartite? {res.is_bipartite}, sides of sizes "
      f"{[len(s) for s in res.sides]}")
res = is_bipartite(cycle_graph(5))
print(f"C5 bipartite? {res.is_bipartite}, odd-cycle certificate {res.odd_cycle}")
