"""Simple undirected graphs, the six product constructions, and helpers.

Vertices are always 0..n-1. Edges are stored once, normalized (u < v),
deduplicated and sorted in one tuple made when the graph is built: every
reader (products, verifier, JSON, DOT) walks it without sorting again, and
membership bisects it. Graphs and the other records here are immutable
tuples, and every operation here is a pure function.

Product vertex numbering is fixed row-major: the pair (i, j) of factor
vertices becomes product vertex i * n2 + j. Corona and rooted products use
their own vertex maps because their vertex sets are not full grids.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_left
from collections import Counter, deque
from itertools import chain, islice
from operator import eq
from typing import NamedTuple


class GraphError(ValueError):
    """Malformed graph input (bad endpoints, self-loops, isolated vertices)."""


def is_vertex(v, n):
    """The one vertex-id rule: v is an int in 0..n-1. True and 1.0 equal
    the id 1, and bool is a subclass of int, but neither is a vertex."""
    return type(v) is int and 0 <= v < n


def short_repr(value):
    """repr(value), cut to 40 characters: a message echoes at most that
    much of an input, however long the input is."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _unique_keys(pairs):
    """A JSON object as a dict; a repeated key would silently drop a value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"duplicate key {key[:40]!r}")
    return obj


def parse_json(text, error, context):
    """json.loads(text), raising error(context + reason) on bad JSON, on a
    repeated key in any object and on nesting too deep to parse.

    The hook's (key, value) tuples would set off cyclic collections, though
    parsed JSON holds no cycles, so the collector is paused for the parse.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise error(f"{context}{exc}")
    finally:
        if collecting:
            gc.enable()


class _GraphFields(NamedTuple):
    n: int
    edges: tuple


class Graph(_GraphFields):
    """Simple finite undirected graph on vertices 0..n-1.

    edges is the one stored form of the edge set: its normalized pairs
    (u, v), u < v, once each in a sorted tuple. So graphs with one edge set
    are equal and hash equal, whatever order or repeats their input had.
    """

    __slots__ = ()

    def __new__(cls, n, edges=(), allow_isolated=False):
        # bool is a subclass of int, so JSON true would pass isinstance.
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex count must be a non-negative integer, got {short_repr(n)}")
        norm = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"edge {short_repr(e)} is not a pair of vertices") from None
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"edge {short_repr(e)} has a non-integer endpoint")
            # is_vertex, inlined: this loop runs on every edge of every load and product.
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            if u < v:
                norm.append((u, v))
            elif v < u:
                norm.append((v, u))
            else:
                raise GraphError(f"self-loop at vertex {u}")
        if not allow_isolated:
            touched = set(chain.from_iterable(norm))
            if len(touched) < n:
                # Name ten at most: a tiny input can declare a huge n.
                first = list(islice((v for v in range(n) if v not in touched), 10))
                raise GraphError(
                    f"{n - len(touched)} of {n} vertices are isolated "
                    f"(first: {first}); pass allow_isolated=True to accept"
                )
        # Timsort is linear on the sorted runs that products and this
        # package's JSON arrive as. Sorted, a repeat sits next to its twin.
        norm.sort()
        if any(map(eq, norm, islice(norm, 1, None))):
            norm = sorted(set(norm))
        return super().__new__(cls, n, tuple(norm))

    def __getnewargs__(self):
        # Copies and unpickling rebuild through __new__; keep accepted isolated vertices.
        return self.n, self.edges, True

    @classmethod
    def _make(cls, iterable):
        # _replace builds through here too, so both validate and normalize.
        return cls(*iterable, allow_isolated=True)

    @property
    def m(self):
        return len(self.edges)

    def sorted_edges(self):
        """A fresh list of the edges in ascending order."""
        return list(self.edges)

    def has_edge(self, u, v):
        if not (is_vertex(u, self.n) and is_vertex(v, self.n)):
            return False
        e = (u, v) if u < v else (v, u)
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e

    def adjacency(self):
        """Neighbor sets for all vertices, computed in one pass."""
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def induced_subgraph(self, vertices):
        """Induced subgraph on the given vertices, relabeled 0..k-1.

        Returns (subgraph, old_id_by_new_id). Vertex order follows the
        sorted order of `vertices`.
        """
        verts = list(vertices)
        for v in verts:
            if not is_vertex(v, self.n):
                raise GraphError(f"induced vertex {v!r} is not a vertex id in 0..{self.n - 1}")
        verts = sorted(set(verts))
        index = {v: i for i, v in enumerate(verts)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        return Graph(len(verts), edges, allow_isolated=True), verts

    def is_connected(self):
        if self.n == 0:
            return True
        if self.m < self.n - 1:
            # Too few edges to span: answer before adjacency() makes n sets.
            return False
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def to_json_dict(self):
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d, allow_isolated=False):
        try:
            n, edges = d["n"], d["edges"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad graph JSON: {exc}")
        if not isinstance(edges, list):
            raise GraphError("bad graph JSON: edges must be a list")
        return cls(n, edges, allow_isolated=allow_isolated)

    @classmethod
    def from_json(cls, text, allow_isolated=False):
        return cls.from_json_dict(parse_json(text, GraphError, "bad graph JSON: "),
                                  allow_isolated=allow_isolated)


# ---------------------------------------------------------------------------
# Named small graphs used throughout the test families.

def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], allow_isolated=(n == 1))


def cycle_graph(n):
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(
        n,
        [(i, j) for i in range(n) for j in range(i + 1, n)],
        allow_isolated=(n == 1),
    )


def star_graph(leaves):
    """Star K_{1,leaves}: center 0 joined to each leaf."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def single_vertex():
    return Graph(1, [], allow_isolated=True)


# ---------------------------------------------------------------------------
# Vertex maps for products.

class ProductVertexMap(NamedTuple):
    """Row-major bijection (i, j) <-> i * n2 + j for grid-style products."""

    n1: int
    n2: int

    def forward(self, i, j):
        if not (is_vertex(i, self.n1) and is_vertex(j, self.n2)):
            raise GraphError(f"({i},{j}) outside {self.n1}x{self.n2} grid")
        return i * self.n2 + j

    def inverse(self, pid):
        if not is_vertex(pid, self.n1 * self.n2):
            raise GraphError(f"product vertex {pid} out of range")
        return divmod(pid, self.n2)

    def to_json_dict(self):
        return {"kind": "grid", "n1": self.n1, "n2": self.n2,
                "order": "row-major (i, j) -> i * n2 + j"}


class CoronaVertexMap(NamedTuple):
    """Vertex layout of a corona: g1 keeps ids 0..p1-1, copy i of g2 follows."""

    p1: int
    p2: int

    def copy_vertex(self, i, j):
        """Product id of vertex j in the i-th copy of g2."""
        if not (is_vertex(i, self.p1) and is_vertex(j, self.p2)):
            raise GraphError(f"copy vertex ({i},{j}) out of range")
        return self.p1 + i * self.p2 + j

    def copy_vertices(self, i):
        """Product ids of the i-th copy of g2, as a range: vertex j at index j."""
        if not is_vertex(i, self.p1):
            raise GraphError(f"copy vertex ({i},0) out of range")
        return range(self.p1 + i * self.p2, self.p1 + (i + 1) * self.p2)

    def to_json_dict(self):
        return {"kind": "corona", "p1": self.p1, "p2": self.p2,
                "copies": {str(i): list(self.copy_vertices(i)) for i in range(self.p1)}}


class RootedVertexMap(NamedTuple):
    """Vertex layout of a rooted product.

    Merged vertices (g1 vertex i fused with the root of copy i) keep the
    ids 0..n1-1. The non-root vertices of copy i, in ascending g2-vertex
    order with the root skipped, occupy a contiguous block after that.
    """

    n1: int
    n2: int
    root: int

    def merged_vertex(self, i):
        if not is_vertex(i, self.n1):
            raise GraphError(f"g1 vertex {i} out of range")
        return i

    def copy_vertex(self, i, v):
        """Product id of g2-vertex v inside copy i (v may be the root)."""
        if not is_vertex(self.root, self.n2):
            raise GraphError(f"root {self.root} is not a vertex of the rooted factor")
        if not (is_vertex(i, self.n1) and is_vertex(v, self.n2)):
            raise GraphError(f"copy vertex ({i},{v}) out of range")
        if v == self.root:
            return i
        offset = v if v < self.root else v - 1
        return self.n1 + i * (self.n2 - 1) + offset

    def copy_vertices(self, i):
        """Product ids of copy i of g2, as a list: g2-vertex v at index v."""
        if not is_vertex(self.root, self.n2):
            raise GraphError(f"root {self.root} is not a vertex of the rooted factor")
        if not is_vertex(i, self.n1):
            raise GraphError(f"copy vertex ({i},0) out of range")
        start = self.n1 + i * (self.n2 - 1)
        ids = list(range(start, start + self.n2 - 1))
        ids.insert(self.root, i)
        return ids

    def to_json_dict(self):
        return {"kind": "rooted", "n1": self.n1, "n2": self.n2, "root": self.root,
                "copies": {str(i): self.copy_vertices(i) for i in range(self.n1)}}


# ---------------------------------------------------------------------------
# Products.

def _require_nonempty(g1, g2):
    if g1.n == 0 or g2.n == 0:
        raise GraphError("product factors must be nonempty")


def _grid_product(g1, g2, edges):
    return Graph(g1.n * g2.n, edges, allow_isolated=True), ProductVertexMap(g1.n, g2.n)


def _cartesian_edges(g1, g2):
    n2 = g2.n
    edges = [(i * n2 + u, i * n2 + v) for i in range(g1.n) for u, v in g2.edges]
    edges += [(u * n2 + j, v * n2 + j) for j in range(n2) for u, v in g1.edges]
    return edges


def _direct_edges(g1, g2):
    n2 = g2.n
    e1, e2 = g1.edges, g2.edges
    edges = [(u1 * n2 + u2, v1 * n2 + v2) for u1, v1 in e1 for u2, v2 in e2]
    edges += [(u1 * n2 + v2, v1 * n2 + u2) for u1, v1 in e1 for u2, v2 in e2]
    return edges


def cartesian_product(g1, g2):
    """Cartesian product: (u1,u2) ~ (v1,v2) iff equal in one coordinate and
    adjacent in the other."""
    _require_nonempty(g1, g2)
    return _grid_product(g1, g2, _cartesian_edges(g1, g2))


def direct_product(g1, g2):
    """Direct (tensor) product: adjacent iff adjacent in both coordinates."""
    _require_nonempty(g1, g2)
    return _grid_product(g1, g2, _direct_edges(g1, g2))


def strong_product(g1, g2):
    """Strong product: union of the Cartesian and direct product edge sets."""
    _require_nonempty(g1, g2)
    return _grid_product(g1, g2, _cartesian_edges(g1, g2) + _direct_edges(g1, g2))


def lexicographic_product(g1, g2):
    """Lexicographic product g1 o g2: adjacent iff adjacent in g1, or equal
    in g1 and adjacent in g2. Not symmetric in its arguments."""
    _require_nonempty(g1, g2)
    n2 = g2.n
    edges = [(u * n2 + j, v * n2 + k)
             for u, v in g1.edges for j in range(n2) for k in range(n2)]
    edges += [(i * n2 + u, i * n2 + v) for i in range(g1.n) for u, v in g2.edges]
    return _grid_product(g1, g2, edges)


def corona(g1, g2):
    """Corona g1 (.) g2: one copy of g2 per g1 vertex, joined to that vertex."""
    _require_nonempty(g1, g2)
    vmap = CoronaVertexMap(g1.n, g2.n)
    edges = list(g1.edges)
    for i in range(g1.n):
        ids = vmap.copy_vertices(i)
        edges.extend((ids[u], ids[v]) for u, v in g2.edges)
        edges.extend((i, x) for x in ids)
    return Graph(g1.n * (1 + g2.n), edges, allow_isolated=True), vmap


def rooted_product(g1, g2, root):
    """Rooted product: one copy of g2 per g1 vertex, roots identified."""
    _require_nonempty(g1, g2)
    if not is_vertex(root, g2.n):
        raise GraphError(f"root {root} is not a vertex of the rooted factor")
    vmap = RootedVertexMap(g1.n, g2.n, root)
    edges = list(g1.edges)
    for i in range(g1.n):
        ids = vmap.copy_vertices(i)
        edges.extend((ids[u], ids[v]) for u, v in g2.edges)
    n = g1.n + g1.n * (g2.n - 1)
    return Graph(n, edges, allow_isolated=True), vmap


def disjoint_union(g1, g2):
    """Disjoint union; g2's vertex ids are shifted up by g1.n."""
    edges = list(g1.edges)
    edges.extend((u + g1.n, v + g1.n) for u, v in g2.edges)
    return Graph(g1.n + g2.n, edges, allow_isolated=True)


def restrict_to_layer(product, vmap, factor, index):
    """Induced subgraph on one layer of a grid product.

    factor=1 keeps {(i, index) : i}, so the layer is a copy of the first
    factor; factor=2 keeps {(index, j) : j}. Returns (layer graph, list of
    product vertex ids in layer-vertex order). For Cartesian products the
    layer is the corresponding factor on the nose. index is a vertex of the
    other factor: vmap.forward raises GraphError when it is not, as it does
    for any id outside the grid. Corona and rooted products have no layers
    and raise GraphError.
    """
    if not isinstance(vmap, ProductVertexMap):
        raise GraphError(f"{type(vmap).__name__} has no layers; grid products only")
    if factor == 1:
        ids = [vmap.forward(i, index) for i in range(vmap.n1)]
    elif factor == 2:
        ids = [vmap.forward(index, j) for j in range(vmap.n2)]
    else:
        raise GraphError("factor must be 1 or 2")
    return product.induced_subgraph(ids)


# ---------------------------------------------------------------------------
# Bipartiteness.

class BipartiteResult(NamedTuple):
    """Either a two-coloring (sides) or an odd-cycle certificate."""

    is_bipartite: bool
    sides: tuple = None      # (tuple_of_side0, tuple_of_side1)
    odd_cycle: tuple = None  # vertex sequence of an odd closed walk


def is_bipartite(g):
    """BFS two-coloring; on failure returns an explicit odd cycle."""
    color = [-1] * g.n
    parent = [-1] * g.n
    adj = g.adjacency()
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    return BipartiteResult(False, odd_cycle=_odd_cycle(parent, v, w))
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    return BipartiteResult(True, sides=(side0, side1))


def _odd_cycle(parent, u, v):
    """Close the cycle through the BFS-tree paths of the clashing edge uv."""
    pu, pv = [u], [v]
    while parent[pu[-1]] != -1:
        pu.append(parent[pu[-1]])
    while parent[pv[-1]] != -1:
        pv.append(parent[pv[-1]])
    sv = set(pv)
    meet = next(x for x in pu if x in sv)
    cu = pu[: pu.index(meet) + 1]
    cv = pv[: pv.index(meet)]
    return tuple(cu + cv[::-1])
