"""Constructive weak-IASI labelings for the six graph products.

Each planner takes the vertex map its product's builder returned, no product
graph, and each factor it reads with its pattern: the vertices a weak IASI
of it makes non-singleton, all the proofs read of a factor labeling. The
vertex map is the one record of the product's layout; the rooted planner
reads the root from it. A planner checks only that each pattern is an
independent set of its factor's vertices, as every weak IASI's is, and
records the product vertices the constructive proof makes non-singleton as a
LabelPlan, independent in the product: by proof for the direct,
lexicographic, corona and rooted patterns. Cartesian and strong requests
clash only within one g1 row, between adjacent layers, so those planners
keep a greedy independent set of g2's layers in each row and demote (and
flag) the rest. Concrete sets are then filled in by assign_concrete_sets:
vertex v takes x_v, the v-th term of the Erdos-Turan Sidon set
2pk + (k^2 mod p) with p the least prime >= the vertex count (linear time,
below 2p^2; mian_chowla keeps the greedy Sidon sequence as a reference), as
{x_v, x_v + 1} if the plan makes it non-singleton and {x_v} otherwise. Any
independent plan then gives a weak IASI:

  * vertex labels differ, since their least elements x_v do;
  * every edge has a singleton end u, so it is labelled {x_u + x_v} when
    mono and {x_u + x_w, x_u + x_w + 1} at a non-singleton w, and the weak
    condition holds;
  * equal edge labels have equal least elements, so equal pair sums, and
    the Sidon property then makes the two edges one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graph_core import (
    cartesian_product,
    corona,
    direct_product,
    is_bipartite,
    is_vertex,
    lexicographic_product,
    rooted_product,
    strong_product,
)
from .set_label import IntegerSet, Labeling, verify_weak_iasi
from .sparing import DEFAULT_ORACLE_BOUND, sparing_exact


class PlanError(ValueError):
    """A pattern or plan names vertices outside its graph or is not independent."""


class LabelPlan(NamedTuple):
    """Singleton / non-singleton designation for every vertex of a graph.

    demoted records vertices the source procedure wanted non-singleton but
    that had to fall back to singleton to keep the set independent.
    """

    non_singleton: frozenset
    provenance: str
    demoted: frozenset = frozenset()

    def to_json_dict(self):
        d = {
            "non_singleton": sorted(self.non_singleton),
            "provenance": self.provenance,
        }
        if self.demoted:
            d["demoted"] = sorted(self.demoted)
        return d


def _independent(g, vertices, who):
    """vertices as a set, once shown to be an independent set of g's vertices."""
    listed = tuple(vertices)  # an iterator is read once; set() would merge True into 1
    if not all(is_vertex(v, g.n) for v in listed):
        raise PlanError(f"{who} names vertices outside the graph")
    vertices = set(listed)
    if any(u in vertices and v in vertices for u, v in g.edges):
        raise PlanError(f"{who}'s non-singleton set is not independent")
    return vertices


def _greedy(g, order):
    """Greedy independent set of g: each vertex of order, in turn, is kept
    unless a neighbour already is."""
    adj, kept = g.adjacency(), set()
    for v in order:
        if not adj[v] & kept:
            kept.add(v)
    return kept


def _row_plan(vmap, g2, classes, provenance):
    """Plan of (rows, layers) classes whose requests clash only between
    adjacent layers of one row: each row keeps _greedy(g2, layers) and
    demotes the rest, as a product-wide greedy taking layers in order would."""
    kept, demoted = set(), set()
    for rows, layers in classes:
        keep = _greedy(g2, layers)
        for j in layers:
            (kept if j in keep else demoted).update(vmap.forward(i, j) for i in rows)
    return LabelPlan(frozenset(kept), provenance, frozenset(demoted))


def plan_cartesian(vmap, g1, s1, g2):
    """Layered pattern for g1 [] g2.

    The product is n2 copies of g1, one per g2-vertex. Copies fall into
    two alternating classes: one class repeats g1's pattern s1, the other
    inverts it, except that vertices matching an endpoint of a mono edge of
    g1 (neither end in s1) stay singleton. When g2 is bipartite the classes
    are its two sides (the even/odd alternation along a path, generalized);
    otherwise index parity is used. A class requests an independent set
    of g1 rows, disjoint from the other's, so requests clash only within
    a row, between adjacent layers: each row keeps a greedy independent
    set of g2 over its class's layers and demotes the rest.
    """
    s1 = _independent(g1, s1, "first factor")
    mono_ends = {x for e in g1.edges if e[0] not in s1 and e[1] not in s1 for x in e}
    bip = is_bipartite(g2)
    odd = set(bip.sides[1]) if bip.is_bipartite else set(range(1, g2.n, 2))
    rows = (s1, set(range(g1.n)) - s1 - mono_ends)
    layers = ([j for j in range(g2.n) if j not in odd], sorted(odd))
    return _row_plan(vmap, g2, zip(rows, layers), "cartesian")


def plan_direct(vmap, g1, s1, g2):
    """Every g1-copy of the direct product repeats g1's pattern s1.

    Independent: (i, j) ~ (i', j') needs i ~ i', and s1 is.
    """
    s1 = _independent(g1, s1, "first factor")
    desired = {vmap.forward(i, j) for i in s1 for j in range(g2.n)}
    return LabelPlan(frozenset(desired), "direct")


def plan_strong(vmap, g1, s1, g2):
    """Copy-by-copy pattern for g1 [x] g2.

    Every copy requests g1's pattern s1. Strong-product edges also join
    diagonal neighbours, but s1 is independent, so requests clash only
    within a row, between adjacent copies: each row keeps a greedy
    independent set of g2 in ascending copy order and demotes the rest.
    """
    s1 = _independent(g1, s1, "first factor")
    return _row_plan(vmap, g2, [(s1, range(g2.n))], "strong")


def plan_lexicographic(vmap, g1, g2, s2):
    """Host an independent family of g1-vertices with g2's pattern s2.

    In g1 o g2 every vertex of a copy is adjacent to all vertices of the
    copies at g1-neighbors, so only copies hosted on an independent set of
    g1 can carry non-singletons; all other copies are fully singleton.
    Hosts are chosen greedily in ascending g1-vertex order.
    Independent: hosts are, and within a host copy s2 is.
    """
    s2 = _independent(g2, s2, "second factor")
    desired = {vmap.forward(u, j) for u in _greedy(g1, range(g1.n)) for j in s2}
    return LabelPlan(frozenset(desired), "lexicographic")


def plan_corona(vmap, g1, s1, g2, s2):
    """Corona pattern: g1 keeps its pattern s1; copies attached to g1-vertices
    outside s1 carry g2's pattern s2; copies attached to vertices in s1 are
    fully singleton (1-uniform). Independent: s1 and s2 are, and a
    patterned copy's g1-vertex is singleton."""
    s1 = _independent(g1, s1, "first factor")
    s2 = _independent(g2, s2, "second factor")
    desired = set(s1)
    for i in range(g1.n):
        if i not in s1:
            desired.update(vmap.copy_vertex(i, j) for j in s2)
    return LabelPlan(frozenset(desired), "corona")


def plan_rooted(vmap, g1, s1, g2, s2):
    """Rooted-product pattern around the root vmap.root.

    Copy i carries g2's pattern s2, except at its root, which copy_vertex
    maps to the merged vertex i: that vertex also follows s1, so it is
    non-singleton only when both s1 and s2 hold it. Independent: merged
    vertices follow s1 and copies s2, and a merged vertex needs both.
    """
    s1 = _independent(g1, s1, "first factor")
    s2 = _independent(g2, s2, "second factor")
    desired = {vmap.copy_vertex(i, v) for i in range(g1.n) for v in s2
               if v != vmap.root or i in s1}
    return LabelPlan(frozenset(desired), "rooted")


class ProductOp(NamedTuple):
    """A product's builder, build(g1, g2, root) -> (product, vmap), its
    planner, plan(vmap, g1, s1, g2, s2) -> LabelPlan, which reads the vmap
    build returned and no product, and the factors (1, 2) whose patterns
    plan reads, in the order --labels and --labels2 give them.
    Only a rooted op's build uses root; its vmap records it for plan."""

    build: object
    plan: object
    reads: tuple
    rooted: bool = False


# The lambdas look builders and planners up by module-global name at each
# call, so a wrapper later installed on those names sees every call.
PRODUCT_OPS = {
    "cartesian": ProductOp(
        lambda g1, g2, r: cartesian_product(g1, g2),
        lambda vm, g1, s1, g2, s2: plan_cartesian(vm, g1, s1, g2), (1,)),
    "direct": ProductOp(
        lambda g1, g2, r: direct_product(g1, g2),
        lambda vm, g1, s1, g2, s2: plan_direct(vm, g1, s1, g2), (1,)),
    "strong": ProductOp(
        lambda g1, g2, r: strong_product(g1, g2),
        lambda vm, g1, s1, g2, s2: plan_strong(vm, g1, s1, g2), (1,)),
    "lex": ProductOp(
        lambda g1, g2, r: lexicographic_product(g1, g2),
        lambda vm, g1, s1, g2, s2: plan_lexicographic(vm, g1, g2, s2), (2,)),
    "corona": ProductOp(
        lambda g1, g2, r: corona(g1, g2),
        lambda vm, g1, s1, g2, s2: plan_corona(vm, g1, s1, g2, s2), (1, 2)),
    "rooted": ProductOp(
        lambda g1, g2, r: rooted_product(g1, g2, r),
        lambda vm, g1, s1, g2, s2: plan_rooted(vm, g1, s1, g2, s2), (1, 2),
        rooted=True),
}


# ---------------------------------------------------------------------------
# Concrete set assignment.

def mian_chowla(count):
    """First `count` terms of the Mian-Chowla Sidon sequence (1, 2, 5, ...).

    Greedy: each term is the smallest integer keeping all pairwise sums
    (including doubles) distinct; a candidate is dropped at its first
    colliding sum.
    """
    seq, sums = [1], {2}
    while len(seq) < count:
        candidate = seq[-1] + 1
        while True:
            new_sums = []
            for x in seq:
                s = candidate + x
                if s in sums:
                    break
                new_sums.append(s)
            else:
                # Sums with earlier terms are distinct from each other, and
                # the double 2 * candidate exceeds every sum already made.
                break
            candidate += 1
        seq.append(candidate)
        sums.update(new_sums)
        sums.add(2 * candidate)
    return seq[:count]


def _erdos_turan(count):
    """Erdos-Turan Sidon set: 2pk + (k^2 mod p) for k < count, with p the
    least prime >= max(count, 2). Increasing, and below 2p^2.

    Equal pair sums force equal k-sums (each residue is below p) and then
    equal k^2-sums mod p, so the two pairs are the roots of one quadratic
    mod p and coincide (p = 2 only arises for at most two terms).
    """
    p = max(count, 2)
    while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += 1
    return [2 * p * k + k * k % p for k in range(count)]


def assign_concrete_sets(g, plan):
    """Turn a plan into an actual labeling that passes verify_weak_iasi.

    Vertex v takes {x_v, x_v + 1} when the plan makes it non-singleton and
    {x_v} otherwise, with x_v = _erdos_turan(g.n)[v]. Labels differ in x_v;
    a mono edge uv is labelled {x_u + x_v} and an edge from a singleton u to
    a non-singleton w {x_u + x_w, x_u + x_w + 1}, so equal edge labels force
    equal pair sums, and the Sidon property then forces the same edge.
    """
    non_singleton = _independent(g, plan.non_singleton, "plan")
    return Labeling(g, [IntegerSet((x, x + 1) if v in non_singleton else (x,))
                        for v, x in enumerate(_erdos_turan(g.n))])


def build_labeling(g, plan):
    """assign_concrete_sets plus a verification pass; returns (labeling, report)."""
    labeling = assign_concrete_sets(g, plan)
    return labeling, verify_weak_iasi(g, labeling)


def optimal_labeling(g, oracle_bound=DEFAULT_ORACLE_BOUND):
    """Weak IASI realizing the exact sparing number.

    Runs the exact oracle, turns its witness into a plan, and assigns
    concrete sets; the resulting labeling has exactly sparing(g) mono
    edges.
    """
    result = sparing_exact(g, oracle_bound)
    plan = LabelPlan(frozenset(result.witness), "oracle-witness")
    return assign_concrete_sets(g, plan)
