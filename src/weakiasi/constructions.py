"""Constructive weak-IASI labelings for the six graph products.

Each planner takes the product graph and vertex map its builder returned,
then each factor it reads with its pattern: the vertices a weak IASI of it
makes non-singleton, all that the proofs read of a factor labeling. It
checks only that each pattern is an independent set of its factor's
vertices, as every weak IASI's is, and decides which product vertices get
non-singleton labels, following the corresponding constructive proof; the
decisions are recorded as a LabelPlan whose non-singleton set is
independent in the product: by proof for the direct, lexicographic,
corona and rooted patterns, and by demoting (and flagging) conflicts in the
Cartesian and strong planners. Concrete sets are then filled in by
assign_concrete_sets: vertex v takes x_v, the v-th term of the Erdos-Turan
Sidon set 2pk + (k^2 mod p) with p the least prime >= the vertex count
(linear time, below 2p^2; mian_chowla keeps the greedy Sidon sequence as a
reference), as {x_v, x_v + 1} if the plan makes it non-singleton and {x_v}
otherwise. Any independent plan then gives a weak IASI:

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
    lexicographic_product,
    rooted_product,
    strong_product,
)
from .set_label import IntegerSet, Labeling, verify_weak_iasi


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
    vertices = set(vertices)
    if any(not 0 <= v < g.n for v in vertices):
        raise PlanError(f"{who} names vertices outside the graph")
    if any(u in vertices and v in vertices for u, v in g.edges):
        raise PlanError(f"{who}'s non-singleton set is not independent")
    return vertices


def _greedy_independent(g, candidates, provenance):
    """Keep candidates in the given priority order, demoting conflicts."""
    adj = g.adjacency()
    kept = set()
    demoted = set()
    for v in candidates:
        if adj[v] & kept:
            demoted.add(v)
        else:
            kept.add(v)
    return LabelPlan(frozenset(kept), provenance, frozenset(demoted))


def plan_cartesian(product, vmap, g1, s1, g2):
    """Layered pattern for g1 [] g2.

    The product is n2 copies of g1, one per g2-vertex. Copies fall into
    two alternating classes: one class repeats g1's pattern s1, the other
    inverts it, except that vertices matching an endpoint of a mono edge of
    g1 (neither end in s1) stay singleton. When g2 is bipartite the classes
    are its two sides (the even/odd alternation along a path, generalized);
    otherwise index parity is used and the unavoidable conflicts between
    adjacent same-class copies are demoted greedily.
    """
    s1 = _independent(g1, s1, "first factor")
    mono_ends = {x for e in g1.edges if e[0] not in s1 and e[1] not in s1 for x in e}
    bip = is_bipartite(g2)
    if bip.is_bipartite:
        side1 = set(bip.sides[1])
        layer_class = [1 if j in side1 else 0 for j in range(g2.n)]
    else:
        layer_class = [j % 2 for j in range(g2.n)]
    desired = set()
    for j in range(g2.n):
        for i in range(g1.n):
            if layer_class[j] == 0:
                want = i in s1
            else:
                want = i not in s1 and i not in mono_ends
            if want:
                desired.add(vmap.forward(i, j))
    return _greedy_independent(product, sorted(desired), "cartesian")


def plan_direct(product, vmap, g1, s1, g2):
    """Every g1-copy of the direct product repeats g1's pattern s1.

    Independent: (i, j) ~ (i', j') needs i ~ i', and s1 is.
    """
    s1 = _independent(g1, s1, "first factor")
    desired = {vmap.forward(i, j) for i in s1 for j in range(g2.n)}
    return LabelPlan(frozenset(desired), "direct")


def plan_strong(product, vmap, g1, s1, g2):
    """Copy-by-copy pattern for g1 [x] g2.

    Copy 0 inherits g1's pattern s1; later copies request the same pattern
    and keep a vertex non-singleton only while it stays independent of
    already planned copies (strong-product edges also join diagonal
    neighbors, so copies adjacent in g2 usually demote most requests).
    """
    non_singleton1 = sorted(_independent(g1, s1, "first factor"))
    # Ascending copy order, then ascending g1-vertex order within a copy.
    candidates = [vmap.forward(i, j) for j in range(g2.n) for i in non_singleton1]
    return _greedy_independent(product, candidates, "strong")


def plan_lexicographic(product, vmap, g1, g2, s2):
    """Host an independent family of g1-vertices with g2's pattern s2.

    In g1 o g2 every vertex of a copy is adjacent to all vertices of the
    copies at g1-neighbors, so only copies hosted on an independent set of
    g1 can carry non-singletons; all other copies are fully singleton.
    Hosts are chosen greedily in ascending g1-vertex order.
    Independent: hosts are, and within a host copy s2 is.
    """
    s2 = _independent(g2, s2, "second factor")
    hosts = _greedy_independent(g1, range(g1.n), "hosts").non_singleton
    desired = {vmap.forward(u, j) for u in hosts for j in s2}
    return LabelPlan(frozenset(desired), "lexicographic")


def plan_corona(product, vmap, g1, s1, g2, s2):
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


def plan_rooted(product, vmap, g1, s1, g2, s2, root):
    """Rooted-product pattern.

    Copy i carries g2's pattern s2. The merged vertex follows s1, except
    that a merged vertex in s1 over a root outside s2 falls back to the
    root's singleton: the merged vertex is non-singleton only when both s1
    and s2 hold it. Independent: merged vertices follow s1 and copies s2,
    and a merged vertex needs both to agree.
    """
    s1 = _independent(g1, s1, "first factor")
    s2 = _independent(g2, s2, "second factor")
    root_non_singleton = root in s2
    non_singleton2 = s2 - {root}
    desired = set()
    for i in range(g1.n):
        if i in s1 and root_non_singleton:
            desired.add(vmap.merged_vertex(i))
        desired.update(vmap.copy_vertex(i, v) for v in non_singleton2)
    return LabelPlan(frozenset(desired), "rooted")


class ProductOp(NamedTuple):
    """A product's builder, build(g1, g2, root) -> (product, vmap), its
    planner, plan(product, vmap, g1, s1, g2, s2, root) -> LabelPlan, which
    plans on the pair build returned, and the factors (1, 2) whose patterns
    plan reads, in the order --labels and --labels2 give them.
    Only a rooted op uses root; the others ignore it."""

    build: object
    plan: object
    reads: tuple
    rooted: bool = False


# The lambdas look builders and planners up by module-global name at each
# call, so a wrapper later installed on those names sees every call.
PRODUCT_OPS = {
    "cartesian": ProductOp(
        lambda g1, g2, r: cartesian_product(g1, g2),
        lambda p, vm, g1, s1, g2, s2, r: plan_cartesian(p, vm, g1, s1, g2), (1,)),
    "direct": ProductOp(
        lambda g1, g2, r: direct_product(g1, g2),
        lambda p, vm, g1, s1, g2, s2, r: plan_direct(p, vm, g1, s1, g2), (1,)),
    "strong": ProductOp(
        lambda g1, g2, r: strong_product(g1, g2),
        lambda p, vm, g1, s1, g2, s2, r: plan_strong(p, vm, g1, s1, g2), (1,)),
    "lex": ProductOp(
        lambda g1, g2, r: lexicographic_product(g1, g2),
        lambda p, vm, g1, s1, g2, s2, r: plan_lexicographic(p, vm, g1, g2, s2), (2,)),
    "corona": ProductOp(
        lambda g1, g2, r: corona(g1, g2),
        lambda p, vm, g1, s1, g2, s2, r: plan_corona(p, vm, g1, s1, g2, s2), (1, 2)),
    "rooted": ProductOp(
        lambda g1, g2, r: rooted_product(g1, g2, r),
        lambda p, vm, g1, s1, g2, s2, r: plan_rooted(p, vm, g1, s1, g2, s2, r), (1, 2),
        rooted=True),
}


# ---------------------------------------------------------------------------
# Concrete set assignment.

_MIAN_CHOWLA_CACHE = [1]
_MIAN_CHOWLA_SUMS = {2}


def mian_chowla(count):
    """First `count` terms of the Mian-Chowla Sidon sequence (1, 2, 5, ...).

    Greedy: each term is the smallest integer keeping all pairwise sums
    (including doubles) distinct; a candidate is dropped at its first
    colliding sum. The cache is append-only.
    """
    seq, sums = _MIAN_CHOWLA_CACHE, _MIAN_CHOWLA_SUMS
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
    return list(seq[:count])


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
    labels = {v: IntegerSet((x, x + 1) if v in non_singleton else (x,))
              for v, x in enumerate(_erdos_turan(g.n))}
    return Labeling(g, labels)


def build_labeling(g, plan):
    """assign_concrete_sets plus a verification pass; returns (labeling, report)."""
    labeling = assign_concrete_sets(g, plan)
    return labeling, verify_weak_iasi(g, labeling)


def optimal_labeling(g, oracle_bound=None):
    """Weak IASI realizing the exact sparing number.

    Runs the exact oracle, turns its witness into a plan, and assigns
    concrete sets; the resulting labeling has exactly sparing(g) mono
    edges.
    """
    from .sparing import sparing_exact

    result = sparing_exact(g, oracle_bound)
    plan = LabelPlan(frozenset(result.witness), "oracle-witness")
    return assign_concrete_sets(g, plan)
