"""Constructive weak-IASI labelings for the six graph products.

Each planner takes the product graph and vertex map its builder returned,
then the factors it reads, and decides which product vertices get
non-singleton labels, following the corresponding constructive proof; the
decisions are recorded as a LabelPlan whose non-singleton set is
independent in the product: by proof for the direct, lexicographic,
corona and rooted patterns, and by demoting (and flagging) conflicts in the
Cartesian and strong planners. Concrete sets are then filled in by
assign_concrete_sets, which guarantees the injectivity conditions for any
independent plan:

  * singleton values form a Sidon set (all pairwise sums, doubles
    included, are distinct), so singleton-singleton edge sums are pairwise
    distinct. Nothing else about the values is used, so any Sidon set of
    non-negative integers serves; the Erdos-Turan set 2pk + (k^2 mod p),
    with p the least prime >= the singleton count, is built in linear time
    and stays below 2p^2 (mian_chowla keeps the greedy sequence as a
    reference);
  * each non-singleton vertex gets a block of two consecutive integers
    above all singleton pairwise sums, with gaps wide enough that shifted
    blocks from different vertices can never coincide.
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
from .set_label import IntegerSet, LabelError, Labeling, verify_weak_iasi


class PlanError(ValueError):
    """Planner input is not a verified weak IASI, or the plan is unusable."""


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


def _require_weak(g, labeling, who):
    report = verify_weak_iasi(g, labeling)
    if not report.passed:
        raise PlanError(f"{who} labeling is not a weak IASI: {report.violations}")
    return report


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


def plan_cartesian(product, vmap, g1, l1, g2):
    """Layered pattern for g1 [] g2.

    The product is n2 copies of g1, one per g2-vertex. Copies fall into
    two alternating classes: one class repeats g1's singleton/non-singleton
    pattern, the other inverts it, except that vertices matching an
    endpoint of a mono-indexed edge of g1 stay singleton. When g2 is
    bipartite the classes are its two sides (the even/odd alternation
    along a path, generalized); otherwise index parity is used and the
    unavoidable conflicts between adjacent same-class copies are demoted
    greedily.
    """
    mono_ends = {x for edge in _require_weak(g1, l1, "first factor").mono_edges
                 for x in edge}
    bip = is_bipartite(g2)
    if bip.is_bipartite:
        side1 = set(bip.sides[1])
        layer_class = [1 if j in side1 else 0 for j in range(g2.n)]
    else:
        layer_class = [j % 2 for j in range(g2.n)]
    non_singleton1 = l1.non_singleton_vertices()
    desired = set()
    for j in range(g2.n):
        for i in range(g1.n):
            if layer_class[j] == 0:
                want = i in non_singleton1
            else:
                want = i not in non_singleton1 and i not in mono_ends
            if want:
                desired.add(vmap.forward(i, j))
    return _greedy_independent(product, sorted(desired), "cartesian")


def plan_direct(product, vmap, g1, l1, g2):
    """Every g1-copy of the direct product repeats g1's pattern.

    Independent: (i, j) ~ (i', j') needs i ~ i', and l1's pattern is.
    """
    _require_weak(g1, l1, "first factor")
    non_singleton1 = l1.non_singleton_vertices()
    desired = {
        vmap.forward(i, j) for i in non_singleton1 for j in range(g2.n)
    }
    return LabelPlan(frozenset(desired), "direct")


def plan_strong(product, vmap, g1, l1, g2):
    """Copy-by-copy pattern for g1 [x] g2.

    Copy 0 inherits g1's pattern; later copies request the same pattern and
    keep a vertex non-singleton only while it stays independent of already
    planned copies (strong-product edges also join diagonal neighbors, so
    copies adjacent in g2 usually demote most requests).
    """
    _require_weak(g1, l1, "first factor")
    non_singleton1 = sorted(l1.non_singleton_vertices())
    # Ascending copy order, then ascending g1-vertex order within a copy.
    candidates = [vmap.forward(i, j) for j in range(g2.n) for i in non_singleton1]
    return _greedy_independent(product, candidates, "strong")


def plan_lexicographic(product, vmap, g1, g2, l2):
    """Host an independent family of g1-vertices with g2's pattern.

    In g1 o g2 every vertex of a copy is adjacent to all vertices of the
    copies at g1-neighbors, so only copies hosted on an independent set of
    g1 can carry non-singletons; all other copies are fully singleton.
    Hosts are chosen greedily in ascending g1-vertex order.
    Independent: hosts are, and within a host copy l2's pattern is.
    """
    _require_weak(g2, l2, "second factor")
    adj1 = g1.adjacency()
    hosts = set()
    for u in range(g1.n):
        if not (adj1[u] & hosts):
            hosts.add(u)
    non_singleton2 = l2.non_singleton_vertices()
    desired = {vmap.forward(u, j) for u in hosts for j in non_singleton2}
    return LabelPlan(frozenset(desired), "lexicographic")


def plan_corona(product, vmap, g1, l1, g2, l2):
    """Corona pattern: g1 keeps l1's pattern; copies attached to mono
    g1-vertices carry l2's pattern; copies attached to non-singleton
    g1-vertices are fully singleton (1-uniform). Independent: l1's and l2's
    patterns are, and a patterned copy's g1-vertex is singleton."""
    _require_weak(g1, l1, "first factor")
    _require_weak(g2, l2, "second factor")
    desired = set(l1.non_singleton_vertices())
    non_singleton2 = l2.non_singleton_vertices()
    for i in range(g1.n):
        if l1[i].is_singleton():
            desired.update(vmap.copy_vertex(i, j) for j in non_singleton2)
    return LabelPlan(frozenset(desired), "corona")


def plan_rooted(product, vmap, g1, l1, g2, l2, root):
    """Rooted-product pattern.

    Copy i carries l2's pattern. The merged vertex takes l1's designation,
    except that a non-singleton l1 designation over a singleton copy root
    falls back to the root's singleton: the merged vertex is non-singleton
    only when both l1 and l2's root say so. Independent: merged vertices
    follow l1 and copies l2, and a merged vertex needs both to agree.
    """
    _require_weak(g1, l1, "first factor")
    _require_weak(g2, l2, "second factor")
    root_non_singleton = not l2[root].is_singleton()
    non_singleton2 = l2.non_singleton_vertices() - {root}
    desired = set()
    for i in range(g1.n):
        if not l1[i].is_singleton() and root_non_singleton:
            desired.add(vmap.merged_vertex(i))
        desired.update(vmap.copy_vertex(i, v) for v in non_singleton2)
    return LabelPlan(frozenset(desired), "rooted")


class ProductOp(NamedTuple):
    """A product's builder, build(g1, g2, root) -> (product, vmap), its
    planner, plan(product, vmap, g1, l1, g2, l2, root) -> LabelPlan, which
    plans on the pair build returned, and the factors (1, 2) whose
    labelings plan reads, in the order --labels and --labels2 give them.
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
        lambda p, vm, g1, l1, g2, l2, r: plan_cartesian(p, vm, g1, l1, g2), (1,)),
    "direct": ProductOp(
        lambda g1, g2, r: direct_product(g1, g2),
        lambda p, vm, g1, l1, g2, l2, r: plan_direct(p, vm, g1, l1, g2), (1,)),
    "strong": ProductOp(
        lambda g1, g2, r: strong_product(g1, g2),
        lambda p, vm, g1, l1, g2, l2, r: plan_strong(p, vm, g1, l1, g2), (1,)),
    "lex": ProductOp(
        lambda g1, g2, r: lexicographic_product(g1, g2),
        lambda p, vm, g1, l1, g2, l2, r: plan_lexicographic(p, vm, g1, g2, l2), (2,)),
    "corona": ProductOp(
        lambda g1, g2, r: corona(g1, g2),
        lambda p, vm, g1, l1, g2, l2, r: plan_corona(p, vm, g1, l1, g2, l2), (1, 2)),
    "rooted": ProductOp(
        lambda g1, g2, r: rooted_product(g1, g2, r),
        lambda p, vm, g1, l1, g2, l2, r: plan_rooted(p, vm, g1, l1, g2, l2, r), (1, 2),
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

    Singletons take the Erdos-Turan Sidon values in ascending vertex order;
    each non-singleton vertex gets its own two-element block of consecutive
    integers above every singleton pairwise sum, blocks spaced so that
    singleton-shifted copies of different blocks stay disjoint.
    """
    non_singleton = set(plan.non_singleton)
    if any(not 0 <= v < g.n for v in non_singleton):
        raise PlanError("plan names vertices outside the graph")
    if any(u in non_singleton and v in non_singleton for u, v in g.edges):
        raise PlanError("plan's non-singleton set is not independent")

    singles = [v for v in range(g.n) if v not in non_singleton]
    sidon = _erdos_turan(len(singles))
    labels = {v: IntegerSet([x]) for v, x in zip(singles, sidon)}

    max_single = sidon[-1] if singles else 0
    base = 2 * max_single + 1  # above every singleton pairwise sum
    stride = base + 3          # shifted blocks of distinct vertices disjoint
    for k, v in enumerate(sorted(non_singleton)):
        offset = base + k * stride
        labels[v] = IntegerSet((offset, offset + 1))
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
