"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import itertools
import random
import time

import numpy as np
import pytest

from weakiasi.cli import run_sweep, sweep_families
from weakiasi.constructions import (
    LabelPlan,
    assign_concrete_sets,
    build_labeling,
    mian_chowla,
    optimal_labeling,
    plan_cartesian,
    plan_corona,
    plan_direct,
    plan_lexicographic,
    plan_rooted,
    plan_strong,
)
from weakiasi.graph_core import (
    Graph,
    cartesian_product,
    complete_graph,
    corona,
    cycle_graph,
    direct_product,
    disjoint_union,
    is_bipartite,
    lexicographic_product,
    restrict_to_layer,
    rooted_product,
    strong_product,
)
from weakiasi.set_label import (
    IntegerSet,
    Labeling,
    mono_indexed_stats,
    restrict_labeling,
    verify_iasi,
    verify_weak_iasi,
)
from weakiasi.sparing import (
    sparing_brute_force,
    sparing_exact,
    sparing_formula_corona,
    sparing_formula_cycle,
)

FAMILIES = sweep_families()


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def witness_is_valid(g, result):
    witness = set(result.witness)
    independent = not any(
        g.has_edge(u, v) for u, v in itertools.combinations(sorted(witness), 2))
    uncovered = sum(1 for e in g.edges if not (set(e) & witness))
    return independent and uncovered == result.value


def test_criterion_1_complete_graph_sparing():
    start = time.monotonic()
    ok = True
    for n in range(3, 10):
        res = sparing_exact(complete_graph(n))
        ok = ok and res.value == (n - 1) * (n - 2) // 2
        ok = ok and witness_is_valid(complete_graph(n), res)
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 5.0,
           f"K_n sparing equals (n-1)(n-2)/2 for n=3..9 in {elapsed:.2f}s")


def _random_connected_bipartite(rng, n):
    a = rng.randint(1, n - 1)
    left = list(range(a))
    right = list(range(a, n))
    edges = {(left[0], right[0])}
    # random spanning tree across the bipartition keeps it connected
    order = left[:1] + right[:1]
    rest = left[1:] + right[1:]
    rng.shuffle(rest)
    for v in rest:
        pool = [u for u in order if (u < a) != (v < a)]
        edges.add(tuple(sorted((v, rng.choice(pool)))))
        order.append(v)
    for u in left:
        for v in right:
            if rng.random() < 0.25:
                edges.add((u, v))
    return Graph(n, edges)


def test_criterion_2_bipartite_criterion():
    start = time.monotonic()
    rng = random.Random(20240917)
    ok = True
    for _ in range(200):
        g = _random_connected_bipartite(rng, rng.randint(2, 16))
        assert is_bipartite(g).is_bipartite
        res = sparing_exact(g)
        ok = ok and res.value == 0 and witness_is_valid(g, res)
    non_bipartite = [g for g in FAMILIES.values() if not is_bipartite(g).is_bipartite]
    for _ in range(20):  # odd-cycle graphs round out the non-bipartite side
        n = rng.randrange(5, 14, 2)
        non_bipartite.append(cycle_graph(n))
    for g in non_bipartite:
        ok = ok and sparing_exact(g).value >= 1
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 60.0,
           f"200 random connected bipartite graphs have sparing 0, "
           f"non-bipartite >= 1, in {elapsed:.2f}s")


def test_criterion_3_cycle_parity():
    ok = True
    for n in range(3, 13):
        g = cycle_graph(n)
        counts = set()
        for mask in range(1 << n):
            verts = [v for v in range(n) if mask >> v & 1]
            if any(g.has_edge(u, v) for u, v in itertools.combinations(verts, 2)):
                continue
            mono = sum(1 for e in g.edges if not (set(e) & set(verts)))
            ok = ok and mono == n - 2 * len(verts)
            ok = ok and mono % 2 == n % 2
            counts.add(mono)
        ok = ok and min(counts) == sparing_formula_cycle(n)
        ok = ok and sparing_exact(g).value == sparing_formula_cycle(n)
    report(3, ok, "all independent sets of C_3..C_12 give mono counts of the "
                  "cycle's parity; formula matches the oracle")


def test_criterion_4_union_additivity():
    ok = True
    for g1, g2 in itertools.product(FAMILIES.values(), repeat=2):
        whole = sparing_exact(disjoint_union(g1, g2), oracle_bound=32)
        parts = sparing_exact(g1).value + sparing_exact(g2).value
        ok = ok and whole.value == parts
    report(4, ok, "sparing of G1 u G2 is additive over all family pairs")


def _all_products(g1, s1, g2, s2):
    prod, vmap = cartesian_product(g1, g2)
    yield "cartesian", prod, plan_cartesian(vmap, g1, s1, g2)
    prod, vmap = direct_product(g1, g2)
    yield "direct", prod, plan_direct(vmap, g1, s1, g2)
    prod, vmap = strong_product(g1, g2)
    yield "strong", prod, plan_strong(vmap, g1, s1, g2)
    prod, vmap = lexicographic_product(g1, g2)
    yield "lex", prod, plan_lexicographic(vmap, g1, g2, s2)
    prod, vmap = corona(g1, g2)
    yield "corona", prod, plan_corona(vmap, g1, s1, g2, s2)
    prod, vmap = rooted_product(g1, g2, 0)
    yield "rooted", prod, plan_rooted(vmap, g1, s1, g2, s2)


def test_criterion_5_construction_validity_sweep():
    start = time.monotonic()
    # Each factor's pattern is an optimal weak IASI's: the oracle's witness.
    optimal = {name: sparing_exact(g).witness for name, g in FAMILIES.items()}
    total = failed = 0
    for (n1, g1), (n2, g2) in itertools.product(FAMILIES.items(), repeat=2):
        for op, prod, plan in _all_products(g1, optimal[n1], g2, optimal[n2]):
            _, rep = build_labeling(prod, plan)
            total += 1
            if not rep.passed:
                failed += 1
    elapsed = time.monotonic() - start
    report(5, failed == 0 and elapsed < 120.0,
           f"{total - failed}/{total} planner+assignment cases verify as weak "
           f"IASIs in {elapsed:.2f}s")


def test_criterion_6_corona_formula_bound_and_discrepancy():
    summary = run_sweep(oracle_bound=32)
    ok = True
    mismatches = []
    for row in summary["cases"]:
        if row["op"] != "corona":
            continue
        # soundness: the construction realizes an upper bound on the oracle
        if row["exact"] is not None:
            ok = ok and row["exact"] <= row["mono_edges"]
            if row["exact"] != row["formula"]:
                mismatches.append(f"{row['g1']} (.) {row['g2']}")
    # every formula/oracle mismatch must be surfaced by the sweep report
    reported = {d["case"] for d in summary["corona_discrepancies"]}
    ok = ok and set(mismatches) == reported
    # the anticipated strict gap: C4 (.) K2 formula 6 vs oracle 4
    gap = {d["case"]: d for d in summary["corona_discrepancies"]}.get("C4 (.) K2")
    ok = ok and gap is not None and gap["formula"] == 6 and gap["exact"] == 4
    report(6, ok,
           f"oracle <= construction cost on every pair; sweep reports all "
           f"{len(reported)} formula/oracle discrepancies incl. C4 (.) K2 "
           f"(formula 6 vs exact 4)")


def test_criterion_7_subgraph_heredity_on_layers():
    ok = True
    for g1, g2 in itertools.product(FAMILIES.values(), repeat=2):
        prod, vmap = cartesian_product(g1, g2)
        plan = plan_cartesian(vmap, g1, sparing_exact(g1).witness, g2)
        lab, rep = build_labeling(prod, plan)
        ok = ok and rep.passed
        for j in range(g2.n):
            layer, ids = restrict_to_layer(prod, vmap, 1, j)
            sub = restrict_labeling(lab, layer, ids)
            ok = ok and verify_weak_iasi(layer, sub).passed
        for i in range(g1.n):
            layer, ids = restrict_to_layer(prod, vmap, 2, i)
            sub = restrict_labeling(lab, layer, ids)
            ok = ok and verify_weak_iasi(layer, sub).passed
    report(7, ok, "every layer restriction of every swept Cartesian labeling "
                  "passes verify_weak_iasi")


def nonisomorphic_graphs(n):
    """All graphs on n vertices up to isomorphism, by brute-force canonization.

    Enumerates all 2^C(n,2) edge masks and keeps the minimum mask over all
    vertex permutations, vectorized over the whole mask range.
    """
    pairs = list(itertools.combinations(range(n), 2))
    idx = {p: k for k, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    canon = masks.copy()
    for perm in itertools.permutations(range(n)):
        dest = [idx[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        permuted = np.zeros_like(masks)
        for k, d in enumerate(dest):
            permuted |= ((masks >> k) & 1) << d
        np.minimum(canon, permuted, out=canon)
    graphs = []
    for mask in np.unique(canon):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        graphs.append(Graph(n, edges, allow_isolated=True))
    return graphs


def _characterization_holds(g, lab):
    weak = verify_weak_iasi(g, lab).passed
    iasi = verify_iasi(g, lab).passed
    ns = sorted(lab.non_singleton_vertices())
    independent = not any(g.has_edge(u, v)
                          for u, v in itertools.combinations(ns, 2))
    return weak == (iasi and independent)


def _mutated_labelings(g, lab, rng):
    """Failing variants: duplicated vertex label; adjacent non-singletons."""
    out = []
    if g.n >= 2:
        labels = dict(enumerate(lab.sets))
        labels[g.n - 1] = labels[0]
        out.append(Labeling(g, labels))
    if g.edges:
        u, v = min(g.edges)
        labels = dict(enumerate(lab.sets))
        labels[u] = IntegerSet([1000, 1001])
        labels[v] = IntegerSet([2000, 2002])
        out.append(Labeling(g, labels))
    # a couple of fully random labelings exercise both directions
    for _ in range(2):
        labels = {w: IntegerSet(rng.sample(range(1, 40), rng.randint(1, 3)))
                  for w in range(g.n)}
        out.append(Labeling(g, labels))
    return out


def test_criterion_8_structural_characterization():
    rng = random.Random(8)
    counts = {}
    ok = True
    checked = 0
    for n in range(1, 7):
        graphs = nonisomorphic_graphs(n)
        counts[n] = len(graphs)
        for g in graphs:
            passing = optimal_labeling(g)
            ok = ok and verify_weak_iasi(g, passing).passed
            for lab in [passing] + _mutated_labelings(g, passing, rng):
                ok = ok and _characterization_holds(g, lab)
                checked += 1
    # sanity-check the enumeration itself against the known census
    ok = ok and counts == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    report(8, ok,
           f"weak IASI <=> IASI + independent non-singletons on all "
           f"{sum(counts.values())} graphs with n <= 6 up to isomorphism "
           f"({counts[6]} at n=6), {checked} labelings checked")


def test_criterion_9_oracle_vs_dumb_oracle():
    start = time.monotonic()
    graphs = [g for g in FAMILIES.values() if g.n <= 8]
    for g1, g2 in itertools.combinations(FAMILIES.values(), 2):
        if g1.n + g2.n <= 8:
            graphs.append(disjoint_union(g1, g2))
    for g1, g2 in itertools.product(FAMILIES.values(), repeat=2):
        if g1.n * g2.n <= 8:
            for prod_fn in (cartesian_product, direct_product, strong_product,
                            lexicographic_product):
                graphs.append(prod_fn(g1, g2)[0])
    ok = True
    for g in graphs:
        fast = sparing_exact(g)
        slow = sparing_brute_force(g)
        ok = ok and fast.value == slow.value and fast.witness == slow.witness
    elapsed = time.monotonic() - start
    report(9, ok and elapsed < 60.0,
           f"branch-and-bound agrees with full subset enumeration on "
           f"{len(graphs)} graphs with n <= 8 in {elapsed:.2f}s")
