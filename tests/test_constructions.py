import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sparing import graphs

from weakiasi.cli import sweep_families
from weakiasi.constructions import (
    PRODUCT_OPS,
    LabelPlan,
    PlanError,
    _erdos_turan,
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
    is_bipartite,
    lexicographic_product,
    path_graph,
    rooted_product,
    star_graph,
    strong_product,
)
from weakiasi.set_label import (
    mono_indexed_stats,
    verify_weak_iasi,
)
from weakiasi.sparing import sparing_exact, sparing_formula_corona

FAMILIES = {
    "P2": path_graph(2), "P3": path_graph(3), "P4": path_graph(4),
    "C3": cycle_graph(3), "C4": cycle_graph(4), "C5": cycle_graph(5),
    "K2": complete_graph(2), "K3": complete_graph(3), "K4": complete_graph(4),
    "S3": star_graph(3),
}


def witness(g, bound=None):
    """The pattern of an optimal weak IASI of g: the oracle's witness."""
    return frozenset(sparing_exact(g, bound).witness)


def assert_independent(g, vertices):
    for u, v in itertools.combinations(sorted(vertices), 2):
        assert not g.has_edge(u, v)


def random_independent_set(g, rng):
    """Each vertex, in shuffled order, joins with probability 1/2 when no
    neighbour has joined yet."""
    adj = g.adjacency()
    order = list(range(g.n))
    rng.shuffle(order)
    chosen = set()
    for v in order:
        if rng.random() < 0.5 and not adj[v] & chosen:
            chosen.add(v)
    return chosen


def is_sidon(values):
    sums = [a + b for a, b in itertools.combinations_with_replacement(values, 2)]
    return len(sums) == len(set(sums))


def naive_mian_chowla(count):
    """The greedy from its definition: try each candidate's full sum set."""
    seq, sums = [], set()
    candidate = 1
    while len(seq) < count:
        new_sums = {candidate + x for x in seq + [candidate]}
        if len(new_sums) == len(seq) + 1 and not new_sums & sums:
            seq.append(candidate)
            sums |= new_sums
        candidate += 1
    return seq


class TestMianChowla:
    def test_known_prefix(self):
        assert mian_chowla(8) == [1, 2, 4, 8, 13, 21, 31, 45]

    def test_sidon_property(self):
        seq = mian_chowla(20)
        sums = [a + b for a, b in itertools.combinations_with_replacement(seq, 2)]
        assert len(sums) == len(set(sums))

    def test_matches_naive_reference(self):
        assert mian_chowla(120) == naive_mian_chowla(120)


class TestAssignConcreteSets:
    def test_empty_plan_gives_one_uniform_labeling(self):
        g = complete_graph(5)
        lab = assign_concrete_sets(g, LabelPlan(frozenset(), "test"))
        assert verify_weak_iasi(g, lab).passed
        assert all(lab[v].is_singleton() for v in range(5))

    def test_c4_alternating_plan(self):
        g = cycle_graph(4)
        lab = assign_concrete_sets(g, LabelPlan(frozenset({1, 3}), "test"))
        rep = verify_weak_iasi(g, lab)
        assert rep.passed and rep.mono_edge_count == 0

    def test_k4_single_vertex_plan(self):
        g = complete_graph(4)
        lab = assign_concrete_sets(g, LabelPlan(frozenset({0}), "test"))
        rep = verify_weak_iasi(g, lab)
        assert rep.passed and rep.mono_edge_count == 3

    def test_rejects_dependent_plan(self):
        g = path_graph(2)
        with pytest.raises(PlanError):
            assign_concrete_sets(g, LabelPlan(frozenset({0, 1}), "test"))

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 128, 400])
    def test_singleton_values_form_a_sidon_set(self, count):
        g = Graph(count, [], allow_isolated=True)
        lab = assign_concrete_sets(g, LabelPlan(frozenset(), "test"))
        values = [lab[v].elements[0] for v in range(count)]
        assert values == sorted(set(values))
        assert is_sidon(values)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(graphs(), st.randoms(use_true_random=False))
    def test_random_independent_plans_verify(self, g, rng):
        plan = random_independent_set(g, rng)
        lab, rep = build_labeling(g, LabelPlan(frozenset(plan), "test"))
        assert rep.passed
        assert lab.non_singleton_vertices() == plan
        assert rep.mono_edge_count == sum(1 for e in g.edges if not set(e) & plan)
        least = [lab[v].elements[0] for v in range(g.n)]
        assert least == _erdos_turan(g.n)
        assert all(lab[v].elements == (least[v], least[v] + 1) for v in plan)
        assert is_sidon(least)


class TestPlanCartesian:
    def test_p2_box_p2_alternates(self):
        g1 = path_graph(2)
        prod, vmap = cartesian_product(g1, path_graph(2))
        plan = plan_cartesian(prod, vmap, g1, {1}, path_graph(2))
        lab, rep = build_labeling(prod, plan)
        assert rep.passed and rep.mono_edge_count == 0

    def test_mono_edge_endpoints_stay_singleton_in_inverted_layers(self):
        g1 = complete_graph(3)
        g2 = path_graph(2)
        prod, vmap = cartesian_product(g1, g2)
        plan = plan_cartesian(prod, vmap, g1, {2}, g2)  # mono edge (0,1)
        # layer j=1 is inverted, but the mono-edge endpoints 0 and 1 stay singleton
        assert vmap.forward(0, 1) not in plan.non_singleton
        assert vmap.forward(1, 1) not in plan.non_singleton
        _, rep = build_labeling(prod, plan)
        assert rep.passed

    @pytest.mark.parametrize("pattern, message", [
        ({0, 1}, "first factor's non-singleton set is not independent"),
        ({2}, "first factor names vertices outside the graph"),
    ], ids=["dependent", "outside"])
    def test_rejects_a_pattern_no_weak_iasi_has(self, pattern, message):
        g1 = path_graph(2)
        prod, vmap = cartesian_product(g1, path_graph(2))
        with pytest.raises(PlanError, match=message):
            plan_cartesian(prod, vmap, g1, pattern, path_graph(2))

    def test_bipartite_factors_yield_zero_mono_edges(self):
        bipartite = [FAMILIES[k] for k in ("P2", "P3", "P4", "C4", "K2", "S3")]
        for g1, g2 in itertools.product(bipartite, repeat=2):
            prod, vmap = cartesian_product(g1, g2)
            assert is_bipartite(prod).is_bipartite
            plan = plan_cartesian(prod, vmap, g1, witness(g1), g2)
            _, rep = build_labeling(prod, plan)
            assert rep.passed and rep.mono_edge_count == 0


class TestPlanDirect:
    def test_k2_pattern_repeats_per_copy(self):
        g1 = complete_graph(2)
        prod, vmap = direct_product(g1, complete_graph(2))
        plan = plan_direct(prod, vmap, g1, {1}, complete_graph(2))
        assert plan.non_singleton == {vmap.forward(1, 0), vmap.forward(1, 1)}
        _, rep = build_labeling(prod, plan)
        assert rep.passed

    def test_c3_times_k2(self):
        g1 = cycle_graph(3)
        prod, vmap = direct_product(g1, complete_graph(2))
        plan = plan_direct(prod, vmap, g1, witness(g1), complete_graph(2))
        assert len(plan.non_singleton) == 2
        assert_independent(prod, plan.non_singleton)
        _, rep = build_labeling(prod, plan)
        assert rep.passed

    def test_all_singleton_factor_gives_one_uniform_plan(self):
        g1 = path_graph(3)
        prod, vmap = direct_product(g1, path_graph(2))
        plan = plan_direct(prod, vmap, g1, set(), path_graph(2))
        assert plan.non_singleton == frozenset()


class TestPlanStrong:
    def test_k2_strong_k2_has_one_non_singleton(self):
        g1 = complete_graph(2)
        prod, vmap = strong_product(g1, complete_graph(2))
        plan = plan_strong(prod, vmap, g1, {1}, complete_graph(2))
        assert len(plan.non_singleton) == 1
        _, rep = build_labeling(prod, plan)
        assert rep.passed and rep.mono_edge_count == 3

    def test_p3_strong_k2(self):
        g1 = path_graph(3)
        prod, vmap = strong_product(g1, complete_graph(2))
        plan = plan_strong(prod, vmap, g1, witness(g1), complete_graph(2))
        assert_independent(prod, plan.non_singleton)
        _, rep = build_labeling(prod, plan)
        assert rep.passed


class TestPlanLexicographic:
    def test_k2_lex_k2(self):
        g2 = complete_graph(2)
        prod, vmap = lexicographic_product(complete_graph(2), g2)
        plan = plan_lexicographic(prod, vmap, complete_graph(2), g2, {1})
        assert len(plan.non_singleton) == 1
        _, rep = build_labeling(prod, plan)
        assert rep.passed and rep.mono_edge_count == sparing_exact(prod).value

    def test_p3_hosts_are_path_ends(self):
        g1, g2 = path_graph(3), complete_graph(2)
        prod, vmap = lexicographic_product(g1, g2)
        plan = plan_lexicographic(prod, vmap, g1, g2, {1})
        copies = {vmap.inverse(v)[0] for v in plan.non_singleton}
        assert copies == {0, 2}
        _, rep = build_labeling(prod, plan)
        assert rep.passed


class TestPlanCorona:
    def test_copies_follow_anchor_type(self):
        g1, g2 = cycle_graph(4), complete_graph(2)
        s1, s2 = witness(g1), witness(g2)
        prod, vmap = corona(g1, g2)
        plan = plan_corona(prod, vmap, g1, s1, g2, s2)
        for i in range(g1.n):
            copy = set(vmap.copy_vertices(i))
            if i not in s1:
                assert len(copy & plan.non_singleton) == 1
            else:
                assert not (copy & plan.non_singleton)
        _, rep = build_labeling(prod, plan)
        assert rep.passed

    def test_construction_cost_identity_against_the_formula(self):
        # The construction's true cost decomposes as
        #   e1 + r1*e2 + r1*r2 + (n1-r1)*m2
        # (factor mono edges, pattern-copy internals, mono anchor edges,
        # 1-uniform copies), so it differs from the formula by exactly
        # e1 + r1*e2 - r1. The cost always upper-bounds the oracle.
        for g1, g2 in itertools.product(FAMILIES.values(), repeat=2):
            l1, l2 = optimal_labeling(g1), optimal_labeling(g2)
            prod, vmap = corona(g1, g2)
            plan = plan_corona(prod, vmap, g1, l1.non_singleton_vertices(), g2,
                               l2.non_singleton_vertices())
            _, rep = build_labeling(prod, plan)
            assert rep.passed
            r1, _, e1_edges = mono_indexed_stats(g1, l1)
            r2, e2, _ = mono_indexed_stats(g2, l2)
            e1 = len(e1_edges)
            formula = sparing_formula_corona(g1.n, g2.m, r1, r2)
            assert rep.mono_edge_count == formula + e1 + r1 * e2 - r1
            if prod.n <= 32:
                assert sparing_exact(prod, 32).value <= rep.mono_edge_count

    def test_one_uniform_first_factor(self):
        g1, g2 = path_graph(2), complete_graph(2)
        prod, vmap = corona(g1, g2)
        plan = plan_corona(prod, vmap, g1, set(), g2, {1})  # 1-uniform g1: r1 = n1
        assert len(plan.non_singleton) == 2  # one per copy
        _, rep = build_labeling(prod, plan)
        assert rep.passed


class TestPlanRooted:
    def test_k2_rooted_k2(self):
        g = complete_graph(2)
        for root in (0, 1):
            prod, vmap = rooted_product(g, g, root)
            plan = plan_rooted(prod, vmap, g, {1}, g, {1}, root)
            lab, rep = build_labeling(prod, plan)
            assert rep.passed

    def test_merged_vertex_demotes_over_singleton_root(self):
        g = complete_graph(2)
        # s1 makes vertex 0 non-singleton, but the copy root (vertex 0 of g2)
        # is singleton, so the merged vertex falls back to singleton.
        prod, vmap = rooted_product(g, g, 0)
        plan = plan_rooted(prod, vmap, g, {0}, g, {1}, 0)
        assert vmap.merged_vertex(0) not in plan.non_singleton

    def test_c3_rooted_p2(self):
        g1, g2 = cycle_graph(3), path_graph(2)
        prod, vmap = rooted_product(g1, g2, 0)
        plan = plan_rooted(prod, vmap, g1, witness(g1), g2, witness(g2), 0)
        assert_independent(prod, plan.non_singleton)
        _, rep = build_labeling(prod, plan)
        assert rep.passed


class TestFullPlannerSweep:
    def test_every_planner_on_every_ordered_pair(self):
        for g1, g2 in itertools.product(FAMILIES.values(), repeat=2):
            s1, s2 = witness(g1), witness(g2)
            cart, tens = cartesian_product(g1, g2), direct_product(g1, g2)
            strong, lex = strong_product(g1, g2), lexicographic_product(g1, g2)
            cor, rooted = corona(g1, g2), rooted_product(g1, g2, 0)
            plans = [
                (cart[0], plan_cartesian(*cart, g1, s1, g2)),
                (tens[0], plan_direct(*tens, g1, s1, g2)),
                (strong[0], plan_strong(*strong, g1, s1, g2)),
                (lex[0], plan_lexicographic(*lex, g1, g2, s2)),
                (cor[0], plan_corona(*cor, g1, s1, g2, s2)),
                (rooted[0], plan_rooted(*rooted, g1, s1, g2, s2, 0)),
            ]
            for prod, plan in plans:
                assert_independent(prod, plan.non_singleton)
                lab, rep = build_labeling(prod, plan)
                assert rep.passed, (plan.provenance, rep.violations)


# SHA-256 over plan.to_json_dict() of every op on every ordered pair of the
# sweep families (the patterns of optimal factor labelings, root 0), taken
# while each planner still built its own product and read whole labelings.
SWEEP_GRID_PLANS_SHA256 = "c6edf1151bc782a9c3ca01a636a1a8a545cc972ffe0e234aaa762559aaa3e462"


class TestPlanPin:
    def test_sweep_grid_plans_are_pinned(self):
        families = sweep_families()
        optimal = {name: witness(g, 24) for name, g in families.items()}
        plans = []
        for (name1, g1), (name2, g2) in itertools.product(families.items(), repeat=2):
            for op, spec in PRODUCT_OPS.items():
                product, vmap = spec.build(g1, g2, 0)
                plan = spec.plan(product, vmap, g1, optimal[name1], g2, optimal[name2], 0)
                plans.append([name1, name2, op, plan.to_json_dict()])
        digest = hashlib.sha256(json.dumps(plans).encode()).hexdigest()
        assert digest == SWEEP_GRID_PLANS_SHA256


factors = graphs(max_n=6).filter(lambda g: g.n >= 1)


class TestEveryOpOnRandomFactors:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(factors, factors, st.randoms(use_true_random=False))
    def test_plans_are_independent_and_verify(self, g1, g2, rng):
        s1, s2 = (random_independent_set(g, rng) for g in (g1, g2))
        root = rng.randrange(g2.n)
        for op, spec in PRODUCT_OPS.items():
            product, vmap = spec.build(g1, g2, root)
            plan = spec.plan(product, vmap, g1, s1, g2, s2, root)
            assert_independent(product, plan.non_singleton)
            if op in ("direct", "lex", "corona", "rooted"):
                assert plan.demoted == frozenset(), op  # independent by proof
            _, rep = build_labeling(product, plan)
            assert rep.passed, (op, rep.violations)


class TestOptimalLabeling:
    def test_mono_count_matches_oracle_value(self):
        for g in FAMILIES.values():
            res = sparing_exact(g)
            lab = optimal_labeling(g)
            _, mono, _ = mono_indexed_stats(g, lab)
            assert mono == res.value
            assert verify_weak_iasi(g, lab).passed
