import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakiasi.constructions import LabelPlan, assign_concrete_sets
from weakiasi.graph_core import (
    Graph,
    cartesian_product,
    complete_graph,
    corona,
    cycle_graph,
    disjoint_union,
    is_bipartite,
    path_graph,
    rooted_product,
    star_graph,
)
from weakiasi.set_label import mono_indexed_stats, verify_weak_iasi
from weakiasi.sparing import (
    CapacityError,
    SparingError,
    cycle_parity_of,
    sparing_brute_force,
    sparing_exact,
    sparing_formula_complete,
    sparing_formula_corona,
    sparing_formula_cycle,
    sparing_union,
)

FAMILIES = [path_graph(2), path_graph(3), path_graph(4), cycle_graph(3),
            cycle_graph(4), cycle_graph(5), complete_graph(2),
            complete_graph(3), complete_graph(4), star_graph(3)]


def random_graph(rng, n, p=0.4):
    while True:
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        touched = {x for e in edges for x in e}
        if len(touched) == n:
            return Graph(n, edges)


@st.composite
def graphs(draw, max_n=14):
    """Graphs on 0..max_n vertices. Edges fall at random, at one of three
    densities, inside one to three interleaved vertex classes, so several
    components are common, and up to two chosen vertices stay isolated."""
    n = draw(st.integers(0, max_n))
    classes = draw(st.integers(1, 3))
    part = draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    isolated = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2 if n else 0))
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if part[u] == part[v] and not {u, v} & isolated]
    density = draw(st.sampled_from([0.2, 0.4, 0.7]))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [e for e in pairs if rng.random() < density],
                 allow_isolated=True)


def check_witness(g, result):
    witness = set(result.witness)
    for u, v in itertools.combinations(sorted(witness), 2):
        assert not g.has_edge(u, v), "witness must be independent"
    uncovered = [e for e in g.edges if not (set(e) & witness)]
    assert result.value == len(uncovered)


class TestExactOracle:
    def test_complete_graphs(self):
        for n in range(3, 8):
            res = sparing_exact(complete_graph(n))
            assert res.value == (n - 1) * (n - 2) // 2

    def test_bipartite_is_zero(self):
        for g in [cycle_graph(4), path_graph(4), star_graph(3)]:
            res = sparing_exact(g)
            assert res.value == 0
            check_witness(g, res)

    def test_c5(self):
        res = sparing_exact(cycle_graph(5))
        assert res.value == 1
        assert len(res.witness) == 2
        check_witness(cycle_graph(5), res)

    def test_capacity_error_names_bound(self):
        g = cycle_graph(10)
        with pytest.raises(CapacityError, match="5"):
            sparing_exact(g, oracle_bound=5)

    def test_agrees_with_brute_force_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 8))
            fast = sparing_exact(g)
            slow = sparing_brute_force(g)
            assert fast.value == slow.value
            assert fast.witness == slow.witness  # same lexicographic tie-break
            check_witness(g, fast)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(graphs())
    def test_agrees_with_brute_force_property(self, g):
        fast = sparing_exact(g)
        slow = sparing_brute_force(g)
        assert (fast.value, fast.witness) == (slow.value, slow.witness)

    @pytest.mark.parametrize("g, value", [(path_graph(40), 0), (cycle_graph(41), 1)])
    def test_long_path_and_odd_cycle(self, g, value):
        res = sparing_exact(g, oracle_bound=64)
        assert res.value == value
        assert res.witness == tuple(range(0, 40, 2))

    def test_node_count_on_long_path(self):
        # A node count guards the pruning bound on any hardware, where a
        # timing test could not; P40 needs 251 nodes.
        assert sparing_exact(path_graph(40), oracle_bound=64).nodes < 1000

    def test_node_count_is_not_serialized(self):
        res = sparing_exact(cycle_graph(5))
        assert res.nodes > 0
        assert "nodes" not in res.to_json_dict()

    def test_agrees_with_brute_force_on_families(self):
        for g in FAMILIES:
            fast, slow = sparing_exact(g), sparing_brute_force(g)
            assert (fast.value, fast.witness) == (slow.value, slow.witness)

    def test_monotone_under_edge_addition(self):
        rng = random.Random(3)
        for _ in range(15):
            g = random_graph(rng, 7)
            base = sparing_exact(g).value
            non_edges = [e for e in itertools.combinations(range(7), 2)
                         if e not in g.edges]
            if non_edges:
                e = rng.choice(non_edges)
                bigger = Graph(7, list(g.edges) + [e])
                assert sparing_exact(bigger).value >= base
            edge = rng.choice(sorted(g.edges))
            smaller = Graph(7, [e for e in g.edges if e != edge],
                            allow_isolated=True)
            assert sparing_exact(smaller).value <= base

    def test_witness_realizable_as_labeling(self):
        rng = random.Random(11)
        for _ in range(15):
            g = random_graph(rng, rng.randint(4, 9))
            res = sparing_exact(g)
            lab = assign_concrete_sets(g, LabelPlan(frozenset(res.witness), "test"))
            assert verify_weak_iasi(g, lab).passed
            _, mono, _ = mono_indexed_stats(g, lab)
            assert mono == res.value


@st.composite
def factor(draw, n):
    """A graph on n vertices with random edges; isolated vertices allowed."""
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k], allow_isolated=True)


@st.composite
def split_products(draw):
    """A corona or rooted product of random factors, at most 14 vertices."""
    if draw(st.booleans()):
        n1 = draw(st.integers(1, 4))
        n2 = draw(st.integers(1, 14 // n1 - 1))
        return corona(draw(factor(n1)), draw(factor(n2)))[0]
    n1 = draw(st.integers(1, 7))
    n2 = draw(st.integers(1, 14 // n1))
    root = draw(st.integers(0, n2 - 1))
    return rooted_product(draw(factor(n1)), draw(factor(n2)), root)[0]


def independent_sets(g):
    for size in range(g.n + 1):
        for verts in itertools.combinations(range(g.n), size):
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(verts, 2)):
                yield verts


def corona_sparing_identity(g1, g2):
    """phi(g1 (.) g2) = m1 + n1(m2 + n2) - n1*W2 - MWIS(g1, w), by brute force
    over the factors' independent sets. W2 is the best sum of deg2(v) + 1
    over an independent set of g2, and w_i = max(0, deg1(i) + n2 - W2)."""
    deg1 = [len(a) for a in g1.adjacency()]
    deg2 = [len(a) for a in g2.adjacency()]
    w2 = max(sum(deg2[v] + 1 for v in s) for s in independent_sets(g2))
    weight = [max(0, deg1[i] + g2.n - w2) for i in range(g1.n)]
    mwis = max(sum(weight[i] for i in s) for s in independent_sets(g1))
    return g1.m + g1.n * (g2.m + g2.n) - g1.n * w2 - mwis


class TestComponentSplitting:
    """Deciding a hub splits a corona or rooted product into parts, which
    the oracle solves apart; values and witnesses must not change."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(split_products())
    def test_agrees_with_brute_force_on_split_products(self, g):
        fast = sparing_exact(g)
        slow = sparing_brute_force(g)
        assert (fast.value, fast.witness) == (slow.value, slow.witness)

    # Node counts do not depend on the hardware. Splitting must not cost
    # nodes on a grid, which rarely splits: 27,203 is what C7 x C7 needs
    # with the edge-count bound alone.
    @pytest.mark.parametrize("g, ceiling", [
        (corona(cycle_graph(5), cycle_graph(5))[0], 999),
        (cartesian_product(cycle_graph(7), cycle_graph(7))[0], 27203),
    ], ids=["C5 corona C5", "C7 x C7"])
    def test_node_count(self, g, ceiling):
        assert sparing_exact(g, oracle_bound=64).nodes <= ceiling

    def test_c7_corona_c7_matches_the_corona_identity(self):
        g1 = g2 = cycle_graph(7)
        res = sparing_exact(corona(g1, g2)[0], oracle_bound=64)
        assert res.nodes < 2000
        assert res.value == corona_sparing_identity(g1, g2) == 42

    def test_corona_identity_on_small_factors(self):
        for g1, g2 in itertools.product(FAMILIES[:6], repeat=2):
            assert (sparing_exact(corona(g1, g2)[0], oracle_bound=64).value
                    == corona_sparing_identity(g1, g2))


class TestFormulas:
    def test_complete_formula(self):
        assert sparing_formula_complete(4) == 3
        assert sparing_formula_complete(2) == 0
        assert sparing_formula_complete(8) == 21
        assert sparing_formula_complete(8) == sparing_exact(complete_graph(8)).value

    def test_cycle_formula(self):
        assert sparing_formula_cycle(6) == 0
        assert sparing_formula_cycle(3) == 1
        assert sparing_formula_cycle(9) == 1
        assert sparing_formula_cycle(9) == sparing_exact(cycle_graph(9)).value
        with pytest.raises(SparingError):
            sparing_formula_cycle(2)

    def test_corona_formula(self):
        assert sparing_formula_corona(4, 1, 2, 1) == 6
        assert sparing_formula_corona(5, 3, 0, 7) == 15  # r1=0 -> n1*m2
        with pytest.raises(SparingError):
            sparing_formula_corona(2, 1, 3, 1)

    def test_cycle_parity(self):
        assert cycle_parity_of(5, 2) == 1
        assert cycle_parity_of(4, 1) == 2
        assert cycle_parity_of(4, 2) == 0
        with pytest.raises(SparingError):
            cycle_parity_of(5, 3)

    def test_cycle_parity_matches_enumeration(self):
        for n in range(3, 10):
            g = cycle_graph(n)
            for mask in range(1 << n):
                verts = [v for v in range(n) if mask >> v & 1]
                if any(g.has_edge(u, v) for u, v in itertools.combinations(verts, 2)):
                    continue
                uncovered = sum(1 for e in g.edges if not (set(e) & set(verts)))
                assert uncovered == n - 2 * len(verts)
                assert uncovered % 2 == n % 2


class TestUnion:
    def test_additivity_examples(self):
        assert sparing_union(cycle_graph(3), cycle_graph(4)) == 1
        assert sparing_union(complete_graph(4), complete_graph(4)) == 6
        g = cycle_graph(5)
        assert sparing_union(g, complete_graph(2)) == sparing_exact(g).value

    def test_matches_oracle_on_the_union_graph(self):
        for g1, g2 in itertools.combinations(FAMILIES, 2):
            expected = sparing_exact(g1).value + sparing_exact(g2).value
            assert sparing_union(g1, g2) == expected
            whole = sparing_exact(disjoint_union(g1, g2))
            assert whole.value == expected


class TestBipartiteCriterion:
    def test_bipartite_side_is_a_valid_witness(self):
        for g in FAMILIES:
            res = is_bipartite(g)
            if not res.is_bipartite:
                assert sparing_exact(g).value >= 1
                continue
            assert sparing_exact(g).value == 0
            side = res.sides[1] or res.sides[0]
            uncovered = [e for e in g.edges if not (set(e) & set(side))]
            assert uncovered == []
