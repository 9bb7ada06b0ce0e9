import gc
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_sparing import graphs

from weakiasi.graph_core import (
    Graph,
    GraphError,
    cartesian_product,
    complete_graph,
    corona,
    cycle_graph,
    direct_product,
    disjoint_union,
    is_bipartite,
    lexicographic_product,
    path_graph,
    restrict_to_layer,
    rooted_product,
    single_vertex,
    star_graph,
    strong_product,
)

K1 = single_vertex()
K2 = complete_graph(2)
P2 = path_graph(2)
P3 = path_graph(3)
C3 = cycle_graph(3)
C4 = cycle_graph(4)
C5 = cycle_graph(5)

SMALL_FACTORS = [P2, P3, path_graph(4), C3, C4, C5, K2, complete_graph(3),
                 complete_graph(4), star_graph(3)]


def is_isomorphic(g, h):
    """Brute-force isomorphism check for tiny graphs."""
    if g.n != h.n or g.m != h.m:
        return False
    for perm in itertools.permutations(range(g.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges}
        if mapped == set(h.edges):
            return True
    return False


@st.composite
def sparse_graphs(draw):
    """G(n, p) on up to 30 vertices, sparse enough that some shortest odd
    cycles are longer than triangles."""
    n = draw(st.integers(1, 30))
    p = draw(st.sampled_from([0.05, 0.08, 0.12]))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p],
                 allow_isolated=True)


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_rejects_isolated_by_default(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1)])
        g = Graph(3, [(0, 1)], allow_isolated=True)
        assert g.n == 3 and g.m == 1

    def test_duplicate_and_reversed_edges_normalize(self):
        g = Graph(3, [(1, 0), (0, 1), (1, 2)])
        assert g.sorted_edges() == [(0, 1), (1, 2)]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_edges_are_sorted_and_independent_of_input_order(self, data):
        n = data.draw(st.integers(2, 12))
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                                   max_size=30))
        # Repeat some pairs, some of them reversed.
        pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
        pairs = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in pairs]
        g = Graph(n, pairs, allow_isolated=True)
        listed = g.sorted_edges()
        assert listed == sorted(g.edges) and type(listed) is list
        listed.clear()
        assert g.sorted_edges() == sorted(g.edges) and g.sorted_edges() is not listed
        h = Graph(n, data.draw(st.permutations(pairs)), allow_isolated=True)
        assert h == g and hash(h) == hash(g) and h.edges == g.edges
        drawn = {(min(e), max(e)) for e in pairs}
        for u, v in itertools.product(range(n), repeat=2):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in drawn)

    def test_json_round_trip_is_stable(self):
        g = Graph(4, [(3, 1), (0, 2), (1, 0)], allow_isolated=True)
        text = g.to_json()
        again = Graph.from_json(text, allow_isolated=True)
        assert again == g
        assert again.to_json() == text

    @pytest.mark.parametrize("text", ['{"n": 2, "edges": [[0, 1]]}', '{"n": 2, "n": 2}'],
                             ids=["good", "repeated-key"])
    def test_json_parse_leaves_the_collector_as_it_found_it(self, text):
        # The parse pauses the cyclic collector; it must not switch it on
        # for a caller that had it off, nor leave it off after an error.
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                try:
                    Graph.from_json(text)
                except GraphError:
                    pass
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestCartesian:
    def test_k2_box_k2_is_c4(self):
        g, _ = cartesian_product(K2, K2)
        assert is_isomorphic(g, C4)

    def test_p2_box_p3_edge_count(self):
        g, _ = cartesian_product(P2, P3)
        assert g.n == 6
        assert g.m == 2 * 2 + 3 * 1  # n1*m2 + n2*m1

    def test_identity_factor(self):
        g, _ = cartesian_product(C5, K1)
        assert is_isomorphic(g, C5)

    def test_empty_factor_rejected(self):
        with pytest.raises(GraphError):
            cartesian_product(Graph(0), K2)

    def test_commutes_up_to_coordinate_swap(self):
        for g1, g2 in [(P3, C4), (K2, C5), (star_graph(3), P2)]:
            a, ma = cartesian_product(g1, g2)
            b, mb = cartesian_product(g2, g1)
            swapped = set()
            for u, v in a.edges:
                i, j = ma.inverse(u)
                k, l = ma.inverse(v)
                e = tuple(sorted((mb.forward(j, i), mb.forward(l, k))))
                swapped.add(e)
            assert swapped == set(b.edges)


class TestDirect:
    def test_k2_times_k2_is_two_edges(self):
        g, _ = direct_product(K2, K2)
        assert g.n == 4 and g.m == 2
        assert not g.is_connected()

    def test_c3_times_k2_is_c6(self):
        g, _ = direct_product(C3, K2)
        assert is_isomorphic(g, cycle_graph(6))

    def test_edge_count_formula(self):
        g, _ = direct_product(P3, K2)
        assert g.n == 6 and g.m == 2 * 2 * 1
        for g1, g2 in itertools.product([P2, P3, C3, C4], repeat=2):
            g, _ = direct_product(g1, g2)
            assert g.m == 2 * g1.m * g2.m


class TestStrong:
    def test_k2_strong_k2_is_k4(self):
        g, _ = strong_product(K2, K2)
        assert is_isomorphic(g, complete_graph(4))

    def test_p2_strong_p2_counts(self):
        g, _ = strong_product(P2, P2)
        assert g.n == 4 and g.m == 6

    def test_edges_are_disjoint_union_of_cartesian_and_direct(self):
        for g1, g2 in itertools.product(SMALL_FACTORS[:6], repeat=2):
            s, _ = strong_product(g1, g2)
            c, _ = cartesian_product(g1, g2)
            d, _ = direct_product(g1, g2)
            # s has no repeated edge, so this also says c and d share none.
            assert s.edges == tuple(sorted(c.edges + d.edges))
            assert s.m == c.m + d.m


class TestLexicographic:
    def test_k2_lex_k2_is_k4(self):
        g, _ = lexicographic_product(K2, K2)
        assert is_isomorphic(g, complete_graph(4))

    def test_p3_lex_k2_counts(self):
        g, _ = lexicographic_product(P3, K2)
        assert g.n == 6
        assert g.m == 2 ** 2 * 2 + 3 * 1  # n2^2*m1 + n1*m2

    def test_left_identity(self):
        g, _ = lexicographic_product(K1, C5)
        assert is_isomorphic(g, C5)

    def test_asymmetric(self):
        a, _ = lexicographic_product(P3, K2)
        b, _ = lexicographic_product(K2, P3)
        assert not is_isomorphic(a, b)

    def test_edge_count_formula(self):
        for g1, g2 in itertools.product([P2, P3, C3, C4], repeat=2):
            g, _ = lexicographic_product(g1, g2)
            assert g.m == g2.n ** 2 * g1.m + g1.n * g2.m


class TestCorona:
    def test_k2_corona_k1_counts(self):
        g, _ = corona(K2, K1)
        assert g.n == 2 * (1 + 1)
        assert g.m == 1 + 0 + 2
        assert is_isomorphic(g, path_graph(4))

    def test_c4_corona_k2_counts(self):
        g, _ = corona(C4, K2)
        assert g.n == 12
        assert g.m == 4 + 4 * 1 + 4 * 2

    def test_k1_corona_is_cone(self):
        g, vmap = corona(K1, C4)
        assert g.n == 5 and g.m == 8
        assert all(g.has_edge(0, vmap.copy_vertex(0, j)) for j in range(4))

    def test_count_formulas_hold(self):
        for g1, g2 in itertools.product([P2, P3, C3, star_graph(3)], repeat=2):
            g, _ = corona(g1, g2)
            assert g.n == g1.n * (1 + g2.n)
            assert g.m == g1.m + g1.n * g2.m + g1.n * g2.n


class TestRooted:
    def test_k2_rooted_k2_is_p4(self):
        for root in (0, 1):
            g, _ = rooted_product(K2, K2, root)
            assert is_isomorphic(g, path_graph(4))

    def test_identity_copy(self):
        g, _ = rooted_product(C5, K1, 0)
        assert is_isomorphic(g, C5)

    def test_c3_rooted_p2_counts(self):
        g, _ = rooted_product(C3, P2, 0)
        assert g.n == 6 and g.m == 3 + 3

    def test_bad_root_rejected(self):
        with pytest.raises(GraphError):
            rooted_product(K2, K2, 2)


class TestUnionAndLayers:
    def test_union_counts(self):
        g = disjoint_union(K2, K2)
        assert g.n == 4 and g.m == 2
        g = disjoint_union(C3, C4)
        assert g.n == 7 and g.m == 7

    def test_union_with_empty(self):
        g = disjoint_union(C3, Graph(0))
        assert g == C3

    def test_union_shifts_second_factor(self):
        g = disjoint_union(K2, P3)
        assert (2, 3) in g.edges and (3, 4) in g.edges

    def test_cartesian_layers_are_factors(self):
        prod, vmap = cartesian_product(P3, P2)
        layer, ids = restrict_to_layer(prod, vmap, 1, 0)
        assert layer == P3
        prod, vmap = cartesian_product(K2, C4)
        layer, ids = restrict_to_layer(prod, vmap, 2, 1)
        assert layer == C4

    def test_every_layer_matches_its_factor(self):
        for g1, g2 in itertools.product([P2, P3, C3, C4], repeat=2):
            prod, vmap = cartesian_product(g1, g2)
            for j in range(g2.n):
                layer, _ = restrict_to_layer(prod, vmap, 1, j)
                assert layer == g1
            for i in range(g1.n):
                layer, _ = restrict_to_layer(prod, vmap, 2, i)
                assert layer == g2

    def test_layer_index_out_of_range(self):
        prod, vmap = cartesian_product(P3, P2)
        with pytest.raises(GraphError):
            restrict_to_layer(prod, vmap, 1, 2)


class TestBipartite:
    def test_even_cycle(self):
        res = is_bipartite(C4)
        assert res.is_bipartite
        assert sorted(map(len, res.sides)) == [2, 2]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(graphs(), sparse_graphs()))
    @example(C5)
    def test_odd_cycle_certificate(self, g):
        res = is_bipartite(g)
        assert not (g == C5 and res.is_bipartite)
        if res.is_bipartite:
            assert res.odd_cycle is None
            assert sorted(res.sides[0] + res.sides[1]) == list(range(g.n))
            for side in res.sides:
                assert not any(g.has_edge(u, v)
                               for u, v in itertools.combinations(side, 2))
        else:
            cyc = res.odd_cycle
            assert res.sides is None
            assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert g.has_edge(a, b)

    def test_product_of_bipartite_is_bipartite(self):
        prod, _ = cartesian_product(K2, C4)
        assert is_bipartite(prod).is_bipartite
        bipartite = [P2, P3, path_graph(4), C4, K2, star_graph(3)]
        for g1, g2 in itertools.product(bipartite, repeat=2):
            prod, _ = cartesian_product(g1, g2)
            assert is_bipartite(prod).is_bipartite

    def test_sides_are_independent(self):
        for g in SMALL_FACTORS:
            res = is_bipartite(g)
            if res.is_bipartite:
                for side in res.sides:
                    assert not any(g.has_edge(u, v)
                                   for u, v in itertools.combinations(side, 2))
