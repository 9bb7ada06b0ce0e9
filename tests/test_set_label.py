import itertools

import pytest
from hypothesis import given, settings, strategies as st
from test_sparing import graphs

from weakiasi.cli import export_dot
from weakiasi.graph_core import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    restrict_to_layer,
    short_repr,
)
from weakiasi.set_label import (
    IntegerSet,
    LabelError,
    Labeling,
    VerificationReport,
    is_k_uniform,
    mono_indexed_stats,
    restrict_labeling,
    scale_set,
    sumset,
    verify_iasi,
    verify_weak_iasi,
)

integer_sets = st.sets(st.integers(min_value=0, max_value=60), min_size=1,
                       max_size=6).map(IntegerSet)


def L(graph, *sets):
    return Labeling(graph, {v: IntegerSet(s) for v, s in enumerate(sets)})


class TestIntegerSet:
    def test_sorted_deduplicated(self):
        s = IntegerSet([3, 1, 3, 2])
        assert s.elements == (1, 2, 3)
        assert len(s) == 3
        assert IntegerSet((7,)) == IntegerSet([7, 7]) == (7,)

    def test_rejects_empty_and_negative(self):
        for elements in ([], [-1, 2], [-1]):
            with pytest.raises(LabelError):
                IntegerSet(elements)

    @pytest.mark.parametrize("elements", [[1, True], [True], [1, 2.0], ["1"], [1.0]])
    def test_rejects_non_int_elements_before_deduplicating(self, elements):
        with pytest.raises(LabelError):
            IntegerSet(elements)


class TestSumset:
    def test_singleton_shift(self):
        assert sumset(IntegerSet([1, 2]), IntegerSet([3])).elements == (4, 5)

    def test_zero_is_identity(self):
        a = IntegerSet([2, 5])
        assert sumset(IntegerSet([0]), a) == a

    def test_exhaustive_small_case(self):
        assert sumset(IntegerSet([1, 2]), IntegerSet([1, 3])).elements == (2, 3, 4, 5)

    @given(integer_sets, integer_sets)
    def test_commutative_and_bounds(self, a, b):
        ab = sumset(a, b)
        assert ab == sumset(b, a)
        assert max(len(a), len(b)) <= len(ab) <= len(a) * len(b)
        # integer sumsets obey |A+B| >= |A| + |B| - 1
        assert len(ab) >= len(a) + len(b) - 1

    @given(integer_sets, integer_sets, integer_sets)
    def test_associative(self, a, b, c):
        assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))

    @given(integer_sets, integer_sets)
    def test_equality_with_max_iff_a_singleton_present(self, a, b):
        ab = sumset(a, b)
        assert (len(ab) == max(len(a), len(b))) == (min(len(a), len(b)) == 1)


class TestScaleSet:
    def test_example_scaling(self):
        assert scale_set(3, IntegerSet([1, 2])).elements == (3, 6)
        assert scale_set(2, IntegerSet([0, 1, 4])).elements == (0, 2, 8)

    def test_identity_scale(self):
        a = IntegerSet([1, 5, 7])
        assert scale_set(1, a) == a

    def test_zero_scale_rejected(self):
        with pytest.raises(LabelError):
            scale_set(0, IntegerSet([1, 2]))

    @pytest.mark.parametrize("r", [True, 1.5, 2.0], ids=["bool", "fraction", "float"])
    def test_non_int_scale_rejected(self, r):
        with pytest.raises(LabelError, match="scale factor must be a positive integer"):
            scale_set(r, IntegerSet([1, 2]))

    @given(st.integers(min_value=1, max_value=9), integer_sets, integer_sets)
    def test_distributes_over_sumset(self, r, a, b):
        assert scale_set(r, sumset(a, b)) == sumset(scale_set(r, a), scale_set(r, b))
        assert len(scale_set(r, a)) == len(a)


class TestLabeling:
    def test_requires_total_assignment(self):
        with pytest.raises(LabelError):
            Labeling(path_graph(3), {0: IntegerSet([1]), 1: IntegerSet([2])})

    @pytest.mark.parametrize("key", [1.0, True], ids=["float", "bool"])
    def test_rejects_key_equal_to_a_vertex_but_not_an_int(self, key):
        with pytest.raises(LabelError, match="misses 1 of 3 vertices"):
            Labeling(path_graph(3), {0: [1], key: [2, 3], 2: [4]})

    def test_sequence_in_vertex_order_equals_mapping(self):
        g = path_graph(3)
        lab = Labeling(g, [[1], (4, 2), IntegerSet([3])])
        assert lab == Labeling(g, {2: [3], 0: [1], 1: [2, 4]}) == L(g, [1], [2, 4], [3])
        assert lab.sets == ((1,), (2, 4), (3,)) and lab[1] == (2, 4)
        graph, sets = lab
        assert graph is g and sets is lab.sets

    @pytest.mark.parametrize("sets, message", [
        ([[1]], r"misses 2 of 3 vertices \(first: \[1, 2\]\)"),
        ([[1], [2], [3], [4], [5]], r"names 2 unknown vertices \(first: \[3, 4\]\)"),
    ], ids=["short", "long"])
    def test_sequence_of_wrong_length_rejected(self, sets, message):
        with pytest.raises(LabelError, match=message):
            Labeling(path_graph(3), sets)

    def test_unknown_vertices_are_named_forty_characters_at_most(self):
        key = 10 ** 4000
        with pytest.raises(LabelError) as info:
            Labeling(path_graph(2), {0: [1], 1: [2], key: [3], "x" * 1000: [4], 5: [6]})
        assert str(info.value) == ("labeling names 3 unknown vertices (first: ["
                                   + repr(key)[:40] + "..., '" + "x" * 39 + "..., 5])")

    def test_replace_validates(self):
        lab = L(path_graph(3), [1], [2, 4], [3])
        assert lab._replace(sets=[[5], [6], [7]]) == L(path_graph(3), [5], [6], [7])
        with pytest.raises(LabelError, match="names 1 unknown vertices"):
            lab._replace(sets=lab.sets + (IntegerSet([9]),))
        with pytest.raises(LabelError, match="misses 1 of 4 vertices"):
            lab._replace(graph=path_graph(4))

    def test_edge_label_is_sumset(self):
        lab = L(path_graph(2), [1], [2, 4])
        assert lab.edge_label(0, 1).elements == (3, 5)

    def test_edge_label_rejects_non_edges(self):
        lab = L(path_graph(3), [1], [2], [3])
        with pytest.raises(LabelError):
            lab.edge_label(0, 2)

    @pytest.mark.parametrize("u, v", [(True, 0), (0.0, 1), (0.0, True), (1, 2.0)])
    def test_edge_label_rejects_ids_that_are_not_ints(self, u, v):
        lab = L(path_graph(3), [1], [2], [3])
        with pytest.raises(LabelError, match="is not an edge of the labeled graph"):
            lab.edge_label(u, v)

    def test_json_round_trip(self):
        g = path_graph(3)
        lab = L(g, [1], [2, 4], [3])
        again = Labeling.from_json(lab.to_json(), g)
        assert again == lab
        # Keys in any order: the JSON keys come out ascending, and a
        # document with shuffled keys reads back as the same labeling.
        descending = Labeling(g, {2: [3], 1: [4, 2], 0: [1]})
        assert list(descending.to_json_dict()["labels"]) == ["0", "1", "2"]
        assert descending == lab
        shuffled = {"labels": {"1": [2, 4], "2": [3], "0": [1]}}
        assert Labeling.from_json_dict(shuffled, g) == lab

    @pytest.mark.parametrize("v", [-1, 3, True], ids=["negative", "past-n", "bool"])
    def test_getitem_rejects_ids_outside_the_graph(self, v):
        lab = L(path_graph(3), [1], [2, 4], [3])
        assert lab[2] == (3,)
        with pytest.raises(KeyError):
            lab[v]


def reference_from_json_dict(d, graph):
    """The per-entry loader: each key's int and each label's IntegerSet in a
    dict, canonical keys, then Labeling's own vertex checks."""
    try:
        raw = d["labels"]
        labels = {int(k): IntegerSet(v) for k, v in raw.items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise LabelError(f"bad labeling JSON: {exc}")
    if list(map(str, labels)) != list(raw):
        bad = next(k for k in raw if str(int(k)) != k)
        raise LabelError(f"bad labeling JSON: key {short_repr(bad)} "
                         "is not a canonical vertex id")
    return Labeling(graph, labels)


def load_outcome(load, d, graph):
    try:
        lab = load(d, graph)
    except LabelError as exc:
        return "error", str(exc)
    assert all(type(s) is IntegerSet for s in lab.sets) and lab.graph is graph
    return "labeling", lab


FAULTS = ["shuffle", "tuple", "string", "bool", "float", "negative", "empty",
          "bad-key", "missing", "extra", "labels-not-a-dict", "not-a-dict", "no-labels"]


@st.composite
def labeling_documents(draw):
    """A small graph and a labeling document for it: well formed, with
    repeated and unsorted elements, and broken in up to three drawn ways."""
    g = draw(graphs(max_n=8))
    labels = [(str(v), draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)))
              for v in range(g.n)]
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=3))
    vertex = st.integers(0, g.n - 1) if g.n else st.nothing()
    for fault, value in [("tuple", lambda s: tuple(s)), ("string", lambda s: "12"),
                         ("bool", lambda s: [*s, True]), ("float", lambda s: [1.0, *s]),
                         ("negative", lambda s: [*s, -1]), ("empty", lambda s: [])]:
        if fault in faults and g.n:
            v = draw(vertex)
            labels[v] = (labels[v][0], value(labels[v][1]))
    if "bad-key" in faults and g.n:
        v = draw(vertex)
        labels[v] = (draw(st.sampled_from(["00", " 1", "+1", "01", "1 ", "x", "-1"])),
                     labels[v][1])
    if "missing" in faults and g.n:
        del labels[draw(vertex)]
    if "extra" in faults:
        labels.append((str(g.n + draw(st.integers(0, 2))), [7]))
    if "shuffle" in faults:
        labels = draw(st.permutations(labels))
    d = {"labels": dict(labels)}
    if "labels-not-a-dict" in faults:
        d = {"labels": [s for _, s in labels]}
    if "not-a-dict" in faults:
        d = [d]
    if "no-labels" in faults:
        d = {"label": dict(labels)}
    return g, d


class TestBulkLoad:
    """from_json_dict gives the per-entry loader's labeling, or its error."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(labeling_documents())
    def test_matches_the_per_entry_loader(self, case):
        g, d = case
        assert (load_outcome(Labeling.from_json_dict, d, g)
                == load_outcome(reference_from_json_dict, d, g))

    @pytest.mark.parametrize("labels", [
        {"0": [1], "1": [2, 3], "2": [4]},
        {"0": [1], "1": [3, 2, 3], "2": [4]},
        {"1": [2, 3], "0": [1], "2": [4]},
        {"0": [1], "1": (2, 3), "2": [4]},
        {"0": [1], "1": "23", "2": [4]},
        {"0": [1], "1": [2, True], "2": [4]},
        {"0": [1], "1": [2, 3.0], "2": [4]},
        {"0": [1], "1": [2, -3], "2": [4]},
        {"0": [1], "1": [], "2": [4]},
        {"0": [1], "00": [2, 3], "2": [4]},
        {"0": [1], " 1": [2, 3], "2": [4]},
        {"0": [1], "+1": [2, 3], "2": [4]},
        {"0": [1], "1": [2, 3]},
        {"0": [1], "1": [2, 3], "2": [4], "3": [5]},
    ])
    def test_named_cases_match_the_per_entry_loader(self, labels):
        g, d = path_graph(3), {"labels": labels}
        assert (load_outcome(Labeling.from_json_dict, d, g)
                == load_outcome(reference_from_json_dict, d, g))


class TestVerifyIasi:
    def test_passing_path(self):
        g = path_graph(3)
        rep = verify_iasi(g, L(g, [1], [2, 4], [3]))
        assert rep.passed and not rep.violations

    def test_edge_label_collision(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        rep = verify_iasi(g, L(g, [1], [4], [2], [3]))  # 1+4 == 2+3
        assert not rep.passed
        assert any(kind == "duplicate-edge-label" for kind, _ in rep.violations)

    def test_duplicate_vertex_label(self):
        g = path_graph(3)
        rep = verify_iasi(g, L(g, [1], [2], [1]))
        assert not rep.passed
        assert ("duplicate-vertex-label", (0, 2)) in rep.violations


class TestVerifyWeakIasi:
    def test_alternating_c4(self):
        g = cycle_graph(4)
        rep = verify_weak_iasi(g, L(g, [1], [10, 11], [2], [20, 22]))
        assert rep.passed
        assert rep.mono_edge_count == 0
        assert rep.mono_vertex_count == 2

    def test_k3_with_one_mono_edge(self):
        g = complete_graph(3)
        rep = verify_weak_iasi(g, L(g, [1], [2], [3, 7]))
        assert rep.passed
        assert rep.mono_edge_count == 1

    def test_adjacent_non_singletons_fail(self):
        g = path_graph(2)
        rep = verify_weak_iasi(g, L(g, [1, 2], [4, 8]))
        assert not rep.passed
        kinds = {kind for kind, _ in rep.violations}
        assert "adjacent-non-singletons" in kinds
        assert "weak-condition-failed" in kinds

    def test_passed_iff_no_violations(self):
        g = cycle_graph(4)
        for sets in [([1], [10, 11], [2], [20, 22]), ([1], [1], [2], [3]),
                     ([1, 2], [3, 4], [5], [6])]:
            rep = verify_weak_iasi(g, L(g, *sets))
            assert rep.passed == (len(rep.violations) == 0)


def reference_report(g, labeling, weak):
    """The verifiers written naively: one sumset per edge, every label
    group sorted, and the mono counts from mono_indexed_stats."""
    violations = []
    by_label = {}
    for v in range(g.n):
        by_label.setdefault(labeling[v].elements, []).append(v)
    for _, verts in sorted(by_label.items()):
        if len(verts) > 1:
            violations.append(("duplicate-vertex-label", tuple(verts)))
    edge_labels = {(u, v): sumset(labeling[u], labeling[v]) for u, v in g.sorted_edges()}
    by_edge_label = {}
    for e, s in edge_labels.items():
        by_edge_label.setdefault(s.elements, []).append(e)
    for _, es in sorted(by_edge_label.items()):
        if len(es) > 1:
            violations.append(("duplicate-edge-label", tuple(x for e in es for x in e)))
    if weak:
        for (u, v), s in edge_labels.items():
            a, b = labeling[u], labeling[v]
            if len(a) > 1 and len(b) > 1:
                violations.append(("adjacent-non-singletons", (u, v)))
            if len(s) != max(len(a), len(b)):
                violations.append(("weak-condition-failed", (u, v)))
    r, mono_count, mono_edges = mono_indexed_stats(g, labeling)
    return VerificationReport(not violations, tuple(violations), r, mono_count,
                              tuple(mono_edges))


@st.composite
def labeled_graphs(draw):
    """Small graphs with labels of 1-3 elements from range(12), so duplicate
    vertex labels, colliding edge sums and adjacent non-singletons occur."""
    g = draw(graphs(max_n=12))
    sets = draw(st.lists(st.sets(st.integers(0, 11), min_size=1, max_size=3),
                         min_size=g.n, max_size=g.n))
    return g, Labeling(g, dict(enumerate(sets)))


@st.composite
def colliding_labeled_graphs(draw):
    """labeled_graphs plus two disjoint gadgets: mono edges with equal sums
    and singleton-shifted edges with equal labels, so one report holds
    duplicate groups of both key kinds, interleaved in key order."""
    g, lab = draw(labeled_graphs())
    total = draw(st.integers(0, 11))
    x, y = draw(st.integers(0, total)), draw(st.integers(0, total))
    base = draw(st.sets(st.integers(0, 11), min_size=2, max_size=3))
    shift, d = draw(st.integers(0, 11)), draw(st.integers(1, 4))
    gadget = [[x], [total - x], [y], [total - y],
              [shift + d], sorted(base), [shift], sorted(b + d for b in base)]
    g = disjoint_union(g, Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]))
    labels = dict(enumerate(lab.sets))
    labels.update((g.n - 8 + i, s) for i, s in enumerate(gadget))
    return g, Labeling(g, labels)


class TestVerifierAgainstReference:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(labeled_graphs())
    def test_reports_match_reference(self, case):
        g, lab = case
        assert verify_weak_iasi(g, lab) == reference_report(g, lab, weak=True)
        assert verify_iasi(g, lab) == reference_report(g, lab, weak=False)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(colliding_labeled_graphs())
    def test_mono_and_shifted_duplicates_match_reference(self, case):
        g, lab = case
        report = verify_weak_iasi(g, lab)
        assert report == reference_report(g, lab, weak=True)
        assert verify_iasi(g, lab) == reference_report(g, lab, weak=False)
        groups = [w for kind, w in report.violations if kind == "duplicate-edge-label"]
        mono = set(report.mono_edges)
        assert any(w[:2] in mono for w in groups)
        assert any(w[:2] not in mono for w in groups)

    def test_labeling_of_a_supergraph_is_accepted(self):
        sup = cycle_graph(5)
        sets = [1], [2, 3], [5], [7, 8], [11]
        lab = L(sup, *sets)
        g = path_graph(5)
        assert lab.graph is not g and set(g.edges) < set(sup.edges)
        # A labeling of an equal graph built apart verifies as one of g.
        twin = Graph(g.n, reversed(g.edges))
        assert twin == g and twin is not g
        own, twins = L(g, *sets), L(twin, *sets)
        for verify, weak in ((verify_weak_iasi, True), (verify_iasi, False)):
            assert verify(g, lab) == reference_report(g, lab, weak)
            assert verify(g, lab) != verify(sup, lab)
            assert verify(g, twins) == verify(g, own) == reference_report(g, own, weak)
        assert export_dot(g, lab) == export_dot(g, own)
        assert [is_k_uniform(g, lab, k) for k in (1, 2)] == [False, True]

    @pytest.mark.parametrize("labeled", [Graph(3, [(0, 1)], allow_isolated=True),
                                         path_graph(4)],
                             ids=["missing-edge", "other-vertex-count"])
    def test_labeling_of_another_graph_is_rejected(self, labeled):
        lab = Labeling(labeled, {v: IntegerSet([v]) for v in range(labeled.n)})
        readers = [verify_weak_iasi, verify_iasi, mono_indexed_stats, export_dot,
                   lambda g, lab: is_k_uniform(g, lab, 1),
                   lambda g, lab: is_k_uniform(g, lab, 2)]
        for read in readers:
            with pytest.raises(LabelError, match="made for a different graph"):
                read(path_graph(3), lab)


class TestStatsAndUniformity:
    def test_all_singleton_path(self):
        g = path_graph(4)
        lab = L(g, [1], [2], [4], [8])
        r, mono, edges = mono_indexed_stats(g, lab)
        assert (r, mono) == (4, 3)
        assert is_k_uniform(g, lab, 1)

    def test_c4_example_counts(self):
        g = cycle_graph(4)
        lab = L(g, [1], [10, 11], [2], [20, 22])
        r, mono, edges = mono_indexed_stats(g, lab)
        assert (r, mono, edges) == (2, 0, [])
        assert is_k_uniform(g, lab, 2)
        assert not is_k_uniform(g, lab, 1)

    def test_k3_not_uniform(self):
        g = complete_graph(3)
        lab = L(g, [1], [2], [3, 7])
        r, mono, edges = mono_indexed_stats(g, lab)
        assert (r, mono) == (2, 1)
        assert not any(is_k_uniform(g, lab, k) for k in (1, 2, 3))

    @pytest.mark.parametrize("k", [0, True, 1.5, 2.0], ids=["zero", "bool", "fraction", "float"])
    def test_degree_must_be_a_positive_int(self, k):
        g = cycle_graph(4)
        lab = L(g, [1], [10, 11], [2], [20, 22])
        with pytest.raises(LabelError, match="uniformity degree must be a positive integer"):
            is_k_uniform(g, lab, k)


def _all_small_graphs(max_n=5):
    """All labeled graphs with 2..max_n vertices and at least one edge."""
    for n in range(2, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1, 1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
            yield Graph(n, edges, allow_isolated=True)


class TestStructuralCharacterization:
    """weak IASI <=> IASI and the non-singleton vertices are independent."""

    @given(st.data())
    def test_random_labelings_on_random_small_graphs(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
        g = Graph(n, edges, allow_isolated=True)
        labels = {v: data.draw(integer_sets) for v in range(n)}
        lab = Labeling(g, labels)
        weak = verify_weak_iasi(g, lab)
        iasi = verify_iasi(g, lab)
        ns = lab.non_singleton_vertices()
        independent = not any(g.has_edge(u, v)
                              for u, v in itertools.combinations(sorted(ns), 2))
        assert weak.passed == (iasi.passed and independent)


class TestHeredity:
    def test_layer_restriction_of_weak_iasi_passes(self):
        g1, g2 = cycle_graph(4), complete_graph(2)
        prod, vmap = cartesian_product(g1, g2)
        from weakiasi.constructions import optimal_labeling
        lab = optimal_labeling(prod)
        assert verify_weak_iasi(prod, lab).passed
        for j in range(g2.n):
            layer, ids = restrict_to_layer(prod, vmap, 1, j)
            sub = restrict_labeling(lab, layer, ids)
            assert verify_weak_iasi(layer, sub).passed

    def test_arbitrary_induced_subgraphs_inherit(self):
        from weakiasi.constructions import optimal_labeling
        g = complete_graph(5)
        lab = optimal_labeling(g)
        for k in (2, 3, 4):
            for verts in itertools.combinations(range(5), k):
                sub, ids = g.induced_subgraph(verts)
                rep = verify_weak_iasi(sub, restrict_labeling(lab, sub, ids))
                assert rep.passed

    @pytest.mark.parametrize("ids, bad", [([-1, 0], -1), ([0, 2], 2)],
                             ids=["negative", "past-n"])
    def test_restrict_labeling_rejects_ids_outside_the_graph(self, ids, bad):
        lab = L(path_graph(2), [1], [2, 3])
        with pytest.raises(LabelError, match=f"old id {bad} is not a vertex"):
            restrict_labeling(lab, path_graph(2), ids)
