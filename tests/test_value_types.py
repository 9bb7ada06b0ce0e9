"""Value semantics of the library's record types.

Every record is immutable and compares and hashes by value; IntegerSet
orders like its sorted element tuple and prints as {1,2}; a
SparingResult's search-node count stays out of equality.
"""

import copy
import pickle

import pytest

from weakiasi.constructions import LabelPlan
from weakiasi.graph_core import (
    CoronaVertexMap,
    Graph,
    ProductVertexMap,
    RootedVertexMap,
    is_bipartite,
    path_graph,
)
from weakiasi.set_label import IntegerSet, Labeling, verify_weak_iasi
from weakiasi.sparing import SparingResult


def _report(sets=([1], [2, 3], [7])):
    g = path_graph(len(sets))
    return verify_weak_iasi(g, Labeling(g, dict(enumerate(sets))))


# Each entry: a factory making a fresh instance, a differing instance, and
# one field name.
RECORDS = {
    # Vertex 3 is isolated, so copies must keep accepting it.
    "Graph": (lambda: Graph(4, [(0, 1), (2, 1)], allow_isolated=True),
              Graph(3, [(0, 1)], allow_isolated=True), "n"),
    # Reversed, repeated and unsorted pairs: edges are sorted at build time.
    "Graph-unsorted": (lambda: Graph(5, [(4, 3), (2, 1), (0, 4), (1, 0), (3, 4)]),
                       Graph(5, [(0, 1), (1, 2), (3, 4)]), "edges"),
    "ProductVertexMap": (lambda: ProductVertexMap(2, 3), ProductVertexMap(3, 2), "n1"),
    "CoronaVertexMap": (lambda: CoronaVertexMap(2, 3), CoronaVertexMap(3, 2), "p1"),
    "RootedVertexMap": (lambda: RootedVertexMap(2, 3, 0), RootedVertexMap(2, 3, 1), "root"),
    "BipartiteResult": (lambda: is_bipartite(path_graph(3)),
                        is_bipartite(Graph(3, [(0, 1), (1, 2), (0, 2)])), "sides"),
    "IntegerSet": (lambda: IntegerSet([3, 1, 3]), IntegerSet([1, 2]), "elements"),
    "VerificationReport": (_report, _report(([1], [1])), "passed"),
    "SparingResult": (lambda: SparingResult(1, (0, 2), "exact-oracle", nodes=5),
                      SparingResult(2, (0, 2), "exact-oracle", nodes=5), "value"),
    "LabelPlan": (lambda: LabelPlan(frozenset({1}), "test", frozenset({2})),
                  LabelPlan(frozenset({1}), "test"), "provenance"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_are_equal_and_hash_equal(name):
    make, other, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    make, _, field = RECORDS[name]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("name", RECORDS)
def test_copies_and_pickles_are_equal(name):
    value = RECORDS[name][0]()
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and type(clone) is type(value)


class TestIntegerSet:
    def test_orders_like_its_sorted_elements(self):
        sets = [IntegerSet([2]), IntegerSet([1, 3]), IntegerSet([1]), IntegerSet([1, 2])]
        assert sorted(sets) == [IntegerSet([1]), IntegerSet([1, 2]),
                                IntegerSet([1, 3]), IntegerSet([2])]
        assert IntegerSet([1, 2]) < IntegerSet([1, 3]) <= IntegerSet([3, 1])

    def test_repr_is_set_notation(self):
        assert repr(IntegerSet([10, 2, 2])) == "{2,10}"

    def test_elements_is_the_sorted_tuple(self):
        elements = IntegerSet([5, 0, 5]).elements
        assert type(elements) is tuple and elements == (0, 5)


class TestSparingResult:
    def test_nodes_stay_out_of_equality(self):
        a = SparingResult(1, (0, 2), "exact-oracle", nodes=3)
        b = SparingResult(1, (0, 2), "exact-oracle", nodes=900)
        assert a == b
        assert not a != b
        assert hash(a) == hash(b)
        assert a.nodes == 3 and b.nodes == 900

    def test_nodes_default_to_zero(self):
        assert SparingResult(0, (), "exact-oracle").nodes == 0
