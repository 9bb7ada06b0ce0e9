"""The one vertex-id rule, graph_core.is_vertex.

Every public entry that takes a vertex id asks it: has_edge answers False
for an id that is not a vertex, the others raise their module's error, and
no plan or vertex map reaches JSON holding an id that is not an int. A
structural test keeps the range test itself written out in one place.
"""

import ast
import importlib
import pkgutil
from collections import Counter

import pytest

import weakiasi
from weakiasi.constructions import (
    LabelPlan,
    PlanError,
    assign_concrete_sets,
    plan_cartesian,
    plan_corona,
    plan_direct,
    plan_lexicographic,
    plan_rooted,
    plan_strong,
)
from weakiasi.graph_core import (
    CoronaVertexMap,
    GraphError,
    ProductVertexMap,
    RootedVertexMap,
    is_vertex,
    path_graph,
    rooted_product,
)
from weakiasi.set_label import LabelError, Labeling

P2, P3 = path_graph(2), path_graph(3)

# Each id is made for the vertex count n of the place it fills. True and
# 1.0 equal the vertex 1, -1 would index from the end, n is one past the
# last vertex. n - 1 is the valid control.
IDS = {
    "True": lambda n: True,
    "1.0": lambda n: 1.0,
    "-1": lambda n: -1,
    "n": lambda n: n,
    "n-1": lambda n: n - 1,
}
NOT_VERTICES = ["True", "1.0", "-1", "n"]

# Each entry reads a pattern s of the 3-vertex factor P3 and raises
# PlanError unless s is an independent set of its vertices.
PATTERN_ENTRIES = {
    "plan_cartesian": lambda s: plan_cartesian(ProductVertexMap(3, 2), P3, s, P2),
    "plan_direct": lambda s: plan_direct(ProductVertexMap(3, 2), P3, s, P2),
    "plan_strong": lambda s: plan_strong(ProductVertexMap(3, 2), P3, s, P2),
    "plan_lexicographic": lambda s: plan_lexicographic(ProductVertexMap(2, 3), P2, P3, s),
    "plan_corona-s1": lambda s: plan_corona(CoronaVertexMap(3, 3), P3, s, P3, set()),
    "plan_corona-s2": lambda s: plan_corona(CoronaVertexMap(3, 3), P3, set(), P3, s),
    "plan_rooted-s1": lambda s: plan_rooted(RootedVertexMap(3, 3, 0), P3, s, P3, {0}),
    "plan_rooted-s2": lambda s: plan_rooted(RootedVertexMap(3, 3, 0), P3, set(), P3, s),
    "assign_concrete_sets": lambda s: assign_concrete_sets(P3, LabelPlan(s, "x")),
}

# Each entry: the error it raises for an id that is not a vertex, and a
# call taking x, which makes an id for an n-vertex place as x(n).
ENTRIES = {
    "induced_subgraph": (GraphError, lambda x: P3.induced_subgraph([0, x(3)])),
    "forward-i": (GraphError, lambda x: ProductVertexMap(3, 2).forward(x(3), 0)),
    "forward-j": (GraphError, lambda x: ProductVertexMap(3, 2).forward(0, x(2))),
    "inverse": (GraphError, lambda x: ProductVertexMap(3, 2).inverse(x(6))),
    "corona-copy-i": (GraphError, lambda x: CoronaVertexMap(3, 2).copy_vertex(x(3), 0)),
    "corona-copy-j": (GraphError, lambda x: CoronaVertexMap(3, 2).copy_vertex(0, x(2))),
    "corona-copies-i": (GraphError, lambda x: CoronaVertexMap(3, 2).copy_vertices(x(3))),
    "merged_vertex": (GraphError, lambda x: RootedVertexMap(3, 2, 0).merged_vertex(x(3))),
    "rooted-copy-i": (GraphError, lambda x: RootedVertexMap(3, 2, 0).copy_vertex(x(3), 0)),
    "rooted-copy-v": (GraphError, lambda x: RootedVertexMap(3, 2, 0).copy_vertex(0, x(2))),
    "rooted_product-root": (GraphError, lambda x: rooted_product(P3, P2, x(2))),
    "rooted-map-root": (GraphError, lambda x: RootedVertexMap(3, 3, x(3)).copy_vertex(0, 2)),
    "rooted-copies-i": (GraphError, lambda x: RootedVertexMap(3, 2, 0).copy_vertices(x(3))),
    "rooted-copies-root": (GraphError, lambda x: RootedVertexMap(3, 3, x(3)).copy_vertices(0)),
    **{name: (PlanError, lambda x, call=call: call({x(3)}))
       for name, call in PATTERN_ENTRIES.items()},
    "Labeling-key": (LabelError, lambda x: Labeling(P2, {0: [1], x(2): [3]})),
    "Labeling-getitem": (KeyError, lambda x: Labeling(P3, [[1], [2, 4], [3]])[x(3)]),
}

# The entries whose result is written as JSON: a LabelPlan, or a
# (graph, vertex map) pair.
WRITERS = ["rooted_product-root", *(name for name in ENTRIES if name.startswith("plan_"))]


@pytest.mark.parametrize("bad", NOT_VERTICES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_refuses_an_id_that_is_not_a_vertex(entry, bad):
    error, call = ENTRIES[entry]
    call(IDS["n-1"])
    with pytest.raises(error):
        call(IDS[bad])


# Each pattern as a list, and as the iterators that must read like it.
PATTERNS = {
    "independent": [0, 2],
    "dependent": [0, 1],
    "True-merges-into-1": [1, True],
    "1-merges-into-True": [True, 1],
}
READERS = {
    "list": list,
    "iterator": iter,
    "generator": lambda vs: (v for v in vs),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("entry", PATTERN_ENTRIES)
def test_every_pattern_entry_reads_an_iterator_as_its_list(entry, pattern, reader):
    call, given = PATTERN_ENTRIES[entry], READERS[reader](PATTERNS[pattern])
    if pattern != "independent":
        with pytest.raises(PlanError):
            call(given)
        return
    out = call(given)
    assert out == call(PATTERNS[pattern])
    if isinstance(out, LabelPlan):
        assert out.non_singleton
    else:
        assert out.non_singleton_vertices() == {0, 2}


@pytest.mark.parametrize("bad", NOT_VERTICES)
def test_has_edge_is_false_for_an_id_that_is_not_a_vertex(bad):
    x = IDS[bad]
    assert P3.has_edge(0, 1) and P3.has_edge(2, 1)
    assert not any([P3.has_edge(x(3), 0), P3.has_edge(0, x(3)),
                    P3.has_edge(x(3), 2), P3.has_edge(2, x(3))])


def _numbers(value):
    """Every number in a JSON-ready value (a bool counts as one)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


@pytest.mark.parametrize("given", [*NOT_VERTICES, "n-1"])
@pytest.mark.parametrize("entry", WRITERS)
def test_plans_and_vertex_maps_write_only_int_ids(entry, given):
    error, call = ENTRIES[entry]
    try:
        out = call(IDS[given])
    except error:
        assert given != "n-1"
        return
    record = out if isinstance(out, LabelPlan) else out[1]
    numbers = _numbers(record.to_json_dict())
    assert numbers and [x for x in numbers if type(x) is not int] == []


def test_is_vertex_is_the_rule():
    assert [is_vertex(v, 3) for v in (0, 2)] == [True, True]
    assert [is_vertex(v, 3) for v in (True, False, 1.0, -1, 3, "1", None)] == [False] * 7
    assert not is_vertex(0, 0)


# Where `0 <= x < y` may be written out: the rule's own definition, and
# Graph.__new__'s endpoint loop, which runs on every edge of every load and
# product and so inlines the rule (type test, then range) instead of making
# two calls an edge.
INLINE_RANGE_TESTS = {"graph_core.is_vertex": 1, "graph_core.Graph.__new__": 2}


def _range_tests(module):
    """The enclosing qualified name of each `0 <= x < y` in module's source."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Compare)
                    and [type(op) for op in child.ops] == [ast.LtE, ast.Lt]
                    and isinstance(child.left, ast.Constant) and child.left.value == 0):
                found.append(scope)
            walk(child, scope)

    with open(module.__file__, encoding="utf-8") as fh:
        walk(ast.parse(fh.read()), module.__name__.removeprefix("weakiasi."))
    return found


def test_the_vertex_id_range_test_is_written_once():
    """README's rule: is_vertex owns the vertex-id test; every other place asks it."""
    found = Counter(scope for info in pkgutil.iter_modules(weakiasi.__path__)
                    for scope in _range_tests(importlib.import_module(f"weakiasi.{info.name}")))
    assert found == INLINE_RANGE_TESTS
