"""Finite sumset algebra, vertex labelings, and the weak-IASI verifiers.

A set-label is a finite nonempty set of non-negative integers. A labeling
assigns one set-label to every vertex; the induced label of an edge uv is
the sumset f(u) + f(v). The verifiers key each edge once, as an int sum,
a shifted label or (for two non-singletons) a sumset, and group labels
only on collision. They never raise on semantic failure: failure is data
carried in a VerificationReport, exceptions are reserved for malformed input.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from typing import NamedTuple

from .graph_core import Graph, is_vertex, parse_json, short_repr


class LabelError(ValueError):
    """Malformed set-label or labeling input."""


class IntegerSet(tuple):
    """Nonempty finite set of non-negative integers: its sorted tuple."""

    __slots__ = ()

    def __new__(cls, elements):
        elements = tuple(elements)
        if not elements:
            raise LabelError("set-labels must be nonempty")
        # Checked before deduplicating: bool is a subclass of int and True
        # equals 1, so [1, True] would otherwise collapse to {1}.
        for x in elements:
            if type(x) is not int or x < 0:
                raise LabelError("set-labels contain non-negative integers only")
        if len(elements) > 1:
            elements = sorted(set(elements))
        return super().__new__(cls, elements)

    @property
    def elements(self):
        return tuple(self)

    def __repr__(self):
        return "{" + ",".join(map(str, self)) + "}"

    def is_singleton(self):
        return len(self) == 1


def sumset(a, b):
    """All pairwise sums of a and b, deduplicated."""
    return IntegerSet(x + y for x in a for y in b)


def scale_set(r, a):
    """Elementwise multiple r*A. Scaling preserves cardinality, so r >= 1."""
    if type(r) is not int or r < 1:
        raise LabelError("scale factor must be a positive integer")
    return IntegerSet(r * x for x in a)


class _LabelingFields(NamedTuple):
    graph: Graph
    sets: tuple


class Labeling(_LabelingFields):
    """Total assignment of set-labels to the vertices of one graph, stored
    once as sets, the tuple holding vertex v's IntegerSet at index v:
    labeling[v] is vertex v's set, while unpacking gives (graph, sets). Every
    reader on a graph g takes sets_for(g), the one rule for other graphs."""

    __slots__ = ()

    def __new__(cls, graph, labels):
        # labels maps vertex -> set, or is the stored form, a sequence in
        # vertex order; n vertex-id keys cover the graph. A tiny input can
        # name a huge graph, so messages give counts and ten ids at most.
        keys = labels.keys() if hasattr(labels, "keys") else range(len(labels))
        vertices = range(graph.n)
        extra = [v for v in keys if not is_vertex(v, graph.n)]
        if extra or len(labels) != graph.n:
            missing = graph.n - len(labels) + len(extra)
            if missing:
                keys = {v for v in keys if is_vertex(v, graph.n)}
                first = list(islice((v for v in vertices if v not in keys), 10))
                raise LabelError(f"labeling misses {missing} of {graph.n} vertices "
                                 f"(first: {first})")
            raise LabelError(f"labeling names {len(extra)} unknown vertices "
                             f"(first: [{', '.join(map(short_repr, extra[:10]))}])")
        sets = tuple([s if isinstance(s, IntegerSet) else IntegerSet(s)
                      for s in map(labels.__getitem__, vertices)])
        return super().__new__(cls, graph, sets)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through here too, so it validates.
        return cls(*iterable)

    def __getitem__(self, v):
        # A tuple index of -1 would quietly name the last vertex.
        if is_vertex(v, len(self.sets)):
            return self.sets[v]
        raise KeyError(v)

    def sets_for(self, g):
        """sets, or LabelError unless g has the labeled graph's vertex count
        and only edges of it."""
        if g.n != self.graph.n or (self.graph != g
                                   and not set(g.edges) <= set(self.graph.edges)):
            raise LabelError("the labeling was made for a different graph")
        return self.sets

    def edge_label(self, u, v):
        """Induced edge label f(u) + f(v); uv must be an edge."""
        if not self.graph.has_edge(u, v):
            raise LabelError(f"({u},{v}) is not an edge of the labeled graph")
        return sumset(self.sets[u], self.sets[v])

    def non_singleton_vertices(self):
        return {v for v, s in enumerate(self.sets) if len(s) > 1}

    def to_json_dict(self):
        return {"labels": {str(v): list(s) for v, s in enumerate(self.sets)}}

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d, graph):
        raw = d.get("labels") if type(d) is dict else None
        if type(raw) is dict and len(raw) == graph.n:
            # One bulk pass for what the loop below would accept: keys "0"
            # to "n-1" in order, and nonempty lists of non-negative ints.
            # It returns the loop's labeling; other input takes the loop,
            # which names the first bad entry.
            values = list(raw.values())
            if (set(map(type, values)) <= {list} and all(values)
                    and set(map(type, chain.from_iterable(values))) <= {int}
                    and min(chain.from_iterable(values), default=0) >= 0
                    and list(raw) == list(map(str, range(graph.n)))):
                new = tuple.__new__
                sets = tuple([new(IntegerSet, s if len(s) == 1 else sorted(set(s)))
                              for s in values])
                return new(cls, (graph, sets))
        try:
            raw = d["labels"]
            labels = {int(v): IntegerSet(s) for v, s in raw.items()}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise LabelError(f"bad labeling JSON: {exc}")
        # Keys must be canonical decimals: "0" and "00" would both name
        # vertex 0, and one of the two labels would be dropped unseen.
        if list(map(str, labels)) != list(raw):
            bad = next(k for k in raw if str(int(k)) != k)
            raise LabelError(f"bad labeling JSON: key {short_repr(bad)} "
                             "is not a canonical vertex id")
        return cls(graph, labels)

    @classmethod
    def from_json(cls, text, graph):
        return cls.from_json_dict(parse_json(text, LabelError, "bad labeling JSON: "), graph)


class VerificationReport(NamedTuple):
    """Outcome of an IASI / weak-IASI check.

    violations is a tuple of (kind, witness) pairs with kind in
    {duplicate-vertex-label, duplicate-edge-label, weak-condition-failed,
    adjacent-non-singletons}. passed holds exactly when it is empty.
    """

    passed: bool
    violations: tuple
    mono_vertex_count: int
    mono_edge_count: int
    mono_edges: tuple

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "violations": [[kind, list(w)] for kind, w in self.violations],
            "mono_vertex_count": self.mono_vertex_count,
            "mono_edge_count": self.mono_edge_count,
            "mono_edges": [list(e) for e in self.mono_edges],
        }


def mono_indexed_stats(g, labeling):
    """(mono-vertex count r, mono-edge count, mono-edge list).

    A mono-indexed element has set-indexing number 1; an edge is mono
    exactly when both endpoints carry singletons.
    """
    single = [len(s) == 1 for s in labeling.sets_for(g)]
    mono_edges = [(u, v) for u, v in g.edges if single[u] and single[v]]
    return sum(single), len(mono_edges), mono_edges


def _collisions(items, keys):
    """Groups of items sharing a key, ordered by key as a tuple (an int k as
    (k,)). Distinct keys, as in a passing labeling, cost one set build."""
    if len(set(keys)) == len(keys):
        return []
    groups = {}
    for item, key in zip(items, keys):
        groups.setdefault(key, []).append(item)
    return [members for _, members in sorted(
        (key if isinstance(key, tuple) else (key,), members)
        for key, members in groups.items() if len(members) > 1)]


def _verify(g, labeling, weak):
    """Both verifiers in one keyed pass over g's sorted edges.

    An edge's key is its label: the int a + b for a mono edge, the other
    label shifted by s when one end is {s}, else the sorted sumset, the
    only kind that can fail the weak condition (reported when weak is true).
    Non-mono keys have two or more elements, so no int equals one.
    """
    sets = labeling.sets_for(g)
    single = [s[0] if len(s) == 1 else None for s in sets]
    keys, mono_edges, edge_violations = [], [], []
    for e in g.edges:
        u, v = e
        x, y = single[u], single[v]
        if x is None and y is None:
            a, b = sets[u], sets[v]
            key = tuple(sorted({p + q for p in a for q in b}))
            edge_violations.append(("adjacent-non-singletons", e))
            if len(key) != max(len(a), len(b)):
                edge_violations.append(("weak-condition-failed", e))
        elif x is None:
            key = tuple([t + y for t in sets[u]])
        elif y is None:
            key = tuple([t + x for t in sets[v]])
        else:
            key = x + y
            mono_edges.append(e)
        keys.append(key)
    violations = [("duplicate-vertex-label", tuple(vs))
                  for vs in _collisions(range(g.n), sets)]
    violations += [("duplicate-edge-label", tuple(x for e in es for x in e))
                   for es in _collisions(g.edges, keys)]
    if weak:
        violations += edge_violations
    return VerificationReport(not violations, tuple(violations),
                              g.n - single.count(None), len(mono_edges), tuple(mono_edges))


def verify_iasi(g, labeling):
    """Check both injectivity conditions: distinct vertex labels and
    distinct induced edge labels."""
    return _verify(g, labeling, weak=False)


def verify_weak_iasi(g, labeling):
    """Check the full weak-IASI condition in one pass over the edges.

    Passes when the labeling is an IASI and every edge label's cardinality
    equals the max of its endpoint cardinalities. Edges whose endpoints are
    both non-singleton are reported as structural certificates: for integer
    sets |A+B| >= |A|+|B|-1, so such an edge can never satisfy the weak
    condition, and weak-condition-failed fires on exactly the edges that
    adjacent-non-singletons names. Both are still checked per edge.

    Raises LabelError when the labeling was made for a graph with another
    vertex count or without one of g's edges.
    """
    return _verify(g, labeling, weak=True)


def restrict_labeling(labeling, subgraph, old_ids):
    """Labeling induced on a subgraph returned by Graph.induced_subgraph.

    old_ids[new_vertex] is the original vertex id; labels carry over
    unchanged, so any weak IASI stays one on the restriction.
    """
    if subgraph.n != len(old_ids):
        raise LabelError("old_ids length does not match the subgraph")
    try:
        sets = [labeling[old] for old in old_ids]
    except KeyError as exc:
        raise LabelError(f"old id {exc.args[0]!r} is not a vertex of the labeled graph") from None
    return Labeling(subgraph, sets)


def is_k_uniform(g, labeling, k):
    """True when every induced edge label has cardinality exactly k."""
    if type(k) is not int or k < 1:
        raise LabelError("uniformity degree must be a positive integer")
    sets = labeling.sets_for(g)
    return all(len(sumset(sets[u], sets[v])) == k for u, v in g.edges)
