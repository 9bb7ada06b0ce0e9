"""Finite sumset algebra, vertex labelings, and the weak-IASI verifiers.

A set-label is a finite nonempty set of non-negative integers. A labeling
assigns one set-label to every vertex; the induced label of an edge uv is
the sumset f(u) + f(v). The verifiers never raise on semantic failure:
failure is data carried in a VerificationReport, exceptions are reserved
for malformed input.
"""

from __future__ import annotations

import json
from typing import NamedTuple


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
        if any(type(x) is not int or x < 0 for x in elements):
            raise LabelError("set-labels contain non-negative integers only")
        return super().__new__(cls, sorted(set(elements)))

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
    if r < 1:
        raise LabelError("scale factor must be a positive integer")
    return IntegerSet(r * x for x in a)


class Labeling:
    """Total assignment of set-labels to the vertices of one graph."""

    def __init__(self, graph, labels):
        labels = {v: (s if isinstance(s, IntegerSet) else IntegerSet(s))
                  for v, s in labels.items()}
        missing = [v for v in range(graph.n) if v not in labels]
        if missing:
            raise LabelError(f"labeling misses vertices {missing}")
        extra = [v for v in labels if not 0 <= v < graph.n]
        if extra:
            raise LabelError(f"labeling names unknown vertices {extra}")
        self.graph = graph
        self.labels = labels

    def __eq__(self, other):
        if not isinstance(other, Labeling):
            return NotImplemented
        return self.graph == other.graph and self.labels == other.labels

    def __getitem__(self, v):
        return self.labels[v]

    def edge_label(self, u, v):
        """Induced edge label f(u) + f(v); uv must be an edge."""
        if not self.graph.has_edge(u, v):
            raise LabelError(f"({u},{v}) is not an edge of the labeled graph")
        return sumset(self.labels[u], self.labels[v])

    def non_singleton_vertices(self):
        return {v for v, s in self.labels.items() if len(s) > 1}

    def to_json_dict(self):
        return {"labels": {str(v): list(s) for v, s in sorted(self.labels.items())}}

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d, graph):
        try:
            raw = d["labels"]
            labels = {int(v): IntegerSet(s) for v, s in raw.items()}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise LabelError(f"bad labeling JSON: {exc}")
        # Keys must be canonical decimals: "0" and "00" would both name
        # vertex 0, and one of the two labels would be dropped unseen.
        if list(map(str, labels)) != list(raw):
            bad = next(k for k in raw if str(int(k)) != k)
            raise LabelError(f"bad labeling JSON: key {bad!r} is not a canonical vertex id")
        return cls(graph, labels)

    @classmethod
    def from_json(cls, text, graph):
        return cls.from_json_dict(json.loads(text), graph)


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
    r = sum(1 for v in range(g.n) if labeling[v].is_singleton())
    mono_edges = [
        (u, v)
        for u, v in g.sorted_edges()
        if labeling[u].is_singleton() and labeling[v].is_singleton()
    ]
    return r, len(mono_edges), mono_edges


def _verify(g, labeling, weak):
    """Both verifiers in one pass over g's sorted edges.

    Each edge's sumset is built once, as a sorted tuple, and only groups
    of two or more vertices or edges are sorted. Per-edge weak-condition
    violations are reported only when weak is true.
    """
    if g.n != labeling.graph.n or not g.edges <= labeling.graph.edges:
        raise LabelError("the labeling was made for a different graph")
    sets = [labeling.labels[v] for v in range(g.n)]
    by_label = {}
    for v, s in enumerate(sets):
        by_label.setdefault(s, []).append(v)
    by_sum = {}
    edge_violations = []
    mono_edges = []
    for e in g.sorted_edges():
        a, b = sets[e[0]], sets[e[1]]
        la, lb = len(a), len(b)
        if la == 1 and lb == 1:
            key = (a[0] + b[0],)
            mono_edges.append(e)
        elif la == 1:
            s = a[0]
            key = tuple(x + s for x in b)
        elif lb == 1:
            s = b[0]
            key = tuple(x + s for x in a)
        else:
            key = tuple(sorted({x + y for x in a for y in b}))
            edge_violations.append(("adjacent-non-singletons", e))
        if len(key) != max(la, lb):
            edge_violations.append(("weak-condition-failed", e))
        by_sum.setdefault(key, []).append(e)
    violations = [("duplicate-vertex-label", tuple(vs))
                  for _, vs in sorted(kv for kv in by_label.items() if len(kv[1]) > 1)]
    violations += [("duplicate-edge-label", tuple(x for e in es for x in e))
                   for _, es in sorted(kv for kv in by_sum.items() if len(kv[1]) > 1)]
    if weak:
        violations += edge_violations
    return VerificationReport(
        passed=not violations,
        violations=tuple(violations),
        mono_vertex_count=sum(len(s) == 1 for s in sets),
        mono_edge_count=len(mono_edges),
        mono_edges=tuple(mono_edges),
    )


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
    return Labeling(subgraph, {new: labeling[old] for new, old in enumerate(old_ids)})


def is_k_uniform(g, labeling, k):
    """True when every induced edge label has cardinality exactly k."""
    if k < 1:
        raise LabelError("uniformity degree must be a positive integer")
    return all(len(labeling.edge_label(u, v)) == k for u, v in g.edges)
