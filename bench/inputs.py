"""Seeded input generator for the benchmark.

Everything here is independent of the weakiasi package: graphs, products,
Sidon sets and labelings are built from the definitions, so the program
under test only ever sees the JSON files written from them. The same seed
always gives the same bytes.

Graphs are (n, edges) pairs with edges as sorted (u, v) tuples, u < v.
Product vertex numbering is row-major, (i, j) -> i * n2 + j; corona and
rooted products put the first factor's vertices first, as the CLI does.
"""

from __future__ import annotations

import json
import random


def _graph(n, edges):
    return n, sorted({(u, v) if u < v else (v, u) for u, v in edges})


def path(n):
    return _graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return _graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gnp(n, p, rng):
    """Erdos-Renyi G(n, p); may leave isolated vertices."""
    return _graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])


def random_connected(n, extra_p, rng):
    """A random spanning path plus each other pair with probability extra_p."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set(zip(perm, perm[1:]))
    edges.update((u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < extra_p)
    return _graph(n, edges)


def cartesian(g1, g2):
    (n1, e1), (n2, e2) = g1, g2
    edges = [(i * n2 + u, i * n2 + v) for i in range(n1) for u, v in e2]
    edges += [(u * n2 + j, v * n2 + j) for j in range(n2) for u, v in e1]
    return _graph(n1 * n2, edges)


def direct(g1, g2):
    (n1, e1), (n2, e2) = g1, g2
    edges = []
    for u1, v1 in e1:
        for u2, v2 in e2:
            edges += [(u1 * n2 + u2, v1 * n2 + v2), (u1 * n2 + v2, v1 * n2 + u2)]
    return _graph(n1 * n2, edges)


def strong(g1, g2):
    return _graph(g1[0] * g2[0], cartesian(g1, g2)[1] + direct(g1, g2)[1])


def lexicographic(g1, g2):
    (n1, e1), (n2, e2) = g1, g2
    edges = [(u * n2 + j, v * n2 + k) for u, v in e1
             for j in range(n2) for k in range(n2)]
    edges += [(i * n2 + u, i * n2 + v) for i in range(n1) for u, v in e2]
    return _graph(n1 * n2, edges)


def corona(g1, g2):
    (n1, e1), (n2, e2) = g1, g2
    edges = list(e1)
    for i in range(n1):
        base = n1 + i * n2
        edges += [(base + u, base + v) for u, v in e2]
        edges += [(i, base + j) for j in range(n2)]
    return _graph(n1 * (1 + n2), edges)


def rooted(g1, g2, root):
    (n1, e1), (n2, e2) = g1, g2

    def vertex(i, v):
        if v == root:
            return i
        return n1 + i * (n2 - 1) + (v if v < root else v - 1)

    edges = list(e1)
    edges += [(vertex(i, u), vertex(i, v)) for i in range(n1) for u, v in e2]
    return _graph(n1 + n1 * (n2 - 1), edges)


PRODUCTS = {
    "cartesian": cartesian,
    "direct": direct,
    "strong": strong,
    "lex": lexicographic,
    "corona": corona,
}


def product(op, g1, g2, root=None):
    if op == "rooted":
        return rooted(g1, g2, root)
    return PRODUCTS[op](g1, g2)


# ---------------------------------------------------------------------------
# Sidon sets and weak-IASI labelings.

def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def erdos_turan(count):
    """`count` Sidon values from the Erdos-Turan set {2pk + (k^2 mod p)}.

    p is the least prime >= count; all pairwise sums (doubles included)
    of the returned values are distinct.
    """
    p = max(count, 2)
    while not _is_prime(p):
        p += 1
    return [2 * p * k + k * k % p for k in range(count)]


def adjacency(graph):
    n, edges = graph
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def random_independent(graph, rng, share):
    """Seeded independent set: vertices in random order, each kept with
    probability `share` when none of its neighbours is kept."""
    adj = adjacency(graph)
    order = list(range(graph[0]))
    rng.shuffle(order)
    kept = set()
    for v in order:
        if rng.random() < share and not adj[v] & kept:
            kept.add(v)
    return kept


def sidon_labeling(graph, non_singleton, rng):
    """Weak IASI with the given independent set as its non-singletons.

    Singletons take Erdos-Turan values in a seeded order, so
    singleton-singleton edge sums are distinct. The k-th non-singleton gets
    a block of 2 or 3 consecutive integers starting at (k + 1) * stride with
    stride above every singleton value: two blocks shifted by singletons
    can then only share their least element when vertex and shift agree.
    Returns a list of sorted label tuples indexed by vertex.
    """
    n, _ = graph
    singles = [v for v in range(n) if v not in non_singleton]
    values = erdos_turan(len(singles))
    rng.shuffle(values)
    labels = [None] * n
    for v, x in zip(singles, values):
        labels[v] = (x,)
    stride = max(values, default=0) + 1
    for k, v in enumerate(sorted(non_singleton)):
        start = (k + 1) * stride
        labels[v] = tuple(range(start, start + rng.choice((2, 3))))
    return labels


CORRUPTIONS = ("duplicate-vertex-label", "adjacent-non-singletons",
               "duplicate-edge-label")


def corrupt(graph, labels, kind, rng):
    """Copy of `labels` broken in one seeded place so that the weak-IASI
    condition fails with a violation of the given kind."""
    n, edges = graph
    labels = list(labels)
    singles = [v for v in range(n) if len(labels[v]) == 1]
    if kind == "duplicate-vertex-label":
        x, y = rng.sample(singles, 2)
        labels[x] = labels[y]
    elif kind == "adjacent-non-singletons":
        u, v = rng.choice([(u, v) for u, v in edges
                           if (len(labels[u]) == 1) != (len(labels[v]) == 1)])
        w = u if len(labels[u]) == 1 else v
        start = max(x for lab in labels for x in lab) + 1
        labels[w] = (start, start + 1)
    elif kind == "duplicate-edge-label":
        taken = {lab[0] for lab in labels if len(lab) == 1}
        mono = [(u, v) for u, v in edges
                if len(labels[u]) == 1 and len(labels[v]) == 1]
        while True:
            (a, b), (c, d) = rng.sample(mono, 2)
            if {a, b} & {c, d}:
                continue
            # relabel d so that f(c) + f(d) = f(a) + f(b)
            x = labels[a][0] + labels[b][0] - labels[c][0]
            if x >= 0 and x not in taken:
                labels[d] = (x,)
                break
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return labels


# ---------------------------------------------------------------------------
# JSON files in the formats the CLI reads.

def graph_json(graph):
    n, edges = graph
    return {"n": n, "edges": [list(e) for e in edges]}


def labeling_json(labels):
    return {"labels": {str(v): list(lab) for v, lab in enumerate(labels)}}


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def rng_for(seed, name):
    """Independent stream per input, so adding one input moves no other."""
    return random.Random(f"{seed}:{name}")
