"""The benchmark's own correctness checks.

None of these call into weakiasi: the weak-IASI report, witness checks and
the small brute-force sparing oracle are written from the definitions, so a
wrong answer from the program cannot also be the reference it is judged by.
"""

from __future__ import annotations

import random

from inputs import adjacency


def weak_iasi_report(graph, labels):
    """The verifier's JSON report for a labeling, from the definitions.

    labels is a list of sorted label tuples indexed by vertex. Violations
    come in the verifier's documented order: duplicate vertex labels and
    duplicate edge labels (each grouped by label, in label order), then per
    edge in sorted order adjacent non-singletons and weak-condition
    failures.
    """
    n, edges = graph
    edges = sorted(edges)
    violations = []
    by_label = {}
    for v in range(n):
        by_label.setdefault(labels[v], []).append(v)
    for lab in sorted(by_label):
        if len(by_label[lab]) > 1:
            violations.append(["duplicate-vertex-label", by_label[lab]])
    sums = [tuple(sorted({x + y for x in labels[u] for y in labels[v]}))
            for u, v in edges]
    by_sum = {}
    for e, s in zip(edges, sums):
        by_sum.setdefault(s, []).append(e)
    for s in sorted(by_sum):
        if len(by_sum[s]) > 1:
            violations.append(["duplicate-edge-label",
                               [x for e in by_sum[s] for x in e]])
    for (u, v), s in zip(edges, sums):
        a, b = labels[u], labels[v]
        if len(a) > 1 and len(b) > 1:
            violations.append(["adjacent-non-singletons", [u, v]])
        if len(s) != max(len(a), len(b)):
            violations.append(["weak-condition-failed", [u, v]])
    mono = [[u, v] for u, v in edges if len(labels[u]) == 1 == len(labels[v])]
    return {
        "passed": not violations,
        "violations": violations,
        "mono_vertex_count": sum(1 for lab in labels if len(lab) == 1),
        "mono_edge_count": len(mono),
        "mono_edges": mono,
    }


def labels_from_json(payload, n):
    """Label tuples indexed by vertex from a {"labels": {...}} document."""
    raw = payload["labels"]
    if sorted(raw, key=int) != [str(v) for v in range(n)]:
        raise ValueError("labeling does not cover exactly the graph's vertices")
    return [tuple(sorted(set(raw[str(v)]))) for v in range(n)]


def graph_from_json(payload):
    return payload["n"], sorted(tuple(e) for e in payload["edges"])


def witness_problems(graph, value, witness):
    """Why (value, witness) is not a valid sparing certificate, or None.

    The witness must be a strictly increasing list of vertices forming an
    independent set whose degree sum leaves exactly `value` edges uncovered.
    """
    n, edges = graph
    adj = adjacency(graph)
    if list(witness) != sorted(set(witness)) or any(not 0 <= v < n for v in witness):
        return "witness is not a sorted list of distinct vertices"
    chosen = set(witness)
    if any(adj[v] & chosen for v in chosen):
        return "witness is not independent"
    covered = sum(len(adj[v]) for v in chosen)
    if len(edges) - covered != value:
        return f"m - degree sum is {len(edges) - covered}, reported {value}"
    return None


def brute_force_sparing(graph):
    """Minimum number of edges missed by an independent set, by enumeration."""
    n, edges = graph
    adj_mask = [0] * n
    for u, v in edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best = 0
    for mask in range(1 << n):
        cov = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj_mask[v] & mask:
                break
            cov += adj_mask[v].bit_count()
            m &= m - 1
        else:
            best = max(best, cov)
    return len(edges) - best


def sweep_random_graphs(seed):
    """The ten random graphs `sweep --seed seed` checks, drawn again with the
    sweep's recipe: n uniform in 4..10, a random spanning path, then each
    other pair with probability 0.3, all from random.Random(seed)."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(10):
        n = rng.randint(4, 10)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    edges.add((u, v))
        graphs.append((n, sorted(edges)))
    return graphs
