"""Exact sparing numbers plus the closed-form results for special families.

In any weak IASI the vertices with non-singleton labels form an independent
set S, and the mono-indexed edges are exactly the edges missing S. Since S
is independent, every edge touching S touches it in exactly one endpoint,
so the number of covered edges is the degree sum over S. The sparing number
is therefore

    phi(G) = m - max { sum of degrees over S : S independent }

which is a maximum-weight independent set problem with degree weights. The
oracle solves it by branch and bound with bitset state. Its bound is the
number of edges with an endpoint among the vertices still eligible: an
independent set covers each edge at most once, and every edge at an
eligible vertex is still uncovered, because the chosen vertices' neighbours
are no longer eligible. A configurable vertex cap keeps the search at desk
scale.
"""

from __future__ import annotations

import os
from typing import NamedTuple

DEFAULT_ORACLE_BOUND = 24
ORACLE_BOUND_ENV = "WEAKIASI_ORACLE_BOUND"


class CapacityError(RuntimeError):
    """Graph exceeds the exact-search vertex bound."""


class SparingError(ValueError):
    """Invalid argument to a closed-form sparing formula, or an invalid
    oracle bound in the environment."""


class SparingResult(NamedTuple):
    """Optimal mono-edge count plus the witness non-singleton vertex set.

    nodes, the search size, stays out of ==, != and hash.
    """

    value: int
    witness: tuple
    method: str
    nodes: int = 0

    def __eq__(self, other):
        if not isinstance(other, SparingResult):
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    def to_json_dict(self, formula_value=None):
        d = {"value": self.value, "witness": list(self.witness), "method": self.method}
        if formula_value is not None:
            d["formula_value"] = formula_value
        return d


def oracle_bound_default():
    """The vertex cap from the environment, or DEFAULT_ORACLE_BOUND if unset."""
    env = os.environ.get(ORACLE_BOUND_ENV)
    if not env:
        return DEFAULT_ORACLE_BOUND
    try:
        bound = int(env)
    except ValueError:
        bound = -1
    if bound < 0:
        raise SparingError(
            f"{ORACLE_BOUND_ENV} must be a non-negative integer, got {env!r}")
    return bound


def _adj_masks(g):
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _max_coverage(n, adj, deg, target=None, fixed_mask=0, start_cov=0):
    """Max degree-sum over independent sets inside the available mask.

    With target set, returns True as soon as start_cov plus a search gain
    reaches it (and False if unreachable); otherwise returns the maximum.
    Either way the second return value is the number of search nodes.
    Branching follows descending degree; the bound is the number of edges
    with an endpoint still eligible, sum deg(avail) - |E[avail]|, since an
    independent set covers each such edge at most once and none of them
    is covered yet.
    """
    order = sorted(range(n), key=lambda v: (-deg[v], v))
    best = [start_cov if target is None else None]
    nodes = [0]

    def edge_bound(avail):
        total = inner = 0
        m = avail
        while m:
            lsb = m & -m
            u = lsb.bit_length() - 1
            total += deg[u]
            inner += (adj[u] & avail).bit_count()
            m ^= lsb
        return total - inner // 2

    def dfs(avail, cov):
        nodes[0] += 1
        if target is not None:
            if cov >= target:
                best[0] = True
                return True
            if cov + edge_bound(avail) < target:
                return False
        else:
            if cov > best[0]:
                best[0] = cov
            if cov + edge_bound(avail) <= best[0]:
                return False
        v = next((u for u in order if avail >> u & 1), None)
        if v is None:
            return target is not None and cov >= target
        bit = 1 << v
        if dfs(avail & ~(bit | adj[v]), cov + deg[v]):
            return True
        return dfs(avail & ~bit, cov)

    hit = dfs(((1 << n) - 1) & ~fixed_mask, start_cov)
    if target is not None:
        return bool(hit), nodes[0]
    return best[0], nodes[0]


def sparing_exact(g, oracle_bound=None):
    """Exact sparing number with a lexicographically smallest witness.

    Witness ties are broken by Python tuple order on the sorted vertex
    list, so a prefix beats any of its extensions. The witness is built
    greedily vertex by vertex, each step validated by a reachability run
    of the same branch-and-bound. The result's nodes field counts the
    search nodes of the maximum search and of every reachability run.
    """
    bound = oracle_bound if oracle_bound is not None else oracle_bound_default()
    if g.n > bound:
        raise CapacityError(
            f"graph has {g.n} vertices, exact oracle bound is {bound}"
        )
    adj = _adj_masks(g)
    deg = [m.bit_count() for m in adj]
    best_cov, nodes = _max_coverage(g.n, adj, deg)

    chosen = []
    blocked = 0  # chosen vertices and their neighborhoods
    cov = 0
    for v in range(g.n):
        if cov == best_cov:
            break
        if blocked >> v & 1:
            continue
        reachable, run_nodes = _max_coverage(
            g.n, adj, deg,
            target=best_cov,
            fixed_mask=blocked | adj[v] | ((1 << (v + 1)) - 1),
            start_cov=cov + deg[v],
        )
        nodes += run_nodes
        if reachable:
            chosen.append(v)
            blocked |= (1 << v) | adj[v]
            cov += deg[v]
    return SparingResult(value=g.m - best_cov, witness=tuple(chosen),
                         method="exact-oracle", nodes=nodes)


def sparing_brute_force(g):
    """Independent reference oracle: full subset enumeration.

    Exponential; intended for cross-checking sparing_exact on tiny graphs.
    """
    adj = _adj_masks(g)
    deg = [m.bit_count() for m in adj]
    best = None
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if any(adj[u] & mask for u in verts):
            continue
        cov = sum(deg[v] for v in verts)
        key = (-cov, tuple(verts))
        if best is None or key < best:
            best = key
    cov, witness = -best[0], best[1]
    return SparingResult(value=g.m - cov, witness=witness, method="exact-oracle")


# ---------------------------------------------------------------------------
# Closed forms.

def sparing_formula_complete(n):
    """Minimum mono-edge count of K_n: (n-1)(n-2)/2."""
    if n < 1:
        raise SparingError("complete graphs need at least one vertex")
    return (n - 1) * (n - 2) // 2


def sparing_formula_cycle(n):
    """0 for even cycles (bipartite), 1 for odd cycles."""
    if n < 3:
        raise SparingError("cycles need at least 3 vertices")
    return n % 2


def sparing_formula_corona(n1, m2, r1, r2):
    """The corona construction cost r1*(1+r2) + (n1-r1)*m2.

    r1 and r2 are the mono-indexed vertex counts of the chosen factor
    labelings. This is the cost the source construction claims, exposed as
    a reference value; the oracle is the ground truth and may beat it.
    """
    if min(n1, m2, r1, r2) < 0:
        raise SparingError("corona formula arguments must be non-negative")
    if r1 > n1:
        raise SparingError("r1 cannot exceed the vertex count n1")
    return r1 * (1 + r2) + (n1 - r1) * m2


def cycle_parity_of(n, s):
    """Mono-edge count of C_n with a witness independent set of size s.

    Each witness vertex covers exactly two cycle edges, so the count is
    n - 2s; its parity always matches the parity of n.
    """
    if n < 3:
        raise SparingError("cycles need at least 3 vertices")
    if not 0 <= s <= n // 2:
        raise SparingError(f"independent sets of C_{n} have at most {n // 2} vertices")
    return n - 2 * s


def sparing_union(g1, g2, oracle_bound=None):
    """Sparing number of a disjoint union; additive over components."""
    r1 = sparing_exact(g1, oracle_bound)
    r2 = sparing_exact(g2, oracle_bound)
    return r1.value + r2.value


__all__ = [
    "CapacityError",
    "SparingError",
    "SparingResult",
    "sparing_exact",
    "sparing_brute_force",
    "sparing_formula_complete",
    "sparing_formula_cycle",
    "sparing_formula_corona",
    "cycle_parity_of",
    "sparing_union",
    "DEFAULT_ORACLE_BOUND",
    "ORACLE_BOUND_ENV",
]
