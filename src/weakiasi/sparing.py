"""Exact sparing numbers plus the closed-form results for special families.

In any weak IASI the vertices with non-singleton labels form an independent
set S, and the mono-indexed edges are exactly the edges missing S. Since S
is independent, every edge touching S touches it in exactly one endpoint,
so the number of covered edges is the degree sum over S. The sparing number
is therefore

    phi(G) = m - max { sum of degrees over S : S independent }

which is a maximum-weight independent set problem with degree weights. The
oracle solves it by branch and bound with bitset state. Its bound is the
number of edges at eligible vertices: an independent set covers each edge
at most once, and every edge at an eligible vertex is still uncovered,
because the chosen vertices' neighbours are no longer eligible. One
function, lost(taken, avail), gives how far the bound of avail falls when
taken leaves it, so lost(x, x) is the bound of x itself; each branch
updates the bound by it rather than recounting.

Deciding a vertex often splits the eligible vertices into parts with no
edge between them; in a corona or rooted product each copy of the second
factor falls away once its hub is decided. Parts are independent
subproblems, so at every node that survives the bound the oracle solves
each part but the largest exactly, remembers the answer per part, and
branches on the largest part alone, keeping the incumbent for the global
bound. A vertex cap, oracle_bound, keeps the search at desk scale: the
caller passes it per call, and it is DEFAULT_ORACLE_BOUND otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

DEFAULT_ORACLE_BOUND = 24


class CapacityError(RuntimeError):
    """Graph exceeds the exact-search vertex bound."""


class SparingError(ValueError):
    """Invalid argument to a closed-form sparing formula."""


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


def _adj_masks(g):
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def sparing_exact(g, oracle_bound=DEFAULT_ORACLE_BOUND):
    """Exact sparing number with a lexicographically smallest witness.

    Raises CapacityError when g has more than oracle_bound vertices.

    The sparing number is m minus the best coverage. The search bounds
    the coverage still to gain by the number of edges at eligible
    vertices, and lost(x, x) is that number for a vertex set x. It
    branches on the eligible vertex of highest degree (lowest index on
    ties): take it, or leave it out. At each node that survives the
    bound, the eligible vertices are split into connected parts. Every
    part but the largest is solved exactly, by the same search with its
    own incumbent, and its value is added to the coverage; the node then
    branches on the largest part with the incumbent it already had. Part
    values are memoized by vertex mask in a dict that lives for this one
    call. It needs no cap: each entry is made by a search node, so the
    memo never outgrows the node count.

    Witness ties are broken by Python tuple order on the sorted vertex
    list, so a prefix beats any of its extensions. The witness is built
    greedily vertex by vertex, each step validated by a reachability run
    of the same search, which peels parts and shares the memo too. Taking
    the union of each part's own lex-smallest witness would be wrong: a
    part with a vertex of degree 0 prefers the shorter set, which can lose
    to an extension in the whole graph's tuple order.

    The result's nodes field counts every search node: those of the
    maximum search, of every reachability run, and of every exact solve
    of a peeled part. A memo hit costs no node.
    """
    if g.n > oracle_bound:
        raise CapacityError(
            f"graph has {g.n} vertices, exact oracle bound is {oracle_bound}; "
            "raise it with --oracle-bound")
    degree = [m.bit_count() for m in _adj_masks(g)]
    # Search bit i is the i-th vertex in branching order (descending
    # degree, then index), so the next branching vertex is the lowest bit.
    order = sorted(range(g.n), key=lambda v: (-degree[v], v))
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    adj = [0] * g.n
    for u, v in g.edges:
        adj[rank[u]] |= 1 << rank[v]
        adj[rank[v]] |= 1 << rank[u]
    deg = [degree[v] for v in order]
    memo = {}  # part mask -> (its edge-count bound, its best coverage)
    nodes = 0

    def lost(taken, avail):
        """How far the edge-count bound of avail falls when the vertices of
        taken leave it: their edges to vertices already out of avail, and
        the edges among them."""
        out = inner = 0
        m = taken
        while m:
            low = m & -m
            u = low.bit_length() - 1
            a = adj[u]
            out += deg[u] - (a & avail).bit_count()
            inner += (a & taken).bit_count()
            m ^= low
        return out + inner // 2

    def peel(avail):
        """The largest connected part of avail, plus the bound and the best
        coverage summed over the other parts, each solved exactly once per
        call."""
        largest = bound = cov = 0
        rest = avail
        while rest:
            part = layer = rest & -rest
            while layer:
                grow = 0
                while layer:
                    low = layer & -layer
                    grow |= adj[low.bit_length() - 1]
                    layer ^= low
                layer = grow & rest & ~part
                part |= layer
            rest ^= part
            # Keep the first of the largest parts; solve every other one.
            if part.bit_count() > largest.bit_count():
                largest, part = part, largest
            if part:
                known = memo.get(part)
                if known is None:
                    part_bound = lost(part, part)
                    known = memo[part] = (
                        part_bound, gain(part, 0, part_bound, 0, part_bound + 1))
                bound += known[0]
                cov += known[1]
        return largest, bound, cov

    def gain(avail, cov, bound, best, goal):
        """max(best, cov + the best coverage inside avail), where bound is
        the edge-count bound of avail; or, as soon as that reaches goal,
        any value of at least goal."""
        nonlocal nodes
        nodes += 1
        if cov > best:
            best = cov
        if cov + bound <= best or best >= goal:
            return best
        avail, peeled_bound, peeled = peel(avail)
        bound -= peeled_bound
        cov += peeled
        if cov > best:
            best = cov
        if cov + bound <= best or best >= goal:
            return best
        bit = avail & -avail
        v = bit.bit_length() - 1
        if bit == avail:
            return max(cov + deg[v], best)
        taken = bit | (adj[v] & avail)
        best = gain(avail ^ taken, cov + deg[v],
                    bound - lost(taken, avail), best, goal)
        if best >= goal:
            return best
        return gain(avail ^ bit, cov, bound - lost(bit, avail), best, goal)

    free = (1 << g.n) - 1  # search bits of the undecided, unblocked vertices
    best_cov = gain(free, 0, g.m, 0, g.m + 1)
    witness = []
    cov = 0
    for v in range(g.n):
        if cov == best_cov:
            break
        i = rank[v]
        bit = 1 << i
        if not free & bit:
            continue
        free ^= bit
        # Can the best coverage still be reached with v and later vertices?
        later = free & ~adj[i]
        if gain(later, cov + deg[i], lost(later, later),
                best_cov - 1, best_cov) == best_cov:
            witness.append(v)
            free = later
            cov += deg[i]
    return SparingResult(value=g.m - best_cov, witness=tuple(witness),
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


def sparing_union(g1, g2, oracle_bound=DEFAULT_ORACLE_BOUND):
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
]
