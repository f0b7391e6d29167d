"""Maximum matchings on forests and the alpha + mu = n identity.

The leaf-greedy rule (match the lowest-index pendant to its neighbor,
delete both, repeat) is exact on forests and gives reproducible witnesses.
It is the pairs half of Graph.peel, the graph's graph_core.leaf_peel, a
heap-driven O(n log n) peel over the neighbor lists, so the matching and the
forest alpha witness come from one peel. On top of it sits the
alternating-path shifting procedure that upgrades any maximum matching into
one covering every internal vertex; it too walks the neighbor lists, in
time linear in the length of its walks, and each graph derives its cover
once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, NotAForestError
from .graph_core import Graph


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges."""

    edges: tuple  # tuple[(u, v)] with u < v, sorted
    covered: frozenset

    @classmethod
    def from_edges(cls, edges) -> "Matching":
        es = tuple(sorted(tuple(sorted(e)) for e in edges))
        covered = frozenset([v for e in es for v in e])
        if len(covered) != 2 * len(es):  # a shared endpoint or a self-loop
            raise ValueError("edges share an endpoint")
        return cls(edges=es, covered=covered)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class KonigEgervaryReport:
    """alpha + mu versus the order of a forest, plus the perfect verdict."""

    alpha: int
    mu: int
    order: int
    identity_holds: bool
    has_perfect_matching: bool


def _require_forest(g: Graph, who: str):
    if not g.is_forest:
        raise NotAForestError(f"{who} requires an acyclic graph")


def leaf_greedy_pairs(g: Graph) -> tuple:
    """The leaf-greedy maximum matching of a forest as the peel leaves it:
    ``(pendant, neighbor)`` pairs in peel order, which maximum_matching
    sorts into a Matching."""
    _require_forest(g, "maximum_matching")
    return g.peel[1]


def maximum_matching(g: Graph) -> Matching:
    """Leaf-greedy maximum matching of a forest.

    Repeatedly matches the lowest-index pendant of the remaining graph to
    its unique neighbor and deletes both; isolated vertices are dropped.
    """
    return Matching.from_edges(leaf_greedy_pairs(g))


def internal_cover_matching(g: Graph) -> Matching:
    """A maximum matching of a forest covering every internal vertex.

    Starts from the leaf-greedy matching, then repairs each exposed internal
    vertex by walking an alternating path (lowest-index eligible neighbor at
    every step), swapping matched and unmatched edges until the deficiency
    lands on a pendant. Matching size is preserved by every swap, so the
    result is still maximum; exposed vertices end up pendant or isolated.
    The repair runs once per graph: every call, and embed_perfect's
    pendant_only mode, shares the one record.
    """
    _require_forest(g, "internal_cover_matching")
    return g._derive("internal_cover", _repaired_cover)


def _repaired_cover(g: Graph) -> Matching:
    """The alternating-path repair of the leaf-greedy matching of the
    forest ``g``, which internal_cover_matching derives once per graph."""
    n = g.vertex_count
    nbrs = g._nbrs
    partner = [-1] * n
    for u, v in g.peel[1]:
        partner[u] = v
        partner[v] = u

    # A repair only ever leaves a pendant exposed, so one ascending pass
    # meets every exposed internal vertex in the order a rescan would.
    for v in range(n):
        if partner[v] >= 0 or len(nbrs[v]) < 2:
            continue
        visited = {v}
        e, came_from = v, -1
        while len(nbrs[e]) >= 2:
            q = nbrs[e][0]  # the lowest neighbor but the one the walk came from
            if q == came_from:
                q = nbrs[e][1]
            if partner[q] < 0:
                raise InternalError("maximum matching left two adjacent exposed vertices")
            r = partner[q]
            if q in visited or r in visited:
                raise InternalError("alternating walk revisited a vertex in a forest")
            visited.add(q)
            visited.add(r)
            partner[e], partner[q] = q, e
            partner[r] = -1
            e, came_from = r, q
    edges = tuple((v, p) for v, p in enumerate(partner) if v < p)
    covered = frozenset(v for e in edges for v in e)
    if not len(covered) == 2 * len(edges) == n - partner.count(-1):  # pragma: no cover
        raise InternalError("partner table inconsistent")
    return Matching(edges=edges, covered=covered)


def verify_konig_egervary(g: Graph) -> KonigEgervaryReport:
    """Report alpha, mu, and whether alpha + mu equals the order.

    The identity holds on every forest (bipartiteness); the report exists
    so callers and tests can confirm it instance by instance.
    """
    _require_forest(g, "verify_konig_egervary")
    a = g.peel[0].count(1)
    mu = len(g.peel[1])
    n = g.vertex_count
    return KonigEgervaryReport(
        alpha=a,
        mu=mu,
        order=n,
        identity_holds=(a + mu == n),
        has_perfect_matching=(2 * mu == n),
    )
