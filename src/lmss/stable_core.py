"""Stability numbers, maximum stable sets, and the local-maximum family.

A set S is a local maximum stable set when S is a maximum stable set of the
subgraph induced by its closed neighborhood N[S]. The empty set is always a
member of the family by convention (the greedoid view requires it).

Everything here is exact: forests get the lowest-pendant peel of
graph_core.leaf_peel (a heap-driven O(n log n) peel on bitmask adjacency,
whose n-bit mask steps dominate at very large n), everything else goes
through exhaustive search that refuses inputs beyond a configurable vertex
cap instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, TooLargeForBruteForce, TooLargeForEnumeration
from .graph_core import Graph, bits_of, closed_mask_of, induced_subgraph, leaf_peel, set_of

DEFAULT_BRUTE_FORCE_CAP = 24
DEFAULT_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class StableSetResult:
    """A witness maximum stable set together with how it was obtained."""

    set: frozenset
    size: int
    method: str  # "forest_dp" | "brute_force"


@dataclass(frozen=True)
class PsiFamily:
    """All local maximum stable sets of a graph, canonically ordered."""

    graph: Graph
    members: tuple  # tuple[frozenset], ascending size then lexicographic


def canonical_sets(masks) -> list:
    """Sort subset masks by (size, sorted index list) and freeze them."""
    keyed = sorted(masks, key=lambda m: (m.bit_count(), tuple(bits_of(m))))
    return [set_of(m) for m in keyed]


class SubsetOracle:
    """Exact stability tables over every vertex subset of a small graph.

    One pass of dynamic programming over the 2^n subset lattice yields
    alpha(g[X]) for every X, from which stability, family membership, and
    the maximum-stable-set family are O(1) lookups. Reuse one oracle for
    many queries against the same graph.
    """

    __slots__ = ("graph", "n", "_alpha", "_nbh", "_psi_masks", "_psi_flags")

    def __init__(self, g: Graph, cap: int | None = None):
        cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
        n = g.vertex_count
        if n > cap:
            raise TooLargeForEnumeration(
                f"{n} vertices exceed the enumeration cap of {cap}")
        self.graph = g
        self.n = n
        size = 1 << n
        nbm = [g.closed_mask(v) for v in range(n)]
        # alpha(X) = max(alpha(X - v), 1 + alpha(X - N[v])) for v the lowest
        # bit of X; the second branch commits v to the stable set.
        alpha = bytearray(size)
        nbh = [0] * size
        for m in range(1, size):
            low = m & -m
            v = low.bit_length() - 1
            rest = m ^ low
            a = alpha[rest]
            b = 1 + alpha[m & ~nbm[v]]
            alpha[m] = b if b > a else a
            nbh[m] = nbh[rest] | nbm[v]
        self._alpha = alpha
        self._nbh = nbh
        self._psi_masks = None
        self._psi_flags = None

    def alpha_of(self, mask: int) -> int:
        """alpha of the subgraph induced by ``mask``."""
        return self._alpha[mask]

    def alpha(self) -> int:
        return self._alpha[-1] if self.n else 0

    def closed_mask_of(self, mask: int) -> int:
        return self._nbh[mask]

    def is_stable_mask(self, mask: int) -> bool:
        return self._alpha[mask] == mask.bit_count()

    def in_psi_mask(self, mask: int) -> bool:
        k = mask.bit_count()
        return self._alpha[mask] == k and self._alpha[self._nbh[mask]] == k

    def psi_flags(self) -> bytearray:
        """One byte per subset mask: 1 iff the subset is in the family."""
        if self._psi_flags is None:
            self._family()
        return self._psi_flags

    def psi_masks(self) -> list:
        """All family members as masks, ascending by size (ties unordered)."""
        if self._psi_masks is None:
            self._family()
        return self._psi_masks

    def omega_masks(self) -> list:
        a = self.alpha()
        alpha = self._alpha
        return [m for m in range(1 << self.n)
                if alpha[m] == a and m.bit_count() == a]

    def _family(self):
        alpha = self._alpha
        nbh = self._nbh
        flags = bytearray(1 << self.n)
        by_size = [[] for _ in range(self.n + 1)]
        for m in range(1 << self.n):
            k = m.bit_count()
            if alpha[m] == k and alpha[nbh[m]] == k:
                flags[m] = 1
                by_size[k].append(m)
        self._psi_flags = flags
        self._psi_masks = [m for bucket in by_size for m in bucket]


def stable_mask(g: Graph, m: int) -> bool:
    """Stability of a validated vertex bitmask."""
    adj = g._adj
    rest = m
    while rest:
        low = rest & -rest
        rest ^= low
        if adj[low.bit_length() - 1] & m:
            return False
    return True


def is_stable(g: Graph, s) -> bool:
    """True iff no two members of ``s`` are adjacent in ``g``."""
    _, m = g.check_vertices_mask(s)
    return stable_mask(g, m)


def _alpha_branch_bound(g: Graph) -> frozenset:
    """Exhaustive maximum stable set with pruning.

    Scans vertices in index order, include-branch first, improving strictly;
    the first optimum found is therefore the lexicographically least witness.
    """
    nbm = [g.closed_mask(v) for v in range(g.vertex_count)]
    best_size = -1
    best_mask = 0

    def walk(avail: int, cur_mask: int, cur_size: int):
        nonlocal best_size, best_mask
        if not avail:
            if cur_size > best_size:
                best_size = cur_size
                best_mask = cur_mask
            return
        if cur_size + avail.bit_count() <= best_size:
            return
        low = avail & -avail
        v = low.bit_length() - 1
        walk(avail & ~nbm[v], cur_mask | low, cur_size + 1)
        walk(avail ^ low, cur_mask, cur_size)

    walk(g.full_mask(), 0, 0)
    return set_of(best_mask)


def alpha(g: Graph, cap: int | None = None) -> StableSetResult:
    """Stability number with a deterministic witness.

    Forests of any size use the graph's memoised lowest-pendant peel (the
    fixed pendant order makes the witness reproducible); other graphs use
    exhaustive search and refuse more than ``cap`` vertices (default 24).
    """
    if g.is_forest:
        taken, _, leftover = g.peel
        if leftover:  # pragma: no cover - impossible on forests
            raise InternalError("no pendant or isolated vertex in a forest")
        s = set_of(taken)
        return StableSetResult(set=s, size=len(s), method="forest_dp")
    cap = DEFAULT_BRUTE_FORCE_CAP if cap is None else cap
    if g.vertex_count > cap:
        raise TooLargeForBruteForce(
            f"{g.vertex_count} vertices exceed the brute-force cap of {cap}")
    s = _alpha_branch_bound(g)
    return StableSetResult(set=s, size=len(s), method="brute_force")


def enumerate_omega(g: Graph, cap: int | None = None) -> list:
    """Every maximum stable set, ascending size then lexicographic."""
    oracle = SubsetOracle(g, cap)
    return canonical_sets(oracle.omega_masks())


def in_psi_mask(g: Graph, mask: int, cap: int | None = None) -> bool:
    """Family membership of a validated vertex bitmask, checked directly.

    True iff the set is stable and attains alpha on the subgraph induced by
    its closed neighborhood. The empty set qualifies. The neighborhood is
    peeled first, which is exact whenever the peel consumes it; ``cap``
    bounds the exhaustive search used when the peel leaves a cyclic core.
    """
    if not stable_mask(g, mask):
        return False
    closed = closed_mask_of(g._adj, mask)
    taken, _, leftover = leaf_peel(g._adj, closed)
    if not leftover:
        return taken.bit_count() == mask.bit_count()
    return alpha(induced_subgraph(g, set_of(closed)), cap).size == mask.bit_count()


def is_local_max_stable(g: Graph, s, cap: int | None = None) -> bool:
    """Membership test for the local-maximum family: in_psi_mask on the
    validated vertex set ``s``."""
    return in_psi_mask(g, g.check_vertices_mask(s)[1], cap)


def enumerate_psi(g: Graph, cap: int | None = None) -> PsiFamily:
    """The full family of local maximum stable sets, canonically ordered."""
    oracle = SubsetOracle(g, cap)
    return PsiFamily(graph=g, members=tuple(canonical_sets(oracle.psi_masks())))
