"""Stability numbers, maximum stable sets, and the local-maximum family.

A set S is a local maximum stable set when S is a maximum stable set of the
subgraph induced by its closed neighborhood N[S]. The empty set is always a
member of the family by convention (the greedoid view requires it).

Everything here is exact. alpha of a forest is the lowest-pendant peel of
graph_core.leaf_peel (a heap-driven O(n log n) peel over the neighbor
lists); alpha of any other graph is one exhaustive search of the whole
graph. One kernel, psi_walk, answers every direct membership question
(psi_restrict_check's, on an induced subgraph, too) on flags (one byte
per vertex): one walk over S's neighbour lists checks stability and
builds N[S], the peel of N[S] follows (when N[S] is every vertex, as for
the alpha set, that is the memoised Graph.peel, so a forest is peeled
once), and the search covers only the cyclic core the peel leaves, taking
a vertex with at most one neighbour left without branching. A member's
walk and peel are returned, for the constructive chain to read on; its
verdict is the walk or None. Each search refuses more vertices than a
configurable cap. Neighbour masks are built only by the subset tables and,
for the vertices it searches, by the search. Families leave as frozensets
in one canonical order, by size and then by ascending index tuple; the
tuples come from graph_core.index_tuples, the conversion set_of makes too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import index

from .errors import (InternalError, InvalidVertexError, TooLargeForBruteForce,
                     TooLargeForEnumeration)
from .graph_core import (Graph, bits_of, closed_flags, flags_of, index_tuples, induced_subgraph,
                         leaf_peel, mask_of, mask_of_flags, set_of)

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
    """Sort subset masks into the canonical order (by size, then by the
    ascending tuple of indices) and freeze them. ``masks`` may be any
    iterable; duplicates are kept. The index tuples are sorted, then
    stable-sorted by length, then frozen."""
    keys = index_tuples(masks)
    keys.sort()
    keys.sort(key=len)
    return list(map(frozenset, keys))


def _alpha_and_stable(adj: list, n: int) -> tuple[bytearray, bytes]:
    """alpha(g[X]) for every vertex subset X, and one byte per X that is 1
    iff X is stable (iff alpha(X) = |X|).

    The subsets whose highest vertex is v fill the block [2^v, 2^(v+1));
    for X = I + v there, alpha(X) = max(alpha(I), 1 + alpha(I - N(v))).
    Each block is computed as a few big-integer operations on the whole
    lower half of the table, read as one integer with a byte lane per
    subset, so no Python-level loop runs per subset. Lane arithmetic never
    carries between lanes, since every value stays below 128 (alpha <= n).
    The table is allocated in full first, so a table too large for memory
    fails before any work is done.
    """
    size = 1 << n
    alpha = bytearray(size)
    lower = 0  # alpha of the subsets below 2^v, one lane each
    popcount = 0  # their sizes, likewise
    ones = 1  # 1 in each of the 2^v lanes
    keep = {}  # j -> 0xff in the lanes whose index has bit j clear
    for v in range(n):
        h = 1 << v
        # lane I of ``cut`` holds alpha(I - N(v)): for each lower neighbour
        # j, lanes with bit j set take the value of their partner without it
        cut = lower
        for j in bits_of(adj[v] & (h - 1)):
            k = keep.get(j)
            if k is None:
                k = (1 << (8 << j)) - 1
                span = 2 << j
                while span < size >> 1:
                    k |= k << (8 * span)
                    span <<= 1
                keep[j] = k
            t = cut & k
            cut = t | (t << (8 << j))
        take = cut + ones
        high = ones << 7
        # 0xff in the lanes where alpha(I) >= 1 + alpha(I - N(v))
        pick = ((((lower | high) - take) & high) >> 7) * 0xff
        block = take ^ ((lower ^ take) & pick)
        alpha[h:2 * h] = block.to_bytes(h, "little")
        lower |= block << (8 * h)
        popcount |= (popcount + ones) << (8 * h)
        ones |= ones << (8 * h)
    high = ones << 7
    diff = lower ^ popcount  # 0 in the lanes of the stable subsets
    return alpha, ((((diff + high - ones) & high) ^ high) >> 7).to_bytes(size, "little")


def _build_tables(g: Graph) -> tuple[bytearray, bytes, list]:
    """The subset tables of one graph, derived once per Graph through
    Graph._derive: alpha(g[X]) for every vertex subset X, one flag byte per
    X that is 1 iff X is in the family, and the family's members as masks.
    The alpha table comes first, then the family: the stable subsets X (the
    only ones visited one by one) with alpha(N[X]) = |X|."""
    n = g.vertex_count
    adj = [mask_of(ns) for ns in g._nbrs]
    alpha, stable = _alpha_and_stable(adj, n)
    # N[X] = low[X's vertices below split] | top[X's vertices from split up]
    split = n // 2
    low, top = [0], [0]
    for v in range(n):
        c = adj[v] | (1 << v)
        half = low if v < split else top
        half += [x | c for x in half]
    low_mask = (1 << split) - 1
    flags = bytearray(1 << n)
    members = []
    m = stable.find(1)
    while m >= 0:
        if alpha[low[m & low_mask] | top[m >> split]] == alpha[m]:
            flags[m] = 1
            members.append(m)
        m = stable.find(1, m + 1)
    members.sort(key=int.bit_count)
    return alpha, bytes(flags), members


class SubsetOracle:
    """Exact stability tables over every vertex subset of a small graph.

    One pass of dynamic programming over the 2^n subset lattice yields
    alpha(g[X]) and family membership for every X, so stability, membership
    and the maximum-stable-set family are O(1) lookups. Every oracle for the
    same graph object, and enumerate_psi, enumerate_omega and
    verify_greedoid on it, read the one set of tables the graph derives.
    The oracle is a thin view over them; ``cap`` is checked on every
    construction, before the tables are read.
    """

    __slots__ = ("graph", "n", "_alpha", "_flags", "_masks")

    def __init__(self, g: Graph, cap: int | None = None):
        cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
        n = g.vertex_count
        if n > cap:
            raise TooLargeForEnumeration(
                f"{n} vertices exceed the enumeration cap of {cap}")
        self.graph = g
        self.n = n
        self._alpha, self._flags, self._masks = g._derive("subset_tables", _build_tables)

    def _subset(self, mask) -> int:
        """``mask`` as a table index: one outside [0, 2^n) is refused."""
        try:
            m = index(mask)
        except TypeError:
            m = -1
        if not 0 <= m < len(self._flags):
            raise InvalidVertexError(f"subset mask {mask!r} is not in 0..{len(self._flags) - 1}")
        return m

    def alpha_of(self, mask: int) -> int:
        """alpha of the subgraph induced by ``mask``."""
        return self._alpha[self._subset(mask)]

    def alpha(self) -> int:
        return self._alpha[-1]

    def in_psi_mask(self, mask: int) -> bool:
        return self._flags[self._subset(mask)] == 1

    def psi_flags(self) -> bytes:
        """One byte per subset mask: 1 iff the subset is in the family."""
        return self._flags

    def psi_masks(self) -> list:
        """All family members as masks, ascending by size, ties ascending.
        The list is shared by every reader of the graph's tables: do not
        modify it."""
        return self._masks

    def omega_masks(self) -> list:
        """All maximum stable sets as masks, ascending. Each is maximum in
        its own closed neighborhood too, so these are exactly the family
        members of size alpha."""
        a = self.alpha()
        return [m for m in self._masks if m.bit_count() == a]


def stable_mask(g: Graph, m: int) -> bool:
    """Stability of a validated vertex bitmask."""
    return closed_flags(g._nbrs, flags_of(m, g.vertex_count)) is not None


def is_stable(g: Graph, s) -> bool:
    """True iff no two members of ``s`` are adjacent in ``g``."""
    _, m = g.check_vertices_mask(s)
    return stable_mask(g, m)


def _alpha_branch_bound(nbrs, active, cap: int | None) -> int:
    """A maximum stable set of the subgraph induced on the vertices flagged
    in ``active`` (one byte per vertex, like the other kernels), as a mask,
    by exhaustive search with pruning; more than ``cap`` vertices (default
    24) are refused before any mask is built. The search is the one kernel
    that works on masks: it builds them for the vertices it searches only,
    from their lists ``nbrs[v]``.

    Scans vertices in index order, include-branch first, improving strictly;
    the first optimum found is therefore the lexicographically least witness.
    A vertex v with at most one neighbour u left gets no exclude branch: a set T
    found there gives T - u + v, no smaller, in v's include branch, searched first.
    One loop, so any depth works: it descends include branches, stacks the rest.
    """
    cap = DEFAULT_BRUTE_FORCE_CAP if cap is None else cap
    n = active.count(1)
    if n > cap:
        raise TooLargeForBruteForce(f"{n} vertices exceed the brute-force cap of {cap}")
    adj = {v: mask_of(nbrs[v]) for v in compress(range(len(active)), active)}
    universe = mask_of(adj)  # the vertices searched
    best_size = -1
    best_mask = 0
    pending = [(universe, 0, 0)]  # (avail, cur_mask, cur_size) per exclude branch
    while pending:
        avail, cur_mask, cur_size = pending.pop()
        while avail and cur_size + avail.bit_count() > best_size:
            low = avail & -avail
            avail ^= low
            left = adj[low.bit_length() - 1] & avail
            if left & (left - 1):  # two or more neighbours left
                pending.append((avail, cur_mask, cur_size))
            avail ^= left
            cur_mask |= low
            cur_size += 1
        if cur_size > best_size:  # false at a pruned node; true at a better leaf
            best_size = cur_size
            best_mask = cur_mask
    return best_mask


def alpha(g: Graph, cap: int | None = None) -> StableSetResult:
    """Stability number with a deterministic witness.

    Forests of any size use the graph's memoised lowest-pendant peel (the
    fixed pendant order makes the witness reproducible); other graphs use
    exhaustive search and refuse more than ``cap`` vertices (default 24).
    """
    if g.is_forest:
        taken, _, leftover = g.peel
        if 1 in leftover:  # pragma: no cover - impossible on forests
            raise InternalError("no pendant or isolated vertex in a forest")
        s = frozenset(compress(count(), taken))
        return StableSetResult(set=s, size=len(s), method="forest_dp")
    s = set_of(_alpha_branch_bound(g._nbrs, b"\x01" * g.vertex_count, cap))
    return StableSetResult(set=s, size=len(s), method="brute_force")


def enumerate_omega(g: Graph, cap: int | None = None) -> list:
    """Every maximum stable set, ascending size then lexicographic."""
    oracle = SubsetOracle(g, cap)
    return canonical_sets(oracle.omega_masks())


def psi_walk(g: Graph, mask: int, cap: int | None = None):
    """Family membership of a validated vertex bitmask, checked directly:
    ``(members, closed, peel)`` when the set S is a member, with S and N[S]
    as flags (one byte per vertex) and ``peel`` the leaf_peel of N[S], which
    the constructive chain reads on; else None.

    S is a member iff it is stable and attains alpha on the subgraph induced
    by N[S]. One walk over S's neighbour lists checks stability and builds
    N[S]. Each peel move keeps alpha, so only the core the peel leaves is
    searched, and only a core of more than ``cap`` vertices is refused. The
    empty set qualifies. When N[S] is every vertex, the peel read is the
    graph's memoised Graph.peel (the same kernel on the same flags), shared
    with alpha and the matchings: it is only read, never modified.
    """
    nbrs = g._nbrs
    members = flags_of(mask, g.vertex_count)
    closed = closed_flags(nbrs, members)
    if closed is None:
        return None
    peel = leaf_peel(nbrs, closed) if 0 in closed else g.peel
    taken, _, leftover = peel
    size = taken.count(1)
    if 1 in leftover:
        size += _alpha_branch_bound(nbrs, leftover, cap).bit_count()
    return (members, closed, peel) if size == mask.bit_count() else None


def is_local_max_stable(g: Graph, s, cap: int | None = None) -> bool:
    """Membership test for the local-maximum family: psi_walk's verdict on
    the validated vertex set ``s``."""
    return psi_walk(g, g.check_vertices_mask(s)[1], cap) is not None


def psi_restrict_check(host: Graph, sub_vertices, a) -> bool:
    """Membership of ``a`` in the family of the subgraph induced by
    ``sub_vertices``: the one kernel, psi_walk, on that induced subgraph
    (which keeps the vertex order) with ``a`` re-indexed. Its search takes a
    vertex with at most one neighbour left without branching on it.

    When ``a`` is a local maximum stable set of ``host``, restriction can
    only shrink its neighborhood, so this check must come out true; callers
    use it to validate that implication on concrete instances.
    """
    sub_vertices, sub = host.check_vertices_mask(sub_vertices)
    a = host.check_vertices_mask(a)[1]
    if a & ~sub:
        raise InvalidVertexError("a-set must lie inside the induced vertex set")
    # a's flags read at sub's vertices only, in index order: a in the subgraph's indices
    a = mask_of_flags(bytes(compress(flags_of(a, 0), flags_of(sub, 0))))
    return psi_walk(induced_subgraph(host, sub_vertices), a) is not None


def enumerate_psi(g: Graph, cap: int | None = None) -> PsiFamily:
    """The full family of local maximum stable sets, canonically ordered."""
    oracle = SubsetOracle(g, cap)
    return PsiFamily(graph=g, members=tuple(canonical_sets(oracle.psi_masks())))
