"""Stability numbers, maximum stable sets, and the local-maximum family.

A set S is a local maximum stable set when S is a maximum stable set of the
subgraph induced by its closed neighborhood N[S]. The empty set is always a
member of the family by convention (the greedoid view requires it).

Everything here is exact. alpha of a forest is the lowest-pendant peel of
graph_core.leaf_peel (a heap-driven O(n log n) peel on bitmask adjacency);
alpha of any other graph is one exhaustive search of the whole graph. A
membership check peels N[S] and searches only the cyclic core the peel
leaves. Each search refuses more vertices than a configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InternalError, TooLargeForBruteForce, TooLargeForEnumeration
from .graph_core import Graph, bits_of, closed_mask_of, leaf_peel, set_of

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
    keyed = sorted([(m.bit_count(), tuple(bits_of(m))) for m in masks])
    return [frozenset(bits) for _, bits in keyed]


class _SubsetTables(NamedTuple):
    """The subset tables of one graph: alpha(g[X]) and family membership for
    every vertex subset X, and the family's members.

    Cached on the Graph it describes (``Graph._oracle``). It holds no
    reference back to the graph, so dropping the graph frees the tables at
    once, without the cyclic garbage collector.
    """

    alpha: bytearray
    psi_flags: bytes
    psi_masks: list


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


def _build_tables(g: Graph) -> _SubsetTables:
    """The alpha table, then the family: the stable subsets X (the only ones
    visited one by one) with alpha(N[X]) = |X|."""
    n = g.vertex_count
    adj = g._adj
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
    return _SubsetTables(alpha, bytes(flags), members)


class SubsetOracle:
    """Exact stability tables over every vertex subset of a small graph.

    One pass of dynamic programming over the 2^n subset lattice yields
    alpha(g[X]) and family membership for every X, so stability, membership
    and the maximum-stable-set family are O(1) lookups. The tables are built
    once per Graph and cached on it, so they live exactly as long as the
    graph does: every oracle for the same graph object, and enumerate_psi,
    enumerate_omega and verify_greedoid on it, read the same tables. The
    oracle is a thin view over them; ``cap`` is checked on every
    construction, before the cache is read.
    """

    __slots__ = ("graph", "n", "_alpha", "_flags", "_masks")

    def __init__(self, g: Graph, cap: int | None = None):
        cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
        n = g.vertex_count
        if n > cap:
            raise TooLargeForEnumeration(
                f"{n} vertices exceed the enumeration cap of {cap}")
        tables = g._oracle
        if tables is None:
            tables = g._oracle = _build_tables(g)
        self.graph = g
        self.n = n
        self._alpha, self._flags, self._masks = tables

    def alpha_of(self, mask: int) -> int:
        """alpha of the subgraph induced by ``mask``."""
        return self._alpha[mask]

    def alpha(self) -> int:
        return self._alpha[-1] if self.n else 0

    def in_psi_mask(self, mask: int) -> bool:
        return self._flags[mask] == 1

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


def _alpha_branch_bound(adj: list, universe: int, cap: int | None) -> int:
    """A maximum stable set of the subgraph induced on ``universe``, as a
    mask, by exhaustive search with pruning; more than ``cap`` vertices
    (default 24) are refused.

    Scans vertices in index order, include-branch first, improving strictly;
    the first optimum found is therefore the lexicographically least witness.
    One loop, so any depth works: it descends include branches, stacks the rest.
    """
    cap = DEFAULT_BRUTE_FORCE_CAP if cap is None else cap
    n = universe.bit_count()
    if n > cap:
        raise TooLargeForBruteForce(f"{n} vertices exceed the brute-force cap of {cap}")
    best_size = -1
    best_mask = 0
    pending = [(universe, 0, 0)]  # (avail, cur_mask, cur_size) per exclude branch
    while pending:
        avail, cur_mask, cur_size = pending.pop()
        while avail and cur_size + avail.bit_count() > best_size:
            low = avail & -avail
            avail ^= low
            pending.append((avail, cur_mask, cur_size))
            avail &= ~adj[low.bit_length() - 1]
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
        if leftover:  # pragma: no cover - impossible on forests
            raise InternalError("no pendant or isolated vertex in a forest")
        s = set_of(taken)
        return StableSetResult(set=s, size=len(s), method="forest_dp")
    s = set_of(_alpha_branch_bound(g._adj, g.full_mask(), cap))
    return StableSetResult(set=s, size=len(s), method="brute_force")


def enumerate_omega(g: Graph, cap: int | None = None) -> list:
    """Every maximum stable set, ascending size then lexicographic."""
    oracle = SubsetOracle(g, cap)
    return canonical_sets(oracle.omega_masks())


def _maximum_within(adj: list, mask: int, closed: int, cap: int | None) -> bool:
    """True iff the stable set ``mask`` attains alpha on the subgraph H induced on
    ``closed``, which holds it. Each peel move keeps alpha, so alpha(H) is the
    peel's taken count plus alpha of the core it leaves: only that core is
    searched, and only a core of more than ``cap`` vertices is refused."""
    taken, _, leftover = leaf_peel(adj, closed)
    if leftover:
        taken |= _alpha_branch_bound(adj, leftover, cap)
    return taken.bit_count() == mask.bit_count()


def in_psi_mask(g: Graph, mask: int, cap: int | None = None) -> bool:
    """Family membership of a validated vertex bitmask, checked directly.

    True iff the set is stable and attains alpha on the subgraph induced by
    its closed neighborhood (``_maximum_within``); refused only when the
    core the peel leaves of it exceeds ``cap``. The empty set qualifies.
    """
    if not stable_mask(g, mask):
        return False
    return _maximum_within(g._adj, mask, closed_mask_of(g._adj, mask), cap)


def is_local_max_stable(g: Graph, s, cap: int | None = None) -> bool:
    """Membership test for the local-maximum family: in_psi_mask on the
    validated vertex set ``s``."""
    return in_psi_mask(g, g.check_vertices_mask(s)[1], cap)


def enumerate_psi(g: Graph, cap: int | None = None) -> PsiFamily:
    """The full family of local maximum stable sets, canonically ordered."""
    oracle = SubsetOracle(g, cap)
    return PsiFamily(graph=g, members=tuple(canonical_sets(oracle.psi_masks())))
