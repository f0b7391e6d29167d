"""Accessibility chains, exchange witnesses, and the greedoid verifier.

The family of local maximum stable sets of a forest satisfies both greedoid
axioms. This module makes that executable in both directions: constructive
algorithms that produce nested chains and exchange witnesses on forests, and
an exhaustive verifier that checks the two axioms on arbitrary small graphs
and reports every violation (cycles and the counterexample families live in
graph_families).

Every function that asks "is this set in the family?" picks its route once,
in _membership: the oracle's table lookup when a SubsetOracle is passed
(refused with ValueError when it was built for a different graph),
otherwise the direct closed-neighborhood check of stable_core.in_psi_mask
(the neighborhood peel, then exhaustive search of the cyclic core it leaves,
refused above ``cap``). The engine then works on vertex bitmasks and
join orders, and freezes sets only at the public boundary: a chain's
prefixes only when they are read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate
from operator import eq, index, or_
from typing import NamedTuple, Optional

from . import stable_core
from .errors import (
    AccessibilityFailure,
    InternalError,
    K2BaseCase,
    NotAForestError,
    NotDisjointOrNotStableError,
    NotInPsiError,
    NotMaximumError,
    NotPerfectTreeError,
    SizeMismatchError,
)
from .graph_core import Graph, bits_of, closed_mask_of, component_masks, leaf_peel, set_of
from .perfect_embedding import fresh_partners
from .stable_core import SubsetOracle, canonical_sets


class PrefixChain(Sequence):
    """The prefixes of a join order, read as a tuple of frozensets.

    Holds only the order, |S| entries. Iteration grows each prefix from
    the one before and keeps none of them; indexing and slicing freeze the
    prefixes they return. The chain compares equal, in both directions, to
    the tuple of its prefixes, and hashes and prints like it. Like emit,
    hash and repr build that tuple, every prefix at once: |S|(|S|+1)/2
    entries.
    """

    __slots__ = ("_order",)

    def __init__(self, order):
        self._order = tuple(order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, i):
        order = self._order
        if isinstance(i, slice):
            return tuple(frozenset(order[:j + 1]) for j in range(*i.indices(len(order))))
        i = index(i)
        if i < 0:
            i += len(order)
        if not 0 <= i < len(order):
            raise IndexError("chain index out of range")
        return frozenset(order[:i + 1])

    def __iter__(self):
        prefix = frozenset()
        for v in self._order:
            prefix = prefix.union((v,))
            yield prefix

    def __eq__(self, other):
        if isinstance(other, PrefixChain):
            return self._order == other._order
        if isinstance(other, tuple):
            return len(other) == len(self._order) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class ChainCertificate:
    """Nested family members S1 c S2 c ... c Sk with |Si| = i, ending at
    the requested set. An empty chain certifies the empty set.

    chain_decompose stores the chain as a PrefixChain over the order in
    which the vertices join, |S| entries; reading every prefix in full
    (iteration, emit, the CLI's chain output) is still |S|(|S|+1)/2
    entries, and hash and repr, of the chain or of the certificate, hold
    all of them at once. A tuple of frozensets is accepted too, and
    compares equal to the PrefixChain of the same prefixes."""

    graph: Graph
    chain: Sequence  # of frozensets, strictly ascending by one element
    strategy: str  # "greedy_peel" | "constructive"


class ExchangeWitness(NamedTuple):
    """Outcome of an exchange attempt between two family members."""

    s1: frozenset
    s2: frozenset
    witness: Optional[int]


@dataclass(frozen=True)
class GreedoidReport:
    """Verdict of checking both greedoid axioms on the full family."""

    family_size: int
    accessibility_ok: bool
    exchange_ok: bool
    accessibility_violations: tuple  # tuple[frozenset]
    exchange_violations: tuple  # tuple[(smaller, larger) frozenset pairs]


def _check_oracle(g: Graph, oracle: SubsetOracle) -> None:
    """Refuse an oracle whose tables describe a different graph."""
    if oracle.graph is not g and oracle.graph != g:
        raise ValueError(f"oracle built for {oracle.graph!r}, not for {g!r}")


def _membership(g: Graph, oracle: SubsetOracle | None, cap):
    """The family-membership predicate on vertex masks of ``g``: the
    oracle's table lookup when one is given (after checking that it was
    built for ``g``), else the direct check. Its answers are only truthy
    or falsy: the table route returns the flag byte itself."""
    if oracle is not None:
        _check_oracle(g, oracle)
        return oracle.psi_flags().__getitem__
    return partial(stable_core.in_psi_mask, g, cap=cap)


def chain_is_valid(cert: ChainCertificate, oracle: SubsetOracle | None = None,
                   cap: int | None = None) -> bool:
    """Check a certificate from scratch: sizes 1..k, strict nesting, and
    family membership of every prefix (by the oracle when one is given).

    Each prefix is validated against the graph before it is used, so both
    routes raise InvalidVertexError on a foreign vertex.
    """
    g = cert.graph
    in_psi = _membership(g, oracle, cap)
    prev = 0
    for i, s in enumerate(cert.chain, start=1):
        m = g.check_vertices_mask(s)[1]
        if m.bit_count() != i or prev & ~m or not in_psi(m):
            return False
        prev = m
    return True


def pendant_k2_edge(g: Graph) -> tuple[int, int]:
    """The peeling edge of a perfect tree: a pendant x whose neighbor y has
    degree exactly 2 (so deleting both leaves a smaller perfect tree).

    Scans pendants in index order. Raises K2BaseCase on the two-vertex tree,
    which has no pendant-K2 edge to peel.
    """
    n = g.vertex_count
    if not (n >= 2 and g.is_forest and g.edge_count == n - 1):
        raise NotPerfectTreeError("input is not a tree")
    pairs = g.peel[1]
    if 2 * len(pairs) != n:
        raise NotPerfectTreeError("tree has no perfect matching")
    if n == 2:
        raise K2BaseCase("two-vertex tree: no pendant-K2 edge to peel")
    for x, y in _pendant_k2s(g._adj, g.full_mask()):
        if (x, y) not in pairs and (y, x) not in pairs:  # pragma: no cover - forced for pendants
            raise InternalError("pendant edge missing from the perfect matching")
        return (x, y)
    raise InternalError("perfect tree without a pendant-K2 edge")  # pragma: no cover


def union_local_max(g: Graph, a, b, oracle: SubsetOracle | None = None,
                    cap: int | None = None) -> frozenset:
    """Union of two disjoint family members whose union is stable.

    The union is again a local maximum stable set (in any graph); this is
    asserted on the result before returning it. Membership is read from the
    oracle when one is given, else checked directly.
    """
    a, ma = g.check_vertices_mask(a)
    b, mb = g.check_vertices_mask(b)
    in_psi = _membership(g, oracle, cap)
    if not in_psi(ma) or not in_psi(mb):
        raise NotInPsiError("both operands must be local maximum stable sets")
    if ma & mb or not stable_core.stable_mask(g, ma | mb):
        raise NotDisjointOrNotStableError("operands must be disjoint with a stable union")
    if not in_psi(ma | mb):  # pragma: no cover - excluded by theory
        raise InternalError("union of disjoint members left the family")
    return a | b


def nt_extend(g: Graph, s1, s2, oracle: SubsetOracle | None = None,
              cap: int | None = None) -> frozenset:
    """Enlarge the local maximum stable set ``s1`` to a maximum stable set
    using only vertices of the maximum stable set ``s2``.

    Takes s3 = s2 - N[s1] and returns s1 | s3; the result is maximum in any
    graph, which is asserted before returning. Membership of ``s1`` and
    alpha come from the oracle when one is given, else from the direct
    check and stable_core.alpha.
    """
    _, m1 = g.check_vertices_mask(s1)
    _, m2 = g.check_vertices_mask(s2)
    if not _membership(g, oracle, cap)(m1):  # checks the oracle's graph before its alpha
        raise NotInPsiError("s1 is not a local maximum stable set")
    a = oracle.alpha() if oracle is not None else stable_core.alpha(g, cap).size
    if m2.bit_count() != a or not stable_core.stable_mask(g, m2):
        raise NotMaximumError("s2 is not a maximum stable set")
    result = m1 | (m2 & ~closed_mask_of(g._adj, m1))
    if result.bit_count() != a or not stable_core.stable_mask(g, result):  # pragma: no cover
        raise InternalError("extension missed the stability number")
    return set_of(result)


def exchange_witness(g: Graph, s1, s2, oracle: SubsetOracle | None = None,
                     cap: int | None = None) -> ExchangeWitness:
    """First vertex v of s2 - s1 (index order) with s1 | {v} in the family.

    On forests a witness always exists; coming up empty there raises
    InternalError. On other graphs absence is reported, not raised, so the
    counterexample families can be explored. Membership is read from the
    oracle when one is given, else checked directly.
    """
    s1, m1 = g.check_vertices_mask(s1)
    s2, m2 = g.check_vertices_mask(s2)
    if len(s2) != len(s1) + 1:
        raise SizeMismatchError(f"|s2|={len(s2)} must be |s1|+1={len(s1) + 1}")
    in_psi = _membership(g, oracle, cap)
    if not in_psi(m1) or not in_psi(m2):
        raise NotInPsiError("both sets must be local maximum stable sets")
    diff = m2 & ~m1
    while diff:
        low = diff & -diff
        diff ^= low
        if in_psi(m1 | low):
            return ExchangeWitness(s1, s2, low.bit_length() - 1)
    if g.is_forest:
        raise InternalError("exchange witness missing on a forest")
    return ExchangeWitness(s1, s2, None)


# -- chain construction ------------------------------------------------------


def _greedy_peel_order(in_psi, s_mask: int) -> list:
    removed = []
    cur = s_mask
    while cur:
        rest = cur
        while rest:
            low = rest & -rest
            rest ^= low
            if in_psi(cur ^ low):
                cur ^= low
                removed.append(low.bit_length() - 1)
                break
        else:
            raise AccessibilityFailure(set_of(cur))
    return removed[::-1]


def _pendant_k2s(adj: list, comp: int):
    """Yield every pendant-K2 edge (x, y) of ``comp``, x ascending: a
    pendant x whose neighbor y has degree exactly 2."""
    for x in bits_of(comp):
        live = adj[x] & comp
        if live.bit_count() == 1:
            y = live.bit_length() - 1
            if (adj[y] & comp).bit_count() == 2:
                yield x, y


def _component_chain(adj: list, comp: int, sc: int) -> list:
    """Join order of ``sc`` for one perfect tree ``comp`` of the embedded
    neighborhood, where ``sc`` is a maximum stable set of that tree.

    Pendant-K2 edges x-y are peeled down to a final K2, each time with the
    lowest pendant x whose neighbor y has degree two. Chosen pendants x
    join first, in peel order, then the chosen vertex of the final K2, then
    chosen neighbors y in reverse peel order; the embedding's fresh vertices
    are never chosen.

    The candidates x wait in a min-heap, seeded by one scan and rechecked
    when popped. Deleting x and y changes only the degree of y's other
    neighbor z, so only z (when it becomes a pendant) and the pendants on z
    (when z drops to degree two) are pushed. Every vertex is pushed as a
    pendant, so it never leaves as a y, which has degree two.
    """
    size = comp.bit_count()
    if size == 2:
        return [sc.bit_length() - 1]
    heap = [x for x, _ in _pendant_k2s(adj, comp)]  # ascending, so already a heap
    head, tail = [], []
    while True:
        x = heappop(heap)
        bx = 1 << x
        live = adj[x] & comp
        if live.bit_count() != 1:  # x went with its neighbor, or is no pendant
            continue
        y = live.bit_length() - 1
        by = 1 << y
        rest = (adj[y] & comp) ^ bx  # y's neighbors besides x
        if rest.bit_count() != 1:
            continue
        if sc & bx:
            head.append(x)
            sc ^= bx
        elif sc & by:
            tail.append(y)
            sc ^= by
        else:  # pragma: no cover - a maximum stable set meets every K2
            raise InternalError("matched edge disjoint from a maximum stable set")
        comp ^= bx | by
        size -= 2
        if size == 2:
            break
        z = rest.bit_length() - 1
        live = adj[z] & comp
        d = live.bit_count()
        if d == 1:
            heappush(heap, z)
        elif d == 2:
            for u in bits_of(live):
                if (adj[u] & comp).bit_count() == 1:
                    heappush(heap, u)
    if sc.bit_count() != 1:  # pragma: no cover
        raise InternalError("base K2 holds more than one chosen vertex")
    return head + [sc.bit_length() - 1] + tail[::-1]


def _constructive_chain_order(g: Graph, s_mask: int) -> list:
    """Embed N[S] into a perfect forest by embed_perfect's fresh-partner
    step on the leaf-greedy matching of N[S]. Then join the orders of its
    components, which are perfect trees ordered by their lowest vertex."""
    adj = list(g._adj)
    forest = closed_mask_of(adj, s_mask)
    for v, w in fresh_partners(leaf_peel(adj, forest)[1], forest, len(adj)):
        adj.append(1 << v)
        adj[v] |= 1 << w
        forest |= 1 << w
    order = []
    for comp in component_masks(adj, forest):
        order += _component_chain(adj, comp, s_mask & comp)
    return order


def chain_decompose(g: Graph, s, strategy: str = "greedy_peel",
                    oracle: SubsetOracle | None = None,
                    cap: int | None = None) -> ChainCertificate:
    """Produce a nested chain of family members growing one vertex at a time
    up to ``s``.

    Both strategies build the order in which the vertices of ``s`` join,
    and the certificate's chain is a PrefixChain over it. greedy_peel
    removes, at each step, the lowest-index vertex whose removal keeps the
    set in the family (the removed vertices join in reverse); on forests
    this always succeeds, elsewhere it may raise AccessibilityFailure.
    constructive (forests only) follows the structural route instead:
    embed the induced neighborhood N[S] once into a perfect forest, split
    that into perfect trees, peel pendant-K2 edges in each, and join the
    tree orders one after another.

    Membership is read from the oracle when one is given, else checked
    directly. The constructive chain is re-checked against the family only
    when an oracle is given, where each check is one table lookup.
    """
    _, s_mask = g.check_vertices_mask(s)
    in_psi = _membership(g, oracle, cap)
    if not in_psi(s_mask):
        raise NotInPsiError("target set is not a local maximum stable set")
    if strategy == "greedy_peel":
        order = _greedy_peel_order(in_psi, s_mask)
    elif strategy == "constructive":
        if not g.is_forest:
            raise NotAForestError("constructive strategy requires a forest")
        order = _constructive_chain_order(g, s_mask)
        masks = accumulate((1 << v for v in order), or_)
        if oracle is not None and not all(map(in_psi, masks)):  # pragma: no cover - theory
            raise InternalError("constructive chain left the family")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return ChainCertificate(graph=g, chain=PrefixChain(order), strategy=strategy)


def verify_greedoid(g: Graph, cap: int | None = None,
                    oracle: SubsetOracle | None = None) -> GreedoidReport:
    """Enumerate the family and check both greedoid axioms exhaustively.

    Accessibility: every nonempty member has an element whose removal stays
    in the family. Exchange: for members X, Y with |X| = |Y| + 1 some x in
    X - Y extends Y inside the family. All violations are reported, in
    canonical order.

    The family comes from the graph's cached subset tables (an oracle
    passed in must have been built for ``g``). Both axioms are read off one
    walk over the one-vertex steps, a size class at a time: for each member
    X of size k + 1 and each v in X, X - v is looked up once. A nonempty X
    with no hit fails accessibility; each hit adds v to the extension mask
    of Y = X - v (the vertices v with Y + v in the family), held for size k
    only. The members of size k + 1 are then tested once per distinct mask,
    not once per Y: X fails Y exactly when X misses the mask, which never
    meets Y, and a mask leaving at most k vertices out is skipped. One test
    covers every X, as a few big-integer operations on the members packed
    into lanes; they are listed one by one only for a mask some X misses.
    """
    if oracle is None:
        oracle = SubsetOracle(g, cap)
    else:
        _check_oracle(g, oracle)
    n = g.vertex_count
    flags = oracle.psi_flags()
    members = oracle.psi_masks()
    by_size = [[] for _ in range(n + 1)]
    for m in members:
        by_size[m.bit_count()].append(m)

    acc_bad = []
    exch_bad = []
    width = n // 8 + 1  # bytes per lane: a mask plus a free top bit
    for k in range(n):
        xs = by_size[k + 1]
        ext_of = {}
        for x in xs:
            hit = False
            rest = x
            while rest:
                low = rest & -rest
                rest ^= low
                y = x ^ low
                if flags[y]:
                    ext_of[y] = ext_of.get(y, 0) | low
                    hit = True
            if not hit:
                acc_bad.append(x)
        ys = by_size[k]
        if not ys or not xs:
            continue
        ys_by_ext = {}
        for y in ys:
            ys_by_ext.setdefault(ext_of.get(y, 0), []).append(y)
        ext_of.clear()  # held beside the lanes it would set the memory peak
        # every x in one integer, a lane each; x misses ext iff its lane of
        # lanes & ext is 0, iff adding 0x7f..f leaves the lane's top bit clear
        lanes = int.from_bytes(b"".join([x.to_bytes(width, "little") for x in xs]), "little")
        ones = int.from_bytes((b"\x01" + bytes(width - 1)) * len(xs), "little")
        top = ones << (8 * width - 1)
        fill = top - ones
        for ext, group in ys_by_ext.items():
            if n - ext.bit_count() > k and ~((lanes & ext * ones) + fill) & top:
                misses = [x for x in xs if not x & ext]
                exch_bad.extend((y, x) for y in group for x in misses)

    acc_sets = canonical_sets(acc_bad)
    key = lambda s: (len(s), tuple(sorted(s)))
    exch_pairs = sorted(((set_of(y), set_of(x)) for y, x in exch_bad),
                        key=lambda p: (key(p[0]), key(p[1])))
    return GreedoidReport(
        family_size=len(members),
        accessibility_ok=not acc_sets,
        exchange_ok=not exch_pairs,
        accessibility_violations=tuple(acc_sets),
        exchange_violations=tuple(exch_pairs),
    )
