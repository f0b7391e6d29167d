"""Accessibility chains, exchange witnesses, and the greedoid verifier.

The family of local maximum stable sets of a forest satisfies both greedoid
axioms. This module makes that executable in both directions: constructive
algorithms that produce nested chains and exchange witnesses on forests, and
an exhaustive verifier that checks the two axioms on arbitrary small graphs
and reports every violation (cycles and the counterexample families live in
graph_families). The family of a disjoint union is the product of its
parts' families, and a product of greedoids is a greedoid, so the verifier
checks a graph of several components one component at a time, and scans
the whole family only to list the violations of one that fails.

Every function that asks "is this set in the family?" picks its route once,
in _membership: the oracle's table lookup when a SubsetOracle is passed
(refused with ValueError when it was built for a different graph),
otherwise the direct closed-neighborhood check of stable_core.psi_walk
(the neighborhood peel, then exhaustive search of the cyclic core it leaves,
refused above ``cap``), whose walk or None is the verdict. The constructive
chain is the one route that reads more than the verdict: on both routes,
psi_walk hands it the walk over N[S] and the peel of N[S] that decided
membership, so each call walks and peels N[S] once. chain_decompose checks
its strategy before any of this work, and with an oracle it re-checks a
constructive chain with chain_is_valid, the one walk over a chain's
prefixes. The engine then works on vertex bitmasks and join orders, and
freezes sets only at the public boundary: a chain's prefixes only when they
are read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import eq
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
from .graph_core import (Graph, closed_flags, component_lists, flags_of, fresh_partners,
                         mask_of, mask_of_flags, set_of)
from .stable_core import SubsetOracle, canonical_sets, index_tuples


class PrefixChain(Sequence):
    """The prefixes of a join order, read as a tuple of frozensets.

    Holds only the order, |S| entries. Iteration grows each prefix from
    the one before and keeps none of them; indexing and slicing freeze the
    prefixes they return, and follow the tuple's rules (negative indexes,
    bounds, steps, the exception types) by looking the index up in the
    range of prefix ends. The chain compares equal, in both directions, to
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
        ends = range(1, len(order) + 1)[i]  # where each prefix cuts the order
        if isinstance(ends, range):
            return tuple(frozenset(order[:j]) for j in ends)
        return frozenset(order[:ends])

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
    or falsy: the table route returns the flag byte itself, the direct
    route psi_walk's walk or None."""
    if oracle is not None:
        _check_oracle(g, oracle)
        return oracle.psi_flags().__getitem__
    return partial(stable_core.psi_walk, g, cap=cap)


def chain_is_valid(cert: ChainCertificate, oracle: SubsetOracle | None = None,
                   cap: int | None = None) -> bool:
    """Check a certificate from scratch: sizes 1..k, strict nesting, and
    family membership of every prefix (by the oracle when one is given).

    Each prefix is validated against the graph before it is used, so both
    routes raise InvalidVertexError on a foreign vertex. A PrefixChain is
    checked along its join order: each vertex is validated once, and must
    be new, and the prefix mask grows by its bit.
    """
    g = cert.graph
    in_psi = _membership(g, oracle, cap)
    if isinstance(cert.chain, PrefixChain):
        m = 0
        for v in cert.chain._order:
            bit = 1 << g._vertex(v)
            if m & bit:
                return False
            m |= bit
            if not in_psi(m):
                return False
        return True
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
    nbrs = g._nbrs
    for x in range(n):
        if len(nbrs[x]) == 1 and len(nbrs[nbrs[x][0]]) == 2:
            y = nbrs[x][0]
            if (x, y) not in pairs and (y, x) not in pairs:  # pragma: no cover - forced
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
    result = m1 | (m2 & ~mask_of_flags(closed_flags(g._nbrs, flags_of(m1, g.vertex_count))))
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


def _component_chain(nb, live, deg, comp: list, pendants: list, chosen) -> list:
    """Join order of the chosen vertices of one perfect tree ``comp`` of the
    embedded neighborhood, where they form a maximum stable set of that
    tree. ``nb``, ``live`` and ``deg`` describe the embedded forest (neighbor
    lists, liveness flags and live degrees) and are updated in place;
    ``pendants`` are the tree's pendants.

    Pendant-K2 edges x-y are peeled down to a final K2, each time with the
    lowest pendant x whose neighbor y has degree exactly 2. Chosen pendants x
    join first, in peel order, then the chosen vertex of the final K2, then
    chosen neighbors y in reverse peel order; the embedding's fresh vertices
    are never chosen.

    The candidates x wait in a min-heap and are rechecked when popped, so
    the heap may hold pendants that are no candidates yet. Deleting x and y
    changes only the degree of y's other neighbor z, so only z (when it
    becomes a pendant) and the pendants on z (when z drops to degree two)
    are pushed: every vertex that becomes a candidate is pushed then. Every
    vertex is pushed as a pendant, so it never leaves as a y, which has
    degree two.
    """
    heap = pendants
    heapify(heap)
    head, tail = [], []
    size = len(comp)
    while size > 2:
        x = heappop(heap)
        if not live[x] or deg[x] != 1:  # x went with its neighbor, or is no pendant
            continue
        for y in nb[x]:
            if live[y]:
                break
        if deg[y] != 2:
            continue
        for z in nb[y]:  # y's other neighbor
            if live[z] and z != x:
                break
        if chosen[x]:
            head.append(x)
        elif chosen[y]:
            tail.append(y)
        else:  # pragma: no cover - a maximum stable set meets every K2
            raise InternalError("matched edge disjoint from a maximum stable set")
        live[x] = live[y] = 0
        size -= 2
        d = deg[z] = deg[z] - 1
        if d == 1:
            heappush(heap, z)
        elif d == 2:
            for u in nb[z]:
                if live[u] and deg[u] == 1:
                    heappush(heap, u)
    base = [v for v in comp if live[v] and chosen[v]]
    if len(base) != 1:  # pragma: no cover
        raise InternalError("base K2 holds more than one chosen vertex")
    return head + base + tail[::-1]


def _constructive_chain_order(g: Graph, walk) -> list:
    """Embed N[S] into a perfect forest by embed_perfect's fresh-partner
    step on the leaf-greedy matching of N[S]. Then join the orders of its
    components, which are perfect trees ordered by their lowest vertex.

    ``walk`` is stable_core.psi_walk's ``(members, closed, peel)`` for S:
    S and N[S] as flags and the peel of N[S], whose pairs are that matching.
    The embedded forest is g's neighbor lists grown by fresh_partners, with
    the vertices outside N[S] flagged dead. Each component's vertices then
    give its live degrees and pendants. ``walk``'s S and N[S] flags are
    grown in place; its peel, the graph's memoised Graph.peel when N[S] is
    every vertex, is only read."""
    n = g.vertex_count
    chosen, live, peel = walk
    nb, _ = fresh_partners(g._nbrs, peel[1], live)
    live += b"\x01" * (len(nb) - n)
    chosen += bytes(len(nb) - n)
    deg = [0] * len(nb)
    order = []
    for comp in component_lists(nb, live):
        pendants = []
        for u in comp:
            d = 0
            for w in nb[u]:
                d += live[w]
            deg[u] = d
            if d == 1:
                pendants.append(u)
        order += _component_chain(nb, live, deg, comp, pendants, chosen)
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

    An unknown strategy is refused with ValueError before any other check.
    Membership is read from the oracle when one is given, else checked
    directly; constructive reads on from the direct check's walk and peel of
    N[S] (stable_core.psi_walk) on both routes, and re-checks its chain
    against the family only when an oracle is given, with chain_is_valid on
    the certificate it built: one lookup per prefix.
    """
    if strategy not in ("greedy_peel", "constructive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    _, s_mask = g.check_vertices_mask(s)
    in_psi = _membership(g, oracle, cap)  # an oracle for another graph is refused first
    if strategy == "greedy_peel":
        if not in_psi(s_mask):
            raise NotInPsiError("target set is not a local maximum stable set")
        return ChainCertificate(graph=g, chain=PrefixChain(_greedy_peel_order(in_psi, s_mask)),
                                strategy=strategy)
    walk = stable_core.psi_walk(g, s_mask, cap)
    if walk is None:
        raise NotInPsiError("target set is not a local maximum stable set")
    if not g.is_forest:
        raise NotAForestError("constructive strategy requires a forest")
    cert = ChainCertificate(graph=g, chain=PrefixChain(_constructive_chain_order(g, walk)),
                            strategy=strategy)
    if oracle is not None and not chain_is_valid(cert, oracle):
        raise InternalError("constructive chain left the family")
    return cert


def _scan(n: int, flags, members) -> tuple[list, list]:
    """Both axioms over ``members``: the masks of every member of the
    family flagged in ``flags`` that lies inside some vertex set (the whole
    family, or one component's part of it), the empty set included. Returns
    the accessibility violations X and the exchange violations (Y, X), as
    masks, unsorted. This is the one place where violations are listed.

    Both axioms are read off one walk over the one-vertex steps, a size
    class at a time: for each member X of size k + 1 and each v in X, X - v
    is looked up once. A nonempty X with no hit fails accessibility; each
    hit adds v to the extension mask of Y = X - v (the vertices v with
    Y + v in the family), held for size k only. The members of size k + 1
    are then tested once per distinct mask, not once per Y: X fails Y
    exactly when X misses the mask, which never meets Y, and a mask leaving
    at most k vertices out is skipped. One test covers every X, as a few
    big-integer operations on the members packed into lanes; they are
    listed one by one only for a mask some X misses.
    """
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
    return acc_bad, exch_bad


def _components_are_greedoids(g: Graph, flags, members) -> bool:
    """True when ``g`` has more than one component and the family of each
    component with two or more vertices passes both axioms.

    A component's part is every member with no vertex outside it, the
    empty set included, in the members' order. The parts are scanned in
    component order against the graph's own flags, since a set inside a
    component is in the graph's family iff it is in the component's, and
    the route stops at the first part that fails. A graph with one
    component (or none) gets False at once, having paid one component
    walk.
    """
    n = g.vertex_count
    comps = component_lists(g._nbrs, b"\x01" * n)
    if len(comps) < 2:
        return False
    for comp in comps:
        if len(comp) > 1:
            c = mask_of(comp)
            acc_bad, exch_bad = _scan(n, flags, [m for m in members if not m & ~c])
            if acc_bad or exch_bad:
                return False
    return True


def verify_greedoid(g: Graph, cap: int | None = None,
                    oracle: SubsetOracle | None = None) -> GreedoidReport:
    """Enumerate the family and check both greedoid axioms exhaustively.

    Accessibility: every nonempty member has an element whose removal stays
    in the family. Exchange: for members X, Y with |X| = |Y| + 1 some x in
    X - Y extends Y inside the family. All violations are reported, in
    canonical order.

    The family comes from the graph's cached subset tables (an oracle
    passed in must have been built for ``g``), and _scan checks both axioms
    over a list of members. A graph of two or more components is first
    checked component by component, on the same tables: N[S] and alpha
    split over components, so the family is every union of one member per
    component, and when each component's family passes both axioms, so
    does the whole family, and the report (the family's size, both axioms
    true, no violations) is exact without the whole-family scan:

    - Accessibility: a nonempty X meets some component C; removing from
      X's part in C the element that keeps that part in C's family keeps
      X in the family.
    - Exchange: an accessible family with the size-adjacent exchange also
      augments across sizes (descend from the larger member to one of size
      |Y| + 1, then exchange). For |X| = |Y| + 1, some component C has
      |X_C| > |Y_C|, so some x in X_C - Y_C extends Y_C inside C's family,
      and Y + x is in the family.

    When some component fails, the whole family is scanned, since its
    violation lists hold pairs across components too.
    """
    if oracle is None:
        oracle = SubsetOracle(g, cap)
    else:
        _check_oracle(g, oracle)
    flags = oracle.psi_flags()
    members = oracle.psi_masks()
    if not _components_are_greedoids(g, flags, members):
        acc_bad, exch_bad = _scan(g.vertex_count, flags, members)
        if acc_bad or exch_bad:
            keys = index_tuples(chain.from_iterable(exch_bad))  # Y, X, Y, X, ...
            pairs = sorted(zip(keys[::2], keys[1::2]))
            pairs.sort(key=lambda p: len(p[0]))  # |X| = |Y| + 1: the canonical pair order
            return GreedoidReport(
                family_size=len(members),
                accessibility_ok=not acc_bad,
                exchange_ok=not exch_bad,
                accessibility_violations=tuple(canonical_sets(acc_bad)),
                exchange_violations=tuple((frozenset(y), frozenset(x)) for y, x in pairs),
            )
    return GreedoidReport(len(members), True, True, (), ())
