"""Shared fixtures and deliberately naive reference oracles.

The oracles below work straight off the edge list with itertools-style
subset enumeration. They are kept independent of the library's bitmask and
table machinery so that every derived expected value is cross-checked by a
second route. The recursive branch-and-bound further down is the exact
search's earlier routine, kept as the reference for its loop. The quadratic
pendant scans after it are the library's pre-heap forest routines, kept as
references for the peel kernel; the per-subset table loop and the
pair-by-pair exchange scan after them are the subset oracle's and the
greedoid verifier's earlier routines, kept as references for the
lane-arithmetic build and the grouped exchange scan. The
chain builders last are the engine's earlier prefix-mask routines, kept as
references for the chains it now builds as vertex join orders, and its
earlier two-pass join order, kept as the reference for the one-search order.

Hypothesis runs derandomised under one fixed profile, so every property
test sees the same examples on every run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import lmss
from lmss import (AccessibilityFailure, Graph, FamilySpec, InternalError, Matching,
                  TooLargeForBruteForce, generate)
from lmss.graph_core import bits_of, component_lists, fresh_partners, mask_of, set_of
from lmss.greedoid_engine import _component_chain
from lmss.stable_core import DEFAULT_BRUTE_FORCE_CAP

settings.register_profile(
    "lmss", derandomize=True, deadline=None, max_examples=150, database=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("lmss")


# -- naive oracles -----------------------------------------------------------


def naive_is_stable(g: Graph, s) -> bool:
    s = set(s)
    return not any(u in s and v in s for u, v in g.edges)


def naive_alpha(g: Graph) -> int:
    n = g.vertex_count
    for k in range(n, 0, -1):
        for comb in combinations(range(n), k):
            if naive_is_stable(g, comb):
                return k
    return 0


def naive_omega(g: Graph) -> set:
    a = naive_alpha(g)
    return {frozenset(c) for c in combinations(range(g.vertex_count), a)
            if naive_is_stable(g, c)}


def naive_closed_neighborhood(g: Graph, s) -> frozenset:
    out = set(s)
    for u, v in g.edges:
        if u in s:
            out.add(v)
        if v in s:
            out.add(u)
    return frozenset(out)


def naive_alpha_within(g: Graph, allowed) -> int:
    """alpha of the subgraph induced by ``allowed``, by subset enumeration."""
    allowed = sorted(allowed)
    for k in range(len(allowed), 0, -1):
        for comb in combinations(allowed, k):
            if naive_is_stable(g, comb):
                return k
    return 0


def naive_is_local_max_stable(g: Graph, s) -> bool:
    s = frozenset(s)
    if not naive_is_stable(g, s):
        return False
    return naive_alpha_within(g, naive_closed_neighborhood(g, s)) == len(s)


def naive_psi(g: Graph) -> set:
    out = set()
    for k in range(g.vertex_count + 1):
        for comb in combinations(range(g.vertex_count), k):
            if naive_is_local_max_stable(g, comb):
                out.add(frozenset(comb))
    return out


def naive_mu(g: Graph) -> int:
    edges = g.edges
    for k in range(len(edges), 0, -1):
        for comb in combinations(edges, k):
            seen = set()
            ok = True
            for u, v in comb:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                return k
    return 0


# -- kernel copies -------------------------------------------------------------
#
# The references below build their adjacency masks from the edge list and
# call these copies of the library's helpers, so a fault in the library's
# adjacency or helpers cannot move a reference along with the code.


def naive_adjacency(g: Graph) -> list:
    """One neighbour bitmask per vertex, built from ``g.edges``."""
    adj = [0] * g.vertex_count
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def closed_mask_of(adj: list, mask: int) -> int:
    """N[S] as a bitmask, for the vertex set S given by ``mask``."""
    closed = mask
    for v in bits_of(mask):
        closed |= adj[v]
    return closed


def component_masks(adj: list, universe: int) -> list:
    """Connected components of the subgraph induced on ``universe``, as
    masks ordered by their lowest vertex."""
    components = []
    while universe:
        comp = frontier = universe & -universe
        while frontier:
            grow = 0
            for v in bits_of(frontier):
                grow |= adj[v]
            frontier = grow & universe & ~comp
            comp |= frontier
        universe ^= comp
        components.append(comp)
    return components


def _pendant_k2s(adj: list, comp: int):
    """Yield every pendant-K2 edge (x, y) of ``comp``, x ascending: a
    pendant x whose neighbor y has degree exactly 2."""
    for x in bits_of(comp):
        live = adj[x] & comp
        if live.bit_count() == 1:
            y = live.bit_length() - 1
            if (adj[y] & comp).bit_count() == 2:
                yield x, y


def _mask_pendant_k2(adj: list, comp: int) -> tuple[int, int]:
    for edge in _pendant_k2s(adj, comp):
        return edge
    raise InternalError("perfect tree without a pendant-K2 edge")  # pragma: no cover


# -- recursive branch-and-bound (reference for stable_core._alpha_branch_bound)


def recursive_alpha_branch_bound(adj: list, universe: int, cap: int | None) -> int:
    """A maximum stable set of the subgraph induced on ``universe``, as a
    mask, by exhaustive search with pruning; more than ``cap`` vertices
    (default 24) are refused.

    Scans vertices in index order, include-branch first, improving strictly;
    the first optimum found is therefore the lexicographically least witness.
    """
    cap = DEFAULT_BRUTE_FORCE_CAP if cap is None else cap
    n = universe.bit_count()
    if n > cap:
        raise TooLargeForBruteForce(f"{n} vertices exceed the brute-force cap of {cap}")
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
        avail ^= low
        v = low.bit_length() - 1
        walk(avail & ~adj[v], cur_mask | low, cur_size + 1)
        walk(avail, cur_mask, cur_size)

    walk(universe, 0, 0)
    return best_mask


# -- quadratic pendant scans (references for graph_core.leaf_peel) -------------
#
# Each rescans the whole active mask after every deletion. They pick the
# lowest-index pendant of what is left, as the heap kernel must.


def naive_alpha_forest(g: Graph) -> frozenset:
    """Pendant-greedy maximum stable set of a forest.

    Isolated vertices are always taken; otherwise the lowest-index pendant
    is taken and its neighbor deleted. Exact on forests, and the fixed
    scan order makes the witness reproducible.
    """
    n = g.vertex_count
    active = (1 << n) - 1
    adj = naive_adjacency(g)
    chosen = 0
    while active:
        progress = False
        pend = -1
        for v in bits_of(active):
            live = adj[v] & active
            if not live:
                chosen |= 1 << v
                active ^= 1 << v
                progress = True
            elif pend < 0 and live.bit_count() == 1:
                pend = v
        if not active:
            break
        if pend >= 0:
            chosen |= 1 << pend
            active &= ~((adj[pend] & active) | (1 << pend))
            progress = True
        if not progress:  # pragma: no cover - impossible on forests
            raise AssertionError("no pendant or isolated vertex in a forest")
    return set_of(chosen)


def naive_maximum_matching(g: Graph) -> Matching:
    """Leaf-greedy maximum matching of a forest.

    Repeatedly matches the lowest-index pendant of the remaining graph to
    its unique neighbor and deletes both; isolated vertices are dropped.
    """
    adj = naive_adjacency(g)
    active = (1 << g.vertex_count) - 1
    edges = []
    while active:
        pend = -1
        for v in bits_of(active):
            live = adj[v] & active
            if not live:
                active ^= 1 << v
            elif live.bit_count() == 1:
                pend = v
                break
        if pend < 0:
            break
        nb = adj[pend] & active
        w = nb.bit_length() - 1
        edges.append((pend, w) if pend < w else (w, pend))
        active &= ~((1 << pend) | (1 << w))
    return Matching.from_edges(edges)


def naive_mask_matching_cover(adj: list, universe: int) -> int:
    """Covered-vertex mask of the leaf-greedy maximum matching of the forest
    induced on ``universe``."""
    active = universe
    covered = 0
    while active:
        pend = -1
        for v in bits_of(active):
            live = adj[v] & active
            if not live:
                active ^= 1 << v
            elif live.bit_count() == 1:
                pend = v
                break
        if pend < 0:
            break
        w = (adj[pend] & active).bit_length() - 1
        covered |= (1 << pend) | (1 << w)
        active &= ~((1 << pend) | (1 << w))
    return covered


def naive_internal_cover_matching(g: Graph) -> Matching:
    """Internal-cover repair that rescans from vertex 0 after every repair,
    starting from the quadratic leaf-greedy matching."""
    n = g.vertex_count
    adj = naive_adjacency(g)
    partner = [-1] * n
    for u, v in naive_maximum_matching(g).edges:
        partner[u] = v
        partner[v] = u

    def exposed_internal():
        for v in range(n):
            if partner[v] < 0 and adj[v].bit_count() >= 2:
                return v
        return -1

    while True:
        v = exposed_internal()
        if v < 0:
            break
        visited = 1 << v
        e, came_from = v, -1
        while adj[e].bit_count() >= 2:
            choices = adj[e] & ~((1 << came_from) if came_from >= 0 else 0)
            q = (choices & -choices).bit_length() - 1
            if partner[q] < 0:
                raise InternalError("maximum matching left two adjacent exposed vertices")
            r = partner[q]
            if visited & ((1 << r) | (1 << q)):
                raise InternalError("alternating walk revisited a vertex in a forest")
            visited |= (1 << q) | (1 << r)
            partner[e], partner[q] = q, e
            partner[r] = -1
            e, came_from = r, q
    edges = [(v, partner[v]) for v in range(n) if 0 <= partner[v] and v < partner[v]]
    return Matching.from_edges(edges)


# -- per-subset oracle loops (references for stable_core's lane build) -----------


def naive_subset_tables(g: Graph) -> tuple[bytearray, bytearray]:
    """alpha of every vertex subset and the family flags, by one Python-level
    step per subset: the lowest-bit recurrence and the flag scan over all
    2^n subsets."""
    n = g.vertex_count
    size = 1 << n
    nbm = [m | (1 << v) for v, m in enumerate(naive_adjacency(g))]
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
    flags = bytearray(size)
    for m in range(size):
        k = m.bit_count()
        if alpha[m] == k and alpha[nbh[m]] == k:
            flags[m] = 1
    return alpha, flags


def naive_exchange_violations(g: Graph, family) -> list:
    """Exchange violations (Y, X) of ``family`` (frozensets), canonically
    ordered: for every Y the scan below visits every X one size up."""
    n = g.vertex_count
    members = sorted((mask_of(s) for s in family), key=int.bit_count)
    flags = bytearray(1 << n)
    for m in members:
        flags[m] = 1
    by_size = [[] for _ in range(n + 1)]
    for m in members:
        by_size[m.bit_count()].append(m)

    exch_bad = []
    full = (1 << n) - 1
    for k in range(n):
        ys = by_size[k]
        xs = by_size[k + 1]
        if not ys or not xs:
            continue
        for y in ys:
            ext = 0
            rest = full & ~y
            while rest:
                low = rest & -rest
                rest ^= low
                if flags[y | low]:
                    ext |= low
            for x in xs:
                if not (x & ~y & ext):
                    exch_bad.append((y, x))

    key = lambda s: (len(s), tuple(sorted(s)))
    return sorted(((set_of(y), set_of(x)) for y, x in exch_bad),
                  key=lambda p: (key(p[0]), key(p[1])))


# -- prefix-mask chain builders (references for the join-order chains) --------


def naive_greedy_peel_masks(in_psi, s_mask: int) -> list:
    chain = []
    cur = s_mask
    while cur:
        chain.append(cur)
        rest = cur
        while rest:
            low = rest & -rest
            rest ^= low
            if in_psi(cur ^ low):
                cur ^= low
                break
        else:
            raise AccessibilityFailure(set_of(cur))
    chain.reverse()
    return chain


def naive_component_chain(adj: list, comp: int, sc: int) -> list:
    """Chain for one component of the induced neighborhood.

    ``sc`` is a maximum stable set of the tree on ``comp``. Non-perfect
    components are first embedded (fresh partners appended to ``adj``), then
    pendant-K2 edges are peeled; chain elements only ever contain original
    vertices, so the embedding never leaks into the certificate.
    """
    if comp.bit_count() == 1:
        if sc != comp:  # pragma: no cover - excluded by theory
            raise InternalError("isolated neighborhood vertex outside the set")
        return [sc]
    covered = naive_mask_matching_cover(adj, comp)
    if covered != comp:
        for v in bits_of(comp & ~covered):
            w = len(adj)
            adj.append(1 << v)
            adj[v] |= 1 << w
            comp |= 1 << w
    # peel pendant-K2 edges; record case (i) x-prefixes and case (ii) suffixes
    ops = []
    while comp.bit_count() > 2:
        x, y = _mask_pendant_k2(adj, comp)
        bx, by = 1 << x, 1 << y
        if sc & bx:
            ops.append((True, bx))
            sc ^= bx
        elif sc & by:
            ops.append((False, sc))
            sc ^= by
        else:  # pragma: no cover - a maximum stable set meets every K2
            raise InternalError("matched edge disjoint from a maximum stable set")
        comp &= ~(bx | by)
    if sc.bit_count() != 1:  # pragma: no cover
        raise InternalError("base K2 holds more than one chosen vertex")
    chain = [sc]
    for is_prefix, payload in reversed(ops):
        if is_prefix:
            chain = [payload] + [m | payload for m in chain]
        else:
            chain = chain + [payload]
    return chain


def naive_constructive_chain_masks(g: Graph, s_mask: int) -> list:
    adj = naive_adjacency(g)
    chain = []
    prefix = 0
    for comp in component_masks(adj, closed_mask_of(adj, s_mask)):
        sc = s_mask & comp
        for m in naive_component_chain(adj, comp, sc):
            chain.append(prefix | m)
        prefix |= sc
    return chain


def naive_nested_sets(masks: list) -> tuple:
    """Freeze chain masks, growing each set from its predecessor when the
    chain nests (it always does on success) instead of rebuilding it."""
    sets = []
    prev_mask, prev = 0, frozenset()
    for m in masks:
        prev = prev.union(bits_of(m ^ prev_mask)) if not prev_mask & ~m else set_of(m)
        prev_mask = m
        sets.append(prev)
    return tuple(sets)


def two_pass_chain_order(g: Graph, walk) -> list:
    """The constructive chain's join order as the engine built it before its
    single breadth-first search: component_lists over the embedded forest
    first, then a separate pass for each component's live degrees and
    pendants. ``walk`` is psi_walk's ``(members, closed, peel)`` and is
    grown in place, as the engine grows it."""
    n = g.vertex_count
    chosen, live, peel = walk
    nb = fresh_partners(g._nbrs, peel[1], live)
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


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def forests(draw, max_n=80):
    """Random forests with shuffled indices; ``roots`` tunes how many
    vertices start a new tree, so isolated vertices come up often."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    roots = draw(st.integers(0, n))
    edges = []
    for i in range(1, n):
        p = draw(st.integers(-roots, i - 1))
        if p >= 0:
            edges.append((order[i], order[p]))
    return Graph([f"v{i}" for i in range(n)], edges)


@st.composite
def graphs(draw, max_n=12):
    """Random graphs on 2..``max_n`` vertices, any edge set (cycles welcome)."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph([f"v{i}" for i in range(n)], draw(st.sets(st.sampled_from(pairs))))


@st.composite
def disjoint_unions(draw, max_n=14):
    """Disjoint unions of 2..4 parts drawn from ``graphs(max_n=5)``,
    ``forests(max_n=5)`` and the cycles C4 and C5, at most ``max_n``
    vertices in all (a part that does not fit is dropped), indices
    shuffled. The cycles' families are no greedoids, and then neither is
    the union's; small random graphs seldom give one."""
    part = st.one_of(graphs(max_n=5), forests(max_n=5), st.sampled_from([4, 5]).map(cycle))
    parts = draw(st.lists(part, min_size=2, max_size=4))
    n, edges = 0, []
    for part in parts:
        if n + part.vertex_count <= max_n:
            edges += [(n + u, n + v) for u, v in part.edges]
            n += part.vertex_count
    order = draw(st.permutations(range(n)))
    return Graph([f"v{i}" for i in range(n)], [(order[u], order[v]) for u, v in edges])


@st.composite
def cyclic_cores(draw, max_cycle=12, max_pendants=3):
    """A cycle on 4..``max_cycle`` vertices with random chords and up to
    ``max_pendants`` vertices hung on it as pendant trees, indices shuffled:
    the lowest-pendant peel of a closed neighborhood holding the cycle
    mostly stops at a cyclic core instead of consuming it."""
    c = draw(st.integers(4, max_cycle))
    edges = [(i, (i + 1) % c) for i in range(c)]
    chords = [(u, v) for u in range(c) for v in range(u + 2, c) if v - u != c - 1]
    edges += draw(st.sets(st.sampled_from(chords), max_size=c))
    n = c + draw(st.integers(0, max_pendants))
    edges += [(i, draw(st.integers(0, i - 1))) for i in range(c, n)]
    order = draw(st.permutations(range(n)))
    return Graph([f"v{i}" for i in range(n)], [(order[u], order[v]) for u, v in edges])


# -- fixture graphs ----------------------------------------------------------


@pytest.fixture(scope="session")
def fig1() -> Graph:
    return generate(FamilySpec("fig1"))


@pytest.fixture(scope="session")
def fig2() -> Graph:
    return generate(FamilySpec("fig2"))


@pytest.fixture(scope="session")
def fig4() -> Graph:
    return generate(FamilySpec("fig4_tree"))


@pytest.fixture(scope="session")
def k2() -> Graph:
    return Graph(["u", "v"], [(0, 1)])


def path(n: int) -> Graph:
    return generate(FamilySpec("path", n))


def cycle(n: int) -> Graph:
    return generate(FamilySpec("cycle", n))


@pytest.fixture(scope="session")
def p4() -> Graph:
    return path(4)


@pytest.fixture(scope="session")
def p6() -> Graph:
    return path(6)


@pytest.fixture(scope="session")
def c4() -> Graph:
    return cycle(4)


def labels_to_set(g: Graph, *labels: str) -> frozenset:
    return frozenset(g.index_of(x) for x in labels)


# -- fresh interpreters --------------------------------------------------------


def fresh_python(code: str, *argv: str, stdin: str | None = None):
    """The JSON value that ``code`` prints last, run by a new interpreter on
    this lmss (nothing loaded before ``code`` imports it), with ``argv``
    after its sys.argv[0]."""
    src = os.path.dirname(os.path.dirname(lmss.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-c", code, *argv], input=stdin, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0 and not res.stderr, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


# -- acceptance reporting ------------------------------------------------------

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    """Collect a per-criterion verdict and echo it immediately."""
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
