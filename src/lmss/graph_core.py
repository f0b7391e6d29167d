"""Immutable labeled simple graphs and the basic structural queries.

Vertices are dense indices 0..n-1; every vertex carries a distinct string
label so example graphs and test fixtures stay readable in I/O. A label is a
non-empty token without whitespace, '#' or ',', so every graph written in
the text format parses back, and so does every vertex set the CLI writes
as comma-separated labels; Graph refuses any other label.

Adjacency is kept as one ascending tuple of neighbors per vertex, and one
rule holds across the package: neighbor lists for traversal, bitmasks only
where subsets are enumerated or searched. Graph answers neighbor queries
(``neighbors``, ``degree``, ``has_edge``) as lists only. The graph kernels
(N[S] with the stability test, peel, components, embedding step, search)
take the lists and a bytearray of flags, one byte per vertex, and return
flags or lists, so the forest routines stay O(n log n) in time and O(n) in
memory; Graph.peel keeps the peel's own flags. Masks are built where the
engine calls a kernel, and for the subsets enumerated or searched: by the
subset tables, one neighbor mask per vertex of a small graph, and by the
exhaustive search, one per vertex it searches.

Graph() validates its labels and edges, then hands them to one private
builder, which takes the labels, the edges and optionally the neighbor
tuples, sorts the edges and makes any tuples not given. Three callers whose
parts are already valid call the builder directly through Graph._trusted:
the text parser, which checks each label and edge as it reads it, the
perfect embedding, which grows its host from a graph's own labels and
tuples, and induced_subgraph, which keeps a subset of a graph's labels and
edges. No builder keeps a label index: index_of derives it on first use.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress, count, groupby, islice, repeat
from operator import eq, index
from typing import Iterable, Iterator, Sequence

from .errors import InvalidVertexError, SelfLoopError

VertexSet = frozenset  # subset of vertex indices of a specific Graph

_LABEL_BREAK = re.compile(r"[\s#,]")


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _index_table(offset: int) -> list:
    """For every byte value b, the ascending tuple of b's set bits plus
    ``offset``: built by doubling, each new bit above every old one."""
    table = [()]
    for i in range(offset, offset + 8):
        table += [s + (i,) for s in table]
    return table


# bits 0..23, which cover the default enumeration cap; built once at import
_INDEX_TABLES = tuple(_index_table(8 * k) for k in range(3))


def set_of(mask: int) -> frozenset:
    """The vertex set of ``mask``. A mask below 2^24 joins the index tuples
    of its three bytes from _INDEX_TABLES; a wider one goes through
    flags_of, in linear time (bits_of costs O(width) per member).
    index_tuples takes the same two routes for many masks at once."""
    if mask >> 24:
        return frozenset(compress(count(), flags_of(mask, 0)))
    t0, t1, t2 = _INDEX_TABLES
    return frozenset(t0[mask & 255] + t1[mask >> 8 & 255] + t2[mask >> 16])


def index_tuples(masks) -> list:
    """The ascending index tuple of every vertex mask in ``masks`` (any
    iterable; order and duplicates kept), by set_of's two routes: joined
    byte by byte from _INDEX_TABLES when every mask is below 2^24, else
    each read off its flags_of."""
    masks = list(masks)
    if max(masks, default=0) >> 24:
        return [tuple(compress(count(), flags_of(m, 0))) for m in masks]
    t0, t1, t2 = _INDEX_TABLES
    return [t0[m & 255] + t1[m >> 8 & 255] + t2[m >> 16] for m in masks]


_BYTE_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_OF_BYTE = bytes.maketrans(b"\x00\x01", b"01")


def _digits_as_flags(mask: int) -> bytes:
    return format(mask, "b")[::-1].encode().translate(_BYTE_OF_DIGIT)


# the flags of every mask below 2^8, unpadded; built once at import
_BYTE_FLAGS = (b"", *map(_digits_as_flags, range(1, 256)))


def flags_of(mask: int, n: int) -> bytearray:
    """The vertex set ``mask`` as one byte per vertex (1 = member), padded
    with zeros to max(n, mask.bit_length()) bytes, so the empty set on no
    vertices has no flag: read from _BYTE_FLAGS below 2^8, else in a few
    linear passes over its binary digits."""
    return bytearray((_digits_as_flags(mask) if mask >> 8 else _BYTE_FLAGS[mask]).ljust(n, b"\0"))


def mask_of_flags(flags) -> int:
    """The inverse of flags_of: the bitmask of the flagged vertices."""
    return int(flags.translate(_DIGIT_OF_BYTE)[::-1], 2) if flags else 0


def closed_flags(nbrs: Sequence, members) -> bytearray | None:
    """N[S] as one byte per vertex, for the vertex set S flagged in ``members``,
    or None as soon as an edge inside S shows that S is not stable: the one
    walk over S's neighbors answers both."""
    closed = bytearray(members)
    for v in compress(range(len(members)), members):
        for w in nbrs[v]:
            if members[w]:
                return None
            closed[w] = 1
    return closed


def component_lists(nbrs: Sequence, active) -> list:
    """Connected components of the subgraph induced on the vertices flagged
    in ``active`` (one byte per vertex; not modified), ordered by their
    lowest vertex. Each is a list of its vertices in breadth-first order
    from that lowest vertex."""
    todo = bytearray(active)
    comps = []
    v = todo.find(1)
    while v >= 0:  # v is the lowest vertex of the next component
        todo[v] = 0
        comp = [v]
        for u in comp:
            for w in nbrs[u]:
                if todo[w]:
                    todo[w] = 0
                    comp.append(w)
        comps.append(comp)
        v = todo.find(1, v + 1)
    return comps


def leaf_peel(nbrs: Sequence, active) -> tuple[bytearray, tuple, bytearray]:
    """Lowest-pendant peel of the subgraph induced on the vertices flagged in
    ``active`` (one byte per vertex, as flags_of gives; not modified).

    Repeatedly takes the lowest-index pendant x of what is left, pairs it
    with its neighbor y and deletes both; every vertex left isolated is
    taken. Returns ``(taken, pairs, leftover)``: the taken and the leftover
    vertices as flags like ``active``, and ``pairs`` the ``(x, y)`` moves in
    peel order. Each move keeps a maximum stable set and a maximum matching
    within reach in any graph, so on a forest ``taken`` is a maximum stable
    set, ``pairs`` a maximum matching and no vertex is left over. A
    non-empty leftover has no pendant or isolated vertex, so ``active``
    contains a cycle; the converse fails (deleting y can break a cycle).

    Liveness is a bytearray and each live vertex keeps a count of its live
    neighbors. Pendants wait in a min-heap with lazy deletion (a popped
    vertex no longer live is skipped; a live one still has one neighbor,
    since a count only falls when a neighbor y is deleted and is then
    rechecked). A deletion visits only the neighbors of y, so the peel is
    O(n log n) over the neighbor lists, and no bitmask is built.
    """
    live = bytearray(active)
    took = bytearray(len(live))
    deg = [0] * len(live)
    heap = []  # filled in ascending order, hence already a heap
    for v in compress(range(len(live)), live):
        d = 0
        for w in nbrs[v]:
            d += live[w]
        if d == 1:
            heap.append(v)
        elif not d:  # no live vertex counts it, so it leaves at once
            took[v] = 1
            live[v] = 0
        deg[v] = d
    pairs = []
    while heap:
        x = heappop(heap)
        if not live[x]:
            continue
        for y in nbrs[x]:
            if live[y]:
                break
        took[x] = 1
        live[x] = live[y] = 0
        pairs.append((x, y))
        for z in nbrs[y]:
            if live[z]:
                d = deg[z] - 1
                deg[z] = d
                if d == 1:
                    heappush(heap, z)
                elif not d:
                    took[z] = 1
                    live[z] = 0
    return took, tuple(pairs), live


def fresh_partners(nbrs: Sequence, pairs, universe) -> list:
    """The embedding step on the neighbor tuples ``nbrs`` of n vertices: each
    vertex flagged in ``universe`` (one byte per vertex) that the matching
    ``pairs`` leaves exposed gets a fresh partner n, n + 1, ... in ascending
    order, appended to its tuple (above every old index, so it stays sorted).
    Returns the grown lists; the added edges are ``(nb[w][0], w)`` for each
    fresh vertex w, which only the perfect embedding lists. This is the one
    place where neighbor lists grow: in the perfect embedding and in the
    constructive chain."""
    exposed = bytearray(universe)
    for x, y in pairs:
        exposed[x] = exposed[y] = 0
    nb = list(nbrs)
    for v in compress(range(len(exposed)), exposed):
        nb[v] += (len(nb),)
        nb.append((v,))
    return nb


class Graph:
    """A finite, undirected, loopless graph without multiple edges.

    Graphs are values: build once, never mutate. Vertex deletion and edge
    filtering are realized by constructing new graphs.
    """

    __slots__ = ("labels", "edges", "vertex_count", "_nbrs", "_memo")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]] = ()):
        labels = tuple(labels)
        try:
            joined = "".join(labels)
        except TypeError:
            bad = next(lbl for lbl in labels if not isinstance(lbl, str))
            raise ValueError(f"vertex label {bad!r} is not a string") from None
        if "" in labels or _LABEL_BREAK.search(joined):
            bad = next(lbl for lbl in labels if not lbl or _LABEL_BREAK.search(lbl))
            raise ValueError(f"vertex label {bad!r} is empty or holds whitespace, '#' or ','")
        n = len(labels)
        if len(set(labels)) < n:
            seen = set()  # seen.add answers None: only a label seen before is picked
            bad = next(lbl for lbl in labels if lbl in seen or seen.add(lbl))
            raise ValueError(f"duplicate vertex label {bad!r}")
        norm = []
        for u, v in edges:
            try:  # numpy integers become ints; floats, strings and None are refused
                u, v = index(u), index(v)
            except TypeError:
                raise InvalidVertexError(f"edge ({u!r}, {v!r}) has a non-index endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u}, {v}) out of range 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {labels[u]!r}")
            norm.append((u, v) if u < v else (v, u))
        self._build(labels, norm)

    @classmethod
    def _trusted(cls, labels: tuple, edges: list, nbrs=None) -> "Graph":
        """A graph from parts its caller has already checked, without
        __init__'s validation: see _build for what each part must be."""
        g = cls.__new__(cls)
        g._build(labels, edges, nbrs)
        return g

    def _build(self, labels: tuple, edges: list, nbrs=None) -> None:
        """Fill in the graph from checked parts: ``labels`` a tuple of valid,
        distinct labels, ``edges`` a list of (u, v) with 0 <= u < v < n in any
        order, parallel ones allowed (the list is sorted in place). ``nbrs``,
        when given, holds the ascending neighbor tuples of the collapsed
        edges; otherwise they are built here."""
        edges.sort()  # parallel edges become neighbors and collapse
        if any(map(eq, edges, islice(edges, 1, None))):
            edges = [e for e, _ in groupby(edges)]
        self.edges = edges = tuple(edges)
        n = len(labels)
        if nbrs is None:
            # in edge order, u's lower neighbors (edges (w, u)) precede its higher
            # ones (edges (u, w)), and each run ascends: the lists come out sorted
            nbrs = [[] for _ in range(n)]
            for u, v in edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            for v in range(n):  # one list at a time, so the lists and tuples never all coexist
                nbrs[v] = tuple(nbrs[v])
        self.labels = labels
        self.vertex_count = n
        self._nbrs = tuple(nbrs)
        self._memo = {}

    @classmethod
    def from_label_pairs(cls, labels: Sequence[str], pairs: Iterable[tuple[str, str]]) -> "Graph":
        """Build a graph from edges given as label pairs, each label read
        through index_of on the edgeless graph of ``labels``."""
        g = cls(labels)
        return cls(g.labels, [(g.index_of(a), g.index_of(b)) for a, b in pairs])

    # -- basic queries ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def index_of(self, label: str) -> int:
        """The index of the vertex labelled ``label``, read from the label
        index, which is derived from ``labels`` on the first call (see
        _derive); an unknown label is refused."""
        try:
            return self._derive("index", _label_positions)[label]
        except KeyError:
            raise InvalidVertexError(f"unknown label {label!r}") from None

    def _vertex(self, v) -> int:
        """``v`` as an int in 0..n-1; anything else is refused."""
        try:
            v = index(v)  # a numpy integer becomes the equal int
        except TypeError:
            raise InvalidVertexError(f"vertex {v!r} is not an index") from None
        if not 0 <= v < self.vertex_count:  # _nbrs[-1] would read another vertex
            raise InvalidVertexError(f"vertex {v!r} out of range 0..{self.vertex_count - 1}")
        return v

    def degree(self, v: int) -> int:
        return len(self._nbrs[self._vertex(v)])

    def neighbors(self, v: int) -> list[int]:
        """The neighbors of ``v``, ascending."""
        return list(self._nbrs[self._vertex(v)])

    def has_edge(self, u: int, v: int) -> bool:
        v = self._vertex(v)
        ns = self._nbrs[self._vertex(u)]
        i = bisect_left(ns, v)
        return i < len(ns) and ns[i] == v

    def check_vertices(self, vertices: Iterable[int]) -> frozenset:
        """Validate a vertex set against this graph; returns it frozen."""
        return self.check_vertices_mask(vertices)[0]

    def check_vertices_mask(self, vertices: Iterable[int]) -> tuple[frozenset, int]:
        """Validate a vertex set and return it with its bitmask."""
        try:
            s = vertices if isinstance(vertices, frozenset) else frozenset(vertices)
        except TypeError:  # not iterable, or an unhashable member
            raise InvalidVertexError(f"vertex set {vertices!r} is not a set of indices") from None
        n = self.vertex_count
        m = 0
        try:
            for v in s:
                # a v past the range sets bit n only, not a mask as wide as v
                m |= 1 << (v if v < n else n)
        except (TypeError, ValueError, OverflowError):
            m = None
        if type(m) is not int:  # numpy integers shift as int64; redo them as ints
            try:
                s = frozenset(map(index, s))
                m = mask_of(map(min, s, repeat(n)))  # no closure over n: it stays a fast local
            except (TypeError, ValueError):
                raise InvalidVertexError(f"non-index member in {s!r}") from None
        if m >> n:  # list numpy members as ints; a float past the range is no index
            try:
                shown = sorted(map(index, s))
            except TypeError:
                raise InvalidVertexError(f"non-index member in {s!r}") from None
            raise InvalidVertexError(f"vertex set {shown} exceeds range 0..{n - 1}")
        return s, m

    def _derive(self, key: str, compute):
        """The fact ``key`` of this graph: ``compute(self)`` on first use, then
        the same object for every later reader. A graph's derived facts, its
        label index, forest test and peel here and what other modules derive
        from it, are computed once, shared, never to be modified, and freed
        with the graph: they hold no reference back to it."""
        memo = self._memo
        return memo[key] if key in memo else memo.setdefault(key, compute(self))

    @property
    def is_forest(self) -> bool:
        """Acyclicity: edge_count == vertex_count - number of components."""
        return self._derive("forest", _acyclic)

    @property
    def peel(self) -> tuple[bytearray, tuple, bytearray]:
        """``leaf_peel`` of the whole graph, ``(taken, pairs, leftover)`` with
        the taken and leftover vertices as flags; derived once (see _derive)."""
        return self._derive("peel", _whole_peel)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def _label_positions(g: Graph) -> dict:
    return dict(zip(g.labels, range(g.vertex_count)))


def _acyclic(g: Graph) -> bool:
    n = g.vertex_count
    return len(g.edges) == n - len(component_lists(g._nbrs, b"\x01" * n))


def _whole_peel(g: Graph) -> tuple:
    return leaf_peel(g._nbrs, b"\x01" * g.vertex_count)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components plus the acyclicity verdicts."""

    components: tuple  # tuple[frozenset], ordered by smallest member
    is_forest: bool
    is_tree: bool


def closed_neighborhood(g: Graph, a: Iterable[int]) -> frozenset:
    """N[A]: the set A together with every vertex adjacent to a member of A.

    The empty set has empty closed neighborhood.
    """
    a = g.check_vertices(a)
    return a.union(*map(g._nbrs.__getitem__, a))


def induced_subgraph(g: Graph, a: Iterable[int]) -> Graph:
    """The subgraph spanned by ``a``; labels are preserved, indices are
    re-packed in increasing original-index order."""
    keep = sorted(g.check_vertices(a))
    remap = {old: new for new, old in enumerate(keep)}
    labels = tuple(g.labels[v] for v in keep)
    edges = [(remap[old], remap[w]) for old in keep for w in g._nbrs[old]
             if w > old and w in remap]
    return Graph._trusted(labels, edges)  # g's distinct labels, re-packed edges u < v


def pendant_vertices(g: Graph) -> frozenset:
    """All vertices of degree exactly 1."""
    return frozenset(v for v in range(g.vertex_count) if g.degree(v) == 1)


def decompose(g: Graph) -> ComponentDecomposition:
    """Split into connected components and test acyclicity.

    A graph is a forest iff every component is a tree, equivalently iff
    edge_count == vertex_count - number of components. Following the
    order->1 convention, is_tree additionally requires at least 2 vertices.
    """
    n = g.vertex_count
    comps = tuple(map(frozenset, component_lists(g._nbrs, b"\x01" * n)))
    is_forest = g.edge_count == n - len(comps)
    is_tree = is_forest and len(comps) == 1 and n >= 2
    return ComponentDecomposition(comps, is_forest, is_tree)
