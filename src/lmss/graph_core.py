"""Immutable labeled simple graphs and the basic structural queries.

Vertices are dense indices 0..n-1; every vertex carries a distinct string
label so example graphs and test fixtures stay readable in I/O. A label is a
non-empty token without whitespace or '#', so every graph written in the
text format parses back; Graph refuses any other label. Adjacency is
kept as one bitmask per vertex, which the enumeration and certificate
machinery in the other modules relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import repeat
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import InvalidVertexError, SelfLoopError

VertexSet = frozenset  # subset of vertex indices of a specific Graph

_LABEL_BREAK = re.compile(r"[\s#]")


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


def set_of(mask: int) -> frozenset:
    return frozenset(bits_of(mask))


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


def leaf_peel(adj: list, active: int) -> tuple[int, tuple, int]:
    """Lowest-pendant peel of the subgraph induced on ``active``.

    Repeatedly takes the lowest-index pendant x of what is left, pairs it
    with its neighbor y and deletes both; every vertex left isolated is
    taken. Returns ``(taken_mask, pairs, leftover_mask)`` with ``pairs`` the
    ``(x, y)`` moves in peel order. Each move keeps a maximum stable set and
    a maximum matching within reach in any graph, so on a forest
    ``taken_mask`` is a maximum stable set, ``pairs`` a maximum matching and
    the leftover is 0. A non-zero leftover has no pendant or isolated
    vertex, so ``active`` contains a cycle; the converse fails (deleting y
    can break a cycle).

    Pendants wait in a min-heap with lazy deletion (a popped vertex no
    longer in ``active`` is skipped; a live one still has degree 1, since a
    degree only falls when a neighbor y is deleted and is then rechecked).
    A deletion re-examines only the live neighbors of y: O(n log n) heap
    work. Each move also costs a few bigint operations on n-bit masks, each
    linear in n, which dominate at very large n.
    """
    heap = []  # filled in ascending order, hence already a heap
    taken = 0
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        live = adj[v] & active
        if not live:
            taken |= low
        elif not live & (live - 1):  # exactly one live neighbor
            heap.append(v)
    active ^= taken
    pairs = []
    while heap:
        x = heappop(heap)
        bx = 1 << x
        if not active & bx:
            continue
        by = adj[x] & active
        y = by.bit_length() - 1
        taken |= bx
        active ^= bx | by
        pairs.append((x, y))
        rest = adj[y] & active
        while rest:
            low = rest & -rest
            rest ^= low
            z = low.bit_length() - 1
            live = adj[z] & active
            if not live:
                taken |= low
                active ^= low
            elif not live & (live - 1):
                heappush(heap, z)
    return taken, tuple(pairs), active


class Graph:
    """A finite, undirected, loopless graph without multiple edges.

    Graphs are values: build once, never mutate. Vertex deletion and edge
    filtering are realized by constructing new graphs.
    """

    __slots__ = ("labels", "edges", "vertex_count", "_index", "_adj", "_forest", "_peel",
                 "_oracle")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]] = ()):
        labels = tuple(labels)
        try:
            joined = "".join(labels)
        except TypeError:
            bad = next(lbl for lbl in labels if not isinstance(lbl, str))
            raise ValueError(f"vertex label {bad!r} is not a string") from None
        if "" in labels or _LABEL_BREAK.search(joined):
            bad = next(lbl for lbl in labels if not lbl or _LABEL_BREAK.search(lbl))
            raise ValueError(f"vertex label {bad!r} is empty or holds whitespace or '#'")
        n = len(labels)
        positions = {}
        for i, lbl in enumerate(labels):
            if lbl in positions:
                raise ValueError(f"duplicate vertex label {lbl!r}")
            positions[lbl] = i
        adj = [0] * n
        seen = set()
        for u, v in edges:
            try:  # numpy integers become ints; floats, strings and None are refused
                u, v = index(u), index(v)
            except TypeError:
                raise InvalidVertexError(f"edge ({u!r}, {v!r}) has a non-index endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u}, {v}) out of range 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {labels[u]!r}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                continue
            seen.add(e)
            adj[e[0]] |= 1 << e[1]
            adj[e[1]] |= 1 << e[0]
        self.labels = labels
        self.edges = tuple(sorted(seen))
        self.vertex_count = n
        self._index = positions
        self._adj = adj
        self._forest = None
        self._peel = None
        self._oracle = None  # stable_core's subset tables, built on first use

    @classmethod
    def from_label_pairs(cls, labels: Sequence[str], pairs: Iterable[tuple[str, str]]) -> "Graph":
        """Build a graph from edges given as label pairs."""
        index = {lbl: i for i, lbl in enumerate(labels)}
        try:
            edges = [(index[a], index[b]) for a, b in pairs]
        except KeyError as exc:
            raise InvalidVertexError(f"unknown label {exc.args[0]!r}") from None
        return cls(labels, edges)

    # -- basic queries ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidVertexError(f"unknown label {label!r}") from None

    def _vertex(self, v) -> int:
        """``v`` as an int in 0..n-1; anything else is refused."""
        try:
            v = index(v)  # a numpy integer becomes the equal int
        except TypeError:
            raise InvalidVertexError(f"vertex {v!r} is not an index") from None
        if not 0 <= v < self.vertex_count:  # _adj[-1] would read another vertex
            raise InvalidVertexError(f"vertex {v!r} out of range 0..{self.vertex_count - 1}")
        return v

    def adjacency_mask(self, v: int) -> int:
        """Open neighborhood of ``v`` as a bitmask; ``v`` must lie in 0..n-1."""
        return self._adj[self._vertex(v)]

    def closed_mask(self, v: int) -> int:
        v = self._vertex(v)
        return self._adj[v] | (1 << v)

    def degree(self, v: int) -> int:
        return self.adjacency_mask(v).bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits_of(self.adjacency_mask(v)))

    def has_edge(self, u: int, v: int) -> bool:
        v = self._vertex(v)  # refuses v before 1 << v can allocate
        return bool(self.adjacency_mask(u) & (1 << v))

    def full_mask(self) -> int:
        return (1 << self.vertex_count) - 1

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

    @property
    def is_forest(self) -> bool:
        if self._forest is None:
            components = component_masks(self._adj, self.full_mask())
            self._forest = self.edge_count == self.vertex_count - len(components)
        return self._forest

    @property
    def peel(self) -> tuple[int, tuple, int]:
        """``leaf_peel`` of the whole graph, computed once."""
        if self._peel is None:
            self._peel = leaf_peel(self._adj, self.full_mask())
        return self._peel

    # -- value semantics -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


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
    return set_of(closed_mask_of(g._adj, g.check_vertices_mask(a)[1]))


def induced_subgraph(g: Graph, a: Iterable[int]) -> Graph:
    """The subgraph spanned by ``a``; labels are preserved, indices are
    re-packed in increasing original-index order."""
    keep = sorted(g.check_vertices(a))
    remap = {old: new for new, old in enumerate(keep)}
    labels = [g.labels[v] for v in keep]
    kmask = mask_of(keep)
    edges = []
    for old in keep:
        for w in bits_of(g._adj[old] & kmask):
            if w > old:
                edges.append((remap[old], remap[w]))
    return Graph(labels, edges)


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
    components = tuple(set_of(c) for c in component_masks(g._adj, g.full_mask()))
    is_forest = g.edge_count == n - len(components)
    is_tree = is_forest and len(components) == 1 and n >= 2
    return ComponentDecomposition(components, is_forest, is_tree)
