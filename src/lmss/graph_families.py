"""Deterministic generators for named graphs and test corpora.

The fig* families are fixed example graphs significant to the greedoid
counterexample suite; their distinguished vertices carry conventional
labels (a..f, u/v/x/y/z, a1..an) and synthetic labels p1, p2, ... fill the
remaining positions in a fixed order. The fixed figures fig1, fig2 and
fig4_tree are data: the _FIGURES table holds each one's labels in index
order and its edges as label pairs, and a figure's order is its number of
labels. Beside it, the _SHAPES table holds each shaped family (path,
cycle, complete, star, fig7) as its least order and the builder of its
graph on n vertices. Random families draw from SplitMix64 so that one
64-bit seed pins the output bit-for-bit.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import index
from typing import Iterator, Optional

from .errors import InvalidFamilyParameterError
from .graph_core import Graph

PRNG_ALGORITHM = "splitmix64"

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudorandom generator; 64-bit seed, frozen algorithm."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw from 0..n-1 via the multiply-shift reduction."""
        return (self.next_u64() * n) >> 64

    def chance(self, p: float) -> bool:
        return self.next_u64() < int(p * 2.0 ** 64)


FAMILIES = ("path", "cycle", "complete", "star", "fig1", "fig2", "fig4_tree",
            "fig7", "random_tree", "random_forest")

_FIGURES = {  # fixed figure -> (labels in index order, edges as label pairs)
    "fig1": (("a", "b", "c", "d", "e", "f"),
             (("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "f"), ("e", "f"))),
    "fig2": (("u", "p1", "v", "p2", "y", "z", "p3", "x", "p4"),
             (("u", "p1"), ("p1", "v"), ("v", "p2"), ("p2", "y"), ("y", "z"),
              ("u", "p3"), ("p1", "p3"), ("v", "p3"),
              ("p2", "x"), ("y", "p4"), ("z", "p4"), ("x", "p4"))),
    "fig4_tree": (("b", "p1", "c", "p2", "p3", "p4", "p5", "a", "d", "p6", "e"),
                  (("b", "p1"), ("p1", "c"), ("c", "p2"), ("p2", "p3"), ("p3", "p4"),
                   ("b", "p5"), ("p1", "a"), ("p2", "d"), ("p4", "e"), ("d", "p6"))),
}


@dataclass(frozen=True)
class FamilySpec:
    """Which graph to generate. ``n`` may be omitted for the fixed fig*
    families; ``seed``, an integer in [0, 2^64), feeds SplitMix64 and only
    matters for the random families."""

    family: str
    n: Optional[int] = None
    seed: Optional[int] = None
    delete_prob: float = 0.15  # random_forest edge-deletion probability


def _integer(value, what: str) -> int:
    """``value`` as an int (a numpy integer becomes the equal int); floats,
    strings and None are refused."""
    try:
        return index(value)
    except TypeError:
        raise InvalidFamilyParameterError(f"{what} must be an integer, not {value!r}") from None


def _alpha_labels(n: int) -> list[str]:
    """a, b, ..., z, aa, ab, ... (spreadsheet order)."""
    out = []
    for i in range(n):
        s = ""
        i += 1
        while i:
            i, r = divmod(i - 1, 26)
            s = chr(ord("a") + r) + s
        out.append(s)
    return out


def _numeric_labels(n: int) -> list[str]:
    return [str(i + 1) for i in range(n)]


def prufer_decode(n: int, seq) -> list[tuple[int, int]]:
    """Edges of the labeled tree on 0..n-1 encoded by ``seq`` (length n-2)."""
    n = _integer(n, "n")
    seq = [_integer(v, "sequence entry") for v in seq]
    if n < 2 or len(seq) != n - 2:
        raise InvalidFamilyParameterError(f"need n >= 2 and a length-{max(n - 2, 0)} sequence")
    if seq and not 0 <= min(seq) <= max(seq) < n:
        raise InvalidFamilyParameterError(f"sequence entries must lie in 0..{n - 1}")
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        edges.append((leaf, v) if leaf < v else (v, leaf))
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def prufer_encode(n: int, edges) -> tuple[int, ...]:
    """Inverse of prufer_decode on labeled trees (smallest-leaf removal)."""
    n = _integer(n, "n")
    edges = [(_integer(u, "edge endpoint"), _integer(v, "edge endpoint")) for u, v in edges]
    if n < 2:
        raise InvalidFamilyParameterError("need n >= 2")
    if any(not (0 <= u < n and 0 <= v < n) for u, v in edges):
        raise InvalidFamilyParameterError(f"edge endpoints must lie in 0..{n - 1}")
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if len(edges) != n - 1:
        raise InvalidFamilyParameterError("not a tree: wrong edge count")
    if sum(map(len, adj)) != 2 * (n - 1):
        raise InvalidFamilyParameterError("not a tree: repeated edge or self-loop")
    leaves = [v for v in range(n) if len(adj[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 2):
        # n - 1 distinct edges on a non-tree leave a cycle, which is never
        # peeled: the leaves run out, or a finished component's last leaf
        # comes up with no neighbor left
        if not leaves or not adj[leaves[0]]:
            raise InvalidFamilyParameterError("not a tree: it has a cycle")
        v = heapq.heappop(leaves)
        u = adj[v].pop()
        adj[u].discard(v)
        seq.append(u)
        if len(adj[u]) == 1:
            heapq.heappush(leaves, u)
    return tuple(seq)


def _fig7(n: int) -> Graph:
    labels = [f"a{i + 1}" for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 3)]
    edges += [(n - 4, n - 2), (n - 3, n - 1), (n - 2, n - 1)]
    return Graph(labels, edges)


_SHAPES = {  # shaped family -> (least order, builder of its graph on n vertices)
    "path": (1, lambda n: Graph(_alpha_labels(n), [(i, i + 1) for i in range(n - 1)])),
    "cycle": (4, lambda n: Graph(_numeric_labels(n), [(i, (i + 1) % n) for i in range(n)])),
    "complete": (1, lambda n: Graph(_numeric_labels(n), itertools.combinations(range(n), 2))),
    "star": (1, lambda n: Graph(_alpha_labels(n), [(0, i) for i in range(1, n)])),
    "fig7": (6, _fig7),
}


def _random_forest(n: int, seed: int, delete_prob: float) -> Graph:
    """A random tree with each edge (in sorted order) independently deleted;
    the deletion draws continue the tree's SplitMix64 stream."""
    if n == 1:
        return Graph(["v1"])
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    edges = sorted(prufer_decode(n, seq))
    kept = [e for e in edges if not rng.chance(delete_prob)]
    return Graph([f"v{i + 1}" for i in range(n)], kept)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by ``spec``."""
    fam = spec.family
    if fam not in FAMILIES:
        raise InvalidFamilyParameterError(f"unknown family {fam!r}")
    n = None if spec.n is None else _integer(spec.n, "n")
    if fam in _FIGURES:
        labels, pairs = _FIGURES[fam]
        if n not in (None, len(labels)):
            raise InvalidFamilyParameterError(f"{fam} has exactly {len(labels)} vertices")
        return Graph.from_label_pairs(labels, pairs)
    if n is None:
        raise InvalidFamilyParameterError(f"family {fam!r} requires n")
    least, build = _SHAPES.get(fam, (1, None))  # the random families start at one vertex
    if n < least:
        raise InvalidFamilyParameterError(f"{fam} requires n >= {least}")
    if build is not None:
        return build(n)
    seed = 0 if spec.seed is None else _integer(spec.seed, "seed")
    if not 0 <= seed <= _MASK64:  # SplitMix64 would take it modulo 2^64: another seed's draw
        raise InvalidFamilyParameterError(f"seed must lie in [0, 2^64), not {seed}")
    if fam == "random_tree":
        return _random_forest(n, seed, 0.0)
    p = spec.delete_prob
    try:
        in_range = 0.0 <= p <= 1.0
    except TypeError:
        raise InvalidFamilyParameterError(
            f"delete_prob must be a number in [0, 1], not {p!r}") from None
    if not in_range:
        raise InvalidFamilyParameterError("delete_prob must lie in [0, 1]")
    return _random_forest(n, seed, float(p))  # a Decimal cannot scale a float


def fig7_exchange_pair(n: int, size_class: str) -> tuple[frozenset, frozenset]:
    """The documented exchange counterexample pair on the fig7 graph,
    as index sets of generate(fig7, n).

    small: sizes (1, 2), any n >= 6. large: sizes (alpha-2, alpha-1) with
    2*alpha = n, even n >= 8.
    """
    n = _integer(n, "n")
    if size_class == "small":
        if n < 6:
            raise InvalidFamilyParameterError("small pair requires n >= 6")
        return frozenset({0}), frozenset({n - 3, n - 2})
    if size_class == "large":
        if n < 8 or n % 2:
            raise InvalidFamilyParameterError("large pair requires even n >= 8")
        s1 = frozenset(range(0, n - 5, 2))
        s2 = frozenset(range(0, n - 7, 2)) | {n - 3, n - 2}
        return s1, s2
    raise InvalidFamilyParameterError(f"unknown size class {size_class!r}")


def enumerate_labeled_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees on n vertices, in lexicographic order of
    their encoding sequences. Bounded to 2 <= n <= 8 by design."""
    n = _integer(n, "n")
    if not 2 <= n <= 8:
        raise InvalidFamilyParameterError("tree enumeration supports 2 <= n <= 8")
    labels = tuple(f"v{i + 1}" for i in range(n))
    for seq in itertools.product(range(n), repeat=n - 2):
        yield Graph(labels, prufer_decode(n, seq))
