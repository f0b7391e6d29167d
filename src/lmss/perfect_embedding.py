"""Embedding forests into perfect forests without changing alpha.

Every vertex left exposed by a maximum matching (isolated vertices count as
exposed) receives a fresh pendant partner; the old matching plus the new
edges is then a perfect matching, and alpha is unchanged because both the
order and the matching number grew by the same amount. Using the forest's
internal-cover matching instead makes every new edge land on a pendant or
isolated vertex of the original forest.

The host is grown from the forest's own parts: its labels and neighbor
tuples, grown by graph_core.fresh_partners (the one place where
neighbor lists grow, here and in the constructive chain), and its sorted
edges merged with the added ones. Only the fresh labels are new, and they are
checked for freshness as they are made, against a set of the labels taken;
the host is handed no label index, and the forest's own is never derived.

The host is checked from the certificate it was built from, in O(n + k) for k
added edges, with no walk or peel of its own: the matching plus the added
edges must cover every host vertex exactly once by host edges, and each fresh
vertex must be a leaf, so the host is a forest with a perfect matching. By
Konig-Egervary (alpha + mu = n on a forest) its stability number is then half
its order, which must equal alpha of the forest, read from Graph.peel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import InternalError
from .graph_core import Graph, fresh_partners
from .tree_matching import internal_cover_matching, leaf_greedy_pairs


@dataclass(frozen=True)
class Embedding:
    """A forest enlarged to a perfect forest containing it."""

    host: Graph
    original_vertices: frozenset
    added_edges: tuple  # tuple[(original index, new index)] in host indices


def _fresh_label(base: str, taken: set) -> str:
    """The first of base_w, base_w2, base_w3, ... not in ``taken``, added
    there. A suffix of '_w' and digits keeps a valid label valid, so
    freshness is the one check a fresh label needs."""
    cand = f"{base}_w"
    k = 2
    while cand in taken:
        cand = f"{base}_w{k}"
        k += 1
    taken.add(cand)
    return cand


def embed_perfect(g: Graph, mode: str = "any") -> Embedding:
    """Embed a forest into a perfect forest with the same stability number.

    mode="any" partners the vertices exposed by the leaf-greedy maximum
    matching; mode="pendant_only" uses the internal-cover matching so that
    every added edge meets a pendant or isolated vertex of ``g``. Original
    vertices keep their indices and labels in the host.

    The host is checked against the matching it was built from: the pairs
    plus the added edges must be a perfect matching of it and every fresh
    vertex a leaf, else InternalError("embedding failed to produce a perfect
    forest"); and half its order, its alpha by Konig-Egervary, must be
    alpha(g), else InternalError("embedding changed the stability number").
    The host's own is_forest and peel stay lazy.
    """
    if mode not in ("any", "pendant_only"):
        raise ValueError(f"unknown mode {mode!r}")
    pairs = leaf_greedy_pairs(g) if mode == "any" else internal_cover_matching(g).edges
    n = g.vertex_count
    nbrs = fresh_partners(g._nbrs, pairs, b"\x01" * n)
    added = tuple((nbrs[w][0], w) for w in range(n, len(nbrs)))
    host = g
    if added:  # g's parts, grown
        labels = list(g.labels)
        taken = set(labels)
        for v, _ in added:
            labels.append(_fresh_label(labels[v], taken))
        # g.edges and added are two sorted runs, which one timsort merges
        host = Graph._trusted(tuple(labels), [*g.edges, *added], nbrs)
    # pairs + added cover each host vertex once, by host edges (the cover is
    # tested first, so the adjacency scans sum to O(m)); each fresh vertex is a leaf
    nbrs = host._nbrs
    cover = bytearray(host.vertex_count)
    for x, y in chain(pairs, added):
        if cover[x] or cover[y] or y not in nbrs[x]:
            raise InternalError("embedding failed to produce a perfect forest")
        cover[x] = cover[y] = 1
    if 0 in cover or any(len(nb) != 1 for nb in nbrs[n:]):
        raise InternalError("embedding failed to produce a perfect forest")
    # Konig-Egervary on the perfect forest: alpha(host) = order / 2
    if host.vertex_count != 2 * g.peel[0].count(1):
        raise InternalError("embedding changed the stability number")
    return Embedding(host=host, original_vertices=frozenset(range(n)), added_edges=added)
