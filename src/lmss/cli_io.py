"""Graph file parsing and result serialization.

File format (line oriented, '#' starts a comment):

    p <n> <m>        header: vertex and edge counts
    v <label>        n vertex lines; labels are non-empty tokens free of
                     whitespace and '#' (Graph refuses any other label)
    e <label> <label>  m edge lines

Explicit vertex declaration keeps isolated vertices and custom labels intact.
Output is canonical: vertex sets are listed in index order, families ascend
by size then lexicographically, so equal inputs yield byte-identical bytes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from .errors import (
    GraphSyntaxError,
    SelfLoopError,
    UnknownVertexError,
    UnsupportedFormatError,
)
from .graph_core import Graph
from .greedoid_engine import ChainCertificate, ExchangeWitness, GreedoidReport
from .perfect_embedding import Embedding
from .stable_core import PsiFamily, StableSetResult
from .tree_matching import KonigEgervaryReport, Matching

FORMAT_VERSION = "1"


class DuplicateEdgeWarning(UserWarning):
    """A duplicate edge line was collapsed during parsing."""


@dataclass(frozen=True)
class GraphDocument:
    """A graph plus where it came from and how to regenerate it."""

    graph: Graph
    source: str  # "file" | "family" | "inline"
    metadata: dict


def parse_graph(text) -> GraphDocument:
    """Parse the edge-list format into a validated graph.

    Duplicate edges collapse with a DuplicateEdgeWarning; self-loops and
    references to undeclared labels are errors carrying the line number.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    header = None
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    seen_edges = set()
    n = m = edge_lines = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if header is None:
            if kind != "p" or len(fields) != 3:
                raise GraphSyntaxError(lineno, "expected header 'p <n> <m>'")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphSyntaxError(lineno, "vertex/edge counts must be integers") from None
            if n < 0 or m < 0:
                raise GraphSyntaxError(lineno, "vertex/edge counts must be non-negative")
            header = (n, m)
        elif kind == "v":
            if len(fields) != 2:
                raise GraphSyntaxError(lineno, "expected 'v <label>'")
            if edge_lines:
                raise GraphSyntaxError(lineno, "vertex line after edge lines")
            if len(labels) >= n:
                raise GraphSyntaxError(lineno, f"more than {n} vertex lines")
            lbl = fields[1]
            if lbl in index:
                raise GraphSyntaxError(lineno, f"duplicate vertex label {lbl!r}")
            index[lbl] = len(labels)
            labels.append(lbl)
        elif kind == "e":
            if len(fields) != 3:
                raise GraphSyntaxError(lineno, "expected 'e <label> <label>'")
            if len(labels) != n:
                raise GraphSyntaxError(lineno, "edge line before all vertices are declared")
            if edge_lines >= m:
                raise GraphSyntaxError(lineno, f"more than {m} edge lines")
            edge_lines += 1
            a, b = fields[1], fields[2]
            for lbl in (a, b):
                if lbl not in index:
                    raise UnknownVertexError(lineno, lbl)
            if a == b:
                raise SelfLoopError(f"line {lineno}: self-loop at {a!r}")
            u, v = sorted((index[a], index[b]))
            if (u, v) in seen_edges:
                warnings.warn(DuplicateEdgeWarning(
                    f"line {lineno}: duplicate edge {a} {b} collapsed"))
                continue
            seen_edges.add((u, v))
            edges.append((u, v))
        else:
            raise GraphSyntaxError(lineno, f"unknown line type {kind!r}")
    if header is None:
        raise GraphSyntaxError(1, "empty input: missing 'p <n> <m>' header")
    if len(labels) != n:
        raise GraphSyntaxError(1, f"declared {n} vertices but found {len(labels)}")
    if edge_lines != m:
        raise GraphSyntaxError(1, f"declared {m} edges but found {edge_lines}")
    return GraphDocument(graph=Graph(labels, edges), source="file",
                         metadata={"format_version": FORMAT_VERSION})


def labels_of(g: Graph, s) -> list[str]:
    """The labels of the vertex set ``s`` of ``g``, in index order."""
    return [g.labels[v] for v in sorted(s)]


def _graph_dict(g: Graph, metadata=None) -> dict:
    d = {"labels": list(g.labels),
         "edges": [[g.labels[u], g.labels[v]] for u, v in g.edges]}
    if metadata:
        d["metadata"] = {k: str(v) for k, v in sorted(metadata.items())}
    return d


def to_jsonable(obj, graph: Graph | None = None):
    """Shape a graph or result record into plain JSON-ready data.

    Records that store bare vertex indices (stable sets, matchings,
    witnesses, reports) need the graph passed in to resolve labels.
    """
    def need_graph() -> Graph:
        if graph is None:
            raise ValueError(f"{type(obj).__name__} output needs graph= for labels")
        return graph

    if isinstance(obj, GraphDocument):
        return _graph_dict(obj.graph, obj.metadata)
    if isinstance(obj, Graph):
        return _graph_dict(obj)
    if isinstance(obj, StableSetResult):
        g = need_graph()
        return {"alpha": obj.size, "method": obj.method, "set": labels_of(g, obj.set)}
    if isinstance(obj, PsiFamily):
        g = obj.graph
        return {"count": len(obj.members), "sets": [labels_of(g, s) for s in obj.members]}
    if isinstance(obj, Matching):
        g = need_graph()
        return {"mu": len(obj.edges),
                "edges": [[g.labels[u], g.labels[v]] for u, v in obj.edges],
                "covered": labels_of(g, obj.covered)}
    if isinstance(obj, KonigEgervaryReport):
        return {"alpha": obj.alpha, "mu": obj.mu, "order": obj.order,
                "identity_holds": obj.identity_holds,
                "has_perfect_matching": obj.has_perfect_matching}
    if isinstance(obj, Embedding):
        h = obj.host
        return {"host": _graph_dict(h),
                "original_vertices": labels_of(h, obj.original_vertices),
                "added_edges": [[h.labels[u], h.labels[v]] for u, v in obj.added_edges]}
    if isinstance(obj, ChainCertificate):
        g = obj.graph
        return {"strategy": obj.strategy,
                "chain": [labels_of(g, s) for s in obj.chain]}
    if isinstance(obj, ExchangeWitness):
        g = need_graph()
        return {"s1": labels_of(g, obj.s1), "s2": labels_of(g, obj.s2),
                "witness": None if obj.witness is None else g.labels[obj.witness]}
    if isinstance(obj, GreedoidReport):
        g = need_graph()
        return {"family_size": obj.family_size,
                "accessibility_ok": obj.accessibility_ok,
                "exchange_ok": obj.exchange_ok,
                "accessibility_violations":
                    [labels_of(g, s) for s in obj.accessibility_violations],
                "exchange_violations":
                    [[labels_of(g, y), labels_of(g, x)] for y, x in obj.exchange_violations]}
    if isinstance(obj, dict):
        return obj
    raise UnsupportedFormatError(f"cannot serialize {type(obj).__name__}")


def _emit_text_graph(doc) -> str:
    g = doc.graph if isinstance(doc, GraphDocument) else doc
    lines = []
    if isinstance(doc, GraphDocument):
        for k, v in sorted(doc.metadata.items()):
            line = f"# {k}: {v}"
            if line.splitlines() != [line]:  # the rest would not stay in the comment
                raise UnsupportedFormatError(
                    f"metadata {k!r} holds a line break; text output would not parse back")
            lines.append(line)
    lines.append(f"p {g.vertex_count} {g.edge_count}")
    lines.extend(f"v {lbl}" for lbl in g.labels)
    lines.extend(f"e {g.labels[u]} {g.labels[v]}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _emit_text_record(data: dict) -> str:
    def fmt(v):
        if isinstance(v, list):
            return "[" + ", ".join(fmt(x) for x in v) + "]"
        if isinstance(v, bool):
            return "yes" if v else "no"
        return str(v)

    return "".join(f"{k}: {fmt(v)}\n" for k, v in data.items())


def _emit_dot(g: Graph, marked=None) -> str:
    marked = frozenset() if marked is None else frozenset(marked)
    lines = ["graph g {"]
    for i, lbl in enumerate(g.labels):
        quoted = lbl.replace("\\", "\\\\").replace('"', '\\"')
        attrs = f'label="{quoted}"'
        if i in marked:
            attrs += ', style=filled, fillcolor=gray'
        lines.append(f'  n{i} [{attrs}];')
    for u, v in g.edges:
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit(obj, fmt: str = "text", graph: Graph | None = None) -> str:
    """Serialize a graph document or result record.

    json output is canonical (stable key order, sets sorted); dot output is
    only defined for graphs, optionally with a marked vertex set supplied as
    a (graph, set) pair via StableSetResult or frozenset, and escapes '\\'
    and '"' in its quoted labels.
    """
    if fmt == "json":
        return json.dumps(to_jsonable(obj, graph), indent=2, ensure_ascii=False) + "\n"
    if fmt == "text":
        if isinstance(obj, (Graph, GraphDocument)):
            return _emit_text_graph(obj)
        return _emit_text_record(to_jsonable(obj, graph))
    if fmt == "dot":
        if isinstance(obj, GraphDocument):
            return _emit_dot(obj.graph)
        if isinstance(obj, Graph):
            return _emit_dot(obj)
        if isinstance(obj, StableSetResult) and graph is not None:
            return _emit_dot(graph, obj.set)
        if isinstance(obj, frozenset) and graph is not None:
            return _emit_dot(graph, obj)
        raise UnsupportedFormatError("dot output needs a graph (plus optional vertex set)")
    raise UnsupportedFormatError(f"unknown format {fmt!r}")
