"""Graph file parsing and result serialization.

File format (line oriented, '#' starts a comment):

    p <n> <m>        header: vertex and edge counts
    v <label>        n vertex lines; labels are non-empty tokens free of
                     whitespace, '#' and ',' (Graph refuses any other label)
    e <label> <label>  m edge lines

Explicit vertex declaration keeps isolated vertices and custom labels intact.
Output is canonical: vertex sets are listed in index order, families ascend
by size then lexicographically, so equal inputs yield byte-identical bytes.

JSON output is the text of json.dumps(data, indent=2, ensure_ascii=False),
written by a small recursive writer: json.dumps with an indent runs the
pure-Python encoder, while the writer joins each list once and encodes its
strings with the C encoder's encode_basestring. A value it does not write
itself goes to json.dumps whole, so every value gives json.dumps's text or
its exception.

The parser checks labels and edges as it reads them, and builds its graph
without Graph's own validation, which would repeat those checks.

This module imports no module that defines a result record: it reads each
record's home module from the package's name table (lmss._HOME) and finds
the class among the loaded modules, so writing an alpha set never loads the
greedoid engine.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass

from . import _HOME
from .errors import (
    GraphSyntaxError,
    SelfLoopError,
    UnknownVertexError,
    UnsupportedFormatError,
)
from .graph_core import Graph

FORMAT_VERSION = "1"

_encode_str = json.encoder.encode_basestring  # the C encoder's, as ensure_ascii=False uses


def _record(name: str):
    """The record class ``name`` when its home module, as the package's name
    table gives it, is loaded, else the empty tuple, which isinstance matches
    nothing against. An instance exists only once its module has loaded, so
    emit recognises every record without importing a module the caller did
    not."""
    module = sys.modules.get(f"{__package__}.{_HOME[name]}")
    return () if module is None else getattr(module, name)


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
    references to undeclared labels are errors carrying the line number,
    and counts the lines fall short of name the header's line.
    ``text`` is a str or UTF-8 bytes; one leading byte-order mark is dropped.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    text = text.removeprefix("\ufeff")  # as decoding with utf-8-sig would
    header = None
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    seen_edges = set()
    n = m = edge_lines = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "e" and header is not None:  # edge lines are most lines: tested first
            if len(fields) != 3:
                raise GraphSyntaxError(lineno, "expected 'e <label> <label>'")
            if len(labels) != n:
                raise GraphSyntaxError(lineno, "edge line before all vertices are declared")
            if edge_lines >= m:
                raise GraphSyntaxError(lineno, f"more than {m} edge lines")
            edge_lines += 1
            _, a, b = fields
            u = index.get(a)
            if u is None:
                raise UnknownVertexError(lineno, a)
            v = index.get(b)
            if v is None:
                raise UnknownVertexError(lineno, b)
            if u == v:  # labels and indices correspond one to one
                raise SelfLoopError(f"line {lineno}: self-loop at {a!r}")
            e = (u, v) if u < v else (v, u)
            if e in seen_edges:
                warnings.warn(DuplicateEdgeWarning(
                    f"line {lineno}: duplicate edge {a} {b} collapsed"))
                continue
            seen_edges.add(e)
            edges.append(e)
        elif header is None:
            if kind != "p" or len(fields) != 3:
                raise GraphSyntaxError(lineno, "expected header 'p <n> <m>'")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphSyntaxError(lineno, "vertex/edge counts must be integers") from None
            if n < 0 or m < 0:
                raise GraphSyntaxError(lineno, "vertex/edge counts must be non-negative")
            header = lineno  # the line the count checks at the end name
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
            if "," in lbl:  # a vertex set on the command line separates labels by ','
                raise GraphSyntaxError(lineno, f"vertex label {lbl!r} holds ','")
            index[lbl] = len(labels)
            labels.append(lbl)
        else:
            raise GraphSyntaxError(lineno, f"unknown line type {kind!r}")
    if header is None:
        raise GraphSyntaxError(1, "empty input: missing 'p <n> <m>' header")
    if len(labels) != n:
        raise GraphSyntaxError(header, f"declared {n} vertices but found {len(labels)}")
    if edge_lines != m:
        raise GraphSyntaxError(header, f"declared {m} edges but found {edge_lines}")
    # every label is a token (no whitespace, '#' or ',') and distinct, and every
    # edge is normalised, distinct and loop-free: Graph's checks would all pass
    return GraphDocument(graph=Graph._trusted(tuple(labels), edges), source="file",
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
    if isinstance(obj, _record("StableSetResult")):
        g = need_graph()
        return {"alpha": obj.size, "method": obj.method, "set": labels_of(g, obj.set)}
    if isinstance(obj, _record("PsiFamily")):
        g = obj.graph
        return {"count": len(obj.members), "sets": [labels_of(g, s) for s in obj.members]}
    if isinstance(obj, _record("Matching")):
        g = need_graph()
        return {"mu": len(obj.edges),
                "edges": [[g.labels[u], g.labels[v]] for u, v in obj.edges],
                "covered": labels_of(g, obj.covered)}
    if isinstance(obj, _record("KonigEgervaryReport")):
        return {"alpha": obj.alpha, "mu": obj.mu, "order": obj.order,
                "identity_holds": obj.identity_holds,
                "has_perfect_matching": obj.has_perfect_matching}
    if isinstance(obj, _record("Embedding")):
        h = obj.host
        return {"host": _graph_dict(h),
                "original_vertices": labels_of(h, obj.original_vertices),
                "added_edges": [[h.labels[u], h.labels[v]] for u, v in obj.added_edges]}
    if isinstance(obj, _record("ChainCertificate")):
        g = obj.graph
        return {"strategy": obj.strategy,
                "chain": [labels_of(g, s) for s in obj.chain]}
    if isinstance(obj, _record("ExchangeWitness")):
        g = need_graph()
        return {"s1": labels_of(g, obj.s1), "s2": labels_of(g, obj.s2),
                "witness": None if obj.witness is None else g.labels[obj.witness]}
    if isinstance(obj, _record("GreedoidReport")):
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


def _string_pairs(x, ind: str) -> str | None:
    """The items of the list ``x`` written at the indent ``ind`` and joined,
    when every one is a list or tuple of two strings (as edges are), else
    None."""
    if not set(map(type, x)) <= {list, tuple}:
        return None
    inner = ind + "  "
    head, mid, tail = "[" + inner, "," + inner, ind + "]"
    try:
        return ("," + ind).join([head + _encode_str(a) + mid + _encode_str(b) + tail
                                 for a, b in x])
    except (TypeError, ValueError):  # an item of another length, or not of strings
        return None


def _json_text(x, ind: str) -> str:
    """``x`` as json.dumps(x, indent=2, ensure_ascii=False) writes it at the
    indent ``ind`` (a newline and the spaces of its depth), for str keys.

    One join per list or dict: a list of strings is one encode_basestring
    pass, a list of string pairs one more, and every other scalar goes to
    json.dumps, whose one-line form runs the C encoder (and refuses what json
    cannot write, with the same TypeError). A non-str key raises TypeError
    too, for _json_dump to fall back.
    """
    if isinstance(x, str):
        return _encode_str(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = ind + "  "
        sep = "," + inner
        try:  # a list of strings, as most of the records hold
            body = sep.join(map(_encode_str, x))
        except TypeError:
            body = _string_pairs(x, inner) or sep.join([_json_text(v, inner) for v in x])
        return "[" + inner + body + ind + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = ind + "  "
        items = []
        for k, v in x.items():
            if not isinstance(k, str):
                raise TypeError("non-str key")
            items.append(_encode_str(k) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + ind + "}"
    return json.dumps(x)


def _json_dump(data) -> str:
    """json.dumps(data, indent=2, ensure_ascii=False), byte for byte: the
    text of _json_text, or json.dumps's own text or exception for a value
    _json_text does not write (a non-str key, a type json refuses, a
    circular or too deep nesting)."""
    try:
        return _json_text(data, "\n")
    except (TypeError, RecursionError):
        return json.dumps(data, indent=2, ensure_ascii=False)


def emit(obj, fmt: str = "text", graph: Graph | None = None) -> str:
    """Serialize a graph document or result record.

    json output is canonical (stable key order, sets sorted); dot output is
    only defined for graphs, optionally with a marked vertex set supplied as
    a (graph, set) pair via StableSetResult or frozenset, and escapes '\\'
    and '"' in its quoted labels.
    """
    if fmt == "json":
        return _json_dump(to_jsonable(obj, graph)) + "\n"
    if fmt == "text":
        if isinstance(obj, (Graph, GraphDocument)):
            return _emit_text_graph(obj)
        return _emit_text_record(to_jsonable(obj, graph))
    if fmt == "dot":
        if isinstance(obj, GraphDocument):
            return _emit_dot(obj.graph)
        if isinstance(obj, Graph):
            return _emit_dot(obj)
        if isinstance(obj, _record("StableSetResult")) and graph is not None:
            return _emit_dot(graph, obj.set)
        if isinstance(obj, frozenset) and graph is not None:
            return _emit_dot(graph, obj)
        raise UnsupportedFormatError("dot output needs a graph (plus optional vertex set)")
    raise UnsupportedFormatError(f"unknown format {fmt!r}")
