import io
import json
import re
import sys

import pytest
from hypothesis import given, strategies as st

from lmss import (
    DuplicateEdgeWarning,
    FamilySpec,
    Graph,
    GraphDocument,
    GraphSyntaxError,
    SelfLoopError,
    UnknownVertexError,
    UnsupportedFormatError,
    alpha,
    chain_decompose,
    embed_perfect,
    emit,
    enumerate_psi,
    exchange_witness,
    generate,
    internal_cover_matching,
    maximum_matching,
    parse_graph,
    verify_greedoid,
    verify_konig_egervary,
)
from lmss import cli
from lmss.cli_io import labels_of, to_jsonable
from lmss.graph_core import set_of
from conftest import fresh_python, labels_to_set


@st.composite
def labeled_graphs(draw, max_n=8):
    """A graph on mostly token-like labels, one of them sometimes arbitrary
    text, often with a character the text format or the CLI's vertex sets
    reserve, or None when Graph refuses the labels."""
    reserved = st.sampled_from(" #,")
    any_text = st.text(st.one_of(reserved, st.characters(blacklist_categories=("Cs",))),
                       max_size=4)
    tokens = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="# \t\n"), min_size=1, max_size=4)
    labels = draw(st.lists(tokens, max_size=max_n, unique=True))
    if labels and draw(st.booleans()):
        labels[draw(st.integers(0, len(labels) - 1))] = draw(any_text)
    n = len(labels)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    try:
        return Graph(labels, edges)
    except ValueError:
        return None


K2_TEXT = "p 2 1\nv u\nv v\ne u v\n"
# every character str.splitlines() breaks a line on
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestParseGraph:
    def test_k2(self):
        doc = parse_graph(K2_TEXT)
        assert doc.graph.labels == ("u", "v")
        assert doc.graph.edges == ((0, 1),)
        assert doc.source == "file"

    def test_bytes_input(self):
        assert parse_graph(K2_TEXT.encode()).graph.vertex_count == 2

    def test_byte_order_mark_is_dropped(self):
        # one leading BOM, as a str or as UTF-8 bytes, reads like the plain text
        plain = parse_graph(K2_TEXT)
        for text in ("\ufeff" + K2_TEXT, b"\xef\xbb\xbf" + K2_TEXT.encode()):
            assert parse_graph(text) == plain
        with pytest.raises(GraphSyntaxError, match="line 1"):
            parse_graph("\ufeff\ufeff" + K2_TEXT)  # only one is a BOM

    def test_text_utf8_cannot_carry_refused(self):
        # a str holding a lone surrogate is refused as bytes that are not UTF-8
        # are: neither could be read from a file
        with pytest.raises(UnicodeEncodeError):
            parse_graph("p 2 1\nv u\nv \udc80\ne u \udc80\n")
        with pytest.raises(UnicodeEncodeError):
            parse_graph(K2_TEXT + "# \ud800\n")
        with pytest.raises(UnicodeDecodeError):
            parse_graph(b"p 2 1\nv u\nv \xff\ne u \xff\n")
        assert parse_graph("p 1 0\nv \u00e9\N{EURO SIGN}\n").graph.labels == ("\u00e9\u20ac",)

    @pytest.mark.parametrize("route", ["file", "stdin"])
    def test_read_document_keeps_no_reference_to_its_bytes(self, route, tmp_path, monkeypatch):
        # parse_graph's own argument is the only reference to the bytes read, so
        # they are freed as soon as the text is decoded
        counts = []

        def spy(data):
            counts.append(sys.getrefcount(data))
            return parse_graph(data)

        spy(K2_TEXT.encode())  # a temporary: referenced by spy's argument alone
        path = tmp_path / "k2.graph"
        path.write_bytes(K2_TEXT.encode())
        monkeypatch.setattr(cli, "parse_graph", spy)
        with io.TextIOWrapper(path.open("rb")) as stdin:  # a BytesIO would share its bytes
            monkeypatch.setattr(sys, "stdin", stdin)
            doc = cli._read_document(str(path) if route == "file" else "-")
        assert doc.graph.edges == ((0, 1),) and counts[1] == counts[0], counts

    def test_comments_and_blank_lines(self):
        text = "# a graph\n\np 2 1   # header\nv u\n\nv v\ne u v\n"
        assert parse_graph(text).graph.edge_count == 1
        # tabs and non-ASCII whitespace separate fields too
        text = "p\t3 2 # header\nv\u00a0a\nv b\u2003\n\tv c\ne a\tb#x\ne\u3000c b\n"
        assert parse_graph(text) == parse_graph("p 3 2\nv a\nv b\nv c\ne a b\ne c b\n")

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            parse_graph("p 1 1\nv a\ne a a\n")

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError) as exc:
            parse_graph("p 2 1\nv a\nv b\ne a z\n")
        assert exc.value.line == 4

    def test_duplicate_edge_warns_and_collapses(self):
        text = "p 2 2\nv a\nv b\ne a b\ne\tb a  # again\n"
        with pytest.warns(DuplicateEdgeWarning) as record:
            doc = parse_graph(text)
        assert doc.graph.edge_count == 1
        assert [str(w.message) for w in record] == ["line 5: duplicate edge b a collapsed"]

    def test_syntax_errors_carry_line_numbers(self):
        cases = [
            ("q 2 1\nv a\n", 1),            # bad header
            ("p 2 x\n", 1),                 # non-integer count
            ("p 1 0\nv a\nv b\n", 3),       # too many vertices
            ("p 1 0\nv a a\n", 2),          # malformed vertex line
            ("p 2 1\nv a\ne a a\n", 3),     # edge before all vertices
            ("p 2 1\nv a\nv b\nz a b\n", 4),  # unknown line type
        ]
        for text, line in cases:
            with pytest.raises(GraphSyntaxError) as exc:
                parse_graph(text)
            assert exc.value.line == line

    def test_count_mismatches(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("p 2 1\nv a\nv b\n")  # missing edge
        with pytest.raises(GraphSyntaxError):
            parse_graph("")

    def test_duplicate_label(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("p 2 0\nv a\nv a\n")

    def test_isolated_vertices_survive(self):
        doc = parse_graph("p 3 1\nv a\nv b\nv c\ne a b\n")
        assert doc.graph.vertex_count == 3 and doc.graph.degree(2) == 0

    def test_empty_graph(self):
        assert parse_graph("p 0 0\n").graph.vertex_count == 0

    # one case per raise site, plus the ways a line's fields are cut: a
    # comment, tabs and non-ASCII whitespace
    @pytest.mark.parametrize("text, error, line, message", [
        ("p -1 0\n", GraphSyntaxError, 1, "vertex/edge counts must be non-negative"),
        ("p 2 1\nv a\nv b\ne a b\nv c\n", GraphSyntaxError, 5, "vertex line after edge lines"),
        ("p 2 1\nv a\nv b\ne a\n", GraphSyntaxError, 4, "expected 'e <label> <label>'"),
        ("p 2 1\nv a\nv b\ne a b\ne b a\n", GraphSyntaxError, 5, "more than 1 edge lines"),
        ("p 3 0\nv a\nv b\n", GraphSyntaxError, 1, "declared 3 vertices but found 2"),
        ("e a b\np 2 1\n", GraphSyntaxError, 1, "expected header 'p <n> <m>'"),
        ("p 2 x\n", GraphSyntaxError, 1, "vertex/edge counts must be integers"),
        ("p 2 0\nv a b\n", GraphSyntaxError, 2, "expected 'v <label>'"),
        ("p 1 0\nv a\nv b\n", GraphSyntaxError, 3, "more than 1 vertex lines"),
        ("p 2 0\nv a\nv a\n", GraphSyntaxError, 3, "duplicate vertex label 'a'"),
        ("p 2 1\nv a\ne a b\n", GraphSyntaxError, 3,
         "edge line before all vertices are declared"),
        ("p 2 1\nv a\nv b\ne z b\n", UnknownVertexError, 4,
         "edge references undeclared vertex 'z'"),
        ("p 2 1\nv a\nv b\ne a z\n", UnknownVertexError, 4,
         "edge references undeclared vertex 'z'"),
        ("p 2 1\nv a\nv b\ne y z\n", UnknownVertexError, 4,
         "edge references undeclared vertex 'y'"),
        ("p 2 1\nv a\nv b\ne b b\n", SelfLoopError, 4, "self-loop at 'b'"),
        ("p 2 1\np 2 1\n", GraphSyntaxError, 2, "unknown line type 'p'"),
        ("# only a comment\n\n", GraphSyntaxError, 1, "empty input: missing 'p <n> <m>' header"),
        ("p 2 2\nv a\nv b\ne a b\n", GraphSyntaxError, 1, "declared 2 edges but found 1"),
        ("p 2 1\nv a\nv b\ne a # b\n", GraphSyntaxError, 4, "expected 'e <label> <label>'"),
        ("p 2 1\nv a#b\nv b\n", GraphSyntaxError, 1, "declared 1 edges but found 0"),
        ("p 2 0\nv\ta\tb\n", GraphSyntaxError, 2, "expected 'v <label>'"),
        ("p 2 0\nv a\u00a0b\n", GraphSyntaxError, 2, "expected 'v <label>'"),
        ("p\u30002 0\nv a\nv\u2003a\n", GraphSyntaxError, 3, "duplicate vertex label 'a'"),
        ("p 2 0\nv x,y\nv b\n", GraphSyntaxError, 2, "vertex label 'x,y' holds ','"),
        ("# a comment\n\np 3 0\nv a\nv b\n", GraphSyntaxError, 3,
         "declared 3 vertices but found 2"),
        ("# a comment\np 2 1\nv a\nv b\n", GraphSyntaxError, 2, "declared 1 edges but found 0"),
    ], ids=["negative count", "vertex after edges", "one-label edge",
            "edge lines past the count", "vertex lines short of the count",
            "edge before header", "non-integer count", "vertex with two labels",
            "vertex lines past the count", "duplicate label", "edge before all vertices",
            "unknown first end", "unknown second end", "both ends unknown", "self-loop",
            "second header", "no header", "edge lines short of the count",
            "trailing comment cuts an edge", "comment inside a label", "tab separators",
            "no-break space separator", "ideographic and em space separators",
            "comma in a label", "vertex count after a comment", "edge count after a comment"])
    def test_refusals_name_their_line(self, text, error, line, message):
        with pytest.raises(error, match=f"^line {line}: {re.escape(message)}$") as exc:
            parse_graph(text)
        assert type(exc.value) is error
        assert getattr(exc.value, "line", line) == line  # SelfLoopError names it in the text only


class TestRoundTrip:
    def test_every_family_round_trips(self):
        specs = [FamilySpec("fig1"), FamilySpec("fig2"), FamilySpec("fig4_tree"),
                 FamilySpec("fig7", 8), FamilySpec("path", 5), FamilySpec("cycle", 6),
                 FamilySpec("star", 4), FamilySpec("complete", 4),
                 FamilySpec("random_tree", 10, seed=5),
                 FamilySpec("random_forest", 12, seed=9)]
        for spec in specs:
            g = generate(spec)
            doc = GraphDocument(graph=g, source="family", metadata={"family": spec.family})
            assert parse_graph(emit(doc, "text")).graph == g

    def test_round_trip_preserves_label_order(self):
        g = Graph(["z", "y", "x"], [(0, 2)])
        assert parse_graph(emit(g, "text")).graph == g

    @given(labeled_graphs())
    def test_every_graph_round_trips(self, g):
        # whatever Graph accepts must serialise to text that parses back
        if g is not None:
            assert parse_graph(emit(g, "text")).graph == g

    @given(labeled_graphs())
    def test_every_vertex_set_reads_back(self, g):
        # every set the CLI writes as comma-separated labels, its --set reads back
        if g is not None:
            for m in range(1 << g.vertex_count):
                s = set_of(m)
                assert cli._parse_set(g, ",".join(labels_of(g, s))) == s

    @pytest.mark.parametrize("key, value", [
        ("note", "a\nb"), ("note", "a\r"), ("no\x85te", "x"), ("note", "a\u2028b"),
        ("note", "\x0b"), ("note", "\x0c"), ("note", "\x1c"), ("note", "\x1d"),
        ("note", "\x1e"), ("note", "\u2029")])
    def test_metadata_line_break_refused(self, key, value):
        doc = GraphDocument(generate(FamilySpec("path", 3)), "family", {key: value})
        with pytest.raises(UnsupportedFormatError, match=f"^metadata {re.escape(repr(key))} holds a line break"):
            emit(doc, "text")
        assert json.loads(emit(doc, "json"))["metadata"] == {key: value}

    @given(labeled_graphs(), st.dictionaries(st.text(max_size=3), st.text(max_size=3),
                                             max_size=3))
    def test_every_document_text_accepts_round_trips(self, g, metadata):
        # a metadata line that would spill past its comment is refused, and
        # whatever text emit accepts parses back to the same graph
        if g is None:
            return
        doc = GraphDocument(g, "family", metadata)
        breaks = any(ch in f"{k}{v}" for k, v in metadata.items() for ch in LINE_BREAKS)
        try:
            text = emit(doc, "text")
        except UnsupportedFormatError:
            assert breaks
            return
        assert not breaks
        assert parse_graph(text).graph == g


class TestEmit:
    def test_alpha_json_schema(self, fig1):
        data = json.loads(emit(alpha(fig1), "json", graph=fig1))
        assert data == {"alpha": 3, "method": "brute_force", "set": ["a", "c", "f"]}

    def test_chain_json_is_ascending(self, fig4):
        s = labels_to_set(fig4, "a", "b", "c", "d", "e")
        cert = chain_decompose(fig4, s)
        data = json.loads(emit(cert, "json", graph=fig4))
        assert len(data["chain"]) == 5
        assert [len(x) for x in data["chain"]] == [1, 2, 3, 4, 5]

    def test_c4_report_json(self, c4):
        data = json.loads(emit(verify_greedoid(c4), "json", graph=c4))
        assert data["accessibility_violations"] == [["1", "3"], ["2", "4"]]
        assert data["accessibility_ok"] is False
        assert data["exchange_ok"] is True

    def test_ke_report_text(self, p4):
        text = emit(verify_konig_egervary(p4), "text")
        assert "alpha: 2" in text and "has_perfect_matching: yes" in text

    def test_dot_k2(self, k2):
        dot = emit(k2, "dot")
        assert dot.count("--") == 1 and dot.count("label=") == 2

    def test_dot_escapes_quotes_and_backslashes(self):
        dot = emit(Graph(['x"y', "a\\b"]), "dot")
        assert 'label="x\\"y"' in dot and 'label="a\\\\b"' in dot

    def test_dot_marked_set(self, p4):
        dot = emit(alpha(p4), "dot", graph=p4)
        assert dot.count("fillcolor=gray") == 2

    def test_dot_without_graph_rejected(self, p4):
        with pytest.raises(UnsupportedFormatError):
            emit(verify_konig_egervary(p4), "dot")

    def test_dot_of_a_document_and_of_a_marked_frozenset(self, k2):
        assert emit(parse_graph(K2_TEXT), "dot") == emit(k2, "dot")
        dot = emit(frozenset({0}), "dot", graph=k2)
        assert [line for line in dot.splitlines() if "fillcolor" in line] == \
            ['  n0 [label="u", style=filled, fillcolor=gray];']

    def test_float_not_serializable(self):
        with pytest.raises(UnsupportedFormatError, match="^cannot serialize float$"):
            to_jsonable(3.5)

    def test_unknown_format(self, p4):
        with pytest.raises(UnsupportedFormatError):
            emit(p4, "yaml")

    def test_needs_graph_for_index_records(self, p4):
        with pytest.raises(ValueError):
            emit(alpha(p4), "json")

    def test_json_byte_identical(self, fig1):
        a = emit(verify_greedoid(fig1), "json", graph=fig1)
        b = emit(verify_greedoid(fig1), "json", graph=fig1)
        assert a == b


RECORD_OUTPUTS = """
import json, sys
from lmss.cli_io import GraphDocument, emit, parse_graph
loaded = sorted(m for m in sys.modules if m.startswith("lmss."))
out = {}

def shapes(name, obj, graph=None):
    for fmt in ("text", "json", "dot"):
        try:
            out[f"{name} {fmt}"] = emit(obj, fmt, graph=graph)
        except Exception as exc:
            out[f"{name} {fmt}"] = f"{type(exc).__name__}: {exc}"

doc = parse_graph(sys.stdin.read())
t = doc.graph  # a-b-c-d with e on c
shapes("unknown", object())
shapes("unknown with graph", object(), t)
shapes("document", doc)
shapes("graph", t)
shapes("marked set", frozenset({0, 3}), t)
shapes("dict", {"k": [1, "v"]})
from lmss import stable_core  # each record just after its module loads
shapes("stable set", stable_core.alpha(t), t)
shapes("family", stable_core.enumerate_psi(t), t)
from lmss import tree_matching
shapes("matching", tree_matching.internal_cover_matching(t), t)
shapes("ke report", tree_matching.verify_konig_egervary(t), t)
from lmss import perfect_embedding
shapes("embedding", perfect_embedding.embed_perfect(t), t)
from lmss import greedoid_engine
shapes("chain", greedoid_engine.chain_decompose(t, {0, 3, 4}, "constructive"), t)
shapes("exchange", greedoid_engine.exchange_witness(t, set(), {0}), t)
shapes("report", greedoid_engine.verify_greedoid(t), t)
print(json.dumps([loaded, out]))
"""

TREE_TEXT = "p 5 4\nv a\nv b\nv c\nv d\nv e\ne a b\ne b c\ne c d\ne c e\n"


class TestEmitWithoutPreloadedModules:
    """emit recognises each record without importing its module: in a new
    interpreter, where each record's module loads just before the record is
    built, every record gives the bytes (or the refusal) it gives with every
    module loaded first."""

    def test_records_emit_alike_loaded_late_or_early(self):
        loaded, late = fresh_python(RECORD_OUTPUTS, stdin=TREE_TEXT)
        assert loaded == ["lmss.cli_io", "lmss.errors", "lmss.graph_core"]
        _, early = fresh_python("from lmss import *\n" + RECORD_OUTPUTS, stdin=TREE_TEXT)
        assert late == early and len(late) == 14 * 3
        assert late["unknown json"] == late["unknown text"] == \
            "UnsupportedFormatError: cannot serialize object"
        assert late["unknown dot"] == late["report dot"] == \
            "UnsupportedFormatError: dot output needs a graph (plus optional vertex set)"
        assert late["stable set dot"].count("fillcolor=gray") == 3
        assert json.loads(late["embedding json"])["added_edges"] == [["e", "e_w"]]


# -- the JSON writer against the stdlib encoder --------------------------------


def old_json(data) -> str:
    """What emit wrote before it had its own JSON writer."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def outcome(write, data):
    """The text ``write`` gives for ``data``, or the type of what it raised."""
    try:
        return write(data)
    except Exception as exc:  # the type of what was raised is the outcome
        return type(exc)


json_text = st.text(st.characters(), max_size=5)  # control characters and non-ASCII too
json_scalars = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1, True, False, 1.0]),
    st.integers(-10**40, 10**40), st.floats(), st.sampled_from([-0.0, float("nan")]),
    json_text)
json_keys = st.one_of(json_text, st.integers(), st.floats(), st.booleans(), st.none(),
                      st.tuples(st.integers()))  # a tuple key is refused
json_values = st.recursive(
    st.one_of(json_scalars, st.sampled_from([set(), b"x"])),  # values json refuses
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(json_keys, kids, max_size=4),
        st.lists(st.lists(json_text, min_size=2, max_size=2), max_size=4),  # string pairs
        st.lists(st.one_of(json_text, st.tuples(json_text, json_text)), max_size=4)),
    max_leaves=20)


class TestJsonWriter:
    @given(json_values)
    def test_same_text_or_same_exception_as_json_dumps(self, value):
        data = {"v": value}
        assert outcome(lambda d: emit(d, "json"), data) == outcome(old_json, data)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], [{}], {"a": {}, "b": []}, ((), ("x",)), ["ab", ["c", "d"]],
        [["a", "b"], ["c"]], [["a", "b"], ("c", "d")], [{"a": "b", "c": "d"}], ["é", "\x00\x1f\"\\"],
        [10**30, -10**30, True, 1, False, 0, None], [float("nan"), float("inf"),
                                                     float("-inf"), -0.0, 1e300],
        {1: "a", 1.5: "b", True: "c", None: "d"}, {(1,): 2}, [set()], {"a": object()}])
    def test_edge_values(self, value):
        data = {"v": value}
        assert outcome(lambda d: emit(d, "json"), data) == outcome(old_json, data)

    def test_circular_deep_and_huge_values_raise_like_json_dumps(self):
        loop = []
        loop.append(loop)
        deep = []
        for _ in range(5000):
            deep = [deep]
        huge = 10**5000  # past the int-to-str digit limit
        for value in (loop, deep, huge):
            data = {"v": value}
            assert outcome(lambda d: emit(d, "json"), data) == outcome(old_json, data)

    def test_every_record_type(self, fig1, fig4):
        forest = Graph(["é", "ü#x".replace("#", "_"), " ".strip() or "z", "c", "d"],
                       [(0, 1), (1, 2), (1, 3)])
        records = []
        for g in (fig1, fig4, forest):
            doc = GraphDocument(g, "family", {"family": "x", "note": "ä \"q\""})
            records += [(doc, None), (g, None), (alpha(g), g), (enumerate_psi(g), None),
                        (verify_greedoid(g), g), ({"plain": [1, "a"]}, None)]
            s = alpha(g).set
            if g.is_forest:
                members = sorted(enumerate_psi(g).members, key=len)
                records += [(maximum_matching(g), g), (internal_cover_matching(g), g),
                            (verify_konig_egervary(g), None),
                            (chain_decompose(g, s, "constructive"), None),
                            (exchange_witness(g, members[0], members[1]), g)]
                records += [(embed_perfect(g, mode), None) for mode in ("any", "pendant_only")]
        for record, g in records:
            assert emit(record, "json", graph=g) == old_json(to_jsonable(record, g))
