import json
import re

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
    emit,
    generate,
    parse_graph,
    verify_greedoid,
    verify_konig_egervary,
)
from conftest import labels_to_set


@st.composite
def labeled_graphs(draw, max_n=8):
    """A graph on mostly token-like labels, one of them sometimes arbitrary
    text, or None when Graph refuses the labels."""
    any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
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

    def test_comments_and_blank_lines(self):
        text = "# a graph\n\np 2 1   # header\nv u\n\nv v\ne u v\n"
        assert parse_graph(text).graph.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            parse_graph("p 1 1\nv a\ne a a\n")

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError) as exc:
            parse_graph("p 2 1\nv a\nv b\ne a z\n")
        assert exc.value.line == 4

    def test_duplicate_edge_warns_and_collapses(self):
        text = "p 2 2\nv a\nv b\ne a b\ne b a\n"
        with pytest.warns(DuplicateEdgeWarning):
            doc = parse_graph(text)
        assert doc.graph.edge_count == 1

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
