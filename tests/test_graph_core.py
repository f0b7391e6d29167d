import tracemalloc

import pytest

from lmss import (
    FamilySpec,
    Graph,
    InvalidVertexError,
    SelfLoopError,
    SplitMix64,
    alpha,
    chain_decompose,
    closed_neighborhood,
    decompose,
    exchange_witness,
    generate,
    induced_subgraph,
    is_local_max_stable,
    is_stable,
    pendant_vertices,
)
from conftest import labels_to_set, naive_closed_neighborhood, path


def random_graph(n, percent, rng):
    return Graph([f"v{i}" for i in range(n)],
                 [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.below(100) < percent])


class TestGraphConstruction:
    def test_basic(self):
        g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert g.degree(1) == 2
        assert g.neighbors(1) == [0, 2]
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_accessors_refuse_out_of_range_vertices(self, bad):
        g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
        for call in (g.adjacency_mask, g.closed_mask, g.degree, g.neighbors,
                     lambda v: g.has_edge(v, 1), lambda v: g.has_edge(1, v)):
            with pytest.raises(InvalidVertexError, match="out of range 0..2"):
                call(bad)

    def test_vertex_sets_keep_their_refusals(self):
        g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
        with pytest.raises(InvalidVertexError, match="exceeds range 0..2"):
            g.check_vertices({0, 3})
        for bad in ({-1}, {0, "a"}, {1.5}):
            with pytest.raises(InvalidVertexError, match="non-index member"):
                g.check_vertices(bad)

    @pytest.mark.parametrize("call", [
        lambda g: is_stable(g, 5),
        lambda g: chain_decompose(g, None),
        lambda g: exchange_witness(g, 1, {0}),
        lambda g: closed_neighborhood(g, [[0]]),
    ], ids=["int", "None", "exchange int", "unhashable member"])
    def test_vertex_set_that_is_not_a_collection_refused(self, call):
        with pytest.raises(InvalidVertexError, match="is not a set of indices"):
            call(path(4))

    def test_huge_vertex_refused_before_allocating(self):
        g = Graph(["a", "b"], [(0, 1)])
        tracemalloc.start()
        try:
            with pytest.raises(InvalidVertexError, match="exceeds range"):
                is_local_max_stable(g, {10**9})
            with pytest.raises(InvalidVertexError):
                g.has_edge(0, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            Graph(["a"], [(0, 0)])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Graph(["a", "a"])

    @pytest.mark.parametrize("label", ["", "a b", "a\tb", "a\nb", "\u00a0", "a#b", "#"])
    def test_rejects_labels_the_text_format_cannot_hold(self, label):
        with pytest.raises(ValueError, match="empty or holds whitespace"):
            Graph(["ok", label])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InvalidVertexError):
            Graph(["a", "b"], [(0, 2)])

    def test_parallel_edges_collapse(self):
        g = Graph(["a", "b"], [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_from_label_pairs(self):
        g = Graph.from_label_pairs(["x", "y"], [("x", "y")])
        assert g.edges == ((0, 1),)
        with pytest.raises(InvalidVertexError):
            Graph.from_label_pairs(["x"], [("x", "z")])

    def test_order_zero_and_one_accepted(self):
        assert Graph([]).vertex_count == 0
        assert Graph(["a"]).vertex_count == 1

    def test_value_equality(self):
        a = Graph(["a", "b"], [(0, 1)])
        b = Graph(["a", "b"], [(1, 0)])
        assert a == b and hash(a) == hash(b)


def index_answers(g: Graph, t) -> tuple:
    """Every index-taking query on ``g``, with each index passed as ``t(v)``."""
    n = g.vertex_count
    sets = [{t(v % n) for v in s} for s in ({69, 70}, {69, 71}, {0, -1}, {0, 2, 4}, set())]
    h = Graph(g.labels, [(t(u), t(v)) for u, v in g.edges])
    return ([is_stable(g, s) for s in sets],
            [is_local_max_stable(g, s) for s in sets],
            [closed_neighborhood(g, s) for s in sets],
            [g.has_edge(t(u), t(v)) for u in range(n) for v in (u + 1, u + 2) if v < n],
            [g.closed_mask(t(v)) for v in range(n)],
            [g.degree(t(v)) for v in range(n)],
            h == g, h.edges, alpha(h))


class TestIndexTypes:
    """A numpy integer indexes a vertex exactly as the equal int does;
    floats, strings and None are refused."""

    @pytest.mark.parametrize("kind", ["int64", "int32"])
    def test_numpy_integers_answer_like_ints(self, kind):
        np = pytest.importorskip("numpy")
        as_np = getattr(np, kind)
        for g in (path(40), path(100), generate(FamilySpec("cycle", 20)),
                  generate(FamilySpec("random_forest", 100, seed=3))):
            ints = index_answers(g, int)
            assert index_answers(g, as_np) == ints
            # the answers hold ints, never numpy scalars
            assert all(type(v) is int for s in ints[2] for v in s)
            assert all(type(v) is int for e in index_answers(g, as_np)[7] for v in e)

    def test_numpy_adjacency_across_the_int64_width(self):
        np = pytest.importorskip("numpy")
        g = path(100)
        assert not is_stable(g, {np.int64(69), np.int64(70)})
        assert is_stable(g, {np.int64(69), 71, np.int64(99)})
        assert g.has_edge(69, np.int64(70))
        assert g.closed_mask(np.int64(70)) == 0b111 << 69

    @pytest.mark.parametrize("kind", ["int64", "int32"])
    def test_graph_from_a_numpy_edge_array(self, kind):
        np = pytest.importorskip("numpy")
        for g in (path(10), generate(FamilySpec("random_forest", 100, seed=3)),
                  generate(FamilySpec("fig1"))):
            h = Graph(g.labels, np.array(g.edges, dtype=kind).reshape(-1, 2))
            assert h == g and hash(h) == hash(g)
            assert h.is_forest == g.is_forest and h.peel == g.peel
            assert alpha(h) == alpha(g)

    def test_numpy_member_past_the_range_is_listed_as_an_int(self):
        np = pytest.importorskip("numpy")
        g = generate(FamilySpec("path", 100))
        for s in ({200}, {np.int64(200)}, {np.int32(200), 3}):
            with pytest.raises(InvalidVertexError) as exc:
                is_stable(g, s)
            assert str(exc.value) == f"vertex set {sorted(map(int, s))} exceeds range 0..99"
        with pytest.raises(InvalidVertexError, match="non-index member"):
            is_stable(g, {200.5})

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, "0", None])
    def test_non_integer_indices_refused(self, bad):
        g = path(4)
        with pytest.raises(InvalidVertexError):
            Graph(["a", "b"], [(bad, 1)])
        with pytest.raises(InvalidVertexError):
            Graph(["a", "b"], [(0, bad)])
        for call in (g.adjacency_mask, g.closed_mask, g.degree, g.neighbors,
                     lambda v: g.has_edge(v, 1), lambda v: g.has_edge(1, v),
                     lambda v: is_stable(g, {3, v}), lambda v: closed_neighborhood(g, {v}),
                     lambda v: is_local_max_stable(g, {v})):
            with pytest.raises(InvalidVertexError):
                call(bad)


class TestClosedNeighborhood:
    def test_fig1_de(self, fig1):
        got = closed_neighborhood(fig1, labels_to_set(fig1, "d", "e"))
        assert got == labels_to_set(fig1, "c", "d", "e", "f")

    def test_empty_set(self, fig1):
        assert closed_neighborhood(fig1, frozenset()) == frozenset()

    def test_pendant_of_path(self, p4):
        assert closed_neighborhood(p4, {0}) == {0, 1}

    def test_invalid_vertex(self, p4):
        with pytest.raises(InvalidVertexError):
            closed_neighborhood(p4, {7})

    def test_contains_argument_and_matches_naive(self):
        rng = SplitMix64(7)
        for trial in range(40):
            g = random_graph(2 + rng.below(7), 30, rng)
            s = frozenset(v for v in range(g.vertex_count) if rng.below(2))
            got = closed_neighborhood(g, s)
            assert s <= got
            assert got == naive_closed_neighborhood(g, s)
            # fixed point exactly when no edge leaves s
            leaves = any((u in s) != (v in s) for u, v in g.edges)
            assert (got == s) == (not leaves)


class TestInducedSubgraph:
    def test_fig1_abc_is_path(self, fig1):
        sub = induced_subgraph(fig1, labels_to_set(fig1, "a", "b", "c"))
        assert sub.labels == ("a", "b", "c")
        assert sub.edges == ((0, 1), (1, 2))

    def test_empty_and_identity(self, fig1):
        assert induced_subgraph(fig1, frozenset()).vertex_count == 0
        assert induced_subgraph(fig1, range(fig1.vertex_count)) == fig1

    def test_composition(self):
        rng = SplitMix64(8)
        for trial in range(30):
            g = random_graph(3 + rng.below(6), 40, rng)
            a = frozenset(v for v in range(g.vertex_count) if rng.below(4))
            b = frozenset(v for v in a if rng.below(2))
            inner = induced_subgraph(g, a)
            remap = {old: new for new, old in enumerate(sorted(a))}
            nested = induced_subgraph(inner, {remap[v] for v in b})
            assert nested == induced_subgraph(g, b)


class TestPendantVertices:
    def test_path_endpoints(self, p6):
        assert pendant_vertices(p6) == {0, 5}

    def test_cycle_has_none(self, c4):
        assert pendant_vertices(c4) == frozenset()

    def test_fig1(self, fig1):
        assert pendant_vertices(fig1) == labels_to_set(fig1, "a")

    def test_degree_one_exactly(self):
        rng = SplitMix64(9)
        for trial in range(30):
            g = random_graph(2 + rng.below(8), 25, rng)
            for v in pendant_vertices(g):
                assert g.degree(v) == 1


class TestDecompose:
    def test_disjoint_paths(self):
        g = Graph(["a", "b", "c", "d", "e"], [(0, 1), (1, 2), (3, 4)])
        dec = decompose(g)
        assert len(dec.components) == 2
        assert dec.is_forest and not dec.is_tree
        assert dec.components[0] == {0, 1, 2}

    def test_fig1_not_forest(self, fig1):
        dec = decompose(fig1)
        assert len(dec.components) == 1
        assert not dec.is_forest

    def test_fig4_is_tree(self, fig4):
        assert decompose(fig4).is_tree

    def test_single_vertex_not_tree(self):
        dec = decompose(Graph(["a"]))
        assert dec.is_forest and not dec.is_tree

    def test_partition_and_forest_characterization(self):
        rng = SplitMix64(10)
        for trial in range(60):
            g = random_graph(1 + rng.below(9), 20, rng)
            dec = decompose(g)
            sizes = sum(len(c) for c in dec.components)
            assert sizes == g.vertex_count
            union = set()
            for c in dec.components:
                assert c and not (union & c)
                union |= c
            # acyclic iff every component is edge-minimal connected
            assert dec.is_forest == (g.edge_count == g.vertex_count - len(dec.components))
            if dec.is_forest:
                # no edge subset forms a cycle: every induced component count drops
                # by exactly one per edge; double-check via pendant peeling
                work = set(g.edges)
                verts = set(range(g.vertex_count))
                while True:
                    deg = {v: 0 for v in verts}
                    for u, v in work:
                        deg[u] += 1
                        deg[v] += 1
                    drop = {v for v in verts if deg[v] <= 1}
                    if not drop:
                        break
                    verts -= drop
                    work = {e for e in work if e[0] in verts and e[1] in verts}
                assert not work  # peeling a forest leaves nothing


def test_path_generator_shape():
    g = path(6)
    assert g.vertex_count == 6 and g.edge_count == 5
    assert g.labels == ("a", "b", "c", "d", "e", "f")
