import itertools
import re

import pytest

from lmss import (
    FamilySpec,
    Graph,
    InvalidFamilyParameterError,
    SplitMix64,
    decompose,
    enumerate_labeled_trees,
    fig7_exchange_pair,
    generate,
    graph_families,
    is_local_max_stable,
    prufer_decode,
    prufer_encode,
)
from conftest import labels_to_set, naive_alpha, naive_omega


class TestBasicFamilies:
    def test_path(self):
        g = generate(FamilySpec("path", 6))
        assert g.vertex_count == 6 and g.edge_count == 5
        assert all(g.has_edge(i, i + 1) for i in range(5))

    def test_cycle_labels_and_shape(self):
        g = generate(FamilySpec("cycle", 4))
        assert g.labels == ("1", "2", "3", "4")
        assert g.edge_count == 4 and all(g.degree(v) == 2 for v in range(4))

    def test_complete(self):
        g = generate(FamilySpec("complete", 5))
        assert g.edge_count == 10

    def test_star(self):
        g = generate(FamilySpec("star", 5))
        assert g.degree(0) == 4 and all(g.degree(v) == 1 for v in range(1, 5))

    def test_single_vertex_families(self):
        assert generate(FamilySpec("path", 1)).vertex_count == 1
        assert generate(FamilySpec("complete", 1)).edge_count == 0

    def test_parameter_validation(self):
        for spec in (FamilySpec("cycle", 3), FamilySpec("path", 0),
                     FamilySpec("fig7", 5), FamilySpec("fig1", 7),
                     FamilySpec("nonsense", 4), FamilySpec("path"),
                     FamilySpec("random_forest", 5, seed=1, delete_prob=1.5)):
            with pytest.raises(InvalidFamilyParameterError):
                generate(spec)

    @pytest.mark.parametrize("bad", ["0.5", None, [0.1], b"x", 1j],
                             ids=["str", "None", "list", "bytes", "complex"])
    def test_non_number_delete_prob_refused(self, bad):
        with pytest.raises(InvalidFamilyParameterError,
                           match=r"^delete_prob must be a number in \[0, 1\], not "):
            generate(FamilySpec("random_forest", 5, seed=1, delete_prob=bad))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf")])
    def test_delete_prob_out_of_range_refused(self, bad):
        with pytest.raises(InvalidFamilyParameterError,
                           match=r"^delete_prob must lie in \[0, 1\]$"):
            generate(FamilySpec("random_forest", 5, seed=1, delete_prob=bad))

    def test_any_number_type_draws_the_float_forest(self):
        from decimal import Decimal
        from fractions import Fraction
        want = generate(FamilySpec("random_forest", 40, seed=2, delete_prob=0.25))
        for p in (Fraction(1, 4), Decimal("0.25")):
            assert generate(FamilySpec("random_forest", 40, seed=2, delete_prob=p)) == want
        for p, q in ((0, 0.0), (1, 1.0), (True, 1.0)):
            assert generate(FamilySpec("random_forest", 40, seed=2, delete_prob=p)) == \
                generate(FamilySpec("random_forest", 40, seed=2, delete_prob=q))

    @pytest.mark.parametrize("family, k", [
        ("path", 1), ("cycle", 4), ("complete", 1), ("star", 1), ("fig7", 6),
        ("random_tree", 1), ("random_forest", 1)])
    def test_order_below_minimum(self, family, k):
        assert generate(FamilySpec(family, k)).vertex_count == k
        # n is checked before delete_prob
        spec = FamilySpec(family, k - 1, seed=3, delete_prob=1.5)
        with pytest.raises(InvalidFamilyParameterError) as exc:
            generate(spec)
        assert str(exc.value) == f"{family} requires n >= {k}"


    @pytest.mark.parametrize("call, error", [
        (lambda: generate(FamilySpec("path", 3.0)), InvalidFamilyParameterError),
        (lambda: generate(FamilySpec("fig1", "6")), InvalidFamilyParameterError),
        (lambda: generate(FamilySpec("random_tree", 5, seed=1.5)), InvalidFamilyParameterError),
        (lambda: prufer_decode(4, [0.0, 1]), InvalidFamilyParameterError),
        (lambda: prufer_decode(4.0, [0, 1]), InvalidFamilyParameterError),
        (lambda: prufer_encode(3, [(0.0, 1), (1, 2)]), InvalidFamilyParameterError),
        (lambda: list(enumerate_labeled_trees(3.0)), InvalidFamilyParameterError),
        (lambda: fig7_exchange_pair("8", "small"), InvalidFamilyParameterError),
        (lambda: Graph([1, 2]), ValueError),
    ], ids=["generate n", "fixed-order n", "generate seed", "decode entry", "decode n",
            "encode endpoint", "enumerate n", "fig7 pair n", "graph label"])
    def test_non_integer_parameters_refused(self, call, error):
        with pytest.raises(error, match="must be an integer|not a string"):
            call()

    def test_numpy_integer_parameters_act_as_ints(self):
        np = pytest.importorskip("numpy")
        i = np.int64
        assert generate(FamilySpec("random_forest", i(30), seed=i(4))) == generate(
            FamilySpec("random_forest", 30, seed=4))
        assert prufer_decode(i(5), np.array([3, 0, 3])) == prufer_decode(5, [3, 0, 3])
        assert prufer_encode(i(3), np.array([[0, 1], [1, 2]])) == (1,)
        assert fig7_exchange_pair(i(8), "large") == fig7_exchange_pair(8, "large")
        assert len(list(enumerate_labeled_trees(i(4)))) == 16


class TestNamedExampleGraphs:
    def test_fig1_adjacency(self, fig1):
        assert fig1.labels == ("a", "b", "c", "d", "e", "f")
        pairs = {(fig1.labels[u], fig1.labels[v]) for u, v in fig1.edges}
        assert pairs == {("a", "b"), ("b", "c"), ("c", "d"),
                         ("c", "e"), ("d", "f"), ("e", "f")}
        assert naive_alpha(fig1) == 3

    def test_fig2_exactly_two_maximum_sets(self, fig2):
        assert fig2.vertex_count == 9
        assert not decompose(fig2).is_forest
        expect = {labels_to_set(fig2, "u", "v", "z", "x"),
                  labels_to_set(fig2, "u", "v", "y", "x")}
        assert naive_omega(fig2) == expect

    def test_fig4_tree_with_documented_chain(self, fig4):
        assert fig4.vertex_count == 11
        assert decompose(fig4).is_tree
        for k in range(1, 6):
            prefix = labels_to_set(fig4, *["a", "b", "c", "d", "e"][:k])
            assert is_local_max_stable(fig4, prefix)

    @pytest.mark.parametrize("family, labels, edges", [
        ("fig1", ("a", "b", "c", "d", "e", "f"),
         [("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "f"), ("e", "f")]),
        ("fig2", ("u", "p1", "v", "p2", "y", "z", "p3", "x", "p4"),
         [("u", "p1"), ("u", "p3"), ("p1", "v"), ("p1", "p3"), ("v", "p2"), ("v", "p3"),
          ("p2", "y"), ("p2", "x"), ("y", "z"), ("y", "p4"), ("z", "p4"), ("x", "p4")]),
        ("fig4_tree", ("b", "p1", "c", "p2", "p3", "p4", "p5", "a", "d", "p6", "e"),
         [("b", "p1"), ("b", "p5"), ("p1", "c"), ("p1", "a"), ("c", "p2"), ("p2", "p3"),
          ("p2", "d"), ("p3", "p4"), ("p4", "e"), ("d", "p6")]),
    ])
    def test_fixed_figure_pinned(self, family, labels, edges):
        g = generate(FamilySpec(family))
        assert g.labels == labels
        assert [(g.labels[u], g.labels[v]) for u, v in g.edges] == edges
        k = len(labels)
        assert generate(FamilySpec(family, k)) == g
        for n in (0, k - 1, k + 1):
            with pytest.raises(InvalidFamilyParameterError) as exc:
                generate(FamilySpec(family, n))
            assert str(exc.value) == f"{family} has exactly {k} vertices"

    def test_fig7_unique_four_cycle(self):
        for n in (6, 7, 9):
            g = generate(FamilySpec("fig7", n))
            assert g.vertex_count == n and g.edge_count == n
            assert not decompose(g).is_forest
            # peel pendants; what remains is the unique cycle
            verts = set(range(n))
            edges = set(g.edges)
            while True:
                deg = {v: 0 for v in verts}
                for u, v in edges:
                    deg[u] += 1
                    deg[v] += 1
                drop = {v for v in verts if deg[v] <= 1}
                if not drop:
                    break
                verts -= drop
                edges = {e for e in edges if e[0] in verts and e[1] in verts}
            assert verts == {n - 4, n - 3, n - 2, n - 1}
            assert len(edges) == 4

    def test_fig7_n6_small_pair(self):
        g = generate(FamilySpec("fig7", 6))
        s1, s2 = fig7_exchange_pair(6, "small")
        assert s1 == labels_to_set(g, "a1")
        assert s2 == labels_to_set(g, "a4", "a5")
        assert is_local_max_stable(g, s1) and is_local_max_stable(g, s2)

    def test_fig7_n8_large_pair(self):
        g = generate(FamilySpec("fig7", 8))
        s1, s2 = fig7_exchange_pair(8, "large")
        assert s1 == labels_to_set(g, "a1", "a3")
        assert s2 == labels_to_set(g, "a1", "a6", "a7")
        a = naive_alpha(g)
        assert 2 * a == 8
        assert (len(s1), len(s2)) == (a - 2, a - 1)

    def test_fig7_pair_validation(self):
        with pytest.raises(InvalidFamilyParameterError):
            fig7_exchange_pair(7, "large")
        with pytest.raises(InvalidFamilyParameterError):
            fig7_exchange_pair(5, "small")
        with pytest.raises(InvalidFamilyParameterError):
            fig7_exchange_pair(8, "medium")


class TestRandomFamilies:
    def test_random_tree_shape(self):
        g = generate(FamilySpec("random_tree", 9, seed=42))
        assert g.vertex_count == 9 and g.edge_count == 8
        assert decompose(g).is_tree

    def test_random_tree_any_seed_is_tree(self):
        for seed in range(30):
            g = generate(FamilySpec("random_tree", 2 + seed % 12, seed=seed))
            assert decompose(g).is_tree or g.vertex_count < 2

    def test_seed_determinism(self):
        a = generate(FamilySpec("random_tree", 11, seed=7))
        b = generate(FamilySpec("random_tree", 11, seed=7))
        assert a == b
        c = generate(FamilySpec("random_forest", 14, seed=3))
        d = generate(FamilySpec("random_forest", 14, seed=3))
        assert c == d

    def test_random_tree_is_the_undeleted_forest(self):
        # a Pruefer sequence of n - 2 SplitMix64 draws, decoded; the forest
        # draws the same sequence first and deletes nothing at probability 0
        for n in range(1, 60):
            for seed in range(30):
                rng = SplitMix64(seed)
                seq = [rng.below(n) for _ in range(n - 2)]
                tree = Graph([f"v{i + 1}" for i in range(n)],
                             prufer_decode(n, seq) if n > 1 else ())
                assert generate(FamilySpec("random_tree", n, seed=seed)) == tree
                assert generate(FamilySpec("random_forest", n, seed=seed,
                                           delete_prob=0.0)) == tree

    def test_different_seeds_differ(self):
        seen = {generate(FamilySpec("random_tree", 10, seed=s)) for s in range(20)}
        assert len(seen) > 15

    def test_random_forest_is_forest(self):
        multi = 0
        for seed in range(40):
            g = generate(FamilySpec("random_forest", 12, seed=seed))
            dec = decompose(g)
            assert dec.is_forest
            multi += len(dec.components) > 1
        assert multi > 5  # default deletion probability yields real forests

    @pytest.mark.parametrize("family", ["random_tree", "random_forest"])
    def test_seed_outside_64_bits_refused_before_drawing(self, family, monkeypatch):
        # SplitMix64 keeps a seed modulo 2^64: -1 would draw the graph of
        # 2^64 - 1, and 2^64 the graph of 0, under other recorded seeds
        ends = [generate(FamilySpec(family, 9, seed=s)) for s in (0, (1 << 64) - 1)]
        assert ends[0] != ends[1]

        def no_draw(seed):
            raise AssertionError("drawn")

        monkeypatch.setattr(graph_families, "SplitMix64", no_draw)
        for seed in (-1, 1 << 64, -(1 << 64), 1 << 70):
            with pytest.raises(InvalidFamilyParameterError) as exc:
                generate(FamilySpec(family, 9, seed=seed))
            assert str(exc.value) == f"seed must lie in [0, 2^64), not {seed}"

    def test_splitmix_reference_values(self):
        # first outputs for seed 0, fixed by the algorithm definition
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4


class TestPrufer:
    def test_decode_matches_known_counts(self):
        for n, count in ((2, 1), (3, 3), (4, 16), (5, 125)):
            trees = {tuple(sorted(prufer_decode(n, seq)))
                     for seq in itertools.product(range(n), repeat=n - 2)}
            assert len(trees) == count

    def test_decode_encode_roundtrip(self):
        for n in range(2, 7):
            for seq in itertools.product(range(n), repeat=n - 2):
                assert prufer_encode(n, prufer_decode(n, seq)) == seq

    def test_encode_decode_roundtrip(self):
        for n in range(2, 7):
            for t in enumerate_labeled_trees(n):
                seq = prufer_encode(n, t.edges)
                assert tuple(sorted(prufer_decode(n, list(seq)))) == t.edges

    @pytest.mark.parametrize("call", [
        lambda: prufer_decode(4, [-1, 0]),
        lambda: prufer_decode(4, [7, 0]),
        lambda: prufer_encode(3, [(0, 5), (1, 2)])],
        ids=["decode negative", "decode too large", "encode endpoint too large"])
    def test_out_of_range_vertices_refused(self, call):
        with pytest.raises(InvalidFamilyParameterError, match=r"must lie in 0\.\."):
            call()

    @pytest.mark.parametrize("n, edges", [
        (4, [(0, 1), (1, 2), (0, 2)]),
        (4, [(0, 1), (0, 1), (2, 3)]),
        (5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]),
        (4, [(0, 0), (1, 2), (2, 3)]),
    ], ids=["triangle plus isolated vertex", "repeated edge", "triangle plus K2",
            "triangle plus P3", "self-loop"])
    def test_encode_refuses_non_tree_of_the_right_size(self, n, edges):
        with pytest.raises(InvalidFamilyParameterError, match="not a tree"):
            prufer_encode(n, edges)

    @pytest.mark.parametrize("call, message", [
        (lambda: prufer_decode(1, []), "need n >= 2 and a length-0 sequence"),
        (lambda: prufer_encode(1, []), "need n >= 2"),
        (lambda: prufer_encode(4, [(0, 1), (1, 2)]), "not a tree: wrong edge count")],
        ids=["decode one vertex", "encode one vertex", "encode too few edges"])
    def test_small_orders_and_short_edge_lists_refused(self, call, message):
        with pytest.raises(InvalidFamilyParameterError, match=f"^{re.escape(message)}$"):
            call()


class TestEnumerateLabeledTrees:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labeled_trees(3)) == 3
        assert sum(1 for _ in enumerate_labeled_trees(4)) == 16
        assert sum(1 for _ in enumerate_labeled_trees(5)) == 125

    def test_all_distinct_trees(self):
        seen = set()
        for t in enumerate_labeled_trees(5):
            assert decompose(t).is_tree
            seen.add(t.edges)
        assert len(seen) == 125

    def test_bounds(self):
        with pytest.raises(InvalidFamilyParameterError):
            list(enumerate_labeled_trees(1))
        with pytest.raises(InvalidFamilyParameterError):
            list(enumerate_labeled_trees(9))

    def test_k2_case(self):
        trees = list(enumerate_labeled_trees(2))
        assert len(trees) == 1 and trees[0].edges == ((0, 1),)
