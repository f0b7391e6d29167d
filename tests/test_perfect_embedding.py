from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from lmss import (
    FamilySpec,
    Graph,
    InternalError,
    InvalidVertexError,
    NotAForestError,
    SplitMix64,
    alpha,
    closed_neighborhood,
    embed_perfect,
    enumerate_psi,
    generate,
    induced_subgraph,
    internal_cover_matching,
    maximum_matching,
    psi_restrict_check,
)
from lmss import graph_core, perfect_embedding, tree_matching
from lmss.graph_core import bits_of, flags_of, mask_of, set_of
from lmss.perfect_embedding import fresh_partners
from conftest import (
    forests,
    graphs,
    labels_to_set,
    naive_alpha,
    naive_is_local_max_stable,
    path,
)


def two_branch_tree() -> Graph:
    """Ten-vertex tree with two degree-4 hubs; four vertices stay exposed
    by any maximum matching (mu = 3, alpha = 7)."""
    labels = [f"t{i}" for i in range(1, 11)]
    pairs = [(2, 3), (3, 4), (4, 5), (5, 6),  # middle path t3-t4-t5-t6-t7
             (2, 7),                          # t3-t8
             (0, 3), (3, 8),                  # t1-t4, t4-t9
             (1, 5), (5, 9)]                  # t2-t6, t6-t10
    return Graph(labels, pairs)


class TestFreshPartners:
    def test_exposed_vertices_partnered_ascending_from_first(self):
        # 0 is isolated; the tree 1-2, 2-3, 2-4 leaves 3 and 4 exposed; the
        # path 5-6-7 leaves 7 exposed
        g = Graph([f"v{i}" for i in range(8)], [(1, 2), (2, 3), (2, 4), (5, 6), (6, 7)])
        pairs = maximum_matching(g).edges
        assert pairs == ((1, 2), (5, 6))
        nb = fresh_partners(g._nbrs, pairs, flags_of((1 << g.vertex_count) - 1, 8))
        assert [(nb[w][0], w) for w in range(8, len(nb))] == [(0, 8), (3, 9), (4, 10), (7, 11)]
        # each fresh vertex is appended to its partner's tuple, which stays sorted
        assert nb == [(8,), (2,), (1, 3, 4), (2, 9), (2, 10), (6,), (5, 7), (6, 11),
                      (0,), (3,), (4,), (7,)]
        assert g._nbrs[0] == ()  # the graph's own tuples are not touched
        # the constructive chain's universe is N[S], here N[{3, 7}]; behind 12
        # more (isolated) vertices the fresh ones start at 20
        assert closed_neighborhood(g, {3, 7}) == {2, 3, 6, 7}
        nbrs = g._nbrs + ((),) * 12
        assert fresh_partners(nbrs, pairs, flags_of(mask_of({2, 3, 6, 7}), 20))[20:] == [(3,), (7,)]
        assert fresh_partners(g._nbrs, pairs, flags_of(0, 8)) == list(g._nbrs)

    def test_dropped_partner_is_caught(self, monkeypatch):
        step = perfect_embedding.fresh_partners

        def dropped(*args):  # the last partner leaves the lists, so the edges too
            nb = step(*args)
            w = len(nb) - 1
            nb[nb[w][0]] = nb[nb[w][0]][:-1]
            return nb[:w]

        monkeypatch.setattr(perfect_embedding, "fresh_partners", dropped)
        for mode in ("any", "pendant_only"):
            with pytest.raises(InternalError,
                               match="embedding failed to produce a perfect forest"):
                embed_perfect(two_branch_tree(), mode)


def _dropped(g, pairs):  # a matching one short of maximum
    return pairs[1:]


def _non_edge(g, pairs):  # the first pair's partner swapped for an exposed non-neighbour
    (x, _), *rest = pairs
    covered = {v for pair in pairs for v in pair}
    z = next(z for z in range(g.vertex_count)
             if z != x and z not in covered and z not in g._nbrs[x])
    return ((x, z), *rest)


def _shared(g, pairs):  # the last pair's partner swapped for a neighbour another pair covers
    *rest, (x, _) = pairs
    covered = {v for pair in rest for v in pair}
    return (*rest, (x, next(z for z in g._nbrs[x] if z in covered)))


def _crossed(g, pairs):  # P4's two pairs recrossed into two non-edges, covering the same vertices
    (a, b), (c, d) = pairs
    return ((a, c), (b, d))


class TestCertificateCheck:
    @pytest.mark.parametrize("graph, corrupt, message", [
        (two_branch_tree, _dropped, "embedding changed the stability number"),
        (two_branch_tree, _non_edge, "embedding failed to produce a perfect forest"),
        (two_branch_tree, _shared, "embedding failed to produce a perfect forest"),
        # the host is g itself, a perfect forest with g's alpha: only the
        # certificate shows that the pairs are no matching of it
        (lambda: path(4), _crossed, "embedding failed to produce a perfect forest"),
    ], ids=["dropped", "non_edge", "shared", "crossed"])
    def test_corrupt_matching_is_caught(self, monkeypatch, graph, corrupt, message):
        greedy = perfect_embedding.leaf_greedy_pairs
        cover = perfect_embedding.internal_cover_matching
        monkeypatch.setattr(perfect_embedding, "leaf_greedy_pairs",
                            lambda g: corrupt(g, greedy(g)))
        monkeypatch.setattr(perfect_embedding, "internal_cover_matching",
                            lambda g: SimpleNamespace(edges=corrupt(g, cover(g).edges)))
        for mode in ("any", "pendant_only"):
            with pytest.raises(InternalError, match=f"^{message}$"):
                embed_perfect(graph(), mode)

    @given(forests())
    def test_no_whole_host_walk(self, g):
        g.peel, g.is_forest  # memoised first: the embedding may read only these
        walks = []

        def counted(name):
            walk = getattr(graph_core, name)
            return lambda *args: walks.append(name) or walk(*args)

        with pytest.MonkeyPatch.context() as mp:
            for name in ("leaf_peel", "component_lists"):
                mp.setattr(graph_core, name, counted(name))
            embeddings = [embed_perfect(g, mode) for mode in ("any", "pendant_only")]
        assert walks == []
        a = alpha(g).size
        for emb in embeddings:
            host = emb.host  # its own walk and peel, computed now
            assert host.is_forest and 2 * len(host.peel[1]) == host.vertex_count
            assert host.peel[0].count(1) == a

    def test_partner_hung_twice_is_caught(self, monkeypatch):
        step = perfect_embedding.fresh_partners

        def hung_twice(*args):  # the last fresh vertex also joins vertex 0, closing a cycle
            nb = step(*args)
            w = len(nb) - 1
            nb[0] += (w,)
            nb[w] += (0,)  # after its partner, so the added edge read from it stays
            return nb

        monkeypatch.setattr(perfect_embedding, "fresh_partners", hung_twice)
        for mode in ("any", "pendant_only"):
            with pytest.raises(InternalError,
                               match="^embedding failed to produce a perfect forest$"):
                embed_perfect(two_branch_tree(), mode)


class TestEmbedPerfect:
    def test_p3_becomes_p4(self):
        g = path(3)
        emb = embed_perfect(g)
        assert emb.host.vertex_count == 4
        assert len(emb.added_edges) == 1
        v, w = emb.added_edges[0]
        assert v == 2 and emb.host.labels[w] == "c_w"
        assert alpha(emb.host).size == alpha(g).size == 2

    def test_fresh_label_skips_a_taken_one(self):
        # a's first choice, a_w, already names a vertex of g
        emb = embed_perfect(Graph(["a", "a_w", "b"], [(1, 2)]))
        assert emb.added_edges == ((0, 3),)
        assert emb.host.labels == ("a", "a_w", "b", "a_w2")

    def test_already_perfect_is_identity(self, p4):
        emb = embed_perfect(p4)
        assert emb.host == p4 and emb.added_edges == ()

    def test_two_branch_tree_both_modes(self):
        g = two_branch_tree()
        assert naive_alpha(g) == 7
        emb = embed_perfect(g, "any")
        assert len(emb.added_edges) == 4
        assert emb.host.vertex_count == 14
        assert 2 * len(maximum_matching(emb.host)) == 14
        assert alpha(emb.host).size == 7
        # the unconstrained mode is allowed to touch internal vertices and
        # does so here; the pendant-only mode must not
        pend = embed_perfect(g, "pendant_only")
        assert len(pend.added_edges) == 4
        for v, _w in pend.added_edges:
            assert g.degree(v) <= 1

    def test_isolated_vertices_get_partners(self):
        g = Graph(["a", "b", "x"], [(0, 1)])
        for mode in ("any", "pendant_only"):
            emb = embed_perfect(g, mode)
            assert emb.host.vertex_count == 4
            assert any(v == 2 for v, _ in emb.added_edges)

    def test_requires_forest(self, c4):
        # each mode refuses in the words of the matching it starts from
        with pytest.raises(NotAForestError, match="^maximum_matching requires an acyclic graph$"):
            embed_perfect(c4)
        with pytest.raises(NotAForestError,
                           match="^internal_cover_matching requires an acyclic graph$"):
            embed_perfect(c4, "pendant_only")

    def test_rejects_unknown_mode(self, p4):
        with pytest.raises(ValueError):
            embed_perfect(p4, "both")

    def test_structure_on_corpus(self):
        checked = 0
        for seed in range(60):
            g = generate(FamilySpec("random_forest", n=2 + seed % 14, seed=970 + seed))
            for mode in ("any", "pendant_only"):
                emb = embed_perfect(g, mode)
                host = emb.host
                # original graph sits untouched inside the host
                assert induced_subgraph(host, emb.original_vertices) == g
                pm = maximum_matching(host)
                assert 2 * len(pm) == host.vertex_count
                assert alpha(host).size == alpha(g).size
                assert host.vertex_count - g.vertex_count == len(emb.added_edges)
                for v, w in emb.added_edges:
                    assert v < g.vertex_count <= w
                    assert host.degree(w) == 1
                    # new edges belong to the perfect matching of the host
                    assert (v, w) in pm.edges
                    if mode == "pendant_only":
                        assert g.degree(v) <= 1
                checked += 1
        assert checked == 120

    @given(forests())
    def test_each_graph_derives_its_cover_once(self, g):
        twin = Graph(g.labels, g.edges)
        fresh = embed_perfect(twin, "pendant_only")
        cover = internal_cover_matching(g)
        assert internal_cover_matching(g) is cover and cover == internal_cover_matching(twin)

        def repair_again(_):
            raise AssertionError("the internal cover was repaired twice")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree_matching, "_repaired_cover", repair_again)
            emb = embed_perfect(g, "pendant_only")
        assert emb.added_edges == fresh.added_edges and emb.host == fresh.host

    def test_alpha_arithmetic(self):
        for seed in range(30):
            g = generate(FamilySpec("random_tree", n=3 + seed % 9, seed=1200 + seed))
            emb = embed_perfect(g)
            host = emb.host
            q = len(emb.added_edges)
            assert host.vertex_count == g.vertex_count + q
            assert len(maximum_matching(host)) == len(maximum_matching(g)) + q
            assert alpha(host).size == alpha(g).size


class TestPsiRestrictCheck:
    def test_p6_restriction(self, p6):
        sub = labels_to_set(p6, "a", "b", "c", "d")
        a = labels_to_set(p6, "a", "c")
        assert a in set(enumerate_psi(p6).members)
        assert psi_restrict_check(p6, sub, a)

    def test_empty_a_set(self, p6):
        assert psi_restrict_check(p6, {0, 1, 2}, frozenset())

    def test_pendant_singleton(self, p6):
        assert psi_restrict_check(p6, {0, 1}, {0})

    def test_restriction_can_drop_membership(self):
        # {b} is no member of P3 = a-b-c (alpha(N[b]) = 2), but is one of a-b
        p3 = path(3)
        b = labels_to_set(p3, "b")
        assert not psi_restrict_check(p3, labels_to_set(p3, "a", "b", "c"), b)
        assert psi_restrict_check(p3, labels_to_set(p3, "a", "b"), b)

    @given(st.one_of(forests(max_n=12), graphs(max_n=10)).flatmap(
        lambda g: st.tuples(st.just(g), st.integers(0, (1 << g.vertex_count) - 1))))
    def test_matches_naive_membership_in_the_induced_subgraph(self, drawn):
        # every a inside sub, on forests and on graphs with cycles (the
        # branch-and-bound route)
        g, sub_mask = drawn
        sub = sorted(bits_of(sub_mask))
        inner = induced_subgraph(g, sub)
        a_mask = sub_mask
        while True:
            a = set_of(a_mask)
            assert psi_restrict_check(g, sub, a) == naive_is_local_max_stable(
                inner, {sub.index(v) for v in a})
            if not a_mask:
                break
            a_mask = (a_mask - 1) & sub_mask

    def test_a_must_lie_in_sub(self, p6):
        with pytest.raises(InvalidVertexError):
            psi_restrict_check(p6, {0, 1}, {5})

    def test_restriction_soundness_on_random_subtrees(self):
        rng = SplitMix64(77)
        for seed in range(25):
            t = generate(FamilySpec("random_tree", n=4 + seed % 5, seed=1400 + seed))
            members = enumerate_psi(t).members
            sub = frozenset(v for v in range(t.vertex_count) if rng.below(3))
            for a in members:
                if a <= sub:
                    assert psi_restrict_check(t, sub, a)
