import pytest

from lmss import (
    FamilySpec,
    Graph,
    Matching,
    NotAForestError,
    enumerate_labeled_trees,
    generate,
    internal_cover_matching,
    maximum_matching,
    verify_konig_egervary,
)
from conftest import naive_alpha, naive_internal_cover_matching, naive_mu, path

K13 = Graph(["c", "x", "y", "z"], [(0, 1), (0, 2), (0, 3)])


def forest_corpus(count=60, max_n=12, seed0=100):
    for i in range(count):
        yield generate(FamilySpec("random_forest", n=2 + i % (max_n - 1),
                                  seed=seed0 + i))


class TestMatchingFromEdges:
    def test_shared_endpoint_refused(self):
        with pytest.raises(ValueError, match="^edges share an endpoint$"):
            Matching.from_edges([(0, 1), (1, 2)])


class TestMaximumMatching:
    def test_p4_perfect(self, p4):
        m = maximum_matching(p4)
        assert m.edges == ((0, 1), (2, 3))
        assert m.covered == {0, 1, 2, 3}

    def test_p5(self):
        assert len(maximum_matching(path(5))) == naive_mu(path(5)) == 2

    def test_star(self):
        m = maximum_matching(K13)
        assert len(m) == 1
        assert m.edges == ((0, 1),)  # lowest-index pendant wins

    def test_requires_forest(self, c4):
        with pytest.raises(NotAForestError):
            maximum_matching(c4)

    def test_size_matches_naive(self):
        for n in range(2, 7):
            for t in enumerate_labeled_trees(n):
                assert len(maximum_matching(t)) == naive_mu(t)
        for g in forest_corpus(40, 10):
            assert len(maximum_matching(g)) == naive_mu(g)

    def test_edges_disjoint_and_present(self):
        for g in forest_corpus(40, 14, seed0=200):
            m = maximum_matching(g)
            assert len(m.covered) == 2 * len(m)
            for u, v in m.edges:
                assert g.has_edge(u, v)


class TestInternalCoverMatching:
    def test_p5_exposes_only_last_pendant(self):
        m = internal_cover_matching(path(5))
        assert m.edges == ((0, 1), (2, 3))

    def test_star_covers_center(self):
        m = internal_cover_matching(K13)
        assert len(m) == 1 and 0 in m.covered

    def test_p4_perfect(self, p4):
        assert internal_cover_matching(p4).covered == {0, 1, 2, 3}

    def test_requires_forest(self, fig1):
        with pytest.raises(NotAForestError):
            internal_cover_matching(fig1)

    def test_maximum_and_internal_cover_property(self):
        for n in range(2, 8):
            for t in enumerate_labeled_trees(n):
                m = internal_cover_matching(t)
                assert len(m) == naive_mu(t)
                for v in range(n):
                    if t.degree(v) >= 2:
                        assert v in m.covered
        for g in forest_corpus(60, 16, seed0=300):
            m = internal_cover_matching(g)
            assert len(m) == len(maximum_matching(g))
            exposed = set(range(g.vertex_count)) - m.covered
            assert all(g.degree(v) <= 1 for v in exposed)

    def test_single_pass_matches_rescanning_repair(self, fig4):
        trees = [fig4] + [generate(FamilySpec("random_tree", n=n, seed=500 + n))
                          for n in range(2, 90)]
        for t in trees:
            assert internal_cover_matching(t).edges == naive_internal_cover_matching(t).edges


class TestKonigEgervary:
    def test_p5(self):
        rep = verify_konig_egervary(path(5))
        assert (rep.alpha, rep.mu, rep.order) == (3, 2, 5)
        assert rep.identity_holds and not rep.has_perfect_matching

    def test_p4_perfect_tree(self, p4):
        rep = verify_konig_egervary(p4)
        assert rep.identity_holds and rep.has_perfect_matching

    def test_star(self):
        rep = verify_konig_egervary(K13)
        assert (rep.alpha, rep.mu) == (3, 1) and rep.identity_holds

    def test_requires_forest(self, c4):
        with pytest.raises(NotAForestError):
            verify_konig_egervary(c4)

    def test_identity_on_corpus(self):
        for g in forest_corpus(80, 18, seed0=400):
            rep = verify_konig_egervary(g)
            assert rep.identity_holds
            if g.vertex_count <= 12:
                assert rep.alpha == naive_alpha(g)
