from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from lmss import (
    FamilySpec,
    Graph,
    SplitMix64,
    SubsetOracle,
    TooLargeForBruteForce,
    TooLargeForEnumeration,
    alpha,
    enumerate_labeled_trees,
    enumerate_omega,
    enumerate_psi,
    generate,
    induced_subgraph,
    is_local_max_stable,
    is_stable,
    psi_restrict_check,
    stable_core,
)
from lmss.graph_core import closed_mask_of, leaf_peel, set_of
from conftest import (
    cycle,
    cyclic_cores,
    graphs,
    labels_to_set,
    naive_alpha,
    naive_is_local_max_stable,
    naive_omega,
    naive_psi,
    path,
    recursive_alpha_branch_bound,
)
from test_graph_core import random_graph


class TestIsStable:
    def test_fig1_max_set(self, fig1):
        assert is_stable(fig1, labels_to_set(fig1, "a", "c", "f"))

    def test_fig1_adjacent_pair(self, fig1):
        assert not is_stable(fig1, labels_to_set(fig1, "c", "d"))

    def test_empty(self, fig1):
        assert is_stable(fig1, frozenset())


class TestAlpha:
    def test_fig1_is_three(self, fig1):
        res = alpha(fig1)
        assert res.size == 3
        assert res.method == "brute_force"
        assert is_stable(fig1, res.set) and len(res.set) == 3

    def test_p8(self):
        g = path(8)
        res = alpha(g)
        assert res.size == naive_alpha(g) == 4
        assert res.method == "forest_dp"

    def test_edgeless(self):
        g = Graph(["x", "y", "z"])
        res = alpha(g)
        assert res.size == 3 and res.set == {0, 1, 2}

    def test_forest_dp_matches_naive_exhaustively(self):
        for n in range(2, 7):
            for t in enumerate_labeled_trees(n):
                res = alpha(t)
                assert res.size == naive_alpha(t)
                assert is_stable(t, res.set) and len(res.set) == res.size

    def test_brute_force_matches_naive(self):
        rng = SplitMix64(11)
        for trial in range(40):
            g = random_graph(2 + rng.below(8), 35, rng)
            res = alpha(g)
            assert res.size == naive_alpha(g)
            assert is_stable(g, res.set) and len(res.set) == res.size

    def test_brute_force_witness_is_lex_least(self):
        rng = SplitMix64(12)
        for trial in range(25):
            g = random_graph(2 + rng.below(7), 40, rng)
            if g.is_forest:
                continue
            res = alpha(g)
            best = min(naive_omega(g), key=lambda s: tuple(sorted(s)))
            assert res.set == best

    def test_cap_enforced(self):
        g = cycle(26)
        with pytest.raises(TooLargeForBruteForce):
            alpha(g)
        # forests of any size are fine
        assert alpha(path(40)).size == 20

    def test_monotone_under_induced(self, fig1):
        full = alpha(fig1).size
        for s in ({0, 1, 2}, {2, 3, 4, 5}, {0, 5}):
            assert alpha(induced_subgraph(fig1, s)).size <= full


def deep_search_graph() -> Graph:
    """A triangle t0 t1 t2 at the lowest indices, then 1 500 isolated vertices:
    alpha's search goes 1 500 include branches deep, and the peel of any
    N[S] holding t0 leaves only the triangle."""
    return Graph(["t0", "t1", "t2"] + [f"v{i}" for i in range(1500)],
                 [(0, 1), (1, 2), (0, 2)])


class TestBranchAndBound:
    @given(st.one_of(graphs(), cyclic_cores()), st.data())
    def test_loop_matches_the_recursive_search(self, g, data):
        # the same mask on a random sub-universe and on the core its peel leaves
        adj = g._adj
        universe = data.draw(st.integers(0, g.full_mask()))
        for u in (universe, leaf_peel(adj, universe)[2], g.full_mask()):
            assert stable_core._alpha_branch_bound(adj, u, None) == \
                recursive_alpha_branch_bound(adj, u, None)

    def test_deep_search_alpha(self):
        g = deep_search_graph()
        res = alpha(g, cap=2000)
        assert (res.size, res.method) == (1501, "brute_force")
        assert res.set == {0} | set(range(3, 1503))

    def test_deep_search_membership_searches_only_the_triangle(self):
        g = deep_search_graph()
        s = {g.index_of("t0")} | {g.index_of(f"v{i}") for i in range(30)}
        assert is_local_max_stable(g, s)
        assert psi_restrict_check(g, range(g.vertex_count), s)

    @given(cyclic_cores(), st.integers(0, 6), st.data())
    def test_membership_refused_only_past_the_peeled_core(self, g, cap, data):
        s = 0
        for v in data.draw(st.permutations(range(g.vertex_count))):
            if not g.adjacency_mask(v) & s:
                s |= 1 << v
        for m in (s & data.draw(st.integers(0, s)), data.draw(st.integers(0, g.full_mask()))):
            try:
                got = stable_core.in_psi_mask(g, m, cap)
            except TooLargeForBruteForce:
                got = None
            if got is not None:
                assert got == naive_is_local_max_stable(g, set_of(m))
            if stable_core.stable_mask(g, m):
                core = leaf_peel(g._adj, closed_mask_of(g._adj, m))[2]
                assert (got is None) == (core.bit_count() > cap)
            else:
                assert got is False


class TestEnumerateOmega:
    def test_fig2_has_exactly_two(self, fig2):
        omega = enumerate_omega(fig2)
        expect = {labels_to_set(fig2, "u", "v", "z", "x"),
                  labels_to_set(fig2, "u", "v", "y", "x")}
        assert set(omega) == expect and len(omega) == 2

    def test_p4(self, p4):
        assert [sorted(s) for s in enumerate_omega(p4)] == [[0, 2], [0, 3], [1, 3]]

    def test_k2(self, k2):
        assert [sorted(s) for s in enumerate_omega(k2)] == [[0], [1]]

    def test_matches_naive(self):
        rng = SplitMix64(13)
        for trial in range(30):
            g = random_graph(1 + rng.below(8), 30, rng)
            assert set(enumerate_omega(g)) == naive_omega(g)

    def test_cap(self):
        with pytest.raises(TooLargeForEnumeration):
            enumerate_omega(path(21))


class TestIsLocalMaxStable:
    def test_fig1_documented_members(self, fig1):
        assert is_local_max_stable(fig1, labels_to_set(fig1, "a"))
        assert is_local_max_stable(fig1, labels_to_set(fig1, "d", "e"))

    def test_p6_cf_is_not_member(self, p6):
        assert not is_local_max_stable(p6, labels_to_set(p6, "c", "f"))
        assert is_local_max_stable(p6, labels_to_set(p6, "a", "f"))

    def test_cyclic_core_cap(self):
        # N[S] is the whole 26-cycle for both sets, so the peel leaves it all
        # to the search; only the first is maximum there
        g, s, t = cycle(26), frozenset(range(0, 26, 2)), frozenset(range(0, 26, 3))
        with pytest.raises(TooLargeForBruteForce,
                           match="^26 vertices exceed the brute-force cap of 24$"):
            is_local_max_stable(g, s)
        assert is_local_max_stable(g, s, cap=26)
        assert not is_local_max_stable(g, t, cap=26)

    def test_pendant_subsets_always_members(self):
        rng = SplitMix64(14)
        for trial in range(25):
            n = 2 + rng.below(8)
            t = generate(FamilySpec("random_tree", n, seed=trial))
            pend = [v for v in range(n) if t.degree(v) == 1]
            sub = frozenset(v for v in pend if rng.below(2))
            if is_stable(t, sub):
                assert is_local_max_stable(t, sub)

    def test_empty_set_is_member(self, fig1):
        assert is_local_max_stable(fig1, frozenset())

    def test_unstable_set_is_not(self, p4):
        assert not is_local_max_stable(p4, {0, 1})

    def test_isolated_vertex_does_not_change_verdict(self, fig1):
        bigger = Graph(fig1.labels + ("z",), fig1.edges)
        for s in ({0}, {3, 4}, {0, 2, 5}, {2, 3}):
            assert is_local_max_stable(fig1, s) == is_local_max_stable(bigger, s)

    def test_matches_naive(self):
        rng = SplitMix64(15)
        for trial in range(15):
            g = random_graph(1 + rng.below(7), 30, rng)
            for m in range(1 << g.vertex_count):
                s = frozenset(v for v in range(g.vertex_count) if m >> v & 1)
                assert is_local_max_stable(g, s) == naive_is_local_max_stable(g, s)


    def test_cyclic_cores_take_the_branch_and_bound_route(self):
        # a maximal stable set S closes over the whole graph, so its peel
        # stops at the cyclic core; T, a part of S, and a sub missing one
        # vertex vary the neighborhood the search is left with
        routed = []
        real = stable_core._alpha_branch_bound

        @given(cyclic_cores(), st.data())
        def check(g, data):
            s = 0
            for v in data.draw(st.permutations(range(g.vertex_count))):
                if not g.adjacency_mask(v) & s:
                    s |= 1 << v
            t = s & data.draw(st.integers(0, s))
            drop = data.draw(st.integers(0, g.vertex_count))  # n drops nothing
            sub = [v for v in range(g.vertex_count) if v != drop or s >> v & 1]
            inner = induced_subgraph(g, sub)
            calls = []
            with patch.object(stable_core, "_alpha_branch_bound",
                              lambda *args: calls.append(1) or real(*args)):
                for m in (s, t):
                    a = set_of(m)
                    want = naive_is_local_max_stable(g, a)
                    assert stable_core.in_psi_mask(g, m) == want
                    assert is_local_max_stable(g, a) == want
                    assert psi_restrict_check(g, sub, a) == naive_is_local_max_stable(
                        inner, {sub.index(v) for v in a})
            routed.append(bool(calls))

        check()
        assert sum(routed) > len(routed) // 2


class TestEnumeratePsi:
    def test_c4(self, c4):
        fam = enumerate_psi(c4)
        assert [sorted(s) for s in fam.members] == [[], [0, 2], [1, 3]]

    def test_p4(self, p4):
        assert [sorted(s) for s in enumerate_psi(p4).members] == \
            [[], [0], [3], [0, 2], [0, 3], [1, 3]]

    def test_k2(self, k2):
        assert [sorted(s) for s in enumerate_psi(k2).members] == [[], [0], [1]]

    def test_empty_always_member_and_omega_inside(self):
        rng = SplitMix64(16)
        for trial in range(25):
            g = random_graph(1 + rng.below(7), 30, rng)
            members = set(enumerate_psi(g).members)
            assert frozenset() in members
            assert naive_omega(g) <= members
            assert members == naive_psi(g)

    def test_canonical_order(self, fig1):
        members = enumerate_psi(fig1).members
        keys = [(len(s), tuple(sorted(s))) for s in members]
        assert keys == sorted(keys)
        assert len(set(members)) == len(members)

    def test_cap(self):
        with pytest.raises(TooLargeForEnumeration):
            enumerate_psi(path(21))
        assert enumerate_psi(path(21), cap=21)  # explicit cap override


class TestSubsetOracle:
    def test_tables_match_naive(self):
        rng = SplitMix64(17)
        for trial in range(12):
            g = random_graph(1 + rng.below(6), 35, rng)
            oracle = SubsetOracle(g)
            for m in range(1 << g.vertex_count):
                s = frozenset(v for v in range(g.vertex_count) if m >> v & 1)
                assert oracle.alpha_of(m) == naive_alpha(induced_subgraph(g, s))
                assert oracle.in_psi_mask(m) == naive_is_local_max_stable(g, s)

    def test_alpha_of_whole_graph(self, fig1):
        assert SubsetOracle(fig1).alpha() == 3
