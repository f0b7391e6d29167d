import time
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from lmss import (
    FamilySpec,
    Graph,
    InvalidVertexError,
    NotAForestError,
    NotInPsiError,
    SplitMix64,
    SubsetOracle,
    TooLargeForBruteForce,
    TooLargeForEnumeration,
    alpha,
    chain_decompose,
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
from lmss.graph_core import (bits_of, closed_flags, flags_of, leaf_peel, mask_of,
                             mask_of_flags, set_of)
from conftest import (
    closed_mask_of,
    cycle,
    cyclic_cores,
    forests,
    graphs,
    labels_to_set,
    naive_adjacency,
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
        adj = naive_adjacency(g)
        n = g.vertex_count
        universe = data.draw(st.integers(0, (1 << n) - 1))
        core = mask_of_flags(leaf_peel(g._nbrs, flags_of(universe, n))[2])
        for u in (universe, core, (1 << n) - 1):
            assert stable_core._alpha_branch_bound(g._nbrs, flags_of(u, n), None) == \
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
            if not mask_of(g.neighbors(v)) & s:
                s |= 1 << v
        for m in (s & data.draw(st.integers(0, s)),
                  data.draw(st.integers(0, (1 << g.vertex_count) - 1))):
            try:
                got = stable_core.psi_walk(g, m, cap) is not None
            except TooLargeForBruteForce:
                got = None
            if got is not None:
                assert got == naive_is_local_max_stable(g, set_of(m))
            if stable_core.stable_mask(g, m):
                closed = closed_mask_of(naive_adjacency(g), m)
                core = leaf_peel(g._nbrs, flags_of(closed, g.vertex_count))[2]
                assert (got is None) == (core.count(1) > cap)
            else:
                assert got is False

    def test_isolated_vertices_before_a_triangle_are_not_branched_on(self):
        # an isolated vertex has no neighbour left, so the search takes it
        # without an exclude branch; walking each such branch down to the
        # triangle at the end made this search quadratic
        g = Graph([f"v{i}" for i in range(1500)] + ["t0", "t1", "t2"],
                  [(1500, 1501), (1501, 1502), (1500, 1502)])
        start = time.process_time()
        res = alpha(g, cap=2000)
        assert time.process_time() - start < 0.25
        assert res.set == {g.index_of("t0")} | set(range(1500))

    def test_disjoint_edges_before_a_cycle_are_not_branched_on(self):
        # the lower end of each edge has one neighbour left: taking it without
        # an exclude branch keeps the search from doubling per edge
        edges = [(2 * i, 2 * i + 1) for i in range(15)]
        edges += [(30 + i, 30 + (i + 1) % 5) for i in range(5)]
        g = Graph([f"x{i}" for i in range(35)], edges)
        start = time.process_time()
        res = alpha(g, cap=40)
        assert time.process_time() - start < 0.5
        assert (res.size, res.method) == (17, "brute_force")
        assert res.set == set(range(0, 33, 2))

    @given(cyclic_cores(), st.integers(0, 6), st.data())
    def test_membership_within_a_vertex_set(self, g, cap, data):
        # the kernel on the subgraph induced by ``sub`` (which keeps the vertex
        # order) answers membership there, refused exactly when the core the
        # peel leaves of N[S] cut to ``sub`` in ``g`` tops ``cap``
        s = 0
        for v in data.draw(st.permutations(range(g.vertex_count))):
            if not mask_of(g.neighbors(v)) & s:
                s |= 1 << v
        s &= data.draw(st.integers(0, s))
        sub = s | data.draw(st.integers(0, (1 << g.vertex_count) - 1))
        keep = list(bits_of(sub))
        h = induced_subgraph(g, keep)
        t = mask_of(keep.index(v) for v in bits_of(s))
        try:
            got = stable_core.psi_walk(h, t, cap) is not None
        except TooLargeForBruteForce:
            got = None
        closed = closed_mask_of(naive_adjacency(g), s) & sub
        core = leaf_peel(g._nbrs, flags_of(closed, g.vertex_count))[2]
        assert (got is None) == (core.count(1) > cap)
        if got is not None:
            assert got == naive_is_local_max_stable(h, set_of(t))
            assert psi_restrict_check(g, keep, set_of(s)) == got


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
                if not mask_of(g.neighbors(v)) & s:
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
                    assert (stable_core.psi_walk(g, m) is not None) == want
                    assert is_local_max_stable(g, a) == want
                    assert psi_restrict_check(g, sub, a) == naive_is_local_max_stable(
                        inner, {sub.index(v) for v in a})
            routed.append(bool(calls))

        check()
        assert sum(routed) > len(routed) // 2

    @given(st.one_of(forests(max_n=40), graphs(), cyclic_cores()), st.data())
    def test_a_walk_over_every_vertex_reads_the_graph_peel(self, g, data):
        # a maximal stable set S has N[S] = V, so psi_walk reads g.peel, memoised
        # now or before; it must equal a fresh peel of N[S], and neither the
        # membership test nor the constructive chain, which grows the walk's
        # flags in place, may change the shared memo
        n = g.vertex_count
        s = 0
        for v in data.draw(st.permutations(range(n))):
            if not mask_of(g.neighbors(v)) & s:
                s |= 1 << v
        if data.draw(st.booleans()):  # a maximum set, so that the walk is a member's
            s = SubsetOracle(g).omega_masks()[0] if n <= 20 else mask_of_flags(g.peel[0])
        if data.draw(st.booleans()):
            g.peel  # memoised before the walk; else the walk memoises it
        closed = closed_flags(g._nbrs, flags_of(s, n))
        assert closed == b"\x01" * n
        walk = stable_core.psi_walk(g, s)
        shared = g.peel
        frozen = tuple(map(bytes, (shared[0], shared[2]))), shared[1]
        # S is maximal, so it is a member iff it is maximum
        a = shared[0].count(1) if g.is_forest else SubsetOracle(g).alpha()
        assert (walk is not None) == (s.bit_count() == a)
        if walk is not None:
            assert walk[2] is shared and walk[2] == leaf_peel(g._nbrs, closed)
        assert is_local_max_stable(g, set_of(s)) == (walk is not None)
        if walk is not None and g.is_forest:
            assert chain_decompose(g, set_of(s), "constructive").chain[-1] == set_of(s)
        else:
            with pytest.raises(NotInPsiError if walk is None else NotAForestError):
                chain_decompose(g, set_of(s), "constructive")
        assert g.peel is shared
        assert (tuple(map(bytes, (shared[0], shared[2]))), shared[1]) == frozen


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


def _canonical_reference(masks) -> list:
    """The canonical order by an independent key: the sets by a bit test
    per index, sorted by size, then by their sorted index tuple."""
    sets = [frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in masks]
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


class TestCanonicalSets:
    """canonical_sets against a key that does not share its index tables."""

    @given(st.integers(1, 40).flatmap(
        lambda width: st.lists(st.integers(0, (1 << width) - 1), max_size=40)), st.data())
    def test_matches_the_reference_order(self, masks, data):
        # repeat some masks: duplicates are kept, as sorted keeps them
        masks += data.draw(st.lists(st.sampled_from(masks), max_size=5) if masks
                           else st.just([]))
        expected = _canonical_reference(masks)
        assert stable_core.canonical_sets(masks) == expected
        assert stable_core.canonical_sets(m for m in masks) == expected

    @pytest.mark.parametrize("masks", [
        [], [0], [0, 0],
        [1 << 7, 1 << 8, (1 << 8) - 1, 1 << 15, 1 << 16, 1 << 23],
        [1 << 24, (1 << 24) | 1, 1 << 31, (1 << 32) | (1 << 7), 1 << 39, (1 << 40) - 1],
        [(1 << 24) - 1, 1 << 24, 0, 1 << 24, 5],
    ], ids=["empty", "zero", "zeros", "prebuilt-edges", "wider", "mixed"])
    def test_across_the_table_edges(self, masks):
        expected = _canonical_reference(masks)
        assert stable_core.canonical_sets(masks) == expected
        assert stable_core.canonical_sets(iter(masks)) == expected
        assert stable_core.index_tuples(masks) == [
            tuple(i for i in range(m.bit_length()) if m >> i & 1) for m in masks]


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

    @pytest.mark.parametrize("mask", [-6, -1, 16, 1 << 70, 1.5, "3", None])
    def test_mask_outside_the_table_is_refused(self, p4, mask):
        # -6 would read entry 10 and -1 the whole graph's alpha; 16 is past
        # the table and 1.5 no index at all
        oracle = SubsetOracle(p4)
        for read in (oracle.in_psi_mask, oracle.alpha_of):
            with pytest.raises(InvalidVertexError, match="subset mask"):
                read(mask)

    def test_mask_reads_through_index(self, p4):
        np = pytest.importorskip("numpy")
        oracle = SubsetOracle(p4)
        assert oracle.in_psi_mask(np.int64(9)) and oracle.in_psi_mask(True)
        assert oracle.alpha_of(np.uint8(15)) == oracle.alpha_of(15) == 2
        assert oracle.in_psi_mask(10) and not oracle.in_psi_mask(2)
