import dataclasses

import pytest
from hypothesis import given, strategies as st

from lmss import greedoid_engine, stable_core
from lmss.graph_core import mask_of, set_of
from lmss.greedoid_engine import PrefixChain
from lmss.stable_core import canonical_sets, enumerate_omega
from lmss import (
    AccessibilityFailure,
    ChainCertificate,
    ExchangeWitness,
    FamilySpec,
    Graph,
    InternalError,
    InvalidVertexError,
    K2BaseCase,
    NotAForestError,
    NotDisjointOrNotStableError,
    NotInPsiError,
    NotMaximumError,
    NotPerfectTreeError,
    SizeMismatchError,
    SplitMix64,
    SubsetOracle,
    TooLargeForBruteForce,
    chain_decompose,
    chain_is_valid,
    enumerate_labeled_trees,
    enumerate_psi,
    exchange_witness,
    fig7_exchange_pair,
    generate,
    is_local_max_stable,
    nt_extend,
    pendant_k2_edge,
    union_local_max,
    verify_greedoid,
)
from conftest import (
    cycle,
    forests,
    graphs,
    labels_to_set,
    naive_is_local_max_stable,
    naive_omega,
    naive_psi,
    path,
)
from test_graph_core import random_graph


class TestPendantK2Edge:
    def test_p4(self, p4):
        assert pendant_k2_edge(p4) == (0, 1)

    def test_p6(self, p6):
        assert pendant_k2_edge(p6) == (0, 1)

    def test_k2_base_case(self, k2):
        with pytest.raises(K2BaseCase):
            pendant_k2_edge(k2)

    def test_rejects_non_perfect(self, c4):
        for g in (path(3), path(5), Graph(["c", "x", "y", "z"], [(0, 1), (0, 2), (0, 3)])):
            with pytest.raises(NotPerfectTreeError):
                pendant_k2_edge(g)
        with pytest.raises(NotPerfectTreeError):
            pendant_k2_edge(c4)

    def test_always_exists_on_perfect_trees(self):
        from lmss import maximum_matching
        found = 0
        for n in (4, 6, 8):
            for t in enumerate_labeled_trees(n):
                if 2 * len(maximum_matching(t)) != n:
                    continue
                x, y = pendant_k2_edge(t)
                assert t.degree(x) == 1 and t.degree(y) == 2
                assert t.has_edge(x, y)
                found += 1
        assert found > 100


class TestUnionLocalMax:
    def test_fig1(self, fig1):
        a = labels_to_set(fig1, "a")
        b = labels_to_set(fig1, "d", "e")
        u = union_local_max(fig1, a, b)
        assert u == labels_to_set(fig1, "a", "d", "e")
        assert naive_is_local_max_stable(fig1, u)

    def test_p6_two_pendants(self, p6):
        assert union_local_max(p6, {0}, {5}) == {0, 5}

    def test_k2_not_stable(self, k2):
        with pytest.raises(NotDisjointOrNotStableError):
            union_local_max(k2, {0}, {1})

    def test_rejects_non_members(self, p6):
        with pytest.raises(NotInPsiError):
            union_local_max(p6, {2}, {5})  # {c} is not in the family

    def test_overlap_rejected(self, p6):
        with pytest.raises(NotDisjointOrNotStableError):
            union_local_max(p6, {0}, {0, 2})

    def test_union_always_member_on_corpus(self):
        rng = SplitMix64(18)
        for trial in range(20):
            g = random_graph(2 + rng.below(7), 30, rng)
            members = list(naive_psi(g))
            for a in members:
                for b in members:
                    if a & b or not a or not b:
                        continue
                    from lmss import is_stable
                    if not is_stable(g, a | b):
                        continue
                    assert union_local_max(g, a, b) == (a | b)


class TestNtExtend:
    def test_fig1_documented_instance(self, fig1):
        s1 = labels_to_set(fig1, "d", "e")
        s2 = labels_to_set(fig1, "a", "c", "f")
        result = nt_extend(fig1, s1, s2)
        assert result == labels_to_set(fig1, "a", "d", "e")
        assert result in naive_omega(fig1)

    def test_empty_s1_returns_s2(self, fig1):
        s2 = labels_to_set(fig1, "a", "c", "f")
        assert nt_extend(fig1, frozenset(), s2) == s2

    def test_fixed_point_on_omega(self, fig1):
        s = labels_to_set(fig1, "b", "d", "e")
        assert nt_extend(fig1, s, s) == s

    def test_bad_s1(self, fig1):
        with pytest.raises(NotInPsiError):
            nt_extend(fig1, labels_to_set(fig1, "c"), labels_to_set(fig1, "a", "c", "f"))

    def test_bad_s2(self, fig1):
        with pytest.raises(NotMaximumError):
            nt_extend(fig1, labels_to_set(fig1, "a"), labels_to_set(fig1, "a", "c"))

    def test_empty_graph_extends_the_empty_set(self):
        # on no vertices the empty set is the one maximum stable set, and N[{}]
        # covers every vertex: both routes answer it
        g = Graph([])
        assert enumerate_omega(g) == [frozenset()]
        for oracle in (None, SubsetOracle(g)):
            assert nt_extend(g, set(), set(), oracle) == frozenset()

    def test_searches_only_the_core_past_the_cap(self):
        # s2 is checked as a member whose N[S] is every vertex, with no
        # whole-graph alpha: a path of 40 with a chord peels to nothing and
        # answers; on 10 disjoint triangles a non-maximal s2 is refused before
        # any search, and a maximum one only by the search of the 30-vertex core
        chorded = Graph([f"v{i}" for i in range(40)], [(i, i + 1) for i in range(39)] + [(0, 2)])
        assert nt_extend(chorded, {1}, set(range(1, 40, 2))) == set(range(1, 40, 2))
        with pytest.raises(NotMaximumError):
            nt_extend(chorded, {1}, {1})
        triangles = Graph([f"t{i}" for i in range(30)], [(3 * k + i, 3 * k + j) for k in range(10)
                                                         for i, j in ((0, 1), (1, 2), (0, 2))])
        for s2 in ({0}, {0, 1}):
            with pytest.raises(NotMaximumError):
                nt_extend(triangles, set(), s2)
        with pytest.raises(TooLargeForBruteForce, match="30 vertices"):
            nt_extend(triangles, set(), set(range(0, 30, 3)))

    def test_totality_on_random_graphs(self):
        rng = SplitMix64(19)
        for trial in range(25):
            g = random_graph(2 + rng.below(8), 25 + (trial % 4) * 15, rng)
            omega = naive_omega(g)
            for s1 in naive_psi(g):
                for s2 in omega:
                    assert nt_extend(g, s1, s2) in omega


class TestExchangeWitness:
    def test_p6_documented_instance(self, p6):
        w = exchange_witness(p6, labels_to_set(p6, "f"), labels_to_set(p6, "a", "c"))
        assert w.witness == p6.index_of("a")

    def test_fig7_small_counterexample(self):
        g = generate(FamilySpec("fig7", 6))
        s1, s2 = fig7_exchange_pair(6, "small")
        assert exchange_witness(g, s1, s2).witness is None

    def test_k2_from_empty(self, k2):
        assert exchange_witness(k2, frozenset(), {0}).witness == 0

    def test_size_mismatch(self, p6):
        with pytest.raises(SizeMismatchError):
            exchange_witness(p6, {0}, {0, 2, 5})

    def test_not_in_psi(self, p6):
        with pytest.raises(NotInPsiError):
            exchange_witness(p6, {2}, {0, 2})

    def test_scan_order_returns_first_index(self):
        # in a star, every pendant pair is in the family and both elements
        # extend a third pendant; the lower index must win
        g = Graph(["c", "x", "y", "z"], [(0, 1), (0, 2), (0, 3)])
        w = exchange_witness(g, {1}, {2, 3})
        assert w.witness == 2

    @given(st.one_of(forests(max_n=10), graphs(max_n=10)), st.data())
    def test_oracle_and_direct_agree(self, g, data):
        # every entry point answers alike (or raises alike) on both
        # membership routes, and both routes match the naive oracle
        oracle = SubsetOracle(g)
        members, omega = oracle.psi_masks(), oracle.omega_masks()
        any_set = st.integers(0, (1 << g.vertex_count) - 1)
        m1 = data.draw(st.one_of(st.sampled_from(members), any_set))
        bigger = [m for m in members if m.bit_count() == m1.bit_count() + 1]
        m2 = data.draw(st.one_of(st.sampled_from(bigger), any_set) if bigger else any_set)
        m_max = data.draw(st.one_of(st.sampled_from(omega), any_set))
        m_other = data.draw(st.one_of(st.sampled_from(members), any_set))
        s1, s2, s_max, s_other = map(set_of, (m1, m2, m_max, m_other))
        order = data.draw(st.permutations(sorted(s_other)))
        prefixes = tuple(frozenset(order[:i]) for i in range(1, len(order) + 1))
        for s in (s1, s2, s_max, s_other):
            assert (is_local_max_stable(g, s) == oracle.in_psi_mask(mask_of(s))
                    == naive_is_local_max_stable(g, s))

        def outcomes(route):
            def run(fn, *args, **kwargs):
                try:
                    return fn(*args, oracle=route, **kwargs)
                except AccessibilityFailure as exc:
                    return AccessibilityFailure, exc.stuck_set
                except (NotInPsiError, SizeMismatchError, NotMaximumError,
                        NotDisjointOrNotStableError, NotAForestError) as exc:
                    return type(exc)

            cert = ChainCertificate(g, prefixes, "greedy_peel")
            return [run(exchange_witness, g, s1, s2),
                    run(chain_decompose, g, s_other),
                    run(chain_decompose, g, s_other, "constructive"),
                    run(chain_is_valid, cert),
                    run(nt_extend, g, s1, s_max),
                    run(union_local_max, g, s1, s_other)]

        direct = outcomes(None)
        assert direct == outcomes(oracle)
        assert direct[3] == all(naive_is_local_max_stable(g, p) for p in prefixes)

    @pytest.mark.parametrize("route", ["direct", "oracle"])
    @pytest.mark.parametrize("bad", [99, -1, "a"])
    def test_chain_is_valid_rejects_foreign_vertices(self, p6, route, bad):
        oracle = SubsetOracle(p6) if route == "oracle" else None
        cert = ChainCertificate(p6, (frozenset({0}), frozenset({0, bad})), "greedy_peel")
        with pytest.raises(InvalidVertexError):
            chain_is_valid(cert, oracle=oracle)

    @pytest.mark.parametrize("route", ["direct", "oracle"])
    def test_prefix_chain_walk_gives_the_tuple_verdicts(self, p6, route):
        # a PrefixChain is checked along its join order, a tuple prefix by
        # prefix: the refusals and verdicts are the same
        oracle = SubsetOracle(p6) if route == "oracle" else None
        for bad in (99, -1, "a"):
            with pytest.raises(InvalidVertexError):
                chain_is_valid(ChainCertificate(p6, PrefixChain([0, bad]), "greedy_peel"),
                               oracle=oracle)
        for order, verdict in (([0, 0], False), ([0, 3], False), ([0, 2], True)):
            prefixes = tuple(frozenset(order[:i + 1]) for i in range(len(order)))
            for chain in (PrefixChain(order), prefixes):
                cert = ChainCertificate(p6, chain, "greedy_peel")
                assert chain_is_valid(cert, oracle=oracle) is verdict


class TestPrefixChainRefusals:
    """chain_is_valid on a PrefixChain reads plain ints in range without a
    call, and hands every other vertex to Graph._vertex: the refusal keeps
    its type, its message and its place along the order."""

    # a and b are pendants of two K2s, so {a}, then {a, b} are members
    TWO_K2 = Graph(["a", "b", "c", "d"], [(0, 2), (1, 3)])

    @pytest.mark.parametrize("route", ["direct", "oracle"])
    @pytest.mark.parametrize("bad, outcome", [
        ("numpy.int64(1)", True),
        (True, True),
        (-1, "vertex -1 out of range 0..3"),
        (4, "vertex 4 out of range 0..3"),
        (2.0, "vertex 2.0 is not an index"),
        (None, "vertex None is not an index"),
        ("1", "vertex '1' is not an index"),
    ], ids=["numpy-int64", "True", "-1", "n", "2.0", "None", "str"])
    def test_each_vertex_keeps_its_outcome(self, route, bad, outcome):
        if bad == "numpy.int64(1)":
            bad = pytest.importorskip("numpy").int64(1)
        g = self.TWO_K2
        oracle = SubsetOracle(g) if route == "oracle" else None
        cert = ChainCertificate(g, PrefixChain([0, bad]), "greedy_peel")
        if outcome is True:
            assert chain_is_valid(cert, oracle=oracle) is True
        else:
            with pytest.raises(InvalidVertexError) as e:
                chain_is_valid(cert, oracle=oracle)
            assert str(e.value) == outcome

    @pytest.mark.parametrize("route", ["direct", "oracle"])
    @pytest.mark.parametrize("order", [[0, 2, "x"], [0, 1, 0, None], [1, 2, 3, -1]],
                             ids=["edge", "repeated", "edge-later"])
    def test_a_prefix_failing_before_a_bad_vertex_returns_false(self, route, order):
        g = self.TWO_K2
        oracle = SubsetOracle(g) if route == "oracle" else None
        assert chain_is_valid(ChainCertificate(g, PrefixChain(order), "greedy_peel"),
                              oracle=oracle) is False


class TestRecords:
    """The records the calls return keep the behaviour of their classes,
    however the engine builds them."""

    @pytest.mark.parametrize("route", ["direct", "oracle"])
    def test_exchange_witness_is_a_plain_named_tuple(self, p6, route):
        oracle = SubsetOracle(p6) if route == "oracle" else None
        s1, s2 = frozenset({0}), frozenset({0, 5})
        w = exchange_witness(p6, s1, s2, oracle=oracle)
        assert type(w) is ExchangeWitness
        assert w == ExchangeWitness(s1, s2, 5) == (s1, s2, 5)
        assert (w.s1, w.s2, w.witness) == tuple(w) and len(w) == 3
        assert repr(w) == "ExchangeWitness(s1=frozenset({0}), s2=frozenset({0, 5}), witness=5)"
        absent = w._replace(witness=None)
        assert type(absent) is ExchangeWitness and absent == ExchangeWitness(s1, s2, None)
        assert hash(w) == hash(ExchangeWitness(s1, s2, 5))

    @pytest.mark.parametrize("strategy", ["greedy_peel", "constructive"])
    def test_chain_certificate_keeps_its_repr_equality_and_frozenness(self, p4, strategy):
        cert = chain_decompose(p4, {0, 2}, strategy, oracle=SubsetOracle(p4))
        prefixes = (frozenset({0}), frozenset({0, 2}))
        assert cert == ChainCertificate(graph=p4, chain=prefixes, strategy=strategy)
        assert repr(cert) == (f"ChainCertificate(graph=Graph(n=4, m=3), "
                              f"chain={prefixes!r}, strategy={strategy!r})")
        assert (cert.graph, cert.strategy) == (p4, strategy)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.strategy = "other"


class TestForeignOracle:
    """An oracle answers for the graph it was built for, never another."""

    CALLS = {
        "exchange_witness": lambda g, o: exchange_witness(g, set(), {0}, oracle=o),
        "nt_extend": lambda g, o: nt_extend(g, set(), {0, 2}, oracle=o),
        "union_local_max": lambda g, o: union_local_max(g, set(), {0}, oracle=o),
        "greedy_peel": lambda g, o: chain_decompose(g, {0, 2}, "greedy_peel", oracle=o),
        "constructive": lambda g, o: chain_decompose(g, {0, 2}, "constructive", oracle=o),
        "chain_is_valid tuple": lambda g, o: chain_is_valid(
            ChainCertificate(g, (frozenset({0}),), "greedy_peel"), oracle=o),
        "chain_is_valid PrefixChain": lambda g, o: chain_is_valid(
            ChainCertificate(g, PrefixChain([0, 2]), "greedy_peel"), oracle=o),
        "verify_greedoid": lambda g, o: verify_greedoid(g, oracle=o),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_oracle_of_another_forest_refused_with_its_text(self, p4, call):
        # two K2s on P4's labels: a forest whose family holds {0} and {0, 2}
        # too, so only the refusal, which comes first, tells them apart
        other = Graph(p4.labels, [(0, 1), (2, 3)])
        with pytest.raises(ValueError) as e:
            call(p4, SubsetOracle(other))
        assert str(e.value) == "oracle built for Graph(n=4, m=2), not for Graph(n=4, m=3)"

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_oracle_of_an_equal_forest_answers_like_its_own(self, p4, call):
        twin = path(4)
        assert twin == p4 and twin is not p4
        assert call(p4, SubsetOracle(twin)) == call(p4, SubsetOracle(p4)) == call(p4, None)

    @pytest.mark.parametrize("call", [
        lambda g, o: exchange_witness(g, set(), {0}, oracle=o),
        lambda g, o: nt_extend(g, set(), {0, 2}, oracle=o),
        lambda g, o: union_local_max(g, set(), set(), oracle=o),
        lambda g, o: chain_decompose(g, {0, 2}, oracle=o),
        lambda g, o: chain_is_valid(ChainCertificate(g, (frozenset({0}),), "greedy_peel"),
                                    oracle=o),
        lambda g, o: verify_greedoid(g, oracle=o),
    ], ids=["exchange_witness", "nt_extend", "union_local_max", "chain_decompose",
            "chain_is_valid", "verify_greedoid"])
    def test_oracle_of_another_graph_refused(self, c4, p4, call):
        # P4's family holds {0}, C4's does not: an unchecked P4 oracle made
        # exchange_witness return witness 0 and verify_greedoid report P4
        with pytest.raises(ValueError, match="oracle built for"):
            call(c4, SubsetOracle(p4))

    def test_oracle_of_an_equal_graph_accepted(self, c4):
        twin = cycle(4)
        assert twin == c4 and twin is not c4
        assert verify_greedoid(c4, oracle=SubsetOracle(twin)) == verify_greedoid(c4)
        assert nt_extend(c4, set(), {0, 2}, oracle=SubsetOracle(twin)) == {0, 2}


class TestChainDecompose:
    def test_fig4_both_strategies(self, fig4):
        s = labels_to_set(fig4, "a", "b", "c", "d", "e")
        for strategy in ("greedy_peel", "constructive"):
            cert = chain_decompose(fig4, s, strategy)
            assert cert.strategy == strategy
            assert len(cert.chain) == 5
            assert cert.chain[-1] == s
            assert chain_is_valid(cert)
            for prefix in cert.chain:
                assert naive_is_local_max_stable(fig4, prefix)

    def test_fig4_documented_chain_is_member_chain(self, fig4):
        # the chain pictured on the tree: a, ab, abc, abcd, abcde
        names = ["a", "b", "c", "d", "e"]
        for k in range(1, 6):
            assert naive_is_local_max_stable(fig4, labels_to_set(fig4, *names[:k]))

    def test_p8_chain(self):
        g = path(8)
        s = labels_to_set(g, "a", "c", "e", "h")
        cert = chain_decompose(g, s)
        assert len(cert.chain) == 4 and cert.chain[-1] == s
        assert chain_is_valid(cert)

    def test_fig1_greedy_gets_stuck(self, fig1):
        s = labels_to_set(fig1, "a", "c", "f")
        with pytest.raises(AccessibilityFailure) as exc:
            chain_decompose(fig1, s, "greedy_peel")
        assert exc.value.stuck_set == s

    def test_fig2_greedy_peel_on_non_forest(self, fig2):
        # not a forest, yet one maximum stable set peels greedily ...
        s = labels_to_set(fig2, "u", "v", "z", "x")
        cert = chain_decompose(fig2, s, "greedy_peel")
        assert chain_is_valid(cert) and cert.chain[-1] == s
        # ... while the other has chains (see the documented prefixes) but
        # the lowest-index-first peel walks into a dead end
        with pytest.raises(AccessibilityFailure) as exc:
            chain_decompose(fig2, labels_to_set(fig2, "u", "v", "y", "x"),
                            "greedy_peel")
        assert exc.value.stuck_set == labels_to_set(fig2, "y", "x")

    def test_fig2_documented_prefixes(self, fig2):
        for names in (("u",), ("u", "v"), ("u", "v", "z"), ("u", "v", "y")):
            assert naive_is_local_max_stable(fig2, labels_to_set(fig2, *names))

    def test_empty_set_chain(self, p6):
        for strategy in ("greedy_peel", "constructive"):
            cert = chain_decompose(p6, frozenset(), strategy)
            assert cert.chain == ()

    def test_not_in_psi_rejected(self, p6):
        with pytest.raises(NotInPsiError):
            chain_decompose(p6, labels_to_set(p6, "c", "f"))

    def test_constructive_needs_forest(self, fig1):
        with pytest.raises(NotAForestError):
            chain_decompose(fig1, labels_to_set(fig1, "a"), "constructive")

    def test_unknown_strategy(self, p6, fig1, monkeypatch):
        with pytest.raises(ValueError, match="^unknown strategy 'magic'$"):
            chain_decompose(p6, {0}, "magic")

        def no_membership(*args, **kwargs):
            raise AssertionError("membership checked before the strategy")

        # refused before any membership work: a non-member, and a target on
        # a graph with a cycle, which the check would search
        monkeypatch.setattr(stable_core, "psi_walk", no_membership)
        monkeypatch.setattr(greedoid_engine, "_membership", no_membership)
        for g, s in ((p6, {2, 5}), (fig1, labels_to_set(fig1, "a", "c", "f"))):
            with pytest.raises(ValueError, match="^unknown strategy 'magic'$"):
                chain_decompose(g, s, "magic")

    def test_constructive_recheck_catches_a_chain_outside_the_family(self, p6, monkeypatch):
        build = greedoid_engine._constructive_chain_order
        monkeypatch.setattr(greedoid_engine, "_constructive_chain_order",
                            lambda g, walk: build(g, walk)[::-1])
        s = frozenset({0, 2, 4})
        oracle = SubsetOracle(p6)
        with pytest.raises(InternalError, match="^constructive chain left the family$"):
            chain_decompose(p6, s, "constructive", oracle=oracle)
        cert = chain_decompose(p6, s, "constructive")  # no oracle: no re-check
        assert cert.chain == PrefixChain((4, 2, 0))
        assert not chain_is_valid(cert) and not chain_is_valid(cert, oracle=oracle)

    def test_strategies_agree_on_small_trees(self):
        for n in range(2, 7):
            for t in enumerate_labeled_trees(n):
                oracle = SubsetOracle(t)
                for s in enumerate_psi(t).members:
                    for strategy in ("greedy_peel", "constructive"):
                        cert = chain_decompose(t, s, strategy, oracle=oracle)
                        assert chain_is_valid(cert, oracle=oracle)
                        assert (cert.chain[-1] if cert.chain else frozenset()) == s

    def test_forest_with_isolated_and_components(self):
        g = Graph(["a", "b", "c", "d", "e", "x"],
                  [(0, 1), (1, 2), (3, 4)])  # P3 + K2 + isolated x
        s = frozenset({0, 2, 3, 5})  # a, c, d, x
        assert naive_is_local_max_stable(g, s)
        for strategy in ("greedy_peel", "constructive"):
            cert = chain_decompose(g, s, strategy)
            assert chain_is_valid(cert) and cert.chain[-1] == s

    def test_chains_beyond_the_enumeration_cap(self):
        # forests of any size are in scope for both strategies; build a
        # 60-vertex tree and chain a stable set of pairwise-distant pendants
        from lmss import is_stable, pendant_vertices
        g = generate(FamilySpec("random_tree", 60, seed=8))
        s, used = [], 0
        for v in sorted(pendant_vertices(g)):
            if not ((1 << v) & used or mask_of(g.neighbors(v)) & used):
                s.append(v)
                used |= (1 << v) | mask_of(g.neighbors(v))
        s = frozenset(s)
        assert len(s) >= 15 and is_stable(g, s)
        for strategy in ("greedy_peel", "constructive"):
            cert = chain_decompose(g, s, strategy)
            assert len(cert.chain) == len(s)
            assert cert.chain[-1] == s and chain_is_valid(cert)

    def test_strategies_on_random_forests(self):
        # multi-component forests, isolated vertices included
        for seed in range(40):
            g = generate(FamilySpec("random_forest", n=4 + seed % 9,
                                    seed=2600 + seed, delete_prob=0.3))
            oracle = SubsetOracle(g)
            for s in canonical_sets(oracle.psi_masks()):
                for strategy in ("greedy_peel", "constructive"):
                    cert = chain_decompose(g, s, strategy, oracle=oracle)
                    assert chain_is_valid(cert, oracle=oracle)
                    assert (cert.chain[-1] if cert.chain else frozenset()) == s


class TestVerifyGreedoid:
    def test_c4_accessibility_violations_exact(self, c4):
        report = verify_greedoid(c4)
        assert report.family_size == 3
        assert not report.accessibility_ok
        assert report.exchange_ok  # no adjacent-size pairs exist
        assert [sorted(s) for s in report.accessibility_violations] == [[0, 2], [1, 3]]

    def test_cycles_violate_at_every_maximum_set(self):
        for n in range(4, 9):
            g = cycle(n)
            report = verify_greedoid(g)
            assert not report.accessibility_ok
            assert naive_omega(g) <= set(report.accessibility_violations)

    def test_fig1_report(self, fig1):
        report = verify_greedoid(fig1)
        acf = labels_to_set(fig1, "a", "c", "f")
        de = labels_to_set(fig1, "d", "e")
        assert set(report.accessibility_violations) == {acf, de}
        # restricted to maximum stable sets the violation is exactly {a,c,f}
        assert set(report.accessibility_violations) & naive_omega(fig1) == {acf}
        assert (labels_to_set(fig1, "a"), de) in report.exchange_violations

    def test_fig7_exchange_violation(self):
        g = generate(FamilySpec("fig7", 6))
        report = verify_greedoid(g)
        assert not report.exchange_ok
        s1, s2 = fig7_exchange_pair(6, "small")
        assert (s1, s2) in report.exchange_violations

    def test_forests_are_greedoids(self):
        for n in range(2, 7):
            for t in enumerate_labeled_trees(n):
                report = verify_greedoid(t)
                assert report.accessibility_ok and report.exchange_ok
                assert not report.accessibility_violations
                assert not report.exchange_violations

    def test_report_matches_naive_on_random_graphs(self):
        rng = SplitMix64(21)
        for trial in range(15):
            g = random_graph(1 + rng.below(6), 35, rng)
            report = verify_greedoid(g)
            members = naive_psi(g)
            assert report.family_size == len(members)
            acc_bad = {s for s in members
                       if s and not any(s - {x} in members for x in s)}
            assert set(report.accessibility_violations) == acc_bad
            exch_bad = set()
            for x in members:
                for y in members:
                    if len(x) == len(y) + 1 and \
                            not any(y | {v} in members for v in x - y):
                        exch_bad.add((y, x))
            assert set(report.exchange_violations) == exch_bad
            assert report.accessibility_ok == (not acc_bad)
            assert report.exchange_ok == (not exch_bad)
