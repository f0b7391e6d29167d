"""Chains built as vertex join orders against the prefix-mask builders they
replaced, and the lazy PrefixChain view the certificates hold."""

import tracemalloc
from functools import partial

import pytest
from hypothesis import given, strategies as st

from lmss import (
    AccessibilityFailure,
    ChainCertificate,
    FamilySpec,
    Graph,
    NotAForestError,
    NotInPsiError,
    SubsetOracle,
    TooLargeForBruteForce,
    alpha,
    chain_decompose,
    chain_is_valid,
    enumerate_labeled_trees,
    generate,
)
from lmss import graph_core, greedoid_engine, stable_core
from lmss.greedoid_engine import PrefixChain
from lmss.graph_core import closed_neighborhood, decompose, mask_of, mask_of_flags, set_of
from lmss.stable_core import is_local_max_stable, psi_walk
from conftest import (
    forests,
    graphs,
    naive_constructive_chain_masks,
    naive_greedy_peel_masks,
    naive_nested_sets,
    two_pass_chain_order,
)


def greedy_outcome(build):
    """The chain, or the stuck set when greedy peeling gets stuck."""
    try:
        return "chain", build()
    except AccessibilityFailure as e:
        return "stuck", e.stuck_set


def test_constructive_chain_embeds_the_neighborhood_once():
    # star 0-{1,2,3} leaves 2 and 3 exposed, 4 is isolated, path 5-6-7
    # leaves 7 exposed: fresh partners 8..11 go to 2, 3, 4, 7 in that order,
    # so 8-2 is the star's first pendant K2 and 2 joins after 3
    g = Graph([f"v{i}" for i in range(8)], [(0, 1), (0, 2), (0, 3), (5, 6), (6, 7)])
    s = {1, 2, 3, 4, 5, 7}
    expected = [[1], [1, 3], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 7]]
    for oracle in (None, SubsetOracle(g)):
        chain = chain_decompose(g, s, "constructive", oracle=oracle).chain
        assert [sorted(m) for m in chain] == expected
        assert chain == naive_nested_sets(naive_constructive_chain_masks(g, mask_of(s)))


@given(forests(max_n=40), st.integers(0, (1 << 40) - 1))
def test_forest_chains_match_prefix_masks(g, bits):
    # any subset of the peel's alpha set that is a family member, else the
    # alpha set itself
    alpha_set = mask_of_flags(g.peel[0])
    target = alpha_set & bits
    if not psi_walk(g, target):
        target = alpha_set
    s = set_of(target)
    oracles = (None, SubsetOracle(g)) if g.vertex_count <= 14 else (None,)
    expected = {
        "greedy_peel": naive_greedy_peel_masks(partial(psi_walk, g), target),
        "constructive": naive_constructive_chain_masks(g, target),
    }
    for strategy, masks in expected.items():
        for oracle in oracles:
            cert = chain_decompose(g, s, strategy, oracle=oracle)
            assert cert.chain == naive_nested_sets(masks)


@given(graphs(max_n=10))
def test_greedy_chains_match_prefix_masks_on_graphs(g):
    oracle = SubsetOracle(g)
    for m in oracle.psi_masks():
        expected = greedy_outcome(
            lambda: naive_nested_sets(naive_greedy_peel_masks(oracle.in_psi_mask, m)))
        for o in (None, oracle):
            assert greedy_outcome(lambda: chain_decompose(g, set_of(m), oracle=o).chain) \
                == expected


# -- the lazy chain and the heap-driven peel ---------------------------------


def test_prefix_chain_reads_like_the_tuple_of_its_prefixes():
    chain = PrefixChain([4, 1, 7])
    prefixes = (frozenset({4}), frozenset({1, 4}), frozenset({1, 4, 7}))
    assert len(chain) == 3 and chain
    assert chain[0] == prefixes[0] and chain[-1] == prefixes[-1] and chain[-3] == prefixes[0]
    for i in (3, -4):
        with pytest.raises(IndexError):
            chain[i]
    assert chain[1:] == prefixes[1:] and chain[::-1] == prefixes[::-1] and chain[5:] == ()
    assert isinstance(chain[:2], tuple)
    assert list(chain) == list(prefixes)
    assert chain == prefixes and prefixes == chain
    assert chain != prefixes[:2] and prefixes[:2] != chain and chain != list(prefixes)
    assert chain == PrefixChain((4, 1, 7)) and chain != PrefixChain([1, 4, 7])
    assert hash(chain) == hash(prefixes) and repr(chain) == repr(prefixes)
    empty = PrefixChain([])
    assert not empty and len(empty) == 0 and empty == () and () == empty
    assert list(empty) == [] and repr(empty) == "()"


_BOUNDS = (None, *range(-6, 7))
_SLICES = [slice(a, b, c) for a in _BOUNDS for b in _BOUNDS
           for c in (None, 1, -1, 2, -2, 3, -3, 0)]


@pytest.mark.parametrize("length", range(6))
def test_prefix_chain_indexes_exactly_like_the_tuple_of_its_prefixes(length):
    # every index and slice gives the tuple's value or raises its exception type
    np = pytest.importorskip("numpy")
    order = [7, 2, 9, 0, 4][:length]
    chain = PrefixChain(order)
    prefixes = tuple(frozenset(order[:j + 1]) for j in range(length))
    keys = [*range(-7, 8), np.int64(-1), np.int8(2), True, False, 1.0, "1", None, *_SLICES]
    assert len(keys) == 1590
    for key in keys:
        try:
            expected = prefixes[key]
        except Exception as exc:
            with pytest.raises(type(exc)):
                chain[key]
        else:
            got = chain[key]
            assert type(got) is type(expected) and got == expected, key


def test_certificates_built_from_a_view_or_a_tuple_are_equal():
    g = Graph([f"v{i}" for i in range(6)], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    for strategy in ("greedy_peel", "constructive"):
        cert = chain_decompose(g, {1, 3, 5}, strategy)
        assert isinstance(cert.chain, PrefixChain)
        twin = ChainCertificate(g, tuple(cert.chain), strategy)
        assert cert == twin and twin == cert and hash(cert) == hash(twin)
        assert chain_is_valid(twin) and chain_is_valid(cert)


def test_pendant_joins_the_heap_when_its_neighbor_drops_to_degree_two():
    # spider: center 0 with pendant 1 and legs 0-2-3, 0-4-5, 0-6-7. 1 is no
    # candidate until legs 3 and 5 are peeled and 0 has degree two; then it
    # goes before 7, so 1 joins before the final K2's 7
    g = Graph([f"v{i}" for i in range(8)],
              [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7)])
    s = {1, 3, 5, 7}
    for oracle in (None, SubsetOracle(g)):
        chain = chain_decompose(g, s, "constructive", oracle=oracle).chain
        assert [sorted(m) for m in chain] == [[3], [3, 5], [1, 3, 5], [1, 3, 5, 7]]
        assert chain == naive_nested_sets(naive_constructive_chain_masks(g, mask_of(s)))


def test_constructive_certificate_memory_is_linear_in_the_set():
    # the certificate holds the join order; freezing all |S|(|S|+1)/2
    # prefix entries would take about 130 MB here
    g = generate(FamilySpec("random_forest", n=4000, seed=7, delete_prob=0.15))
    s = alpha(g).set
    tracemalloc.start()
    try:
        cert = chain_decompose(g, s, "constructive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.chain) == len(s) > 2000 and cert.chain[-1] == s
    assert peak < 5_000_000, peak


# -- the constructive route's one walk over N[S] -------------------------------


@given(forests(max_n=14), st.integers(0, (1 << 14) - 1))
def test_constructive_routes_give_equal_certificates(g, bits):
    alpha_set = mask_of_flags(g.peel[0])
    target = alpha_set & bits
    if not psi_walk(g, target):
        target = alpha_set
    s = set_of(target)
    assert chain_decompose(g, s, "constructive") == \
        chain_decompose(g, s, "constructive", oracle=SubsetOracle(g))


@pytest.mark.parametrize("edges, s, error", [
    ([(0, 1), (1, 2)], {0, 1}, NotInPsiError),  # not stable, on a forest
    ([(0, 1), (1, 2)], {1}, NotInPsiError),  # stable, no member: {0, 2} is larger in N[{1}]
    ([(0, 1), (1, 2), (0, 2), (0, 3)], {3}, NotAForestError),  # a member on a triangle
    ([(0, 1), (1, 2), (0, 2), (0, 3)], {0}, NotInPsiError),  # no member, on a triangle
    ([(0, 1), (1, 2), (0, 2), (0, 3)], {0, 1}, NotInPsiError),  # not stable, on a triangle
])
def test_constructive_refusals_keep_their_order(edges, s, error):
    g = Graph([f"v{i}" for i in range(4)], edges)
    for oracle in (None, SubsetOracle(g)):
        with pytest.raises(error):
            chain_decompose(g, s, "constructive", oracle=oracle)


def test_constructive_refuses_a_core_past_the_cap_first():
    # {1} is a member of the triangle with a pendant, and N[{1}] is the
    # triangle itself, a cyclic core of 3 vertices: with cap 2 the membership
    # check refuses it on both routes before the forest test runs, and an
    # oracle built for another graph is still refused before either
    g = Graph([f"v{i}" for i in range(4)], [(0, 1), (1, 2), (0, 2), (0, 3)])
    for oracle in (None, SubsetOracle(g)):
        with pytest.raises(TooLargeForBruteForce):
            chain_decompose(g, {1}, "constructive", oracle=oracle, cap=2)
        with pytest.raises(NotAForestError):
            chain_decompose(g, {1}, "constructive", oracle=oracle, cap=3)
    with pytest.raises(ValueError, match="oracle built for"):
        chain_decompose(g, {1}, "constructive", oracle=SubsetOracle(Graph(["a"])), cap=2)
    # the hub of the wheel W4 is no member, and N[hub] is the whole wheel, a
    # core of 5: the refusal comes before the verdict too
    wheel = Graph([f"w{i}" for i in range(5)],
                  [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)])
    for oracle in (None, SubsetOracle(wheel)):
        with pytest.raises(TooLargeForBruteForce):
            chain_decompose(wheel, {0}, "constructive", oracle=oracle, cap=4)
        with pytest.raises(NotInPsiError):
            chain_decompose(wheel, {0}, "constructive", oracle=oracle, cap=5)


def test_constructive_chain_peels_the_neighborhood_once(monkeypatch):
    # the membership check walks and peels N[S], and the chain reads that
    # peel on, with or without an oracle. On the alpha set N[S] is every
    # vertex, so the peel is g.peel, which alpha memoised: the chain and the
    # membership test peel nothing. The alpha set cut to one component is a
    # member whose N[S] misses a vertex, and N[S] is peeled once.
    cases = []
    for n, oracle in ((300, False), (12, True)):
        g = generate(FamilySpec("random_forest", n=n, seed=4, delete_prob=0.15))
        s = alpha(g).set  # g.peel memoised
        part = s & decompose(g).components[0]
        assert closed_neighborhood(g, part) != set(range(n)) and psi_walk(g, mask_of(part))
        cases.append((g, s, part, SubsetOracle(g) if oracle else None))
    peel = graph_core.leaf_peel
    calls = []

    def counted(nbrs, active):
        calls.append(len(active))
        return peel(nbrs, active)

    for module in (graph_core, stable_core, greedoid_engine):
        if hasattr(module, "leaf_peel"):
            monkeypatch.setattr(module, "leaf_peel", counted)
    for g, s, part, oracle in cases:
        calls.clear()
        cert = chain_decompose(g, s, "constructive", oracle=oracle)
        assert is_local_max_stable(g, s)
        assert calls == [] and cert.chain[-1] == s
        cert = chain_decompose(g, part, "constructive", oracle=oracle)
        assert calls == [g.vertex_count] and cert.chain[-1] == part


def _one_search_matches_two_passes(g, mask):
    assert (greedoid_engine._constructive_chain_order(g, psi_walk(g, mask))
            == two_pass_chain_order(g, psi_walk(g, mask)))


def test_chain_order_matches_the_two_pass_order_on_every_small_tree():
    for n in range(2, 8):
        for g in enumerate_labeled_trees(n):
            for m in SubsetOracle(g).psi_masks():
                _one_search_matches_two_passes(g, m)


@given(forests(max_n=10))
def test_chain_order_matches_the_two_pass_order_on_forest_members(g):
    for m in SubsetOracle(g).psi_masks():
        _one_search_matches_two_passes(g, m)


@given(forests(max_n=80))
def test_chain_order_matches_the_two_pass_order_on_the_alpha_set(g):
    _one_search_matches_two_passes(g, mask_of_flags(g.peel[0]))
