"""Chains built as vertex join orders against the prefix-mask builders they
replaced."""

from functools import partial

from hypothesis import given, strategies as st

from lmss import AccessibilityFailure, Graph, SubsetOracle, chain_decompose
from lmss.graph_core import mask_of, set_of
from lmss.stable_core import in_psi_mask
from conftest import (
    forests,
    graphs,
    naive_constructive_chain_masks,
    naive_greedy_peel_masks,
    naive_nested_sets,
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
    target = g.peel[0] & bits
    if not in_psi_mask(g, target):
        target = g.peel[0]
    s = set_of(target)
    oracles = (None, SubsetOracle(g)) if g.vertex_count <= 14 else (None,)
    expected = {
        "greedy_peel": naive_greedy_peel_masks(partial(in_psi_mask, g), target),
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
