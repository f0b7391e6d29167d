"""Chains built as vertex join orders against the prefix-mask builders they
replaced."""

from functools import partial

from hypothesis import given, strategies as st

from lmss import AccessibilityFailure, SubsetOracle, chain_decompose
from lmss.graph_core import set_of
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
