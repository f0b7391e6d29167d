"""The lowest-pendant peel kernel against the quadratic scans it replaced."""

from hypothesis import given, strategies as st

from lmss import Graph, alpha, is_local_max_stable, maximum_matching
from lmss.graph_core import flags_of, leaf_peel, mask_of_flags
from conftest import (
    cycle,
    cyclic_cores,
    forests,
    graphs,
    naive_adjacency,
    naive_alpha_forest,
    naive_is_local_max_stable,
    naive_mask_matching_cover,
    naive_maximum_matching,
    path,
)


def peel(g: Graph, mask: int):
    """The kernel on the subgraph of ``g`` induced on ``mask``, with its
    taken and leftover flags read back as masks."""
    taken, pairs, leftover = leaf_peel(g._nbrs, flags_of(mask, g.vertex_count))
    return mask_of_flags(taken), pairs, mask_of_flags(leftover)


@st.composite
def graphs_with_probe(draw, max_n=12):
    """A random graph (cycles welcome) and a probe set, made stable greedily
    so most probes reach the neighborhood peel."""
    g = draw(graphs(max_n))
    n = g.vertex_count
    probe = set()
    for v in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        if not any(g.has_edge(v, u) for u in probe):
            probe.add(v)
    return g, frozenset(probe)


class TestKernel:
    def test_cycle_is_left_whole(self):
        g = cycle(5)
        full = (1 << g.vertex_count) - 1
        assert peel(g, full) == (0, (), full)

    def test_deleting_y_can_break_a_cycle(self):
        # triangle a-b-c with pendant d on a: d takes a, then b-c peels
        g = Graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert peel(g, (1 << g.vertex_count) - 1) == (0b1010, ((3, 0), (1, 2)), 0)

    def test_isolated_vertices_are_taken(self):
        g = Graph(["a", "b", "c", "d"], [(1, 2)])
        assert peel(g, (1 << g.vertex_count) - 1) == (0b1011, ((1, 2),), 0)

    def test_star_center_strands_its_leaves(self):
        g = Graph(["c", "x", "y", "z"], [(0, 1), (0, 2), (0, 3)])
        assert peel(g, (1 << g.vertex_count) - 1) == (0b1110, ((1, 0),), 0)

    def test_restricted_to_active(self):
        g = path(6)
        assert peel(g, 0b011110) == (0b001010, ((1, 2), (3, 4)), 0)

    def test_graph_memoises_its_peel(self):
        g = path(7)
        assert g.peel is g.peel
        assert g.peel == leaf_peel(g._nbrs, flags_of((1 << g.vertex_count) - 1, 7))


@given(forests(), st.integers(0, (1 << 80) - 1))
def test_forest_witnesses_match_quadratic_scans(g, universe_bits):
    assert alpha(g).set == naive_alpha_forest(g)
    assert maximum_matching(g).edges == naive_maximum_matching(g).edges
    full = (1 << g.vertex_count) - 1
    for u in (full, universe_bits & full):
        covered = 0
        for x, y in peel(g, u)[1]:
            covered |= (1 << x) | (1 << y)
        assert covered == naive_mask_matching_cover(naive_adjacency(g), u)


@given(st.one_of(graphs(), cyclic_cores(), forests()))
def test_graph_peel_is_the_kernels_output(g):
    # the memo keeps the kernel's flags as they are; no reader gets masks
    assert g.peel == leaf_peel(g._nbrs, flags_of((1 << g.vertex_count) - 1, g.vertex_count))


@given(graphs_with_probe())
def test_local_max_membership_matches_naive(case):
    g, probe = case
    assert is_local_max_stable(g, probe) == naive_is_local_max_stable(g, probe)
