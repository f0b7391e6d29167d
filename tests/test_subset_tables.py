"""The subset tables behind SubsetOracle: built once per Graph, freed with it,
and equal to the per-subset loops and naive oracles they replace."""

import gc
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from lmss import (
    Graph,
    SubsetOracle,
    TooLargeForEnumeration,
    alpha,
    enumerate_omega,
    enumerate_psi,
    verify_greedoid,
)
from lmss import greedoid_engine, stable_core
from lmss.graph_core import mask_of
from lmss.greedoid_engine import GreedoidReport
from lmss.stable_core import canonical_sets
from conftest import (
    cycle,
    disjoint_unions,
    forests,
    graphs,
    naive_alpha,
    naive_exchange_violations,
    naive_omega,
    naive_psi,
    naive_subset_tables,
    path,
)


def _lattice_graph(n, edges=()):
    return Graph([f"v{i}" for i in range(n)], edges)


class TestOneTablePerGraph:
    def test_built_once_across_every_reader(self, monkeypatch):
        built = []
        real = stable_core._build_tables
        monkeypatch.setattr(stable_core, "_build_tables",
                            lambda g: built.append(g) or real(g))
        g = cycle(7)
        SubsetOracle(g)
        enumerate_psi(g)
        enumerate_omega(g)
        verify_greedoid(g)
        SubsetOracle(g, cap=7).alpha()
        assert built == [g]
        # the cache belongs to the graph object, not to its value
        twin = cycle(7)
        assert twin == g and twin is not g
        SubsetOracle(twin)
        assert len(built) == 2

    @pytest.mark.parametrize("reader", [SubsetOracle, enumerate_psi, enumerate_omega,
                                        verify_greedoid])
    def test_cap_checked_before_the_cache(self, reader, monkeypatch):
        built = []
        real = stable_core._build_tables
        monkeypatch.setattr(stable_core, "_build_tables",
                            lambda g: built.append(g) or real(g))
        g = cycle(9)
        SubsetOracle(g)
        assert built == [g]  # the tables exist before the capped call
        with pytest.raises(TooLargeForEnumeration):
            reader(g, cap=g.vertex_count - 1)
        assert built == [g]

    @pytest.mark.parametrize("reader", [SubsetOracle, enumerate_psi, enumerate_omega,
                                        verify_greedoid])
    def test_tables_that_do_not_fit_in_memory_are_refused(self, reader, monkeypatch):
        def out_of_memory(g):
            raise MemoryError
        monkeypatch.setattr(stable_core, "_build_tables", out_of_memory)
        g = cycle(9)
        with pytest.raises(TooLargeForEnumeration, match=r"^the subset tables of 9 vertices "
                                                         r"\(2\^9 entries\) do not fit in memory$"):
            reader(g)
        monkeypatch.undo()
        assert "subset_tables" not in g._memo  # the failed build is not memoised
        assert len(SubsetOracle(g).psi_masks()) == len(naive_psi(g))

    def test_dropping_the_graph_frees_its_tables(self):
        # no cycle may keep the tables alive: with the cyclic collector off,
        # they must go the moment the last reference to the graph does
        g = cycle(16)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            SubsetOracle(g)
            enumerate_psi(g)
            verify_greedoid(g)
            held = tracemalloc.get_traced_memory()[0] - before
            assert held >= 1 << 16  # at least the one-byte-per-subset alpha table
            del g
            assert tracemalloc.get_traced_memory()[0] - before < held // 16
        finally:
            tracemalloc.stop()
            gc.enable()


class TestLaneBuild:
    """The big-integer lane build against the per-subset loop it replaced."""

    @staticmethod
    def _check(g):
        alpha, flags = naive_subset_tables(g)
        n = g.vertex_count
        oracle = SubsetOracle(g, cap=n)
        assert bytes(oracle.alpha_of(m) for m in range(1 << n)) == alpha
        assert oracle.psi_flags() == flags
        assert oracle.psi_masks() == sorted((m for m in range(1 << n) if flags[m]),
                                            key=int.bit_count)
        a = alpha[-1] if n else 0
        assert oracle.omega_masks() == [m for m in range(1 << n)
                                        if alpha[m] == a and m.bit_count() == a]
        assert all(oracle.in_psi_mask(m) == flags[m] for m in range(1 << n))

    @given(st.one_of(graphs(max_n=13), forests(max_n=13)))
    def test_matches_the_per_subset_loop(self, g):
        self._check(g)

    @pytest.mark.parametrize("g", [
        _lattice_graph(0),
        _lattice_graph(1),
        _lattice_graph(14),
        _lattice_graph(14, [(u, v) for u in range(14) for v in range(u + 1, 14)]),
        _lattice_graph(15, [(v, (v * 7 + 3) % 15) for v in range(15) if (v * 7 + 3) % 15 != v]),
    ], ids=["empty", "k1", "edgeless14", "k14", "circulant15"])
    def test_matches_the_per_subset_loop_at_the_extremes(self, g):
        self._check(g)


class TestAgainstNaiveOracles:
    @given(st.one_of(graphs(max_n=10), forests(max_n=10)))
    def test_families_and_violations(self, g):
        self._check(g)

    @given(disjoint_unions())
    def test_direct_sums(self, g):
        # the component route when every part passes, the whole-family scan
        # when some part (a cycle, mostly) fails
        self._check(g)

    @staticmethod
    def _check(g):
        psi = naive_psi(g)
        assert alpha(g).size == naive_alpha(g)
        assert list(enumerate_psi(g).members) == canonical_sets(map(mask_of, psi))
        assert enumerate_omega(g) == canonical_sets(map(mask_of, naive_omega(g)))
        report = verify_greedoid(g)
        acc_bad = {s for s in psi if s and not any(s - {x} in psi for x in s)}
        assert report.family_size == len(psi)
        assert list(report.accessibility_violations) == canonical_sets(map(mask_of, acc_bad))
        exch_bad = naive_exchange_violations(g, psi)
        assert list(report.exchange_violations) == exch_bad
        assert report.accessibility_ok == (not acc_bad)
        assert report.exchange_ok == (not exch_bad)

    @given(forests(max_n=14))
    def test_forests_satisfy_both_axioms(self, g):
        report = verify_greedoid(g)
        assert report.accessibility_ok and report.exchange_ok
        # the forest peel's alpha agrees with the exhaustive table
        assert alpha(g).size == SubsetOracle(g).alpha()

    def test_exchange_scan_on_a_large_family(self):
        # the grouped scan against the pair-by-pair one where many Ys share
        # an extension mask: K2s and isolated vertices multiply the family
        # (324 members), and the 4-cycle brings 2200 violations
        g = _lattice_graph(12, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (6, 7), (8, 9)])
        report = verify_greedoid(g)
        family = set(enumerate_psi(g).members)
        assert len(family) == 324 and len(report.exchange_violations) == 2200
        assert list(report.exchange_violations) == naive_exchange_violations(g, family)
        assert verify_greedoid(path(14)).exchange_ok

    def test_exchange_scan_when_every_extension_mask_differs(self):
        # edgeless: every set is a member and its extension mask is its own
        # complement, so no two Ys share a mask; a mask that leaves at most
        # k vertices out is never tested against the members of size k + 1
        g = _lattice_graph(16)
        oracle = SubsetOracle(g)
        t0 = time.process_time()
        report = verify_greedoid(g, oracle=oracle)
        seconds = time.process_time() - t0
        assert report.family_size == 1 << 16
        assert report.accessibility_ok and report.exchange_ok
        assert seconds < 1.5

    def test_extension_masks_are_held_one_size_class_at_a_time(self):
        g = _lattice_graph(14)
        oracle = SubsetOracle(g)
        tracemalloc.start()
        try:
            assert verify_greedoid(g, oracle=oracle).family_size == 1 << 14
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1.1 MB; with a size class's masks kept beside its lanes it
        # is 1.36 MB, and with one map over the whole family about 2 MB
        assert peak < 1.25e6


class TestDirectSums:
    """verify_greedoid checks a graph of several components component by
    component, and scans the whole family only when one of them fails."""

    @pytest.fixture
    def scans(self, monkeypatch):
        sizes = []
        real = greedoid_engine._scan
        monkeypatch.setattr(greedoid_engine, "_scan",
                            lambda n, flags, members: sizes.append(len(members))
                            or real(n, flags, members))
        return sizes

    def test_a_connected_graph_takes_one_whole_family_scan(self, scans):
        for g in (cycle(7), path(9), _lattice_graph(1), _lattice_graph(0)):
            scans.clear()
            report = verify_greedoid(g)
            assert scans == [report.family_size]

    def test_greedoid_components_take_no_whole_family_scan(self, scans):
        # P3 + P4 + K2 + 3 isolated vertices: 4 * 6 * 3 * 2^3 members
        g = _lattice_graph(12, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (7, 8)])
        report = verify_greedoid(g)
        assert report == GreedoidReport(576, True, True, (), ())
        assert scans == [4, 6, 3]  # each part's own family, the empty set included

    def test_a_failing_component_takes_the_whole_family_scan(self, scans):
        # C4 fails accessibility, and exchange fails across components too
        g = _lattice_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (6, 7)])
        report = verify_greedoid(g)
        assert report.family_size == 27
        assert scans[-1] == report.family_size and scans.count(report.family_size) == 1
        assert report.accessibility_violations == (frozenset({0, 2}), frozenset({1, 3}))
        assert (frozenset({4}), frozenset({0, 2})) in report.exchange_violations

    def test_a_failing_component_after_a_passing_one_stops_the_route(self, scans):
        # P3 + C4 + K2: P3's part passes, C4's part fails, and the whole
        # family follows without scanning K2's part
        g = _lattice_graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
        report = verify_greedoid(g)
        assert report.family_size == 36 and not report.accessibility_ok
        assert scans == [4, 3, 36]

    def test_one_component_beside_isolated_vertices_is_scanned_as_a_part(self, scans):
        # P3 + 2 isolated vertices: P3's part passes, so the report is exact
        report = verify_greedoid(_lattice_graph(5, [(0, 1), (1, 2)]))
        assert report == GreedoidReport(16, True, True, (), ())
        assert scans == [4]
        # C4 + 2 isolated vertices: C4's part fails, and the whole family follows
        scans.clear()
        report = verify_greedoid(_lattice_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert scans == [3, 12]
        assert report.accessibility_violations == (frozenset({0, 2}), frozenset({1, 3}))
        assert len(report.exchange_violations) == 8

    def test_no_table_beyond_the_graphs_own(self, monkeypatch):
        built = []
        real = stable_core._build_tables
        monkeypatch.setattr(stable_core, "_build_tables",
                            lambda g: built.append(g) or real(g))
        g = _lattice_graph(10, [(0, 1), (2, 3), (3, 4), (6, 7), (7, 8), (8, 6)])
        verify_greedoid(g)
        verify_greedoid(g, oracle=SubsetOracle(g))
        assert built == [g]

    def test_three_disjoint_edges_in_bounded_time(self):
        # the whole-family scan takes about 2 s of CPU on this graph: 110 592
        # members, each Y's extension mask distinct
        g = _lattice_graph(18, [(0, 1), (2, 3), (4, 5)])
        oracle = SubsetOracle(g)
        t0 = time.process_time()
        report = verify_greedoid(g, oracle=oracle)
        seconds = time.process_time() - t0
        assert report == GreedoidReport(110592, True, True, (), ())
        assert seconds < 0.3

    def test_enumerate_psi_is_the_product_of_the_parts(self):
        g = _lattice_graph(18, [(0, 1), (2, 3), (4, 5)])
        family = [frozenset()]
        for part in ([0, 1], [2, 3], [4, 5], *([v] for v in range(6, 18))):
            family = [s | {v} for s in family for v in part] + family
        expected = sorted(family, key=lambda s: (len(s), tuple(sorted(s))))
        assert list(enumerate_psi(g).members) == expected
