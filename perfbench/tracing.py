"""Spans recorded around the benchmark's calls into lmss, and the per-layer
metrics derived from them.

Spans live in flat arrays (name id, start, end, parent, count) so that a
traced tree_sweep pass of about a million calls stays within a few tens of
megabytes; they are written to disk once, after the traced pass ends.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import Counter

ITEM = "item"


class Tracer:
    """Open/close spans with parent links; nothing is written until dump()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.count = array("q")
        self._open = -1

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_item(self) -> int:
        """The span of one workload item; layer spans opened inside it are
        its children."""
        return self.open_id(self._nid(ITEM))

    def open_id(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open)
        self.count.append(0)
        self.end.append(0.0)
        self._open = idx
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open = self.parent[idx]

    def label(self, idx: int, name: str | None = None, count: int = 0) -> None:
        """Rename a closed span (to add a variant) and attach a count."""
        if name is not None:
            self.name_id[idx] = self._nid(name)
        self.count[idx] = count

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans as one JSON header line plus raw arrays."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = dict(meta, names=self.names, spans=len(self.start),
                      arrays=["name_id:l", "start:d", "end:d", "parent:l", "count:q"])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent, self.count):
                arr.tofile(fh)

    # -- aggregation ----------------------------------------------------

    def totals(self):
        """Per span name: (busy seconds, calls, summed count)."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        counts: Counter = Counter()
        names = self.names
        for nid, s, e, c in zip(self.name_id, self.start, self.end, self.count):
            name = names[nid]
            busy[name] += e - s
            calls[name] += 1
            counts[name] += c
        return busy, calls, counts

    def top_level_busy(self) -> float:
        """Time covered by layer spans that sit directly under an item."""
        item = self._ids.get(ITEM, -2)
        nid, par = self.name_id, self.parent
        total = 0.0
        for i, p in enumerate(par):
            if p >= 0 and nid[p] == item and nid[i] != item:
                total += self.end[i] - self.start[i]
        return total


def traced(tracer: Tracer, name: str, fn, annotate=None):
    """Wrap ``fn`` so each call records a span named ``name``.

    ``annotate(result, args, kwargs)`` may return (variant or None, count);
    it runs after the span is closed, so its cost is tracing overhead.
    """
    nid = tracer._nid(name)

    def wrapper(*args, **kwargs):
        idx = tracer.open_id(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if annotate is not None:
            variant, count = annotate(result, args, kwargs)
            tracer.label(idx, None if variant is None else f"{name}.{variant}", count)
        return result

    return wrapper


# name in BENCHMARK.json -> (span name, statistic, unit)
LAYER_METRICS = {
    "graph_families.generate.busy_s": ("graph_families.generate", "busy", "s"),
    "cli_io.parse_graph.busy_s": ("cli_io.parse_graph", "busy", "s"),
    "cli_io.parse_graph.bytes": ("cli_io.parse_graph", "sum", "bytes"),
    "cli_io.emit.busy_s": ("cli_io.emit", "busy", "s"),
    "cli_io.emit.bytes": ("cli_io.emit", "sum", "bytes"),
    "stable_core.alpha.forest_dp.busy_s": ("stable_core.alpha.forest_dp", "busy", "s"),
    "stable_core.alpha.brute_force.busy_s": ("stable_core.alpha.brute_force", "busy", "s"),
    "stable_core.is_local_max_stable.busy_s": ("stable_core.is_local_max_stable", "busy", "s"),
    "stable_core.is_local_max_stable.calls": ("stable_core.is_local_max_stable", "calls", "count"),
    "stable_core.SubsetOracle.busy_s": ("stable_core.SubsetOracle", "busy", "s"),
    "stable_core.SubsetOracle.entries": ("stable_core.SubsetOracle", "sum", "count"),
    "stable_core.psi_masks.busy_s": ("stable_core.psi_masks", "busy", "s"),
    "stable_core.psi_masks.members": ("stable_core.psi_masks", "sum", "count"),
    "stable_core.enumerate_omega.busy_s": ("stable_core.enumerate_omega", "busy", "s"),
    "tree_matching.maximum_matching.busy_s": ("tree_matching.maximum_matching", "busy", "s"),
    "tree_matching.internal_cover_matching.busy_s":
        ("tree_matching.internal_cover_matching", "busy", "s"),
    "tree_matching.verify_konig_egervary.busy_s":
        ("tree_matching.verify_konig_egervary", "busy", "s"),
    "perfect_embedding.embed_perfect.busy_s": ("perfect_embedding.embed_perfect", "busy", "s"),
    "perfect_embedding.embed_perfect.added_edges":
        ("perfect_embedding.embed_perfect", "sum", "count"),
    "greedoid_engine.verify_greedoid.busy_s": ("greedoid_engine.verify_greedoid", "busy", "s"),
    "greedoid_engine.verify_greedoid.pairs": ("greedoid_engine.verify_greedoid", "sum", "count"),
    "greedoid_engine.exchange_witness.busy_s": ("greedoid_engine.exchange_witness", "busy", "s"),
    "greedoid_engine.exchange_witness.calls":
        ("greedoid_engine.exchange_witness", "calls", "count"),
    "greedoid_engine.exchange_witness.hit_ratio":
        ("greedoid_engine.exchange_witness", "ratio", "ratio"),
    "greedoid_engine.chain_decompose.greedy_peel.busy_s":
        ("greedoid_engine.chain_decompose.greedy_peel", "busy", "s"),
    "greedoid_engine.chain_decompose.constructive.busy_s":
        ("greedoid_engine.chain_decompose.constructive", "busy", "s"),
    "greedoid_engine.chain_is_valid.busy_s": ("greedoid_engine.chain_is_valid", "busy", "s"),
    "greedoid_engine.nt_extend.busy_s": ("greedoid_engine.nt_extend", "busy", "s"),
    "greedoid_engine.nt_extend.calls": ("greedoid_engine.nt_extend", "calls", "count"),
    "cli.main.busy_s": ("cli.main", "busy", "s"),
}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, from one traced pass.

    ``traced_wall`` and ``untraced_wall`` are the summed item times of the
    traced pass and of the untraced pass over the same items. The cli.main
    probe (in-process main over each subprocess argv) is work the untraced
    pass does not do, so it is taken out before comparing the two.
    """
    busy, calls, counts = tracer.totals()
    out = {}
    for metric, (span, stat, unit) in LAYER_METRICS.items():
        if stat == "busy":
            value = busy[span]
        elif stat == "calls":
            value = calls[span]
        elif stat == "sum":
            value = counts[span]
        else:
            value = counts[span] / calls[span] if calls[span] else 0.0
        out[metric] = {"value": value, "unit": unit}
    probe = busy["cli.main"]
    processes = calls["cli.process"]
    overhead_ms = ((busy["cli.process"] - busy["cli.main"]) / processes * 1e3
                   if processes else 0.0)
    out["cli.process_overhead_ms"] = {"value": overhead_ms, "unit": "ms"}
    out["trace.overhead_ratio"] = {
        "value": (traced_wall - probe) / untraced_wall - 1.0, "unit": "ratio"}
    out["trace.unattributed_s"] = {
        "value": traced_wall - tracer.top_level_busy(), "unit": "s"}
    return out
