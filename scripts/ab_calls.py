"""Time the oracle route's public calls in two lmss trees, call by call.

    python scripts/ab_calls.py [--a SRC] [--b SRC] [--seconds S] [--trees K]

Imports the package SRC/lmss of each side under its own name, lmss_a and
lmss_b; lmss uses only relative imports, so the two trees never mix. Both
default to the src directory next to this script, so a run without --a and
--b times the checkout against itself: the null experiment, whose ratios
show the harness's own noise.

On every family member of K fixed random 8-vertex trees (seeds 0..K-1) it
times, with each side's SubsetOracle passed in:

- chain_decompose with the constructive and the greedy_peel strategy;
- chain_is_valid on the certificates of both strategies;
- exchange_witness on every size-adjacent pair of members;
- nt_extend with every member as s1 and every maximum stable set as s2;
- set_of on every member mask;
- SubsetOracle plus verify_greedoid, on graphs built afresh outside the
  timer, so the subset tables are built inside it.

One block is one pass of one side over one call's inputs, with the cyclic
collector off. The sides alternate block by block, and which side goes
first alternates by round, until --seconds of wall time have passed (at
least three rounds). Prints one line per call: microseconds per call on
each side (median over rounds), the median and quartiles of the per-round
ratio b/a, and the rounds b was faster in; the last line is one JSON
object with the same figures. Exits 1 if the two sides give a different
answer (compared by repr) on any call in the first round.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import pathlib
import statistics
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CALLS = ("chain_decompose constructive", "chain_decompose greedy_peel", "chain_is_valid",
         "exchange_witness", "nt_extend", "set_of", "SubsetOracle + verify_greedoid")
MIN_ROUNDS = 3


def load(name: str, src) -> object:
    """The package src/lmss, imported as ``name``."""
    path = pathlib.Path(src, "lmss")
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py",
                                                  submodule_search_locations=[str(path)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


class Side:
    """One lmss tree with the inputs of every timed call built from it."""

    def __init__(self, name: str, src, trees: int):
        lm = self.lm = load(name, src)
        self.set_of = lm.graph_core.set_of
        self.graphs = [lm.generate(lm.FamilySpec("random_tree", n=8, seed=i))
                       for i in range(trees)]
        self.items = []  # (g, oracle, member set)
        self.masks = []
        self.pairs = []  # (g, oracle, smaller, larger)
        self.extensions = []  # (g, oracle, member, maximum set)
        for g in self.graphs:
            oracle = lm.SubsetOracle(g)
            by_size = {}
            for m in oracle.psi_masks():
                s = self.set_of(m)
                self.masks.append(m)
                self.items.append((g, oracle, s))
                by_size.setdefault(len(s), []).append(s)
            self.pairs += [(g, oracle, y, x) for k, ys in by_size.items() for y in ys
                           for x in by_size.get(k + 1, ())]
            self.extensions += [(g, oracle, s1, s2) for ss in by_size.values() for s1 in ss
                                for s2 in by_size[max(by_size)]]
        self.certs = [(lm.chain_decompose(g, s, strategy, oracle=oracle), oracle)
                      for g, oracle, s in self.items
                      for strategy in ("constructive", "greedy_peel")]

    def block(self, call: str) -> tuple[int, int, list]:
        """One pass over ``call``'s inputs: (nanoseconds, calls, results)."""
        lm = self.lm
        fresh = None
        if call == "SubsetOracle + verify_greedoid":
            fresh = [lm.Graph(g.labels, g.edges) for g in self.graphs]
        gc.disable()
        t0 = time.perf_counter_ns()
        if call == "chain_decompose constructive":
            out = [lm.chain_decompose(g, s, "constructive", oracle=o) for g, o, s in self.items]
        elif call == "chain_decompose greedy_peel":
            out = [lm.chain_decompose(g, s, "greedy_peel", oracle=o) for g, o, s in self.items]
        elif call == "chain_is_valid":
            out = [lm.chain_is_valid(c, oracle=o) for c, o in self.certs]
        elif call == "exchange_witness":
            out = [lm.exchange_witness(g, y, x, oracle=o) for g, o, y, x in self.pairs]
        elif call == "nt_extend":
            out = [lm.nt_extend(g, s1, s2, oracle=o) for g, o, s1, s2 in self.extensions]
        elif call == "set_of":
            out = list(map(self.set_of, self.masks))
        else:
            out = [lm.verify_greedoid(g, oracle=lm.SubsetOracle(g)) for g in fresh]
        ns = time.perf_counter_ns() - t0
        gc.enable()
        return ns, len(out), out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--a", default=str(SRC), help="src directory of side a (default: this checkout)")
    p.add_argument("--b", default=str(SRC), help="src directory of side b (default: this checkout)")
    p.add_argument("--seconds", type=float, default=20.0, help="wall-time budget of the timing")
    p.add_argument("--trees", type=int, default=40, help="number of fixed 8-vertex trees")
    args = p.parse_args(argv)
    sides = (Side("lmss_a", args.a, args.trees), Side("lmss_b", args.b, args.trees))
    ns = {call: ([], []) for call in CALLS}
    counts = {}
    disagree = []
    deadline = time.perf_counter() + args.seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        for call in CALLS:
            order = (0, 1) if r % 2 == 0 else (1, 0)
            outs = [None, None]
            for i in order:
                t, counts[call], outs[i] = sides[i].block(call)
                ns[call][i].append(t)
            if r == 0 and list(map(repr, outs[0])) != list(map(repr, outs[1])):
                disagree.append(call)
        r += 1
    rows = {}
    print(f"{'call':32} {'calls':>6} {'a us':>8} {'b us':>8} {'b/a':>7} {'q1':>7} {'q3':>7}"
          f"  b faster")
    for call in CALLS:
        ta, tb = ns[call]
        ratios = [b / a for a, b in zip(ta, tb)]
        q1, med, q3 = statistics.quantiles(ratios, n=4)  # MIN_ROUNDS gives it enough points
        per_a = statistics.median(ta) / counts[call] / 1e3
        per_b = statistics.median(tb) / counts[call] / 1e3
        faster = sum(b < a for a, b in zip(ta, tb))
        rows[call] = {"calls": counts[call], "a_us": round(per_a, 3), "b_us": round(per_b, 3),
                      "ratio_median": round(med, 4), "ratio_q1": round(q1, 4),
                      "ratio_q3": round(q3, 4), "b_faster": faster, "rounds": r}
        print(f"{call:32} {counts[call]:6d} {per_a:8.3f} {per_b:8.3f} {med:7.4f} {q1:7.4f}"
              f" {q3:7.4f}  {faster}/{r}")
    for call in disagree:
        print(f"ab_calls: the two sides disagree on {call}", file=sys.stderr)
    print(json.dumps({"a": args.a, "b": args.b, "trees": args.trees, "rounds": r,
                      "python": sys.version.split()[0], "calls": rows,
                      "disagree": disagree}))
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
