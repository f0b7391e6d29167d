"""The four benchmark workloads: input generation, the timed item, and the
answer checks.

Each workload draws its inputs in rounds. Round r of seed s is a pure
function of (s, r), so every item is fresh while a run stays replayable.
``run`` is the only code inside an item's timing; it calls lmss only through
an ``Api`` so that a traced pass can put a span around every call. ``check``
runs after the timing stops and uses lmss directly, through routes that are
independent of the answer being checked wherever one is cheap enough.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

import lmss
import lmss.cli
from lmss import FamilySpec, Graph, SplitMix64
from lmss.cli_io import GraphDocument, to_jsonable
from lmss.graph_core import mask_of, set_of
from lmss.stable_core import canonical_sets

from tracing import traced

STRATEGIES = ("greedy_peel", "constructive")
MODES = ("any", "pendant_only")


def sub_seed(*keys) -> int:
    """A 64-bit seed derived from ``keys``; independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(repr(keys).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def shuffled(items, rng: SplitMix64) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def relabeled(n: int, edges, rng: SplitMix64) -> list:
    """``edges`` with the vertices 0..n-1 renumbered by a random permutation."""
    perm = shuffled(range(n), rng)
    return [(perm[u], perm[v]) for u, v in edges]


# Fixed draws that the run seed only relabels. For 8-vertex trees and for the
# oracle graphs the cost of an item is set by its shape, and the shapes of a
# fresh draw move the cost more than any change worth detecting: the 11th
# slowest of ten thousand random trees is whichever rare bushy trees came up,
# and the exchange scan on one (n, density) cell spans a factor of ten. A
# relabeling keeps the cost and changes every mask, witness and sample.
CORPUS_SEED = 20240917


# -- the traced surface ------------------------------------------------------


def _pairs_by_size(masks) -> int:
    sizes = Counter(m.bit_count() for m in masks)
    return sum(c * sizes.get(k + 1, 0) for k, c in sizes.items())


def run_cli_process(argv: list) -> subprocess.CompletedProcess:
    """``python -m lmss <argv>`` with the checkout's src on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lmss.__file__)))
    return subprocess.run([sys.executable, "-m", "lmss", *argv], env=env,
                          capture_output=True, timeout=120, check=False)


def run_cli_main(argv: list) -> tuple[int, bytes]:
    """``lmss.cli.main`` in this process, with its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lmss.cli.main(argv)
    return code, out.getvalue().encode()


# attribute -> (span name, callable, annotate(result, args, kwargs))
ENTRY_POINTS = {
    "generate": ("graph_families.generate", lmss.generate, None),
    "parse_graph": ("cli_io.parse_graph", lmss.parse_graph,
                    lambda r, a, k: (None, len(a[0]))),
    "emit": ("cli_io.emit", lmss.emit, lambda r, a, k: (None, len(r))),
    "SubsetOracle": ("stable_core.SubsetOracle", lmss.SubsetOracle,
                     lambda r, a, k: (None, 1 << r.n)),
    "psi_masks": ("stable_core.psi_masks", lmss.SubsetOracle.psi_masks,
                  lambda r, a, k: (None, len(r))),
    "alpha": ("stable_core.alpha", lmss.alpha, lambda r, a, k: (r.method, 0)),
    "is_local_max_stable": ("stable_core.is_local_max_stable",
                            lmss.is_local_max_stable, None),
    "enumerate_psi": ("stable_core.enumerate_psi", lmss.enumerate_psi, None),
    "enumerate_omega": ("stable_core.enumerate_omega", lmss.enumerate_omega, None),
    "maximum_matching": ("tree_matching.maximum_matching", lmss.maximum_matching, None),
    "internal_cover_matching": ("tree_matching.internal_cover_matching",
                                lmss.internal_cover_matching, None),
    "verify_konig_egervary": ("tree_matching.verify_konig_egervary",
                              lmss.verify_konig_egervary, None),
    "embed_perfect": ("perfect_embedding.embed_perfect", lmss.embed_perfect,
                      lambda r, a, k: (None, len(r.added_edges))),
    "verify_greedoid": ("greedoid_engine.verify_greedoid", lmss.verify_greedoid,
                        lambda r, a, k: (None, _pairs_by_size(k["oracle"].psi_masks()))),
    "exchange_witness": ("greedoid_engine.exchange_witness", lmss.exchange_witness,
                         lambda r, a, k: (None, int(r.witness is not None))),
    "chain_decompose": ("greedoid_engine.chain_decompose", lmss.chain_decompose,
                        lambda r, a, k: (r.strategy, 0)),
    "chain_is_valid": ("greedoid_engine.chain_is_valid", lmss.chain_is_valid, None),
    "nt_extend": ("greedoid_engine.nt_extend", lmss.nt_extend, None),
    "cli_process": ("cli.process", run_cli_process, None),
    "cli_main": ("cli.main", run_cli_main, None),
}


class Api:
    """The lmss entry points the workloads call; traced when given a tracer."""

    def __init__(self, tracer=None):
        self.tracing = tracer is not None
        for attr, (span, fn, annotate) in ENTRY_POINTS.items():
            setattr(self, attr, fn if tracer is None else traced(tracer, span, fn, annotate))


class Tally:
    """Operations attempted, wrong or raising, and expected negative outcomes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.expected = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


# -- tree_sweep --------------------------------------------------------------


class TreeSweep:
    """Labeled trees on 8 vertices through the acceptance sweep's per-tree
    mix, with the same tallies the acceptance suite asserts: a fixed uniform
    draw of 250 trees, relabeled afresh by the run seed in every round."""

    name = "tree_sweep"
    round_seconds = 0.6

    def setup(self, seed, api, workdir):
        return [api.generate(FamilySpec("random_tree", n=8, seed=sub_seed(CORPUS_SEED, i)))
                for i in range(250)]

    def make_round(self, corpus, seed, r, api):
        return [(g.labels, relabeled(8, g.edges, SplitMix64(sub_seed(seed, r, i))))
                for i, g in enumerate(corpus)]

    def run(self, api, inp):
        g = Graph(*inp)
        oracle = api.SubsetOracle(g)
        report = api.verify_greedoid(g, oracle=oracle)
        members = [set_of(m) for m in api.psi_masks(oracle)]
        chains = [api.chain_decompose(g, s, strategy, oracle=oracle)
                  for s in members for strategy in STRATEGIES]
        valid = [api.chain_is_valid(c, oracle=oracle) for c in chains]
        by_size = {}
        for s in members:
            by_size.setdefault(len(s), []).append(s)
        witnesses = [api.exchange_witness(g, y, x, oracle=oracle)
                     for k, ys in by_size.items() for y in ys
                     for x in by_size.get(k + 1, ())]
        ke = api.verify_konig_egervary(g)
        icm = api.internal_cover_matching(g)
        embeddings = [api.embed_perfect(g, mode) for mode in MODES]
        forest_alpha = api.alpha(g)
        return (g, oracle, report, members, chains, valid, witnesses, ke, icm,
                embeddings, forest_alpha)

    def check(self, inp, res, tally: Tally):
        (g, oracle, report, members, chains, valid, witnesses, ke, icm,
         embeddings, forest_alpha) = res
        tally.attempted += (6 + len(embeddings) + 2 * len(chains) + len(witnesses))
        a = oracle.alpha()
        tally.expect(report.accessibility_ok and report.exchange_ok
                     and report.family_size == len(members), "greedoid axioms on a tree")
        for i, (cert, ok) in enumerate(zip(chains, valid)):
            s = members[i // len(STRATEGIES)]
            tally.expect(ok and len(cert.chain) == len(s)
                         and (cert.chain[-1] if cert.chain else frozenset()) == s,
                         f"{cert.strategy} chain invalid or not ending at its target")
        for w in witnesses:
            ok = (w.witness is not None and w.witness in w.s2 - w.s1
                  and oracle.in_psi_mask(mask_of(w.s1) | 1 << w.witness))
            tally.expect(ok, "exchange witness missing or wrong on a tree")
        tally.expect(ke.identity_holds and ke.alpha == a and ke.mu == len(icm),
                     "alpha + mu = n on a tree")
        tally.expect(all(g.degree(v) <= 1 for v in range(g.vertex_count)
                         if v not in icm.covered), "internal vertex left exposed")
        for mode, emb in zip(MODES, embeddings):
            host = emb.host
            tally.expect(2 * len(lmss.maximum_matching(host)) == host.vertex_count
                         and lmss.alpha(host).size == a, f"{mode} host not perfect or alpha moved")
            if mode == "pendant_only":
                tally.expect(all(g.degree(u) <= 1 for u, _ in emb.added_edges),
                             "pendant_only edge at an internal vertex")
        tally.expect(forest_alpha.method == "forest_dp" and forest_alpha.size == a
                     and lmss.is_stable(g, forest_alpha.set), "forest alpha != oracle alpha")
        return {"edges": g.edges, "family": len(members),
                "alpha": sorted(forest_alpha.set),
                "chains": [[sorted(s) for s in c.chain] for c in chains],
                "witnesses": [w.witness for w in witnesses],
                "icm": icm.edges, "added": [e.added_edges for e in embeddings]}


# -- big_forest --------------------------------------------------------------


class BigForest:
    """Random forests of 256..1024 vertices through the forest pipeline."""

    name = "big_forest"
    round_seconds = 2.85
    sizes = (256, 384, 512, 640, 768, 896, 1024)

    def setup(self, seed, api, workdir):
        return None

    def make_round(self, state, seed, r, api):
        rng = SplitMix64(sub_seed(seed, r, "order"))
        return [api.generate(FamilySpec("random_forest", n=n, seed=sub_seed(seed, r, n),
                                        delete_prob=0.15))
                for n in shuffled(self.sizes, rng)]

    def run(self, api, g0):
        g = api.parse_graph(api.emit(g0, "text")).graph
        a = api.alpha(g)
        mm = api.maximum_matching(g)
        icm = api.internal_cover_matching(g)
        ke = api.verify_konig_egervary(g)
        embeddings = [api.embed_perfect(g, mode) for mode in MODES]
        cert = api.chain_decompose(g, a.set, "constructive")
        lms = api.is_local_max_stable(g, a.set)
        out = api.emit(embeddings[-1], "json")
        return g, a, mm, icm, ke, embeddings, cert, lms, out

    def check(self, g0, res, tally: Tally):
        g, a, mm, icm, ke, embeddings, cert, lms, out = res
        n = g.vertex_count
        tally.attempted += 11
        tally.expect(g == g0, "parse(emit(g)) != g")
        # a stable set and a matching with |S| + |M| = n are both optimal
        tally.expect(a.method == "forest_dp" and lmss.is_stable(g, a.set)
                     and a.size + len(mm) == n, "alpha witness not certified by the matching")
        for m in (mm, icm):
            tally.expect(len(m) == len(mm) and all(g.has_edge(u, v) for u, v in m.edges),
                         "matching has a non-edge or is not maximum")
        tally.expect(all(g.degree(v) <= 1 for v in range(n) if v not in icm.covered),
                     "internal vertex left exposed")
        tally.expect((ke.alpha, ke.mu, ke.order, ke.identity_holds, ke.has_perfect_matching)
                     == (a.size, len(mm), n, True, 2 * len(mm) == n), "ke report wrong")
        for mode, base, emb in zip(MODES, (mm, icm), embeddings):
            # base matching plus one pendant per exposed vertex is perfect, and
            # a perfect forest on n + k vertices has alpha (n + k) / 2 = alpha(g)
            host = emb.host
            exposed = [v for v in range(n) if v not in base.covered]
            ok = (host.labels[:n] == g.labels
                  and [v for v, _ in emb.added_edges] == exposed
                  and [w for _, w in emb.added_edges] == list(range(n, host.vertex_count))
                  and host.edge_count == g.edge_count + len(exposed)
                  and all(host.has_edge(v, w) for v, w in emb.added_edges))
            if mode == "pendant_only":
                ok = ok and all(g.degree(v) <= 1 for v in exposed)
            tally.expect(ok, f"{mode} embedding wrong")
        chain = cert.chain
        tally.expect(len(chain) == a.size and chain[-1] == a.set
                     and all(len(s) == i and (i == 1 or chain[i - 2] < s)
                             for i, s in enumerate(chain, 1))
                     and all(lmss.is_local_max_stable(g, chain[i])
                             for i in (0, len(chain) // 2)), "constructive chain invalid")
        tally.expect(lms is True, "maximum stable set not local-maximum")
        doc = json.loads(out)
        host = embeddings[-1].host
        tally.expect(doc["host"]["labels"] == list(host.labels)
                     and len(doc["added_edges"]) == len(embeddings[-1].added_edges),
                     "embedding JSON wrong")
        return {"n": n, "alpha": sorted(a.set), "mm": mm.edges, "icm": icm.edges,
                "added": [e.added_edges for e in embeddings],
                "chain": hashlib.sha256(repr([sorted(s) for s in chain]).encode()).hexdigest(),
                "json": hashlib.sha256(out.encode()).hexdigest()}


# -- oracle_lattice ----------------------------------------------------------

# (vertices, edge density in percent). The exchange scan of verify_greedoid
# grows with the square of the family, which is largest on sparse graphs:
# the (18, 8) draw has an 11 008-member family and spends about three
# quarters of its item there, while the other sparse cells sit at small n
# so that no single item fills a run.
CELLS = ((18, 8), (17, 12), (18, 17), (19, 22), (20, 27),
         (16, 32), (17, 37), (18, 42), (20, 46), (20, 50))
SAMPLES = 16


def random_non_forest(n: int, percent: int, rng: SplitMix64) -> list:
    """Edges of G(n, percent/100), redrawn until the graph has a cycle."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.below(1000) < 10 * percent]
        if not Graph([str(i) for i in range(n)], edges).is_forest:
            return edges


class OracleLattice:
    """Non-forest graphs on 16..20 vertices through the subset oracle and
    the exhaustive verifiers: one fixed draw per cell of CELLS, relabeled
    afresh by the run seed in every round."""

    name = "oracle_lattice"
    round_seconds = 6.0

    def setup(self, seed, api, workdir):
        return [random_non_forest(n, p, SplitMix64(sub_seed(CORPUS_SEED, n, p)))
                for n, p in CELLS]

    def make_round(self, corpus, seed, r, api):
        out = []
        for i, ((n, _), edges) in enumerate(zip(CELLS, corpus)):
            rng = SplitMix64(sub_seed(seed, r, i))
            out.append(([f"v{k + 1}" for k in range(n)], relabeled(n, edges, rng),
                        rng.next_u64()))
        return out

    def run(self, api, inp):
        labels, edges, sample_seed = inp
        g = Graph(labels, edges)
        rng = SplitMix64(sample_seed)
        oracle = api.SubsetOracle(g)
        masks = api.psi_masks(oracle)
        psi = api.enumerate_psi(g)
        omega = api.enumerate_omega(g)
        report = api.verify_greedoid(g, oracle=oracle)
        best = api.alpha(g)
        by_size = {}
        for m in masks:
            by_size.setdefault(m.bit_count(), []).append(m)
        lower = [m for m in masks if m.bit_count() + 1 in by_size]
        pairs = []
        for _ in range(SAMPLES if lower else 0):
            y = lower[rng.below(len(lower))]
            xs = by_size[y.bit_count() + 1]
            pairs.append((set_of(y), set_of(xs[rng.below(len(xs))])))
        witnesses = [api.exchange_witness(g, y, x, oracle=oracle) for y, x in pairs]
        extensions = []
        for _ in range(SAMPLES):
            s1 = set_of(masks[rng.below(len(masks))])
            s2 = omega[rng.below(len(omega))]
            extensions.append((s1, s2, api.nt_extend(g, s1, s2, oracle=oracle)))
        probes = [set_of(masks[rng.below(len(masks))]) if i % 2 else
                  frozenset(v for v in range(g.vertex_count) if rng.below(4) == 0)
                  for i in range(SAMPLES)]
        verdicts = [api.is_local_max_stable(g, s) for s in probes]
        return (g, oracle, masks, psi, omega, report, best, witnesses, extensions,
                probes, verdicts)

    def check(self, inp, res, tally: Tally):
        (g, oracle, masks, psi, omega, report, best, witnesses, extensions,
         probes, verdicts) = res
        tally.attempted += 6 + len(witnesses) + len(extensions) + len(verdicts)
        a = oracle.alpha()
        flags = oracle.psi_flags()
        tally.expect(oracle.n == g.vertex_count
                     and sorted(masks) == [m for m, f in enumerate(flags) if f],
                     "psi_masks disagrees with the family flags")
        tally.expect(list(psi.members) == canonical_sets(masks), "enumerate_psi wrong")
        tally.expect(omega == canonical_sets(oracle.omega_masks())
                     and all(len(s) == a and lmss.is_stable(g, s) for s in omega),
                     "enumerate_omega wrong")
        tally.expect(best.method == "brute_force" and best.size == a
                     and lmss.is_stable(g, best.set), "brute-force alpha != oracle alpha")
        stuck = canonical_sets(m for m in masks if m and not any(
            flags[m ^ (1 << v)] for v in range(g.vertex_count) if m >> v & 1))
        tally.expect(report.family_size == len(masks)
                     and list(report.accessibility_violations) == stuck,
                     "accessibility violations wrong")
        tally.expected += len(stuck) > 0
        violations = set(report.exchange_violations)
        tally.expect(report.exchange_ok == (not violations) and all(
            not any(flags[mask_of(y) | 1 << v] for v in x - y)
            for y, x in report.exchange_violations[:50]), "exchange violations wrong")
        for w in witnesses:
            if w.witness is None:
                tally.expected += 1
                ok = (w.s1, w.s2) in violations
            else:
                ok = (w.witness in w.s2 - w.s1
                      and flags[mask_of(w.s1) | 1 << w.witness] == 1)
            tally.expect(ok, "exchange witness wrong")
        omega_set = set(omega)
        for s1, s2, result in extensions:
            tally.expect(result in omega_set and s1 <= result <= s1 | s2,
                         "nt_extend left the maximum family")
        for s, verdict in zip(probes, verdicts):
            tally.expect(verdict == oracle.in_psi_mask(mask_of(s)),
                         "direct membership != oracle membership")
        return {"edges": g.edges, "family": len(masks), "alpha": a,
                "omega": len(omega), "best": sorted(best.set),
                "acc": len(stuck), "exch": len(violations),
                "witnesses": [w.witness for w in witnesses],
                "extensions": [sorted(r) for _, _, r in extensions],
                "verdicts": verdicts}


# -- cli_mix -----------------------------------------------------------------


def _labels(g: Graph, s) -> str:
    return ",".join(g.labels[v] for v in sorted(s))


class CliMix:
    """One client running ``python -m lmss`` invocations back to back."""

    name = "cli_mix"
    round_seconds = 4.5
    forest_n = 1000

    def setup(self, seed, api, workdir):
        fixed = {}
        for name, spec in (("fig1", FamilySpec("fig1")), ("c8", FamilySpec("cycle", 8)),
                           ("fig4_tree", FamilySpec("fig4_tree")),
                           ("fig7", FamilySpec("fig7", 10))):
            g = api.generate(spec)
            path = os.path.join(workdir, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(lmss.emit(g, "text"))
            oracle = lmss.SubsetOracle(g)
            by_size = {}
            for m in oracle.psi_masks():
                by_size.setdefault(m.bit_count(), []).append(set_of(m))
            fixed[name] = (path, g, by_size, canonical_sets(oracle.omega_masks()))
        return {"workdir": workdir, "fixed": fixed}

    def _write(self, state, r, name, g) -> str:
        path = os.path.join(state["workdir"], f"r{r}-{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lmss.emit(g, "text"))
        return path

    def make_round(self, state, seed, r, api):
        rng = SplitMix64(sub_seed(seed, r))
        js = ["--format", "json"]
        cmds = []
        forest_cmds = (["alpha"], ["embed", "--pendant-only"] if r % 2 else ["embed"],
                       ["matching", "--internal-cover"], ["ke-check"])
        for i, cmd in enumerate(forest_cmds):
            g = api.generate(FamilySpec("random_forest", n=self.forest_n,
                                        seed=rng.next_u64(), delete_prob=0.15))
            cmds.append([cmd[0], self._write(state, r, f"forest{i}", g), *cmd[1:], *js])
        tree = api.generate(FamilySpec("random_tree", n=16, seed=rng.next_u64()))
        tree_path = self._write(state, r, "tree16", tree)
        for path in (tree_path, state["fixed"]["fig1"][0], state["fixed"]["c8"][0]):
            for cmd in ("psi", "omega", "verify-greedoid"):
                cmds.append([cmd, path, *js])
        for name in ("fig1", "fig4_tree", "fig7"):
            path, g, by_size, omega = state["fixed"][name]
            members = [s for k in sorted(by_size) for s in by_size[k] if s]
            target = members[rng.below(len(members))]
            strategy = "constructive" if name == "fig4_tree" and rng.below(2) else "greedy"
            cmds.append(["chain", path, "--set", _labels(g, target),
                         "--strategy", strategy, *js])
            lower = [s for s in members if len(s) + 1 in by_size]
            s1 = lower[rng.below(len(lower))]
            uppers = by_size[len(s1) + 1]
            s2 = uppers[rng.below(len(uppers))]
            cmds.append(["exchange", path, "--s1", _labels(g, s1), "--s2", _labels(g, s2), *js])
            s1 = members[rng.below(len(members))]
            s2 = omega[rng.below(len(omega))]
            cmds.append(["nt-extend", path, "--s1", _labels(g, s1), "--s2", _labels(g, s2), *js])
        family = ("random_tree", "random_forest")[rng.below(2)]
        cmds.append(["gen", "--family", family, "-n", str(200 + rng.below(300)),
                     "--seed", str(rng.below(1 << 31))])
        return shuffled(cmds, rng)

    def run(self, api, argv):
        proc = api.cli_process(argv)
        # traced only: the same argv through lmss.cli.main in this process,
        # which splits the invocation into process overhead and main
        return proc, api.cli_main(argv) if api.tracing else None

    def check(self, argv, res, tally: Tally):
        proc, in_process = res
        tally.attempted += 1
        code, stdout = expected_cli(argv)
        tally.expected += code == 1
        tally.expect(proc.returncode == code and proc.stdout == stdout and not proc.stderr
                     and in_process in (None, (code, stdout)),
                     f"lmss {' '.join(argv)}: exit {proc.returncode}, "
                     f"stderr {proc.stderr[:200]!r}")
        return {"argv": [os.path.basename(a) for a in argv], "exit": proc.returncode,
                "stdout": hashlib.sha256(proc.stdout).hexdigest()}


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def expected_cli(argv: list) -> tuple[int, bytes]:
    """Exit code and stdout of ``lmss <argv>``, computed by the library and
    ``emit`` in this process rather than through ``lmss.cli``."""
    cmd = argv[0]
    fmt = _option(argv, "--format") or "text"
    if cmd == "gen":
        family, n, seed = argv[2], int(argv[4]), int(argv[6])
        g = lmss.generate(FamilySpec(family, n=n, seed=seed))
        meta = {"family": family, "n": str(n), "seed": str(seed),
                "prng": lmss.graph_families.PRNG_ALGORITHM}
        if family == "random_forest":
            meta["delete_prob"] = "0.15"
        return 0, lmss.emit(GraphDocument(g, "family", meta), fmt).encode()
    with open(argv[1], encoding="utf-8") as fh:
        g = lmss.parse_graph(fh.read()).graph

    def sel(flag):
        return frozenset(g.index_of(x) for x in _option(argv, flag).split(","))

    code = 0
    if cmd == "alpha":
        obj = lmss.alpha(g)
    elif cmd == "embed":
        obj = lmss.embed_perfect(g, "pendant_only" if "--pendant-only" in argv else "any")
    elif cmd == "matching":
        obj = to_jsonable(lmss.internal_cover_matching(g), g)
        obj["internal_cover"] = True
    elif cmd == "ke-check":
        obj = lmss.verify_konig_egervary(g)
    elif cmd == "psi":
        obj = lmss.enumerate_psi(g)
    elif cmd == "omega":
        sets = lmss.enumerate_omega(g)
        obj = {"alpha": len(sets[0]) if sets else 0, "count": len(sets),
               "sets": [[g.labels[v] for v in sorted(s)] for s in sets]}
    elif cmd == "verify-greedoid":
        obj = lmss.verify_greedoid(g)
        code = 0 if obj.accessibility_ok and obj.exchange_ok else 1
    elif cmd == "chain":
        strategy = _option(argv, "--strategy")
        try:
            obj = lmss.chain_decompose(g, sel("--set"),
                                       {"greedy": "greedy_peel"}.get(strategy, strategy))
        except lmss.AccessibilityFailure as exc:
            obj = {"stuck_set": [g.labels[v] for v in sorted(exc.stuck_set)],
                   "error": "accessibility failure"}
            code = 1
    elif cmd == "exchange":
        obj = lmss.exchange_witness(g, sel("--s1"), sel("--s2"))
        code = 0 if obj.witness is not None else 1
    elif cmd == "nt-extend":
        s1, s2 = sel("--s1"), sel("--s2")
        result = lmss.nt_extend(g, s1, s2)
        obj = {"s1": [g.labels[v] for v in sorted(s1)],
               "s2": [g.labels[v] for v in sorted(s2)],
               "s3": [g.labels[v] for v in sorted(result - s1)],
               "result": [g.labels[v] for v in sorted(result)],
               "alpha": len(result)}
    else:
        raise ValueError(f"no expected output for {cmd!r}")
    return code, lmss.emit(obj, fmt, graph=g).encode()


WORKLOADS = {w.name: w for w in (TreeSweep, BigForest, OracleLattice, CliMix)}
