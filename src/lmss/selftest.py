"""The built-in verification corpus behind ``lmss selftest``: the nine
acceptance criteria at a scale that runs in seconds (minutes with
``--full``), each reported on one line.

Only the selftest command loads this module. It calls the engine through
its modules' attributes (``greedoid_engine.exchange_witness``), so a
patched function is the one the corpus runs.
"""

from __future__ import annotations

from contextlib import contextmanager

from . import graph_families, greedoid_engine, perfect_embedding, stable_core, tree_matching
from .cli_io import emit
from .errors import LmssError
from .graph_core import Graph, set_of
from .graph_families import FamilySpec, generate


def _forest_corpus(count, sizes, seed0):
    for i in range(count):
        yield generate(FamilySpec("random_forest", n=sizes[i % len(sizes)], seed=seed0 + i))


def _structure_ok(g: Graph) -> bool:
    """alpha + mu = order on the forest ``g``; its internal-cover matching is
    maximum and leaves no internal vertex exposed; both perfect embeddings
    keep alpha, and the pendant_only one attaches at pendants only."""
    rep = tree_matching.verify_konig_egervary(g)
    icm = tree_matching.internal_cover_matching(g)
    if not rep.identity_holds or len(icm) != rep.mu or any(
            g.degree(v) >= 2 for v in range(g.vertex_count) if v not in icm.covered):
        return False
    for mode in ("any", "pendant_only"):
        emb = perfect_embedding.embed_perfect(g, mode)
        if stable_core.alpha(emb.host).size != rep.alpha:
            return False
    return all(g.degree(u) < 2 for u, _w in emb.added_edges)  # the pendant_only edges


def _criteria(full: bool):
    """The nine acceptance criteria at selftest scale, in order, each as
    ``(name, first failure or None, detail)``.

    Every labeled tree is visited once, with one subset table, and that
    visit feeds criteria 1, 5, 6, 7 and 8. A failure, a raised LmssError
    included, is recorded under its criterion and the run goes on, so every
    criterion is reported. tests/test_acceptance.py is the independent gate
    at full scale.
    """
    max_tree = 8 if full else 6  # labeled trees on 2..max_tree vertices
    forests = 1000 if full else 100  # seeded random forests, criteria 1 and 7
    graphs, max_graph = (500, 12) if full else (60, 10)  # random graphs, criterion 4
    failed = {}  # criterion number -> its first failure
    fail = failed.setdefault

    @contextmanager
    def guard(k, where):
        try:
            yield
        except LmssError as exc:
            fail(k, f"{type(exc).__name__} {where}: {exc}")

    trees = chains = pairs = 0
    for n in range(2, max_tree + 1):
        where = f"on a labeled tree with {n} vertices"
        for t in graph_families.enumerate_labeled_trees(n):
            oracle = stable_core.SubsetOracle(t)
            with guard(1, where):
                r = greedoid_engine.verify_greedoid(t, oracle=oracle)
                if not (r.accessibility_ok and r.exchange_ok):
                    fail(1, f"violation {where}")
            members = [set_of(m) for m in oracle.psi_masks()]
            by_size = {}
            for s in members:
                by_size.setdefault(len(s), []).append(s)
            with guard(5, where):
                for s in members:
                    for strat in ("greedy_peel", "constructive"):
                        cert = greedoid_engine.chain_decompose(t, s, strat, oracle=oracle)
                        if (cert.chain[-1] if cert.chain else frozenset()) != s \
                                or not greedoid_engine.chain_is_valid(cert, oracle=oracle):
                            fail(5, f"invalid {strat} chain {where}")
                        chains += 1
            with guard(6, where):
                for k, ys in by_size.items():
                    for x in by_size.get(k + 1, ()):
                        for y in ys:
                            w = greedoid_engine.exchange_witness(t, y, x, oracle=oracle)
                            if w.witness is None:
                                fail(6, f"missing witness {where}")
                            pairs += 1
            with guard(7, where):
                if not _structure_ok(t):
                    fail(7, f"matching or embedding fails {where}")
            with guard(8, where):
                if stable_core.alpha(t).size != oracle.alpha():
                    fail(8, f"alpha mismatch {where}")
            trees += 1
    for g in _forest_corpus(forests, range(9, 15 if full else 13), seed0=1):
        with guard(1, "on a random forest"):
            r = greedoid_engine.verify_greedoid(g)
            if not (r.accessibility_ok and r.exchange_ok):
                fail(1, "violation on a random forest")
    yield "greedoid on forests", failed.get(1), f"{trees + forests} forests, zero violations"

    for n in range(4, 9):
        g = generate(FamilySpec("cycle", n))
        with guard(2, f"on C{n}"):
            if not set(stable_core.enumerate_omega(g)) <= set(
                    greedoid_engine.verify_greedoid(g).accessibility_violations):
                fail(2, f"C{n}: some maximum stable set is not reported")
    g = generate(FamilySpec("fig1"))
    with guard(2, "on fig1"):
        if frozenset(g.index_of(x) for x in "acf") not in \
                greedoid_engine.verify_greedoid(g).accessibility_violations:
            fail(2, "fig1: {a,c,f} not reported")
    yield ("accessibility counterexamples", failed.get(2),
           "cycles C4..C8 and fig1 behave as documented")

    for cls, n in [("small", n) for n in (6, 8, 10)] + [("large", n) for n in (8, 10, 12)]:
        g = generate(FamilySpec("fig7", n))
        s1, s2 = graph_families.fig7_exchange_pair(n, cls)
        with guard(3, f"on fig7({n}) {cls}"):
            if not (stable_core.is_local_max_stable(g, s1)
                    and stable_core.is_local_max_stable(g, s2)):
                fail(3, f"fig7({n}) {cls}: pair not in the family")
            elif greedoid_engine.exchange_witness(g, s1, s2).witness is not None:
                fail(3, f"fig7({n}) {cls}: unexpected witness")
    yield ("exchange counterexamples", failed.get(3),
           "documented pairs are in the family and admit no witness")

    rng = graph_families.SplitMix64(2024)
    extensions = 0
    for i in range(graphs):
        n = 4 + rng.below(max_graph - 3)
        percent = 8 + (i % 5) * 8
        g = Graph([f"v{k + 1}" for k in range(n)],
                  [(u, v) for u in range(n) for v in range(u + 1, n)
                   if rng.below(100) < percent])
        with guard(4, "on a random graph"):
            oracle = stable_core.SubsetOracle(g)
            psi = oracle.psi_masks()
            if len(psi) > 200:
                continue
            omega = stable_core.canonical_sets(oracle.omega_masks())
            for pm in psi:
                s1 = set_of(pm)
                for s2 in omega:
                    r = greedoid_engine.nt_extend(g, s1, s2, oracle=oracle)
                    if len(r) != oracle.alpha() or not stable_core.is_stable(g, r):
                        fail(4, "extension left the maximum family")
                    extensions += 1
    yield ("maximum-extension on general graphs", failed.get(4),
           f"{extensions} extensions all maximum")

    yield ("chain totality", failed.get(5),
           f"{chains} certificates valid under both strategies")
    yield ("exchange totality on forests", failed.get(6),
           f"{pairs} pairs all admitted witnesses")

    for g in _forest_corpus(forests, range(2, 21 if full else 15), seed0=5000):
        with guard(7, "on a random forest"):
            if not _structure_ok(g):
                fail(7, "matching or embedding fails on a random forest")
    yield ("matching and embedding structure", failed.get(7),
           f"{trees + forests} forests: identity, cover, and embeddings hold")

    for family, members in (("cycle", [[], [0, 2], [1, 3]]),
                            ("path", [[], [0], [3], [0, 2], [0, 3], [1, 3]])):
        with guard(8, f"on the 4-{family}"):
            if [sorted(s) for s in stable_core.enumerate_psi(
                    generate(FamilySpec(family, 4))).members] != members:
                fail(8, f"family of the 4-{family} is off")
    yield ("oracle equivalence", failed.get(8),
           f"pendant-greedy alpha matches exhaustive alpha on {trees} trees; "
           f"known families exact")

    spec = FamilySpec("random_tree", n=9, seed=42)
    g = generate(FamilySpec("cycle", 4))
    with guard(9, "on repeated runs"):
        runs = [(emit(generate(spec), "json"),
                 emit(greedoid_engine.verify_greedoid(g), "json", graph=g)) for _ in range(2)]
        if runs[0] != runs[1]:
            fail(9, "repeated runs differ")
    yield ("determinism", failed.get(9),
           "repeated generation and verification are byte-identical")


def run(full: bool) -> int:
    """Print one line per criterion; 1 when any fails, else 0."""
    failures = 0
    for i, (name, failure, detail) in enumerate(_criteria(full), start=1):
        status = f"FAIL - {failure}" if failure else f"PASS - {detail}"
        print(f"criterion {i} ({name}): {status}")
        failures += failure is not None
    return 1 if failures else 0
