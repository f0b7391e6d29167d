"""Command-line surface tying the library operations together.

Exit codes: 0 success, 1 a property violation was found (axiom violations,
missing exchange witness, stuck chain), 2 usage or input errors (a missing
or unreadable graph file included).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import contextmanager

from . import graph_families, greedoid_engine, perfect_embedding, stable_core, tree_matching
from .cli_io import GraphDocument, emit, labels_of, parse_graph, to_jsonable
from .errors import AccessibilityFailure, LmssError
from .graph_core import Graph, set_of
from .graph_families import FamilySpec, generate


def _read_document(path: str) -> GraphDocument:
    if path == "-":
        data = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8-sig") as f:
            data = f.read()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = parse_graph(data)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return doc


def _parse_set(g: Graph, text: str) -> frozenset:
    labels = [t for t in (p.strip() for p in text.split(",")) if t]
    return frozenset(g.index_of(lbl) for lbl in labels)


def _run_graph_command(args) -> int:
    """Read the graph once, run the command's handler ``(args, g) ->
    (record, exit code)``, and write the record once."""
    g = _read_document(args.graph).graph
    record, code = args.handler(args, g)
    sys.stdout.write(emit(record, args.format, graph=g))
    return code


def cmd_alpha(args, g):
    return stable_core.alpha(g, cap=args.cap), 0


def cmd_omega(args, g):
    sets = stable_core.enumerate_omega(g, cap=args.cap)
    return {"alpha": len(sets[0]), "count": len(sets),
            "sets": [labels_of(g, s) for s in sets]}, 0


def cmd_psi(args, g):
    if args.set is None:
        return stable_core.enumerate_psi(g, cap=args.cap), 0
    s = _parse_set(g, args.set)
    return {"set": labels_of(g, s),
            "is_local_max_stable": stable_core.is_local_max_stable(g, s, cap=args.cap)}, 0


def cmd_matching(args, g):
    if args.internal_cover:
        m = tree_matching.internal_cover_matching(g)
    else:
        m = tree_matching.maximum_matching(g)
    return {**to_jsonable(m, g), "internal_cover": args.internal_cover}, 0


def cmd_ke_check(args, g):
    return tree_matching.verify_konig_egervary(g), 0


def cmd_embed(args, g):
    mode = "pendant_only" if args.pendant_only else "any"
    return perfect_embedding.embed_perfect(g, mode), 0


def cmd_chain(args, g):
    strategy = {"greedy": "greedy_peel"}.get(args.strategy, args.strategy)
    try:
        return greedoid_engine.chain_decompose(g, _parse_set(g, args.set),
                                               strategy, cap=args.cap), 0
    except AccessibilityFailure as exc:
        return {"stuck_set": labels_of(g, exc.stuck_set),
                "error": "accessibility failure"}, 1


def cmd_nt_extend(args, g):
    s1, s2 = _parse_set(g, args.s1), _parse_set(g, args.s2)
    result = greedoid_engine.nt_extend(g, s1, s2, cap=args.cap)
    return {"s1": labels_of(g, s1), "s2": labels_of(g, s2),
            "s3": labels_of(g, result - s1), "result": labels_of(g, result),
            "alpha": len(result)}, 0


def cmd_exchange(args, g):
    w = greedoid_engine.exchange_witness(g, _parse_set(g, args.s1),
                                         _parse_set(g, args.s2), cap=args.cap)
    return w, 0 if w.witness is not None else 1


def cmd_verify_greedoid(args, g):
    report = greedoid_engine.verify_greedoid(g, cap=args.cap)
    return report, 0 if report.accessibility_ok and report.exchange_ok else 1


def cmd_gen(args) -> int:
    g = generate(FamilySpec(family=args.family, n=args.n, seed=args.seed,
                            delete_prob=args.delete_prob))
    meta = {"family": args.family, "n": str(g.vertex_count)}
    if args.family.startswith("random"):
        meta["seed"] = str(0 if args.seed is None else args.seed)
        meta["prng"] = graph_families.PRNG_ALGORITHM
        if args.family == "random_forest":
            meta["delete_prob"] = str(args.delete_prob)
    sys.stdout.write(emit(GraphDocument(graph=g, source="family", metadata=meta),
                          args.format))
    return 0


# -- selftest ----------------------------------------------------------------


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


def cmd_selftest(args) -> int:
    failures = 0
    for i, (name, failure, detail) in enumerate(_criteria(args.full), start=1):
        status = f"FAIL - {failure}" if failure else f"PASS - {detail}"
        print(f"criterion {i} ({name}): {status}")
        failures += failure is not None
    return 1 if failures else 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmss",
        description="Local maximum stable sets, their forest greedoid, and "
                    "the associated matching and embedding operations.")
    sub = parser.add_subparsers(dest="command", required=True)
    drawn = ("text", "json", "dot")  # only graphs and stable sets have a dot drawing

    def command(name, help_, formats=("text", "json"), cap=True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=formats, default="text",
                       help="output format (default: text)")
        if cap:
            p.add_argument("--cap", type=int, default=None,
                           help="override the brute-force/enumeration vertex caps")
        return p

    def graph_cmd(name, handler, help_, **options):
        p = command(name, help_, **options)
        p.add_argument("graph", nargs="?", default="-",
                       help="graph file in edge-list format ('-' for stdin)")
        p.set_defaults(func=_run_graph_command, handler=handler)
        return p

    graph_cmd("alpha", cmd_alpha, "stability number with a witness set", formats=drawn)
    graph_cmd("omega", cmd_omega, "every maximum stable set")
    p = graph_cmd("psi", cmd_psi, "enumerate the local-maximum family, or test one set")
    p.add_argument("--set", default=None, help="comma-separated labels to test")
    p = graph_cmd("matching", cmd_matching, "leaf-greedy maximum matching of a forest",
                  cap=False)
    p.add_argument("--internal-cover", action="store_true", help="cover every internal vertex")
    graph_cmd("ke-check", cmd_ke_check, "check alpha + mu = order on a forest", cap=False)
    p = graph_cmd("embed", cmd_embed, "embed a forest into a perfect forest", cap=False)
    p.add_argument("--pendant-only", action="store_true",
                   help="attach new edges at pendant vertices only")
    p = graph_cmd("chain", cmd_chain, "nested family chain ending at --set")
    p.add_argument("--set", required=True)
    p.add_argument("--strategy", default="greedy",
                   choices=("greedy", "greedy_peel", "constructive"))
    for p in (graph_cmd("nt-extend", cmd_nt_extend, "extend --s1 to a maximum set inside --s2"),
              graph_cmd("exchange", cmd_exchange, "exchange witness between --s1 and --s2")):
        p.add_argument("--s1", required=True)
        p.add_argument("--s2", required=True)
    graph_cmd("verify-greedoid", cmd_verify_greedoid,
              "check both greedoid axioms on the full family")

    gen = command("gen", "generate a named graph", formats=drawn, cap=False)
    gen.add_argument("--family", required=True, choices=graph_families.FAMILIES)
    gen.add_argument("-n", type=int, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--delete-prob", type=float, default=0.15)
    gen.set_defaults(func=cmd_gen)

    st = sub.add_parser("selftest", help="run the built-in verification corpus")
    st.add_argument("--full", action="store_true",
                    help="full acceptance scale (minutes) instead of the quick corpus")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return 0
    except (LmssError, ValueError, OSError) as exc:  # input errors, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
