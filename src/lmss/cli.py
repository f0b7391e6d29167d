"""Command-line surface tying the library operations together.

Each handler calls the package's public names, and a public name loads its
home module on first use, so a command loads only what it needs: ``alpha``
never loads the greedoid engine, and only ``selftest`` loads the selftest
corpus. Answers leave as UTF-8 bytes whatever the locale.

Exit codes: 0 success, 1 a property violation was found (axiom violations,
missing exchange witness, stuck chain), 2 usage or input errors (a missing
or unreadable graph file included).
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .cli_io import GraphDocument, emit, labels_of, parse_graph, to_jsonable
from .errors import AccessibilityFailure, LmssError
from .graph_core import Graph

_lmss = sys.modules[__package__]  # the package: its names load their modules on first use


def _read_document(path: str) -> GraphDocument:
    """Read the graph's bytes from ``path`` (``-`` is stdin); parse_graph
    alone decodes them, so both routes answer the same bytes alike. The
    bytes go straight into parse_graph, so once decoded they are freed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if path == "-":
            doc = parse_graph(sys.stdin.buffer.read())
        else:
            with open(path, "rb") as f:
                doc = parse_graph(f.read())
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
    return _lmss.alpha(g, cap=args.cap), 0


def cmd_omega(args, g):
    sets = _lmss.enumerate_omega(g, cap=args.cap)
    return {"alpha": len(sets[0]), "count": len(sets),
            "sets": [labels_of(g, s) for s in sets]}, 0


def cmd_psi(args, g):
    if args.set is None:
        return _lmss.enumerate_psi(g, cap=args.cap), 0
    s = _parse_set(g, args.set)
    return {"set": labels_of(g, s),
            "is_local_max_stable": _lmss.is_local_max_stable(g, s, cap=args.cap)}, 0


def cmd_matching(args, g):
    if args.internal_cover:
        m = _lmss.internal_cover_matching(g)
    else:
        m = _lmss.maximum_matching(g)
    return {**to_jsonable(m, g), "internal_cover": args.internal_cover}, 0


def cmd_ke_check(args, g):
    return _lmss.verify_konig_egervary(g), 0


def cmd_embed(args, g):
    mode = "pendant_only" if args.pendant_only else "any"
    return _lmss.embed_perfect(g, mode), 0


def cmd_chain(args, g):
    strategy = {"greedy": "greedy_peel"}.get(args.strategy, args.strategy)
    try:
        return _lmss.chain_decompose(g, _parse_set(g, args.set), strategy, cap=args.cap), 0
    except AccessibilityFailure as exc:
        return {"stuck_set": labels_of(g, exc.stuck_set),
                "error": "accessibility failure"}, 1


def cmd_nt_extend(args, g):
    s1, s2 = _parse_set(g, args.s1), _parse_set(g, args.s2)
    result = _lmss.nt_extend(g, s1, s2, cap=args.cap)
    return {"s1": labels_of(g, s1), "s2": labels_of(g, s2),
            "s3": labels_of(g, result - s1), "result": labels_of(g, result),
            "alpha": len(result)}, 0


def cmd_exchange(args, g):
    w = _lmss.exchange_witness(g, _parse_set(g, args.s1), _parse_set(g, args.s2),
                               cap=args.cap)
    return w, 0 if w.witness is not None else 1


def cmd_verify_greedoid(args, g):
    report = _lmss.verify_greedoid(g, cap=args.cap)
    return report, 0 if report.accessibility_ok and report.exchange_ok else 1


def cmd_gen(args) -> int:
    g = _lmss.generate(_lmss.FamilySpec(
        family=args.family, n=args.n, seed=args.seed, delete_prob=args.delete_prob))
    meta = {"family": args.family, "n": str(g.vertex_count)}
    if args.family.startswith("random"):
        meta["seed"] = str(0 if args.seed is None else args.seed)
        meta["prng"] = _lmss.graph_families.PRNG_ALGORITHM
        if args.family == "random_forest":
            meta["delete_prob"] = str(args.delete_prob)
    sys.stdout.write(emit(GraphDocument(graph=g, source="family", metadata=meta),
                          args.format))
    return 0


def cmd_selftest(args) -> int:
    from . import selftest
    return selftest.run(args.full)


# -- argument parsing --------------------------------------------------------


class _FamilyNames:
    """gen's --family choices, graph_families.FAMILIES, read only when
    argparse reads them (gen's value check, usage and help), so that the
    other commands run without loading graph_families. Iteration also
    serves ``in``."""

    def __iter__(self):
        return iter(_lmss.graph_families.FAMILIES)


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
    # set after add_argument, which formats (so reads) any choices it is given
    gen.add_argument("--family", required=True).choices = _FamilyNames()
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
    for stream in (sys.stdout, sys.stderr):  # UTF-8 whatever the locale; a StringIO stays
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
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
