"""Local maximum stable sets, the greedoid they form on forests, and the
matching/embedding machinery behind it, with exact verifiers throughout.

The public names load on first use (PEP 562): ``lmss.alpha`` imports
``lmss.stable_core`` and no other module, so a command that needs one
module pays for no other. ``from lmss import *`` and ``dir(lmss)`` see
every name, as an eager import would.
"""

__version__ = "0.1.0"

_NAMES = {  # home module -> the public names it defines
    "errors": (
        "AccessibilityFailure", "GraphSyntaxError", "InternalError",
        "InvalidFamilyParameterError", "InvalidVertexError", "K2BaseCase", "LmssError",
        "NotAForestError", "NotDisjointOrNotStableError", "NotInPsiError",
        "NotMaximumError", "NotPerfectTreeError", "SelfLoopError", "SizeMismatchError",
        "TooLargeForBruteForce", "TooLargeForEnumeration", "UnknownVertexError",
        "UnsupportedFormatError"),
    "graph_core": (
        "ComponentDecomposition", "Graph", "VertexSet", "closed_neighborhood", "decompose",
        "induced_subgraph", "pendant_vertices"),
    "stable_core": (
        "PsiFamily", "StableSetResult", "SubsetOracle", "alpha", "enumerate_omega",
        "enumerate_psi", "is_local_max_stable", "is_stable", "psi_restrict_check"),
    "tree_matching": (
        "KonigEgervaryReport", "Matching", "internal_cover_matching", "maximum_matching",
        "verify_konig_egervary"),
    "perfect_embedding": ("Embedding", "embed_perfect"),
    "greedoid_engine": (
        "ChainCertificate", "ExchangeWitness", "GreedoidReport", "chain_decompose",
        "chain_is_valid", "exchange_witness", "nt_extend", "pendant_k2_edge",
        "union_local_max", "verify_greedoid"),
    "graph_families": (
        "FamilySpec", "SplitMix64", "enumerate_labeled_trees", "fig7_exchange_pair",
        "generate", "prufer_decode", "prufer_encode"),
    "cli_io": ("DuplicateEdgeWarning", "GraphDocument", "emit", "parse_graph"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = name if name in _NAMES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own route, which -X importtime records (the
    # route of importlib.import_module does not); it binds the submodule here
    __import__(f"{__name__}.{module}")
    if module == name:  # a submodule, bound as the eager package bound it
        return globals()[name]
    value = globals()[name] = getattr(globals()[module], name)  # later lookups skip this
    return value


def __dir__():
    # __all__, the submodules, and the module's own dunders and any submodule
    # loaded since, as an eager import would list them
    own = (k for k in globals() if not k.startswith("_") or k.startswith("__"))
    return sorted({*__all__, *_NAMES, *own} - {"__getattr__", "__dir__"})
