"""Exception taxonomy shared by all lmss modules."""

from __future__ import annotations


class LmssError(Exception):
    """Base class for all library errors."""


class InvalidVertexError(LmssError, ValueError):
    """A vertex index or label does not belong to the graph."""


class SelfLoopError(LmssError, ValueError):
    """An edge joins a vertex to itself."""


class NotAForestError(LmssError):
    """Operation requires an acyclic graph."""


class NotPerfectTreeError(LmssError):
    """Operation requires a tree with a perfect matching."""


class K2BaseCase(LmssError):
    """Raised by pendant_k2_edge on a two-vertex tree, which has no
    pendant-K2 edge to peel: pendant-K2 peeling ends there."""


class TooLargeForBruteForce(LmssError):
    """Exact search refused: the graph exceeds the brute-force vertex cap."""


class TooLargeForEnumeration(LmssError):
    """Exhaustive family enumeration refused: graph exceeds the cap."""


class NotInPsiError(LmssError):
    """A set required to be a local maximum stable set is not one."""


class NotMaximumError(LmssError):
    """A set required to be a maximum stable set is not one."""


class NotDisjointOrNotStableError(LmssError):
    """Two sets violate the disjointness/joint-stability precondition."""


class SizeMismatchError(LmssError):
    """Two sets do not have the required relative sizes."""


class AccessibilityFailure(LmssError):
    """Greedy peeling got stuck: no element can be removed while staying
    in the family. Carries the stuck set."""

    def __init__(self, stuck_set: frozenset, message: str = ""):
        self.stuck_set = frozenset(stuck_set)
        super().__init__(message or f"no removable element in {sorted(self.stuck_set)}")


class InvalidFamilyParameterError(LmssError, ValueError):
    """A graph-family parameter is outside its validity range."""


class GraphSyntaxError(LmssError, ValueError):
    """Malformed graph file. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnknownVertexError(LmssError, ValueError):
    """An edge references a label that was never declared."""

    def __init__(self, line: int, label: str):
        self.line = line
        self.label = label
        super().__init__(f"line {line}: edge references undeclared vertex {label!r}")


class UnsupportedFormatError(LmssError, ValueError):
    """Requested output format does not exist or does not apply."""


class InternalError(LmssError):
    """A structural guarantee failed at runtime; indicates a bug."""
