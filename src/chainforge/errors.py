"""Exception hierarchy shared across the package."""


class ChainforgeError(Exception):
    """Base class for all errors raised by chainforge."""


class InvalidLabel(ChainforgeError):
    """Label is empty, contains whitespace or '>', '#', '=', or is a
    section header of the policy file format."""


class DuplicateLabel(ChainforgeError):
    """The same label was declared twice."""


class UnknownLabel(ChainforgeError):
    """A label was referenced that is not an element of the poset."""


class CycleDetected(ChainforgeError):
    """The declared cover edges contain a directed cycle."""

    def __init__(self, label: str):
        super().__init__(f"cycle detected involving element {label!r}")
        self.label = label


class RedundantCover(ChainforgeError):
    """A declared cover edge is already implied transitively by the others."""


class NotComparable(ChainforgeError):
    """An operation that requires a strict order between two labels got an
    incomparable (or equal) pair."""


class InvalidPartition(ChainforgeError):
    """Blocks do not form a chain partition of the poset."""


class NoMaximum(ChainforgeError):
    """The poset has no unique maximum element."""


class Infeasible(ChainforgeError):
    """The network admits no feasible flow."""


class NotAFeasibleFlow(ChainforgeError):
    """A supplied flow violates capacity or balance constraints."""


class MalformedFlow(ChainforgeError):
    """A flow's unit arcs do not encode a chain structure."""


class TooLarge(ChainforgeError):
    """Instance exceeds the exhaustive-enumeration size cap."""


class NotAuthorized(ChainforgeError):
    """Key derivation was requested for a label the holder cannot reach."""


class EntropyFailure(ChainforgeError):
    """The entropy source did not supply the requested number of bytes."""


class InternalError(ChainforgeError):
    """A cross-check that must hold by construction failed; indicates a bug."""


class ParseError(ChainforgeError):
    """A policy, partition or bundle file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
