"""Exception types shared across the package."""


class CsfkitError(Exception):
    """Base class for errors raised by csfkit."""


class CapacityError(CsfkitError):
    """An input exceeds a documented size cap (edge-subset walks, enumeration ranges)."""


class GraphParseError(CsfkitError):
    """A graph file or string could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotATreeError(CsfkitError):
    """A tree-only operation was handed a graph that is not a tree."""


class ConsistencyError(CsfkitError):
    """A transform produced values that contradict its contract.

    Raised e.g. when the generalized-degree transform of an alleged tree
    CSF yields a negative or non-integral count.
    """
