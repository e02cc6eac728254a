"""Exception hierarchy.

Every error raised by the library derives from :class:`McmatrixError` so
callers (and the CLI) can separate data problems from genuine bugs.
"""

from __future__ import annotations

__all__ = [
    "McmatrixError",
    "ParseError",
    "ValidationError",
    "EmptyIntersection",
    "NameCollision",
    "UnknownComparate",
    "SameComparate",
    "EmptyInput",
    "TooFewComparates",
    "TooFewTasks",
    "UnsupportedAlpha",
    "MOutOfTableRange",
    "InvalidAlpha",
    "InvalidP",
    "InvalidConfig",
    "OverlappingSets",
    "PoolTooSmall",
    "PairNotInSubset",
    "PairNotInBothSets",
    "EmptyReport",
    "EnumerationTooLarge",
    "InternalError",
]


class McmatrixError(Exception):
    """Base class for all library errors."""


class _Located(McmatrixError):
    """Error that can point at a (row, column) coordinate in an input file.

    Coordinates are 1-based file positions (row 1 is the header row for CSV
    input); either may be None when the error is not cell-specific.
    """

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        if row is not None or column is not None:
            message = f"{message} (row={row}, column={column})"
        super().__init__(message)


class ParseError(_Located):
    """The input stream is not syntactically valid in the declared format."""


class ValidationError(_Located):
    """The input parsed but violates a table invariant."""


class EmptyIntersection(McmatrixError):
    """No task is covered by every comparate."""


class NameCollision(McmatrixError):
    """A new comparate name is already taken."""


class UnknownComparate(McmatrixError):
    """A named comparate does not exist in the matrix."""


class SameComparate(McmatrixError):
    """An operation needs two distinct comparates."""


class EmptyInput(McmatrixError):
    """A non-empty sequence was required."""


class TooFewComparates(McmatrixError):
    """The operation needs more comparates than the matrix provides."""


class TooFewTasks(McmatrixError):
    """The operation needs more tasks than the matrix provides."""


class UnsupportedAlpha(McmatrixError):
    """No critical-value table is embedded for this significance level."""


class MOutOfTableRange(McmatrixError):
    """The embedded critical-value table does not cover this group count."""


class InvalidAlpha(McmatrixError):
    """Significance level outside (0, 1)."""


class InvalidP(McmatrixError):
    """A p-value outside [0, 1]."""


class InvalidConfig(McmatrixError):
    """A configuration object violates its invariants."""


class OverlappingSets(McmatrixError):
    """Two comparate sets that must be disjoint overlap."""


class PoolTooSmall(McmatrixError):
    """Fewer pool comparates than the requested subset size."""


class PairNotInSubset(McmatrixError):
    """A comparate subset does not contain the pair under study."""


class PairNotInBothSets(McmatrixError):
    """The pair under study is missing from one of the two sets."""


class EmptyReport(McmatrixError):
    """A report with no comparison cells cannot be built or rendered."""


class EnumerationTooLarge(McmatrixError):
    """An exhaustive subset sweep would exceed the safety limit."""


class InternalError(McmatrixError):
    """An internal invariant was violated; always a bug."""
