"""Exception hierarchy.

Every error raised by the library derives from :class:`McmatrixError` so
callers (and the CLI) can separate data problems from genuine bugs.  Refused
input is a :class:`ParseError` (syntax) or a :class:`ValidationError`
(everything else); the message names the fault.  A new class is added only
when some caller must react to it differently.
"""

from __future__ import annotations

__all__ = [
    "McmatrixError",
    "ParseError",
    "ValidationError",
    "TooFewComparates",
    "TooFewTasks",
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
    """The input parsed but is refused: a table invariant, an unknown,
    repeated or colliding name, overlapping or too small comparate sets, a
    setting out of range, or a size limit."""


class TooFewComparates(ValidationError):
    """The operation needs more comparates than the matrix provides."""


class TooFewTasks(ValidationError):
    """The operation needs more tasks than the matrix provides."""


class InternalError(McmatrixError):
    """An internal invariant was violated; always a bug."""
