"""Exception hierarchy.

Every error raised by the library derives from :class:`McmatrixError` so
callers (and the CLI) can separate data problems from genuine bugs.  Refused
input, malformed syntax included, is a :class:`ValidationError`; the message
names the fault.  A new class is added only when some caller must react to
it differently.
"""

from __future__ import annotations

__all__ = ["McmatrixError", "ValidationError", "InternalError"]


class McmatrixError(Exception):
    """Base class for all library errors."""


class ValidationError(McmatrixError):
    """The input is refused: malformed syntax, a table invariant, an
    unknown, repeated or colliding name, overlapping or too small comparate
    sets or tables, a setting out of range, or a size limit.

    ``row`` and ``column`` are 1-based file positions (row 1 is the header
    row for CSV input); either may be None when the error is not
    cell-specific.
    """

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        if row is not None or column is not None:
            message = f"{message} (row={row}, column={column})"
        super().__init__(message)


class InternalError(McmatrixError):
    """An internal invariant was violated; always a bug."""
