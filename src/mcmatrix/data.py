"""Benchmark result tables: loading, validation, and score-level transforms.

The central type is :class:`ResultsMatrix`, a dense m x n table of scores
for m comparates (the methods being compared) on n tasks.  All values are
immutable after construction.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "Direction",
    "ResultsMatrix",
    "load_results",
    "dump_results",
    "restrict_to_complete_tasks",
    "weaken_comparate",
]


class Direction(Enum):
    """Orientation of the performance measure.

    Never inferred from the data: whether a larger score is better depends
    on the measure (accuracy vs. error), so the caller must always say.
    """

    HIGHER_IS_BETTER = "higher"
    LOWER_IS_BETTER = "lower"

    @classmethod
    def parse(cls, value: "Direction | str") -> "Direction":
        if isinstance(value, Direction):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise ValidationError(
                f"unknown direction {value!r}; expected 'higher' or 'lower'"
            ) from None


@dataclass(frozen=True)
class ResultsMatrix:
    """Dense m x n performance table.

    ``scores[i, j]`` is the score of comparate ``comparates[i]`` on task
    ``tasks[j]``.  Invariants: m >= 2, n >= 1, names unique and non-empty,
    every score finite.
    """

    comparates: tuple[str, ...]
    tasks: tuple[str, ...]
    scores: np.ndarray
    direction: Direction

    def __post_init__(self):
        object.__setattr__(self, "comparates", tuple(self.comparates))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "direction", Direction.parse(self.direction))
        arr = np.array(self.scores, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValidationError("scores must be a 2-D grid")
        object.__setattr__(self, "scores", arr)

        m, n = arr.shape
        if len(self.comparates) != m or len(self.tasks) != n:
            raise ValidationError(
                f"scores shape {arr.shape} does not match "
                f"{len(self.comparates)} comparates x {len(self.tasks)} tasks"
            )
        if m < 2:
            raise ValidationError("at least two comparates are required")
        if n < 1:
            raise ValidationError("at least one task is required")
        _check_unique("comparate", self.comparates)
        _check_unique("task", self.tasks)
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            i, j = (int(x) for x in bad[0])
            raise ValidationError(
                f"non-finite score for comparate {self.comparates[i]!r} "
                f"on task {self.tasks[j]!r}",
                row=i + 1,
                column=j + 1,
            )
        arr.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.comparates)

    @property
    def n(self) -> int:
        return len(self.tasks)

    def index_of(self, name: str) -> int:
        try:
            return self.comparates.index(name)
        except ValueError:
            raise ValidationError(f"unknown comparate {name!r}") from None

    def check_names(self, names: Iterable[str], what: str) -> tuple[str, ...]:
        """The given comparates as a tuple, each known and listed once.

        ``what`` names the list in the messages.  A bare string is refused
        rather than read as a list of its characters.
        """
        if isinstance(names, str):
            raise ValidationError(f"{what} must be a list of names, not the string {names!r}")
        names = tuple(names)
        seen = set()
        for name in names:
            self.index_of(name)
            if name in seen:
                raise ValidationError(f"duplicate comparate {name!r} in {what}")
            seen.add(name)
        return names

    def row(self, name: str) -> np.ndarray:
        """Score vector of one comparate over all tasks."""
        return self.scores[self.index_of(name)]

    def select_comparates(self, names: Sequence[str]) -> "ResultsMatrix":
        """Sub-matrix over the given comparates, in the given order."""
        idx = [self.index_of(name) for name in names]
        return ResultsMatrix(
            comparates=tuple(names),
            tasks=self.tasks,
            scores=self.scores[idx, :],
            direction=self.direction,
        )

    def in_matrix_order(self, names: Iterable[str]) -> tuple[str, ...]:
        """The given comparates reordered to match this matrix's row order."""
        wanted = set(names)
        for name in wanted:
            self.index_of(name)
        return tuple(c for c in self.comparates if c in wanted)


def _check_unique(kind: str, names: Sequence[str]) -> None:
    seen: set[str] = set()
    for pos, name in enumerate(names):
        if not isinstance(name, str) or not name.strip():
            raise ValidationError(f"empty {kind} name at position {pos + 1}")
        # CSV cells are stripped on load; a name that is not would change
        # on a CSV round trip.
        if name != name.strip():
            raise ValidationError(
                f"{kind} name {name!r} at position {pos + 1} has leading or "
                f"trailing whitespace"
            )
        if name in seen:
            raise ValidationError(f"duplicate {kind} name {name!r}")
        seen.add(name)


def _as_text(source: bytes | str | IO[bytes] | IO[str]) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source, bytes):
        data = source
    else:
        data = source.read()
        if isinstance(data, str):
            return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None


def load_results(
    source: bytes | str | IO[bytes] | IO[str],
    format: str,
    direction: Direction | str,
) -> ResultsMatrix:
    """Parse a results table from a byte stream.

    CSV wide format: header row is ``comparate`` followed by the task
    names; each following row is a comparate name followed by n scores,
    each an ASCII decimal (sign, digits, point, exponent).  JSON format: an
    object with keys ``direction``, ``comparates``, ``tasks`` and row-major
    ``scores``.

    Raises :class:`ParseError` for malformed syntax and
    :class:`ValidationError` for invariant violations (duplicates, missing
    cells, non-finite values); both carry 1-based file coordinates where a
    specific cell is at fault.
    """
    direction = Direction.parse(direction)
    fmt = str(format).strip().lower()
    text = _as_text(source)
    if fmt == "csv":
        return _load_csv(text, direction)
    if fmt == "json":
        return _load_json(text, direction)
    raise ValidationError(f"unknown input format {format!r}; expected 'csv' or 'json'")


def _load_csv(text: str, direction: Direction) -> ResultsMatrix:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}", row=reader.line_num) from None
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if not rows:
        raise ParseError("empty CSV input")
    header = rows[0]
    if len(header) < 2:
        raise ParseError("CSV header must list at least one task", row=1)
    tasks = [cell.strip() for cell in header[1:]]
    n = len(tasks)

    comparates: list[str] = []
    scores: list[list[float]] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) > n + 1:
            raise ParseError(f"expected {n + 1} cells, found {len(row)}", row=r)
        name = row[0].strip()
        if not name:
            raise ValidationError("empty comparate name", row=r, column=1)
        # float() also reads digit-group underscores and non-ASCII digits
        # ("1_0" as 10.0, "\u0661" as 1.0), so a row that holds either is
        # searched for the cell at fault.
        joined = "".join(row[1:])
        if not joined.isascii() or "_" in joined:
            for c, cell in enumerate(row[1:], start=2):
                cell = cell.strip()
                if not cell.isascii() or "_" in cell:
                    raise ParseError(f"cell {cell!r} is not a number", row=r, column=c)
        values: list[float] = []
        for c in range(n):
            cell = row[c + 1].strip() if c + 1 < len(row) else ""
            if not cell:
                raise ValidationError("missing cell", row=r, column=c + 2)
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"cell {cell!r} is not a number", row=r, column=c + 2
                ) from None
            if not math.isfinite(value):
                raise ValidationError(
                    f"non-finite score {cell!r}", row=r, column=c + 2
                )
            values.append(value)
        comparates.append(name)
        scores.append(values)

    if not scores:
        raise ParseError("CSV input has a header but no data rows")
    return ResultsMatrix(tuple(comparates), tuple(tasks), np.array(scores), direction)


def _load_json(text: str, direction: Direction) -> ResultsMatrix:
    try:
        # Every number is read as a float: an integer past the float range
        # becomes inf, which the non-finite check below refuses.
        obj = json.loads(text, parse_int=float)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("JSON input must be an object")
    for key in ("comparates", "tasks", "scores"):
        if key not in obj:
            raise ValidationError(f"JSON input is missing {key!r}")

    if "direction" in obj:
        declared = Direction.parse(obj["direction"])
        if declared is not direction:
            raise ValidationError(
                f"file declares direction {declared.value!r} but "
                f"{direction.value!r} was requested"
            )

    for key in ("comparates", "tasks"):
        if not isinstance(obj[key], list):
            raise ValidationError(f"JSON {key!r} must be an array of names")
    comparates, tasks = obj["comparates"], obj["tasks"]
    # A comparate is located by its row, a task by its column.
    for i, name in enumerate(comparates):
        if not isinstance(name, str):
            raise ValidationError("comparate name is not a string", row=i + 1, column=None)
    for j, name in enumerate(tasks):
        if not isinstance(name, str):
            raise ValidationError("task name is not a string", row=None, column=j + 1)
    rows = obj["scores"]
    if not isinstance(rows, list) or len(rows) != len(comparates):
        raise ValidationError(
            f"scores must have one row per comparate "
            f"({len(comparates)} expected, {len(rows) if isinstance(rows, list) else 'none'} found)"
        )
    grid: list[list[float]] = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) < len(tasks):
            raise ValidationError("missing cell", row=i + 1, column=None)
        if len(row) > len(tasks):
            raise ValidationError("extra cell", row=i + 1, column=len(tasks) + 1)
        values = []
        for j, cell in enumerate(row):
            if type(cell) is not float:
                raise ParseError("cell is not a number", row=i + 1, column=j + 1)
            if not math.isfinite(cell):
                raise ValidationError("non-finite score", row=i + 1, column=j + 1)
            values.append(cell)
        grid.append(values)
    return ResultsMatrix(tuple(comparates), tuple(tasks), np.array(grid), direction)


def dump_results(matrix: ResultsMatrix, format: str = "csv") -> bytes:
    """Serialize a matrix; ``load_results`` on the output is an identity."""
    fmt = str(format).strip().lower()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["comparate", *matrix.tasks])
        for name, row in zip(matrix.comparates, matrix.scores):
            writer.writerow([name, *(repr(float(x)) for x in row)])
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        obj = {
            "direction": matrix.direction.value,
            "comparates": list(matrix.comparates),
            "tasks": list(matrix.tasks),
            "scores": [[float(x) for x in row] for row in matrix.scores],
        }
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
    raise ValidationError(f"unknown output format {format!r}; expected 'csv' or 'json'")


def restrict_to_complete_tasks(matrices: Sequence[ResultsMatrix]) -> ResultsMatrix:
    """Merge per-source fragments, keeping only fully covered tasks.

    The result spans every comparate appearing in any fragment and exactly
    those tasks for which each of them has a score; task order follows
    first appearance.  Conflicting duplicate scores are rejected.
    """
    fragments = list(matrices)
    if not fragments:
        raise ValidationError("at least one fragment is required")
    direction = fragments[0].direction
    for frag in fragments[1:]:
        if frag.direction is not direction:
            raise ValidationError("fragments disagree on score direction")

    comparates: list[str] = []
    task_order: list[str] = []
    cell: dict[tuple[str, str], float] = {}
    for frag in fragments:
        for t in frag.tasks:
            if t not in task_order:
                task_order.append(t)
        for i, c in enumerate(frag.comparates):
            if c not in comparates:
                comparates.append(c)
            for j, t in enumerate(frag.tasks):
                value = float(frag.scores[i, j])
                old = cell.get((c, t))
                if old is not None and old != value:
                    raise ValidationError(
                        f"conflicting scores for comparate {c!r} on task {t!r}: "
                        f"{old!r} vs {value!r}"
                    )
                cell[(c, t)] = value

    complete = [t for t in task_order if all((c, t) in cell for c in comparates)]
    if not complete:
        raise ValidationError(
            "no task has a score for every comparate in the requested set"
        )
    grid = np.array([[cell[(c, t)] for t in complete] for c in comparates])
    return ResultsMatrix(tuple(comparates), tuple(complete), grid, direction)


def weaken_comparate(
    matrix: ResultsMatrix,
    target: str,
    reference: str,
    weight: float,
    new_name: str,
) -> ResultsMatrix:
    """Append a synthetic comparate blending target and reference scores.

    The new row scores ``weight * target + (1 - weight) * reference`` on
    each task; existing rows are untouched.  Results are clamped into the
    per-task [min, max] envelope of the two parents so the convexity bound
    holds exactly even under rounding.
    """
    if target == reference:
        raise ValidationError("target and reference must differ")
    ti = matrix.index_of(target)
    ri = matrix.index_of(reference)
    weight = float(weight)
    if not (0.0 <= weight <= 1.0) or not math.isfinite(weight):
        raise ValidationError(f"weight must lie in [0, 1], got {weight!r}")
    if not isinstance(new_name, str) or not new_name.strip():
        raise ValidationError("new comparate name must be non-empty")
    if new_name in matrix.comparates:
        raise ValidationError(f"comparate name {new_name!r} already exists")

    trow = matrix.scores[ti]
    rrow = matrix.scores[ri]
    if weight == 1.0:
        blended = trow.copy()
    elif weight == 0.0:
        blended = rrow.copy()
    else:
        blended = weight * trow + (1.0 - weight) * rrow
        lo = np.minimum(trow, rrow)
        hi = np.maximum(trow, rrow)
        blended = np.clip(blended, lo, hi)

    return ResultsMatrix(
        comparates=matrix.comparates + (new_name,),
        tasks=matrix.tasks,
        scores=np.vstack([matrix.scores, blended[None, :]]),
        direction=matrix.direction,
    )
