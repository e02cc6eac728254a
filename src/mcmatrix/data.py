"""Benchmark result tables: loading, validation, and score-level transforms.

The central type is :class:`ResultsMatrix`, a dense m x n table of scores
for m comparates (the methods being compared) on n tasks.  All values are
immutable after construction.  ``check_*`` refuse input of the wrong kind.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ValidationError

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
    every score finite.  ``index_of`` and ``positions`` read the one map
    from comparate names to positions, built as the names are checked.
    """

    comparates: tuple[str, ...]
    tasks: tuple[str, ...]
    scores: np.ndarray
    direction: Direction

    def __post_init__(self):
        object.__setattr__(self, "comparates", tuple(self.comparates))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "direction", Direction.parse(self.direction))
        arr = np.array(check_real_array("scores", self.scores), copy=True)
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
        object.__setattr__(self, "_position", _check_unique("comparate", self.comparates))
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
            return self._position[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValidationError(f"unknown comparate {name!r}") from None

    def positions(self, names) -> np.ndarray:
        """The positions of an array of names, in its shape, -1 for a name
        the matrix lacks."""
        names = np.asarray(names, dtype=object)
        try:
            found = map(self._position.get, names.flat, itertools.repeat(-1))
            return np.fromiter(found, np.intp, names.size).reshape(names.shape)
        except TypeError:  # an unhashable name, which no comparate is
            return self.positions([n if isinstance(n, str) else "" for n in names.flat]
                                  ).reshape(names.shape)

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

    def check_pair(self, pair: Sequence[str]) -> tuple[str, str]:
        """The pair's two comparates as a tuple, each known and distinct.

        A bare string is refused as ``check_names`` refuses it, rather than
        read as a pair of its characters.
        """
        if not isinstance(pair, str) and len(pair) == 2 and pair[0] == pair[1]:
            raise ValidationError(f"the pair names {pair[0]!r} twice")
        names = self.check_names(pair, "pair")
        if len(names) != 2:
            raise ValidationError(f"a pair names two comparates, not {len(names)}")
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
        return tuple(self.comparates[i] for i in sorted(map(self.index_of, set(names))))


def check_integer(name: str, value) -> int:
    """``value`` as an int; ``ValidationError`` naming it unless it is an
    integer (a ``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(value) -> None:
    """``ValidationError`` unless ``value`` is an integer in 0 .. 2**64 - 1."""
    if not 0 <= check_integer("seed", value) < 1 << 64:
        raise ValidationError("seed must be a 64-bit unsigned integer")


def check_real(name: str, value) -> float:
    """``value`` as a float; ``ValidationError`` naming it unless it is a
    real number (a ``bool`` is not).  An int past the float range is inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def check_real_array(name: str, values) -> np.ndarray:
    """``values`` as a float64 array; ``ValidationError`` naming them unless
    they are integers and floats (not strings, bools, complex values or
    objects) in rows of one length.  A list that mixes bools with numbers,
    which numpy reads as numbers, is refused too; an array of numbers is
    not scanned for them."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged rows
        array = None
    if (array is None or array.dtype.kind not in "iuf" or array is not values
            and not {bool, np.bool_}.isdisjoint(map(type, np.asarray(values, object).flat))):
        raise ValidationError(f"{name} must be numbers, in rows of one length")
    return array.astype(np.float64, copy=False)


def _check_unique(kind: str, names: Sequence[str]) -> dict[str, int]:
    """Each name's position, once every name is checked."""
    position: dict[str, int] = {}
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
        if name in position:
            raise ValidationError(f"duplicate {kind} name {name!r}")
        position[name] = pos
    return position


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
        raise ValidationError(f"input is not valid UTF-8: {exc}") from None


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
    ``scores``.  ``format`` is ``"csv"`` or ``"json"``, spelled so.

    Raises :class:`ValidationError` for malformed syntax and for invariant
    violations (duplicates, missing cells, non-finite values), with 1-based
    file coordinates where a specific cell is at fault.
    """
    direction = Direction.parse(direction)
    text = _as_text(source)
    if format == "csv":
        return _load_csv(text, direction)
    if format == "json":
        return _load_json(text, direction)
    raise ValidationError(f"unknown input format {format!r}; expected 'csv' or 'json'")


def _load_csv(text: str, direction: Direction) -> ResultsMatrix:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValidationError(f"invalid CSV: {exc}", row=reader.line_num) from None
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if not rows:
        raise ValidationError("empty CSV input")
    header = rows[0]
    if len(header) < 2:
        raise ValidationError("CSV header must list at least one task", row=1)
    tasks = [cell.strip() for cell in header[1:]]
    n = len(tasks)

    comparates: list[str] = []
    scores: list[list[float]] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) > n + 1:
            raise ValidationError(f"expected {n + 1} cells, found {len(row)}", row=r)
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
                    raise ValidationError(f"cell {cell!r} is not a number", row=r, column=c)
        # A whole row is parsed by one call.  A short row, or one with a cell
        # that float() refuses or reads as non-finite, is read again cell by
        # cell, which finds the first cell at fault.
        try:
            values = list(map(float, row[1:]))
        except ValueError:
            values = []
        if len(values) != n or not all(map(math.isfinite, values)):
            values = []
            for c in range(n):
                cell = row[c + 1].strip() if c + 1 < len(row) else ""
                if not cell:
                    raise ValidationError("missing cell", row=r, column=c + 2)
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(
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
        raise ValidationError("CSV input has a header but no data rows")
    return ResultsMatrix(tuple(comparates), tuple(tasks), np.array(scores), direction)


def _load_json(text: str, direction: Direction) -> ResultsMatrix:
    try:
        # Every number is read as a float: an integer past the float range
        # becomes inf, which the non-finite check below refuses.
        obj = json.loads(text, parse_int=float)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError("JSON input must be an object")
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
                raise ValidationError("cell is not a number", row=i + 1, column=j + 1)
            if not math.isfinite(cell):
                raise ValidationError("non-finite score", row=i + 1, column=j + 1)
            values.append(cell)
        grid.append(values)
    return ResultsMatrix(tuple(comparates), tuple(tasks), np.array(grid), direction)


def dump_results(matrix: ResultsMatrix, format: str = "csv") -> bytes:
    """Serialize a matrix as ``"csv"`` or ``"json"``; ``load_results`` on
    the output is an identity."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["comparate", *matrix.tasks])
        for name, row in zip(matrix.comparates, matrix.scores):
            writer.writerow([name, *(repr(float(x)) for x in row)])
        return buf.getvalue().encode("utf-8")
    if format == "json":
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
    first appearance.  Conflicting duplicate scores are rejected.  Time and
    memory are linear in the number of fragment cells.
    """
    fragments = list(matrices)
    if not fragments:
        raise ValidationError("at least one fragment is required")
    direction = fragments[0].direction
    for frag in fragments[1:]:
        if frag.direction is not direction:
            raise ValidationError("fragments disagree on score direction")

    # Each comparate's scores by task, both in order of first appearance.
    # An equal later score replaces the earlier one (0.0 equals -0.0).
    cells: dict[str, dict[str, float]] = {}
    for frag in fragments:
        for c, row in zip(frag.comparates, frag.scores.tolist()):
            known = cells.setdefault(c, {})
            for t, value in zip(frag.tasks, row):
                old = known.get(t, value)
                if old != value:
                    raise ValidationError(
                        f"conflicting scores for comparate {c!r} on task {t!r}: "
                        f"{old!r} vs {value!r}"
                    )
            known.update(zip(frag.tasks, row))

    tasks = dict.fromkeys(t for frag in fragments for t in frag.tasks)
    covered = set.intersection(*map(set, cells.values()))
    complete = [t for t in tasks if t in covered]
    if not complete:
        raise ValidationError(
            "no task has a score for every comparate in the requested set"
        )
    grid = np.array([[known[t] for t in complete] for known in cells.values()])
    return ResultsMatrix(tuple(cells), tuple(complete), grid, direction)


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
    weight = check_real("weight", weight)
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
