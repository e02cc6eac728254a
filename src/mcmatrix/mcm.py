"""Assembly of the multi-comparison report.

A report is a grid of pairwise comparison cells over selected row and
column comparates, ordered by mean performance.  Each cell depends only on
the two comparates' score vectors, so no cell (and no pairwise ordering)
can change when other comparates enter or leave the study.  Significance
flags are deliberately uncorrected per-pair thresholds; a familywise
correction would reintroduce exactly the set-dependence this layout is
designed to remove, so none is offered here.  A grid evaluates each
unordered pair once and places it with a signed slot, which only
``PairGrid`` decodes.
"""

from __future__ import annotations

import json
from collections.abc import ItemsView, Iterator, Mapping, Sequence, ValuesView
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .bayes import BayesConfig, PosteriorTable, bayesian_signed_rank
from .data import Direction, ResultsMatrix
from .errors import InternalError, ValidationError
from .stats import (
    MIN_BLOCK_PAIRS,
    PairTable,
    PairwiseComparison,
    PMethod,
    _differences,
    _pair_table,
    check_alpha,
    pairwise_comparison,
)

__all__ = ["MCMConfig", "MCMReport", "PairGrid", "build_mcm", "cell_records_json",
           "compare_pairs", "mcm_cell_invariance_check", "mcm_report_header",
           "mcm_report_to_dict"]


@dataclass(frozen=True)
class MCMConfig:
    """Report shape: significance level, optional focused row/column lists,
    and tie tolerance."""

    alpha: float = 0.05
    row_comparates: tuple[str, ...] | None = None
    column_comparates: tuple[str, ...] | None = None
    tie_epsilon: float = 0.0


@dataclass(frozen=True)
class MCMReport:
    """Ordered grid of pairwise cells plus the metadata used to build it.

    ``cells`` is a ``PairGrid`` over ``row_order`` x ``column_order`` with a
    cell at every off-diagonal position, and ``bayes``, when posteriors were
    asked for, the grid of their posteriors on the same slots.  A cell is
    significant iff its uncorrected ``p_value < alpha``.
    ``comparison_count`` counts off-diagonal grid cells in focused mode and
    distinct pairs in all-pairs mode.
    """

    row_order: tuple[str, ...]
    column_order: tuple[str, ...]
    mean_performance: dict[str, float]
    cells: PairGrid
    comparison_count: int
    alpha: float
    direction: Direction
    n_tasks: int
    tie_epsilon: float = 0.0
    bayes: PairGrid | None = None


def _order_by_mean(names: Sequence[str], means: dict[str, float],
                   direction: Direction) -> tuple[str, ...]:
    # Best first; ties broken lexicographically by name for determinism.
    if direction is Direction.HIGHER_IS_BETTER:
        return tuple(sorted(names, key=lambda c: (-means[c], c)))
    return tuple(sorted(names, key=lambda c: (means[c], c)))


@dataclass(frozen=True, eq=False)
class PairGrid(Mapping):
    """A grid of values read from a table of unordered pairs.

    ``slot[i, j]`` places the value of ``rows[i]`` against ``columns[j]``:
    k + 1 reads item k of ``table`` as evaluated, -(k + 1) its mirror, and 0
    means no value; only the grid decodes slots, into the items and mirror
    flags of ``table.oriented``.  ``table`` is a ``PairTable`` or a
    ``bayes.PosteriorTable``.  As a read-only mapping, each (row, column)
    key with a value reads it as a ``table.record``, in row-major grid order.
    """

    rows: tuple[str, ...]
    columns: tuple[str, ...]
    slot: np.ndarray
    table: PairTable | PosteriorTable

    def row(self, i: int) -> tuple[list[int], list[int], tuple[list, ...]]:
        """Grid row i's values: column positions, items of ``table``, oriented columns."""
        at = np.flatnonzero(self.slot[i])
        slots = self.slot[i, at]
        k = np.abs(slots) - 1
        return at.tolist(), k.tolist(), self.table.oriented(k, slots < 0)

    def __getitem__(self, key):
        try:
            row, column = key
            slot = int(self.slot[self.rows.index(row), self.columns.index(column)])
        except (TypeError, ValueError):  # not a pair, or a name off the grid
            slot = 0
        if not slot:
            raise KeyError(key)
        columns = self.table.oriented(np.array([abs(slot) - 1]), slot < 0)
        return self.table.record(*(column[0] for column in columns))

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return ((self.rows[i], self.columns[j]) for i, j in np.argwhere(self.slot).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.slot))

    def items(self) -> ItemsView:
        """The (key, value) pairs in grid order, read one grid row at a time."""
        return _GridItems(self)

    def values(self) -> ValuesView:
        """The values in grid order, read one grid row at a time."""
        return _GridValues(self)

    def _walk(self):
        for i, name in enumerate(self.rows):
            at, _, columns = self.row(i)
            yield from zip([(name, self.columns[j]) for j in at], map(self.table.record, *columns))


class _GridItems(ItemsView):
    def __iter__(self):
        return self._mapping._walk()


class _GridValues(ValuesView):
    def __iter__(self):
        return (value for _, value in self._mapping._walk())


def compare_pairs(
    matrix: ResultsMatrix,
    rows: Sequence[str],
    columns: Sequence[str],
    mask,
    tie_epsilon: float = 0.0,
    bayes_config: BayesConfig | None = None,
) -> tuple[PairGrid, PairGrid | None]:
    """Cells, and with a Bayes config posteriors, of the grid over ``rows`` x
    ``columns`` where the boolean ``mask`` is true.

    Each name is mapped once and each unordered pair evaluated once, in
    matrix order, into one ``PairTable``; a cell whose row comes later in
    the matrix reads its pair's mirror.  From ``MIN_BLOCK_PAIRS`` pairs the
    pair kernel takes their positions, and ``pairwise_comparison``
    evaluates the first pair again: a disagreement raises ``InternalError``
    (a one-row run of the same kernel, not an independent check).  Fewer
    pairs are evaluated one at a time by ``pairwise_comparison``.
    Posteriors come from one ``bayesian_signed_rank`` call on the same
    positions, which draws each chunk of weights once.
    """
    rows, columns, mask = tuple(rows), tuple(columns), np.asarray(mask, dtype=bool)
    if mask.shape != (len(rows), len(columns)):
        raise ValidationError(f"mask of shape {mask.shape} for a {len(rows)} x {len(columns)} grid")
    r, c = (np.array([matrix.index_of(name) for name in names], dtype=np.intp)
            for names in (rows, columns))
    # A cell's pair as lo * m + hi in matrix positions: sorted keys are in matrix order.
    keys = np.minimum.outer(r, c) * matrix.m + np.maximum.outer(r, c)
    keys, k = np.unique(keys[mask], return_inverse=True)
    slot = np.zeros(mask.shape, dtype=np.intp)
    slot[mask] = np.where(r[:, None] > c, -1, 1)[mask] * (k + 1)
    at = np.stack(np.divmod(keys, matrix.m), 1)
    pairs = np.array(matrix.comparates, dtype=object)[at]
    if (same := at[:, 0] == at[:, 1]).any():
        raise ValidationError(f"cannot compare {pairs[same.argmax(), 0]!r} with itself")
    if len(at) < MIN_BLOCK_PAIRS:
        alone = [pairwise_comparison(matrix, a, b, tie_epsilon) for a, b in pairs]
        values = [np.array([getattr(cell, name) for cell in alone]) for name in
                  ("mean_difference", "wins", "losses", "p_value")]
        table = PairTable(pairs, *values, tuple(cell.p_method for cell in alone), matrix.n)
    else:
        table = _pair_table(matrix, at, tie_epsilon)
        alone = pairwise_comparison(matrix, *pairs[0], tie_epsilon)
        if alone != table[0]:
            raise InternalError(
                f"batched pair statistics gave {table[0]!r}; "
                f"pairwise_comparison gives {alone!r}"
            )
    bayes = None if bayes_config is None else PairGrid(
        rows, columns, slot, bayesian_signed_rank(_differences(matrix, at), bayes_config))
    return PairGrid(rows, columns, slot, table), bayes


def build_mcm(
    matrix: ResultsMatrix,
    config: MCMConfig = MCMConfig(),
    bayes_config: BayesConfig | None = None,
) -> MCMReport:
    """Build the comparison grid for a matrix under the given configuration.

    When a ``bayes_config`` is given, each cell also gets a Bayesian
    signed-rank posterior computed with it.  Each unordered pair is
    evaluated once (see ``compare_pairs``).  A grid without an
    off-diagonal cell, and a comparate whose finite scores sum past the
    float range, raise ``ValidationError``.
    """
    alpha = check_alpha(config.alpha)
    rows = cols = matrix.comparates
    if config.row_comparates is not None:
        rows = matrix.check_names(config.row_comparates, "row selection")
    if config.column_comparates is not None:
        cols = matrix.check_names(config.column_comparates, "column selection")

    involved = sorted(set(rows) | set(cols))
    with np.errstate(over="ignore"):
        means = {c: float(np.mean(matrix.row(c))) for c in involved}
    if overflow := [c for c in involved if not np.isfinite(means[c])]:
        raise ValidationError(f"the scores of {overflow[0]!r} sum past the float range")
    row_order = _order_by_mean(rows, means, matrix.direction)
    column_order = _order_by_mean(cols, means, matrix.direction)

    mask = np.array(row_order, dtype=object)[:, None] != np.array(column_order, dtype=object)
    if not mask.any():
        raise ValidationError("report contains no comparisons")
    cells, bayes = compare_pairs(matrix, row_order, column_order, mask, config.tie_epsilon,
                                 bayes_config)

    return MCMReport(
        row_order=row_order,
        column_order=column_order,
        mean_performance={c: means[c] for c in involved},
        cells=cells,
        comparison_count=len(cells.table) if set(rows) == set(cols) else len(cells),
        alpha=alpha,
        direction=matrix.direction,
        n_tasks=matrix.n,
        tie_epsilon=float(config.tie_epsilon),
        bayes=bayes,
    )


def mcm_cell_invariance_check(
    matrix: ResultsMatrix,
    pair: tuple[str, str],
    subsets: Sequence[Sequence[str]],
) -> bool:
    """True iff the pair's cell is bit-identical across every subset report.

    Each subset must contain both pair members; the cell for the pair is
    recomputed from a report built on the sub-matrix over that subset.
    """
    a, b = matrix.check_pair(pair)
    reference: PairwiseComparison | None = None
    for subset in subsets:
        subset = matrix.check_names(subset, "subset")
        if a not in subset or b not in subset:
            raise ValidationError(f"subset {sorted(subset)!r} lacks pair {pair!r}")
        ordered = matrix.in_matrix_order(subset)
        cell = build_mcm(matrix.select_comparates(ordered)).cells[(a, b)]
        if reference is None:
            reference = cell
        elif cell != reference:
            return False
    return True


# One cell of ``cell_records_json``: the keys and indents ``json.dumps``
# gives a record two levels deep, without its closing brace.
_CELL_JSON = """    {
      "row": %s,
      "col": %s,
      "mean_diff": %s,
      "wins": %d,
      "ties": %d,
      "losses": %d,
      "p": %s,
      "p_method": %s,
      "significant": %s"""
_BAYES_JSON = """,
      "bayes": {
        "theta_left": %s,
        "theta_rope": %s,
        "theta_right": %s,
        "mc_samples": %d
      }"""


def cell_records_json(
    cells: PairGrid,
    alpha: float,
    bayes: PairGrid | None = None,
) -> str:
    """The JSON records of the cells of ``cells`` in grid order, as the
    text of a top-level value of an indent-2 document: ``json.dumps(records,
    indent=2)`` with every line after the first indented two more spaces.

    A record holds the cell's fields, ``"significant"`` (``p < alpha``) and,
    given posteriors on the same slots, ``"bayes"``.  The text is the join
    of ``_cell_record_rows``, whose chunks the CLI writes to its output
    one grid row at a time.
    """
    return "".join(_cell_record_rows(cells, alpha, bayes))


def _cell_record_rows(
    cells: PairGrid,
    alpha: float,
    bayes: PairGrid | None = None,
) -> Iterator[str]:
    """``cell_records_json``'s text in chunks: the opening bracket, then
    each grid row that holds a cell as it is formed, then the closing one.

    Each cell is one template filled from its grid row's oriented columns,
    its p-value, method and significance included, so no text outlives
    its row; each name is quoted once, by ``json``'s quoting function.
    Floats are written by ``float.__repr__``, as ``json`` writes a finite
    float; every value is.
    """
    if not cells:
        yield "[]"
        return
    quoted = [encode_basestring_ascii(name) for name in cells.columns]
    methods = {m: encode_basestring_ascii(m.value) for m in PMethod}
    r = float.__repr__
    yield "[\n"
    after = ""  # what closes the previous row's last record
    for i, name in enumerate(cells.rows):
        at, _, (_, _, means, wins, ties, losses, p_values, p_methods) = cells.row(i)
        if not at:
            continue
        row = encode_basestring_ascii(name)
        texts = [_CELL_JSON % (row, quoted[j], r(mean), w, t, l, r(p), methods[method],
                               "true" if p < alpha else "false")
                 for j, mean, w, t, l, p, method in zip(at, means, wins, ties, losses,
                                                        p_values, p_methods)]
        if bayes is not None:
            _, _, (left, rope, right, samples) = bayes.row(i)
            texts = [text + _BAYES_JSON % (r(a), r(b), r(c), n)
                     for text, a, b, c, n in zip(texts, left, rope, right, samples)]
        yield after + "\n    },\n".join(texts)
        after = "\n    },\n"
    yield "\n    }\n  ]"


def mcm_report_header(report: MCMReport) -> dict:
    """``mcm_report_to_dict(report)`` without its last key, ``"cells"``."""
    ordering = _order_by_mean(
        sorted(report.mean_performance), report.mean_performance, report.direction
    )
    return {
        "ordering": list(ordering),
        "row_order": list(report.row_order),
        "column_order": list(report.column_order),
        "mean_performance": {c: report.mean_performance[c] for c in ordering},
        "alpha": report.alpha,
        "ordering_statistic": "mean_performance",
        "tie_epsilon": report.tie_epsilon,
        "direction": report.direction.value,
        "n_tasks": report.n_tasks,
        "comparison_count": report.comparison_count,
    }


def mcm_report_to_dict(report: MCMReport) -> dict:
    """Canonical machine-readable form of a report: the header, then the
    ``"cells"`` that ``cell_records_json`` writes."""
    cells = json.loads(cell_records_json(report.cells, report.alpha, report.bayes))
    return {**mcm_report_header(report), "cells": cells}
