"""Assembly of the multi-comparison report.

A report is a grid of pairwise comparison cells over selected row and
column comparates, ordered by mean performance.  Each cell depends only on
the two comparates' score vectors, so no cell (and no pairwise ordering)
can change when other comparates enter or leave the study.  Significance
flags are deliberately uncorrected per-pair thresholds; a familywise
correction would reintroduce exactly the set-dependence this layout is
designed to remove, so none is offered here.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .bayes import BayesConfig, BayesPosterior, bayesian_signed_rank
from .data import Direction, ResultsMatrix
from .errors import InternalError, ValidationError
from .stats import (
    MIN_BLOCK_PAIRS,
    PairTable,
    PairwiseComparison,
    PMethod,
    _differences,
    check_alpha,
    pair_statistics,
    pairwise_comparison,
)

__all__ = ["MCMConfig", "MCMReport", "PairGrid", "build_mcm", "cell_records",
           "cell_records_json", "compare_pairs", "mcm_cell_invariance_check",
           "mcm_report_header", "mcm_report_to_dict"]


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

    ``cells`` maps (row, column) to a comparison for every off-diagonal
    grid position, in grid order: row-major over ``row_order`` x
    ``column_order``, diagonal skipped.  ``bayes``, when posteriors were
    asked for, maps the same keys to them.  A cell is significant iff its
    uncorrected ``p_value < alpha``.  ``comparison_count`` counts
    off-diagonal grid cells in focused mode and distinct pairs in all-pairs
    mode.
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


class PairGrid(Mapping):
    """Read-only mapping of ordered (row, column) pairs to the values of
    their unordered pairs, in the order the pairs were asked for.

    ``index`` maps each key to ``(i, reversed)``: ``table[i]`` is the value
    of the pair in the orientation it was evaluated in, and a reversed key
    reads its ``mirrored()``.  Cells keep ``table`` a ``PairTable``, whose
    ``fields(i, reversed)`` the writers read instead of building cells;
    posteriors keep it a ``bayes.PosteriorTable``.
    """

    __slots__ = ("table", "index")

    def __init__(self, table: Sequence, index: dict[tuple[str, str], tuple[int, bool]]):
        self.table = table
        self.index = index

    def __getitem__(self, key):
        i, reverse = self.index[key]
        value = self.table[i]
        return value.mirrored() if reverse else value

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


def compare_pairs(
    matrix: ResultsMatrix,
    pairs: Sequence[tuple[str, str]],
    tie_epsilon: float = 0.0,
    bayes_config: BayesConfig | None = None,
) -> tuple[PairGrid, PairGrid | None]:
    """Cells, and with a Bayes config posteriors, for ordered (row, column) pairs.

    Each unordered pair is evaluated once, in the orientation that comes
    first in ``pairs``, into one ``PairTable``; the reverse orientation,
    when also asked for, reads the mirror of that result, bit-identical to
    evaluating it directly.  With at least ``MIN_BLOCK_PAIRS`` unordered
    pairs the table comes from ``pair_statistics`` in numpy blocks, and the
    first pair is evaluated again by ``pairwise_comparison``: a
    disagreement raises ``InternalError``.  That compares a block with a
    one-row run of the same kernel, not with an independent
    implementation.  Fewer pairs are evaluated one at a time by
    ``pairwise_comparison``.  Posteriors come from one
    ``bayesian_signed_rank`` call on the block of every unordered pair, so
    each chunk of Dirichlet weights is drawn once per call.
    """
    index: dict[tuple[str, str], tuple[int, bool]] = {}
    first: list[tuple[str, str]] = []
    for r, c in pairs:
        if (r, c) not in index:
            seen = index.get((c, r))
            if seen is None:
                index[(r, c)] = (len(first), False)
                first.append((r, c))
            else:
                index[(r, c)] = (seen[0], True)
    if len(first) < MIN_BLOCK_PAIRS:
        alone = [pairwise_comparison(matrix, *pair, tie_epsilon) for pair in first]
        columns = (tuple(getattr(cell, name) for cell in alone) for name in
                   ("mean_difference", "wins", "losses", "p_value", "p_method"))
        table = PairTable(tuple(first), *columns, matrix.n)
    else:
        table = pair_statistics(matrix, first, tie_epsilon)
        alone = pairwise_comparison(matrix, *first[0], tie_epsilon)
        if alone != table[0]:
            raise InternalError(
                f"batched pair statistics gave {table[0]!r}; "
                f"pairwise_comparison gives {alone!r}"
            )
    bayes = None
    if bayes_config is not None:
        bayes = PairGrid(bayesian_signed_rank(_differences(matrix, first), bayes_config),
                         index)
    return PairGrid(table, index), bayes


def build_mcm(
    matrix: ResultsMatrix,
    config: MCMConfig = MCMConfig(),
    bayes_config: BayesConfig | None = None,
) -> MCMReport:
    """Build the comparison grid for a matrix under the given configuration.

    When a ``bayes_config`` is given, each cell also gets a Bayesian
    signed-rank posterior computed with it.  Each unordered pair is
    evaluated once (see ``compare_pairs``).  A grid without an
    off-diagonal cell raises ``ValidationError``.
    """
    alpha = check_alpha(config.alpha)
    rows = cols = matrix.comparates
    if config.row_comparates is not None:
        rows = matrix.check_names(config.row_comparates, "row selection")
    if config.column_comparates is not None:
        cols = matrix.check_names(config.column_comparates, "column selection")

    involved = sorted(set(rows) | set(cols))
    means = {c: float(np.mean(matrix.row(c))) for c in involved}
    row_order = _order_by_mean(rows, means, matrix.direction)
    column_order = _order_by_mean(cols, means, matrix.direction)

    if set(rows) == set(cols):
        count = len(rows) * (len(rows) - 1) // 2
    else:
        count = len(rows) * len(cols) - len(set(rows) & set(cols))

    pairs = [(r, c) for r in row_order for c in column_order if r != c]
    if not pairs:
        raise ValidationError("report contains no comparisons")
    cells, bayes = compare_pairs(matrix, pairs, config.tie_epsilon, bayes_config)

    return MCMReport(
        row_order=row_order,
        column_order=column_order,
        mean_performance={c: means[c] for c in involved},
        cells=cells,
        comparison_count=count,
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


def cell_records(
    cells: Mapping[tuple[str, str], PairwiseComparison],
    alpha: float,
    bayes: Mapping[tuple[str, str], BayesPosterior] | None = None,
) -> list[dict]:
    """JSON records of ``cells``, in their order: each cell's fields, then
    ``"significant"`` (``p < alpha``), then ``"bayes"`` when posteriors exist."""
    records = []
    for pair, cell in cells.items():
        record = {
            "row": cell.row,
            "col": cell.column,
            "mean_diff": cell.mean_difference,
            "wins": cell.wins,
            "ties": cell.ties,
            "losses": cell.losses,
            "p": cell.p_value,
            "p_method": cell.p_method.value,
            "significant": cell.p_value < alpha,
        }
        if bayes is not None:
            post = bayes[pair]
            record["bayes"] = {
                "theta_left": post.theta_left,
                "theta_rope": post.theta_rope,
                "theta_right": post.theta_right,
                "mc_samples": post.mc_samples_used,
            }
        records.append(record)
    return records


# One cell of ``cell_records_json``: the keys and indents ``json.dumps``
# gives a record two levels deep, without its closing brace.  The last
# three fields depend only on the unordered pair.
_CELL_JSON = """    {
      "row": %s,
      "col": %s,
      "mean_diff": %s,
      "wins": %d,
      "ties": %d,
      "losses": %d,
%s"""
_TEST_JSON = """      "p": %s,
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
    """``cell_records(cells, alpha, bayes)`` as the JSON text of a
    top-level value of an indent-2 document: ``json.dumps(records,
    indent=2)`` with every line after the first indented two more spaces.

    ``cells`` is a ``PairGrid`` over a ``PairTable``, as ``compare_pairs``
    gives it.  Each cell is one template, filled from the table's columns:
    each name is quoted once, by the function ``json`` quotes with, and
    each unordered pair's p-value, method and significance are written
    once.  Floats are written by ``float.__repr__``, which is what ``json``
    writes for a finite float; every cell value is finite.
    """
    if not cells:
        return "[]"
    table = cells.table
    names = {name for pair in table.pairs for name in pair}
    quoted = {name: encode_basestring_ascii(name) for name in names}
    methods = {m: encode_basestring_ascii(m.value) for m in PMethod}
    r = float.__repr__
    tests = [_TEST_JSON % (r(p), methods[method], "true" if p < alpha else "false")
             for p, method in zip(table.p_value, table.p_method)]
    parts = ["[\n"]  # a grid row's cells are joined as it is formed
    for _, group in itertools.groupby(cells.index.items(), lambda item: item[0][0]):
        texts = []
        for pair, (i, reverse) in group:
            row, column, mean, wins, ties, losses, _, _ = table.fields(i, reverse)
            text = _CELL_JSON % (quoted[row], quoted[column], r(mean), wins, ties, losses,
                                 tests[i])
            if bayes is not None:
                post = bayes[pair]
                text += _BAYES_JSON % (r(post.theta_left), r(post.theta_rope),
                                       r(post.theta_right), post.mc_samples_used)
            texts.append(text)
        parts += ("\n    },\n".join(texts), "\n    },\n")
    parts[-1] = "\n    }\n  ]"
    del tests  # the rows hold every cell: join them alone
    return "".join(parts)


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
    """Canonical machine-readable form of a report."""
    return {
        **mcm_report_header(report),
        "cells": cell_records(report.cells, report.alpha, report.bayes),
    }
