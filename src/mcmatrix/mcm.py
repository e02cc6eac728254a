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

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .bayes import BayesConfig, BayesPosterior, bayesian_signed_rank
from .data import Direction, ResultsMatrix
from .errors import EmptyReport, InternalError, PairNotInSubset
from .stats import (
    MIN_BLOCK_PAIRS,
    PairwiseComparison,
    PMethod,
    check_alpha,
    oriented_differences,
    pair_statistics,
    pairwise_comparison,
)

__all__ = ["MCMConfig", "MCMReport", "build_mcm", "cell_records", "cell_records_json",
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

    def __post_init__(self):
        if self.row_comparates is not None:
            object.__setattr__(self, "row_comparates", tuple(self.row_comparates))
        if self.column_comparates is not None:
            object.__setattr__(self, "column_comparates", tuple(self.column_comparates))


@dataclass(frozen=True)
class MCMReport:
    """Ordered grid of pairwise cells plus the metadata used to build it.

    ``cells`` maps (row, column) to a comparison for every off-diagonal
    grid position, in grid order: row-major over ``row_order`` x
    ``column_order``, diagonal skipped.  ``significance`` holds the
    uncorrected per-cell flag ``p < alpha``.  ``comparison_count`` counts
    off-diagonal grid cells in focused mode and distinct pairs in all-pairs
    mode.
    """

    row_order: tuple[str, ...]
    column_order: tuple[str, ...]
    mean_performance: dict[str, float]
    cells: dict[tuple[str, str], PairwiseComparison]
    significance: dict[tuple[str, str], bool]
    comparison_count: int
    alpha: float
    direction: Direction
    n_tasks: int
    tie_epsilon: float = 0.0
    bayes: dict[tuple[str, str], BayesPosterior] | None = None


def _order_by_mean(names: Sequence[str], means: dict[str, float],
                   direction: Direction) -> tuple[str, ...]:
    # Best first; ties broken lexicographically by name for determinism.
    if direction is Direction.HIGHER_IS_BETTER:
        return tuple(sorted(names, key=lambda c: (-means[c], c)))
    return tuple(sorted(names, key=lambda c: (means[c], c)))


def compare_pairs(
    matrix: ResultsMatrix,
    pairs: Sequence[tuple[str, str]],
    tie_epsilon: float = 0.0,
    bayes_config: BayesConfig | None = None,
) -> tuple[dict[tuple[str, str], PairwiseComparison],
           dict[tuple[str, str], BayesPosterior] | None]:
    """Cells, and with a Bayes config posteriors, for ordered (row, column) pairs.

    Each unordered pair is evaluated once, in the orientation that comes
    first in ``pairs``; the reverse orientation, when also asked for, is
    the mirror of that result, bit-identical to evaluating it directly.
    With at least ``MIN_BLOCK_PAIRS`` unordered pairs the cells come from
    ``pair_statistics`` in numpy blocks, and the first one is evaluated
    again by ``pairwise_comparison``: a disagreement raises
    ``InternalError``.  That compares a block with a one-row run of the
    same kernel, not with an independent implementation.  Fewer pairs are
    evaluated one at a time by ``pairwise_comparison``.  Posteriors are
    computed pair by pair.
    """
    first: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for r, c in pairs:
        if (r, c) not in seen and (c, r) not in seen:
            seen.add((r, c))
            first.append((r, c))
    if len(first) < MIN_BLOCK_PAIRS:
        evaluated = {pair: pairwise_comparison(matrix, *pair, tie_epsilon) for pair in first}
    else:
        evaluated = dict(zip(first, pair_statistics(matrix, first, tie_epsilon)))
        alone = pairwise_comparison(matrix, *first[0], tie_epsilon)
        if alone != evaluated[first[0]]:
            raise InternalError(
                f"batched pair statistics gave {evaluated[first[0]]!r}; "
                f"pairwise_comparison gives {alone!r}"
            )
    cells: dict[tuple[str, str], PairwiseComparison] = {}
    bayes: dict[tuple[str, str], BayesPosterior] | None = (
        None if bayes_config is None else {}
    )
    for r, c in pairs:
        if (r, c) in evaluated:
            cells[(r, c)] = evaluated[(r, c)]
            if bayes is not None:
                bayes[(r, c)] = bayesian_signed_rank(
                    oriented_differences(matrix, r, c), bayes_config
                )
        else:
            cells[(r, c)] = evaluated[(c, r)].mirrored()
            if bayes is not None:
                bayes[(r, c)] = bayes[(c, r)].mirrored()
    return cells, bayes


def build_mcm(
    matrix: ResultsMatrix,
    config: MCMConfig = MCMConfig(),
    bayes_config: BayesConfig | None = None,
) -> MCMReport:
    """Build the comparison grid for a matrix under the given configuration.

    When a ``bayes_config`` is given, each cell also gets a Bayesian
    signed-rank posterior computed with it.  Each unordered pair is
    evaluated once (see ``compare_pairs``).  A grid without an
    off-diagonal cell raises ``EmptyReport``.
    """
    alpha = check_alpha(config.alpha)
    rows = matrix.check_names(config.row_comparates or matrix.comparates,
                              "row selection")
    cols = matrix.check_names(config.column_comparates or matrix.comparates,
                              "column selection")

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
        raise EmptyReport("report contains no comparisons")
    cells, bayes = compare_pairs(matrix, pairs, config.tie_epsilon, bayes_config)
    significance = {p: cells[p].p_value < alpha for p in pairs}

    return MCMReport(
        row_order=row_order,
        column_order=column_order,
        mean_performance={c: means[c] for c in involved},
        cells=cells,
        significance=significance,
        comparison_count=count,
        alpha=alpha,
        direction=matrix.direction,
        n_tasks=matrix.n,
        tie_epsilon=float(config.tie_epsilon),
        bayes=bayes,
    )


def _cell_key(cell: PairwiseComparison) -> tuple:
    return (
        cell.mean_difference,
        cell.wins,
        cell.ties,
        cell.losses,
        cell.p_value,
        cell.p_method,
    )


def mcm_cell_invariance_check(
    matrix: ResultsMatrix,
    pair: tuple[str, str],
    subsets: Sequence[Sequence[str]],
    tie_epsilon: float = 0.0,
) -> bool:
    """True iff the pair's cell is bit-identical across every subset report.

    Each subset must contain both pair members; the cell for the pair is
    recomputed from a report built on the sub-matrix over that subset.
    """
    a, b = pair
    reference: tuple | None = None
    for subset in subsets:
        subset_set = set(subset)
        if a not in subset_set or b not in subset_set:
            raise PairNotInSubset(f"subset {sorted(subset_set)!r} lacks pair {pair!r}")
        ordered = matrix.in_matrix_order(subset_set)
        report = build_mcm(
            matrix.select_comparates(ordered),
            MCMConfig(tie_epsilon=tie_epsilon),
        )
        key = _cell_key(report.cells[(a, b)])
        if reference is None:
            reference = key
        elif key != reference:
            return False
    return True


def cell_records(
    cells: dict[tuple[str, str], PairwiseComparison],
    alpha: float,
    bayes: dict[tuple[str, str], BayesPosterior] | None = None,
) -> list[dict]:
    """JSON records of ``cells``, in their order: each cell's fields, then
    ``"significant"`` (``p < alpha``), then ``"bayes"`` when posteriors exist."""
    records = []
    for pair, cell in cells.items():
        record = cell.to_dict()
        record["significant"] = cell.p_value < alpha
        if bayes is not None:
            record["bayes"] = bayes[pair].to_dict()
        records.append(record)
    return records


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
    cells: dict[tuple[str, str], PairwiseComparison],
    alpha: float,
    bayes: dict[tuple[str, str], BayesPosterior] | None = None,
) -> str:
    """``cell_records(cells, alpha, bayes)`` as the JSON text of a
    top-level value of an indent-2 document: ``json.dumps(records,
    indent=2)`` with every line after the first indented two more spaces.

    Each cell is one template.  Each name is quoted once, by the function
    ``json`` quotes with, and floats are written by ``float.__repr__``,
    which is what ``json`` writes for a finite float; every cell value is
    finite.
    """
    if not cells:
        return "[]"
    names = {name for cell in cells.values() for name in (cell.row, cell.column)}
    quoted = {name: encode_basestring_ascii(name) for name in names}
    methods = {m: encode_basestring_ascii(m.value) for m in PMethod}
    r = float.__repr__
    parts = []
    for pair, cell in cells.items():
        text = _CELL_JSON % (
            quoted[cell.row], quoted[cell.column], r(cell.mean_difference),
            cell.wins, cell.ties, cell.losses, r(cell.p_value), methods[cell.p_method],
            "true" if cell.p_value < alpha else "false",
        )
        if bayes is not None:
            post = bayes[pair]
            text += _BAYES_JSON % (r(post.theta_left), r(post.theta_rope),
                                   r(post.theta_right), post.mc_samples_used)
        parts.append(text)
    return "[\n" + "\n    },\n".join(parts) + "\n    }\n  ]"


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
