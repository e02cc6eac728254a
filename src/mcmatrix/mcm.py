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
from typing import Sequence

import numpy as np

from .bayes import BayesConfig, BayesPosterior, bayesian_signed_rank
from .data import Direction, ResultsMatrix
from .errors import PairNotInSubset
from .stats import (
    PairwiseComparison,
    check_alpha,
    oriented_differences,
    pairwise_comparison,
)

__all__ = ["MCMConfig", "MCMReport", "build_mcm", "compare_pairs",
           "mcm_cell_invariance_check", "mcm_report_to_dict"]


@dataclass(frozen=True)
class MCMConfig:
    """Report shape: significance level, optional focused row/column lists,
    tie tolerance, and whether to attach Bayesian posteriors per cell."""

    alpha: float = 0.05
    row_comparates: tuple[str, ...] | None = None
    column_comparates: tuple[str, ...] | None = None
    include_bayes: bool = False
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
    grid position; ``significance`` holds the uncorrected per-cell flag
    ``p < alpha``.  ``comparison_count`` counts off-diagonal grid cells in
    focused mode and distinct pairs in all-pairs mode.
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
    ordering_statistic: str = "mean_performance"
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
    """
    cells: dict[tuple[str, str], PairwiseComparison] = {}
    bayes: dict[tuple[str, str], BayesPosterior] | None = (
        None if bayes_config is None else {}
    )
    for r, c in pairs:
        if (c, r) in cells:
            cells[(r, c)] = cells[(c, r)].mirrored()
            if bayes is not None:
                bayes[(r, c)] = bayes[(c, r)].mirrored()
            continue
        cells[(r, c)] = pairwise_comparison(matrix, r, c, tie_epsilon)
        if bayes is not None:
            bayes[(r, c)] = bayesian_signed_rank(
                oriented_differences(matrix, r, c), bayes_config
            )
    return cells, bayes


def build_mcm(
    matrix: ResultsMatrix,
    config: MCMConfig = MCMConfig(),
    bayes_config: BayesConfig | None = None,
) -> MCMReport:
    """Build the comparison grid for a matrix under the given configuration.

    When ``config.include_bayes`` is set, each cell also gets a Bayesian
    signed-rank posterior computed with ``bayes_config`` (defaults apply
    when omitted).  Each unordered pair is evaluated once (see
    ``compare_pairs``).
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
    bcfg = None
    if config.include_bayes:
        bcfg = bayes_config if bayes_config is not None else BayesConfig()
    cells, bayes = compare_pairs(matrix, pairs, config.tie_epsilon, bcfg)
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
    alpha: float = 0.05,
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
            MCMConfig(alpha=alpha, tie_epsilon=tie_epsilon),
        )
        key = _cell_key(report.cells[(a, b)])
        if reference is None:
            reference = key
        elif key != reference:
            return False
    return True


def mcm_report_to_dict(report: MCMReport) -> dict:
    """Canonical machine-readable form of a report."""
    cells = []
    for r in report.row_order:
        for c in report.column_order:
            if r == c:
                continue
            entry = report.cells[(r, c)].to_dict()
            entry["significant"] = report.significance[(r, c)]
            if report.bayes is not None:
                entry["bayes"] = report.bayes[(r, c)].to_dict()
            cells.append(entry)
    ordering = _order_by_mean(
        sorted(report.mean_performance), report.mean_performance, report.direction
    )
    return {
        "ordering": list(ordering),
        "row_order": list(report.row_order),
        "column_order": list(report.column_order),
        "mean_performance": {c: report.mean_performance[c] for c in ordering},
        "alpha": report.alpha,
        "ordering_statistic": report.ordering_statistic,
        "tie_epsilon": report.tie_epsilon,
        "direction": report.direction.value,
        "n_tasks": report.n_tasks,
        "comparison_count": report.comparison_count,
        "cells": cells,
    }
