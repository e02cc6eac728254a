"""Frequentist statistics kernel.

Per-task ranks and average ranks, the two-sided Wilcoxon signed-rank test
(exact by dynamic programming, or a tie-corrected normal approximation),
pairwise comparison cells, the Friedman test, the rank-based critical
difference, and the Holm step-down correction.

All functions here are pure and reentrant: no shared mutable state, no
internal randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .data import Direction, ResultsMatrix
from .errors import (
    EmptyInput,
    InternalError,
    InvalidAlpha,
    InvalidP,
    MOutOfTableRange,
    SameComparate,
    TooFewComparates,
    TooFewTasks,
    UnsupportedAlpha,
    ValidationError,
)

__all__ = [
    "PMethod",
    "RankTable",
    "PairwiseComparison",
    "HolmDecision",
    "DEFAULT_EXACT_THRESHOLD",
    "compute_ranks",
    "wilcoxon_signed_rank",
    "pairwise_comparison",
    "oriented_differences",
    "friedman_test",
    "nemenyi_critical_difference",
    "check_alpha",
    "holm_correction",
    "pair_id",
    "all_pairs_pvalues",
    "holm_significance",
]

#: Largest number of nonzero differences for which the exact signed-rank
#: distribution is computed by default; above this the normal
#: approximation with tie and continuity corrections is used.
DEFAULT_EXACT_THRESHOLD = 25


class PMethod(Enum):
    """How a Wilcoxon p-value was obtained."""

    EXACT = "exact"
    NORMAL_APPROXIMATION = "normal_approximation"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class RankTable:
    """Per-task ranks (1 = best, ties share the averaged rank) and row means."""

    ranks: np.ndarray          # m x n
    average_ranks: np.ndarray  # length m

    def __post_init__(self):
        self.ranks.flags.writeable = False
        self.average_ranks.flags.writeable = False


@dataclass(frozen=True)
class PairwiseComparison:
    """One cell of a comparison grid, from the row comparate's perspective.

    ``mean_difference`` is oriented so that a positive value means the row
    comparate is better under the matrix direction; wins/ties/losses count
    tasks from the same perspective.
    """

    row: str
    column: str
    mean_difference: float
    wins: int
    ties: int
    losses: int
    p_value: float
    p_method: PMethod

    def to_dict(self) -> dict:
        return {
            "row": self.row,
            "col": self.column,
            "mean_diff": self.mean_difference,
            "wins": self.wins,
            "ties": self.ties,
            "losses": self.losses,
            "p": self.p_value,
            "p_method": self.p_method.value,
        }

    def mirrored(self) -> PairwiseComparison:
        """The same cell from the column comparate's perspective.

        Bit-identical to evaluating the reversed pair: the differences only
        change sign, so the p-value is shared and wins and losses swap.
        ``0.0 - x`` rather than ``-x`` keeps a zero mean difference at +0.0,
        as direct evaluation gives it.
        """
        return PairwiseComparison(
            row=self.column,
            column=self.row,
            mean_difference=0.0 - self.mean_difference,
            wins=self.losses,
            ties=self.ties,
            losses=self.wins,
            p_value=self.p_value,
            p_method=self.p_method,
        )


@dataclass(frozen=True)
class HolmDecision:
    """Step-down outcome for one pair, in ascending-p order."""

    pair: object
    p_value: float
    significant: bool
    threshold: float


def compute_ranks(matrix: ResultsMatrix) -> RankTable:
    """Rank each comparate on each task: 1 plus the number of strictly
    better comparates plus half the number of equal ones (excluding self).
    Average ranks are the row means."""
    vals = matrix.scores
    if matrix.direction is Direction.LOWER_IS_BETTER:
        vals = -vals
    m, n = vals.shape
    ranks = np.empty((m, n), dtype=np.float64)
    for j in range(n):
        col = vals[:, j]
        better = (col[None, :] > col[:, None]).sum(axis=1)
        equal = (col[None, :] == col[:, None]).sum(axis=1) - 1
        ranks[:, j] = 1.0 + better + 0.5 * equal
    average = np.array([float(np.mean(ranks[i])) for i in range(m)])
    return RankTable(ranks=ranks, average_ranks=average)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks (1 = smallest) with ties averaged."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.arange(1, values.size + 1, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=ranks)
    return (sums / counts)[inverse]


def _exact_two_sided(doubled_ranks: np.ndarray, doubled_w: int, k: int) -> float:
    # Distribution of the doubled positive-rank sum over all 2^k sign
    # assignments, by subset-sum counting.  Doubling makes averaged tie
    # ranks integral; counts stay exact in int64 for k <= 25.
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for t in doubled_ranks:
        t = int(t)
        counts[t:] = counts[t:] + counts[:-t]
    n_assignments = 1 << k
    if int(counts.sum()) != n_assignments:
        raise InternalError("signed-rank distribution lost mass")
    le = int(counts[: doubled_w + 1].sum())
    ge = int(counts[doubled_w:].sum())
    return min(1.0, 2.0 * min(le, ge) / float(n_assignments))


def _approx_two_sided(ranks: np.ndarray, w_plus: float, k: int) -> float:
    mean = k * (k + 1) / 4.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    variance = k * (k + 1) * (2 * k + 1) / 24.0 - tie_term / 48.0
    if variance <= 0.0:
        raise InternalError("non-positive signed-rank variance")
    # Continuity correction of one half, applied toward the mean so the
    # result is symmetric in the two one-sided statistics.
    numerator = max(abs(w_plus - mean) - 0.5, 0.0)
    z = numerator / math.sqrt(variance)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def wilcoxon_signed_rank(
    diffs: Sequence[float],
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    method: str = "auto",
) -> tuple[float, PMethod]:
    """Two-sided signed-rank p-value for paired differences.

    Zero differences are discarded before ranking; tied absolute
    differences receive averaged ranks.  With at most ``exact_threshold``
    nonzero differences the p-value comes from the exact distribution over
    all sign assignments; beyond that a normal approximation with tie and
    continuity corrections is used.  ``method`` may force ``"exact"`` or
    ``"approx"``.

    Returns ``(p, method)``; all-zero input yields ``(1.0, DEGENERATE)``.
    """
    d = np.asarray(diffs, dtype=np.float64)
    if d.size == 0:
        raise EmptyInput("need at least one difference")
    if not np.isfinite(d).all():
        raise ValidationError("differences must be finite")
    if method not in ("auto", "exact", "approx"):
        raise ValidationError(f"unknown method {method!r}")

    nz = d[d != 0.0]
    k = int(nz.size)
    if k == 0:
        return 1.0, PMethod.DEGENERATE

    ranks = _average_ranks(np.abs(nz))
    w_plus = float(ranks[nz > 0.0].sum())

    use_exact = method == "exact" or (method == "auto" and k <= exact_threshold)
    if use_exact:
        if k > 62:  # 2^k assignments must stay countable in int64
            raise ValidationError(
                f"exact distribution infeasible for {k} nonzero differences"
            )
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        if int(doubled.sum()) != k * (k + 1):
            raise InternalError("doubled ranks do not sum to k(k+1)")
        p = _exact_two_sided(doubled, int(round(2.0 * w_plus)), k)
        return p, PMethod.EXACT
    return _approx_two_sided(ranks, w_plus, k), PMethod.NORMAL_APPROXIMATION


def oriented_differences(matrix: ResultsMatrix, row: str, column: str) -> np.ndarray:
    """Per-task score differences, positive when the row comparate is better."""
    if row == column:
        raise SameComparate(f"cannot compare {row!r} with itself")
    raw = matrix.row(row) - matrix.row(column)
    if matrix.direction is Direction.LOWER_IS_BETTER:
        raw = -raw
    return raw


def pairwise_comparison(
    matrix: ResultsMatrix,
    row: str,
    column: str,
    tie_epsilon: float = 0.0,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> PairwiseComparison:
    """Mean difference, win/tie/loss counts, and Wilcoxon p for one pair.

    A task counts as a tie when the absolute oriented difference is at most
    ``tie_epsilon`` (default: exact equality).  The p-value is computed on
    the raw oriented differences and depends only on the two comparates'
    score vectors.
    """
    tie_epsilon = float(tie_epsilon)
    if tie_epsilon < 0.0 or not math.isfinite(tie_epsilon):
        raise ValidationError("tie_epsilon must be a finite value >= 0")
    diffs = oriented_differences(matrix, row, column)
    wins = int((diffs > tie_epsilon).sum())
    losses = int((diffs < -tie_epsilon).sum())
    ties = matrix.n - wins - losses
    p, p_method = wilcoxon_signed_rank(diffs, exact_threshold=exact_threshold)
    return PairwiseComparison(
        row=row,
        column=column,
        # "+ 0.0" turns a mean that underflows to -0.0 into +0.0, the value
        # the mirror of the reversed pair gives.
        mean_difference=float(np.mean(diffs)) + 0.0,
        wins=wins,
        ties=ties,
        losses=losses,
        p_value=p,
        p_method=p_method,
    )


def friedman_test(matrix: ResultsMatrix) -> tuple[float, float]:
    """Friedman chi-square statistic with tie correction and its p-value.

    Requires m >= 3 comparates and n >= 2 tasks.  A matrix whose tasks are
    all full ties yields (0, 1).
    """
    m, n = matrix.m, matrix.n
    if m < 3:
        raise TooFewComparates("the Friedman test needs at least three comparates")
    if n < 2:
        raise TooFewTasks("the Friedman test needs at least two tasks")

    table = compute_ranks(matrix)
    rank_sums = table.ranks.sum(axis=1)
    raw = 12.0 / (n * m * (m + 1)) * float((rank_sums**2).sum()) - 3.0 * n * (m + 1)

    tie_term = 0.0
    for j in range(n):
        _, counts = np.unique(matrix.scores[:, j], return_counts=True)
        tie_term += float((counts.astype(np.float64) ** 3 - counts).sum())
    correction = 1.0 - tie_term / (n * m * (m * m - 1))
    if correction <= 0.0:
        # Every task is a full tie: no rank variation at all.
        return 0.0, 1.0
    statistic = max(raw / correction, 0.0)
    from scipy.stats import chi2  # imported here: scipy.stats costs ~1 s to load

    p = float(chi2.sf(statistic, m - 1))
    return statistic, p


# Critical-value constants for the rank-based critical difference at the
# two supported significance levels: the 1-alpha quantile of the
# studentized range distribution with infinite degrees of freedom, divided
# by sqrt(2), for group counts m = 2..20.  Rounded to six decimals from
# scipy.stats.studentized_range.ppf(1 - alpha, m, inf); see
# docs/style-reference.md for the full table and tests for the cross-check.
_Q_CONSTANTS: dict[float, tuple[float, ...]] = {
    0.05: (
        1.959964, 2.343701, 2.569032, 2.727774, 2.849705,
        2.948320, 3.030878, 3.101730, 3.163684, 3.218654,
        3.268004, 3.312739, 3.353618, 3.391230, 3.426041,
        3.458425, 3.488685, 3.517073, 3.543799,
    ),
    0.10: (
        1.644854, 2.052293, 2.291341, 2.459516, 2.588521,
        2.692732, 2.779884, 2.854606, 2.919889, 2.977768,
        3.029694, 3.076733, 3.119693, 3.159199, 3.195743,
        3.229723, 3.261461, 3.291224, 3.319233,
    ),
}


def nemenyi_critical_difference(m: int, n: int, alpha: float = 0.05) -> float:
    """Minimal average-rank gap deemed significant at level alpha.

    ``q * sqrt(m (m + 1) / (6 n))`` with q from the embedded
    studentized-range table (alpha in {0.05, 0.10}, 2 <= m <= 20).
    """
    alpha = float(alpha)
    table = _Q_CONSTANTS.get(alpha)
    if table is None:
        raise UnsupportedAlpha(
            f"no critical-value table for alpha={alpha!r}; supported: 0.05, 0.10"
        )
    m = int(m)
    if not 2 <= m <= 1 + len(table):
        raise MOutOfTableRange(f"m={m} outside the tabulated range 2..{1 + len(table)}")
    n = int(n)
    if n < 1:
        raise ValidationError("n must be at least 1")
    return table[m - 2] * math.sqrt(m * (m + 1) / (6.0 * n))


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float; ``InvalidAlpha`` unless it lies in (0, 1)."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise InvalidAlpha(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def holm_correction(
    pairs: Iterable[tuple[object, float]],
    alpha: float,
) -> list[HolmDecision]:
    """Step-down familywise correction over a family of p-values.

    P-values are sorted ascending (ties broken by pair id for
    determinism); the i-th smallest is tested against alpha / (N + 1 - i)
    and rejection stops at the first failure, leaving that p-value and all
    larger ones non-significant.  Equal p-values always receive the same
    decision.  Results are returned in the sorted order.
    """
    alpha = check_alpha(alpha)
    items = [(pid, float(p)) for pid, p in pairs]
    for pid, p in items:
        if not (0.0 <= p <= 1.0) or not math.isfinite(p):
            raise InvalidP(f"p-value for pair {pid!r} outside [0, 1]: {p!r}")

    items.sort(key=lambda item: (item[1], _sort_token(item[0])))
    total = len(items)
    decisions: list[HolmDecision] = []
    rejecting = True
    for i, (pid, p) in enumerate(items):
        threshold = alpha / (total - i)
        significant = rejecting and p <= threshold
        if rejecting and p > threshold:
            rejecting = False
        decisions.append(HolmDecision(pid, p, significant, threshold))

    # With the stop rule, equal p-values are already decided uniformly;
    # unify anyway so the guarantee does not depend on that argument.
    by_p: dict[float, bool] = {}
    for d in decisions:
        by_p[d.p_value] = by_p.get(d.p_value, False) or d.significant
    return [
        HolmDecision(d.pair, d.p_value, by_p[d.p_value], d.threshold)
        for d in decisions
    ]


def _sort_token(pid: object):
    # Pair ids are usually tuples of names; fall back to repr so mixed id
    # types still sort deterministically.
    if isinstance(pid, tuple) and all(isinstance(x, str) for x in pid):
        return (0, pid)
    if isinstance(pid, str):
        return (1, pid)
    return (2, repr(pid))


def pair_id(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered pair identifier (name-sorted)."""
    return (a, b) if a <= b else (b, a)


def all_pairs_pvalues(
    matrix: ResultsMatrix,
    names: Sequence[str] | None = None,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> dict[tuple[str, str], float]:
    """Two-sided Wilcoxon p for every unordered pair among ``names``."""
    members = tuple(names) if names is not None else matrix.comparates
    out: dict[tuple[str, str], float] = {}
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            a, b = members[i], members[j]
            p, _ = wilcoxon_signed_rank(
                oriented_differences(matrix, a, b), exact_threshold=exact_threshold
            )
            out[pair_id(a, b)] = p
    return out


def holm_significance(
    matrix: ResultsMatrix,
    names: Sequence[str],
    alpha: float,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> dict[tuple[str, str], bool]:
    """Holm-corrected significance of every pair among ``names``."""
    members = list(names)
    if len(members) < 2:
        raise TooFewComparates("need at least two comparates for pairwise tests")
    pvalues = all_pairs_pvalues(matrix, members, exact_threshold)
    return {d.pair: d.significant for d in holm_correction(pvalues.items(), alpha)}
