"""Frequentist statistics kernel.

Per-task ranks and average ranks, the two-sided Wilcoxon signed-rank test
(exact by dynamic programming, or a tie-corrected normal approximation),
pairwise comparison cells for one pair or for numpy blocks of pairs, the
Friedman test, the rank-based critical difference, and the Holm step-down
correction.

All functions here are pure and reentrant: no shared mutable state, no
internal randomness.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Direction, ResultsMatrix
from .errors import InternalError, TooFewComparates, TooFewTasks, ValidationError

__all__ = [
    "PMethod",
    "RankTable",
    "PairwiseComparison",
    "PairTable",
    "HolmDecision",
    "DEFAULT_EXACT_THRESHOLD",
    "compute_ranks",
    "wilcoxon_signed_rank",
    "pairwise_comparison",
    "pair_statistics",
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
#: distribution is computed; above this the normal approximation with tie
#: and continuity corrections is used.
DEFAULT_EXACT_THRESHOLD = 25

#: Most nonzero differences whose 2^k sign assignments int64 can count.
_MAX_EXACT = 62

#: Fewest nonzero differences whose k(k+1)(2k+1) the normal approximation
#: computes with Python ints: int64 overflows from about 1.65 million.
_INT64_TAIL = 1 << 20

#: Differences per block of pairs, and counts per block of exact
#: distributions: bounds the kernel's working memory whatever n is.
_BLOCK = 1 << 19

#: Fewest pairs that are evaluated as one block.  Below this the pair loops
#: (``mcm.compare_pairs``, ``all_pairs_pvalues``) take each pair alone, and
#: ``pair_statistics`` tests each row alone, through the single-pair
#: functions ``pairwise_comparison`` and ``wilcoxon_signed_rank``.
#: ``perfbench/spans.py`` times those per call, so its per-pair counters
#: stay exact on small tables until it counts pairs at the pair loops.  On
#: seven pairs row by row costs at most about 2 ms more than a block.
MIN_BLOCK_PAIRS = 8


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

    def mirrored(self) -> PairwiseComparison:
        """The same cell from the column comparate's perspective.

        Bit-identical to evaluating the reversed pair (see ``_mirror``).
        """
        return PairwiseComparison(*_mirror(
            self.row, self.column, self.mean_difference, self.wins, self.ties,
            self.losses, self.p_value, self.p_method,
        ))


def _mirror(row, column, mean_difference, wins, ties, losses, p_value, p_method) -> tuple:
    """A cell's fields from the column comparate's perspective.

    The differences only change sign, so the p-value is shared and wins and
    losses swap.  ``0.0 - x`` rather than ``-x`` keeps a zero mean
    difference at +0.0, as direct evaluation gives it.
    """
    return column, row, 0.0 - mean_difference, losses, ties, wins, p_value, p_method


@dataclass(frozen=True)
class PairTable(Sequence):
    """Cells of ordered (row, column) pairs, held as columns.

    Item i is the ``PairwiseComparison`` of ``pairs[i]``, built when it is
    read; its ties are ``n - wins[i] - losses[i]``.
    """

    pairs: tuple[tuple[str, str], ...]
    mean_difference: tuple[float, ...]
    wins: tuple[int, ...]
    losses: tuple[int, ...]
    p_value: tuple[float, ...]
    p_method: tuple[PMethod, ...]
    n: int

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i: int) -> PairwiseComparison:
        return PairwiseComparison(*self.fields(i))

    def fields(self, i: int, reverse: bool = False) -> tuple:
        """Item i's fields in ``PairwiseComparison`` order; with ``reverse``,
        those of ``self[i].mirrored()``."""
        row, column = self.pairs[i]
        wins, losses = self.wins[i], self.losses[i]
        fields = (row, column, self.mean_difference[i], wins, self.n - wins - losses,
                  losses, self.p_value[i], self.p_method[i])
        return _mirror(*fields) if reverse else fields


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


def _signed_rank_rows(d: np.ndarray,
                      exact_threshold: int) -> tuple[list[float], list[PMethod]]:
    """Two-sided signed-rank p and method of each row of ``d``, as two lists.

    ``d`` is a rows x n array of finite differences; each row gets what
    ``wilcoxon_signed_rank`` documents.  Each row is sorted once, as the
    uint64 keys ``bits(|x|) << 1 | (x > 0)`` with zeros as +inf: the bit
    patterns of non-negative floats sort as the floats do, so a run of
    equal ``key >> 1`` is a tie group, and bit 0 is the sign.  A value's
    doubled averaged rank is start + end + 2 over the 0-based sorted
    positions of its tie group, an exact integer, so 2 W+ and the tie term
    are integer sums.  Rows with at most ``exact_threshold`` nonzero
    differences get the exact distribution (``_exact_pvalues``); the others
    get the normal approximation with tie and continuity corrections, in
    the IEEE operations of the one-row formula, with ``math.erfc`` per row.
    """
    rows, n = d.shape
    # Each temporary is dropped once used: they are block-sized.
    k = np.count_nonzero(d, axis=1)
    key = np.where(d != 0.0, np.abs(d), np.inf).view(np.uint64) << np.uint64(1)
    key |= d > 0.0
    key.sort(axis=1)
    positive = (key & np.uint64(1)).astype(bool)
    key >>= np.uint64(1)
    pos = np.arange(n)
    # A tie group's first and last sorted positions, at every position.
    first = np.empty((rows, n), dtype=bool)
    first[:, 0] = True
    np.not_equal(key[:, 1:], key[:, :-1], out=first[:, 1:])
    del key
    last = np.empty_like(first)
    last[:, -1] = True
    last[:, :-1] = first[:, 1:]
    start = np.maximum.accumulate(np.where(first, pos, 0), axis=1)
    end = np.minimum.accumulate(np.where(last, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
    del first, last
    ranked = pos < k[:, None]
    doubled = np.where(ranked, start + end + 2, 0)
    # Sum over ranked values of c^2 - 1, c their group size: sum of c^3 - c.
    size = end - start + 1
    ties = np.where(ranked, size * size - 1, 0).sum(axis=1, dtype=np.float64)
    del start, end, size, ranked
    w2 = np.where(positive, doubled, 0).sum(axis=1)
    if (doubled.sum(axis=1) != k * (k + 1)).any():
        raise InternalError("doubled ranks do not sum to k(k+1)")

    method = [PMethod.DEGENERATE if kr == 0 else PMethod.EXACT if kr <= exact_threshold
              else PMethod.NORMAL_APPROXIMATION for kr in k.tolist()]
    p = np.ones(rows)
    exact = (k > 0) & (k <= exact_threshold)
    if exact.any():
        too_many = k[exact] > _MAX_EXACT
        if too_many.any():  # 2^k assignments must stay countable in int64
            raise ValidationError(
                f"exact distribution infeasible for {k[exact][too_many][0]} "
                "nonzero differences"
            )
        p[exact] = _exact_pvalues(doubled[exact], w2[exact], k[exact])
    normal = k > exact_threshold
    if normal.any():
        kn = k[normal]
        if kn.max() >= _INT64_TAIL:  # k(k+1)(2k+1) would overflow int64
            kn = kn.astype(object)
        mean = (kn * (kn + 1) / 4.0).astype(np.float64)
        variance = ((kn * (kn + 1) * (2 * kn + 1) / 24.0).astype(np.float64)
                    - ties[normal] / 48.0)
        if (variance <= 0.0).any():
            raise InternalError("non-positive signed-rank variance")
        # Continuity correction of one half, applied toward the mean so the
        # result is symmetric in the two one-sided statistics.
        numerator = np.maximum(np.abs(w2[normal] / 2.0 - mean) - 0.5, 0.0)
        z = numerator / np.sqrt(variance) / np.sqrt(2.0)
        p[normal] = np.minimum(1.0, list(map(math.erfc, z.tolist())))
    return p.tolist(), method


def _exact_pvalues(doubled: np.ndarray, w2: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Exact two-sided p per row, from the rows' doubled ranks (zero-padded),
    doubled positive-rank sums and nonzero counts.

    Flipping every sign maps a doubled positive-rank sum W to k(k+1) - W,
    so the distribution is symmetric about h = k(k+1)/2, P(W >= w) is
    P(W <= k(k+1) - w), and the two-sided p is twice the count of sums up
    to min(w, k(k+1) - w), over 2^k.  The counts of the sums up to h come
    from subset-sum counting, on one array of ``h_max + 1`` counts per row
    and at most about ``_BLOCK`` counts in all.  The largest, the count up
    to h, is about 2^(k-1), so they are int32 while k_max <= 31 and int64
    above.  Each doubled-rank value t is added as many times as a row holds
    it, by shifting the rows that hold it with contiguous slices.  By the
    symmetry, the counts up to h and up to h - 1 add up to 2^k.
    """
    k_max = int(k.max(initial=0))
    cap = k_max * (k_max + 1) // 2
    step = max(1, _BLOCK // (cap + 1))
    dtype = np.int32 if k_max <= 31 else np.int64
    half = k * (k + 1) // 2
    low = np.minimum(w2, 2 * half - w2)
    out = np.empty(len(k))
    for lo in range(0, len(k), step):
        kb = k[lo:lo + step]
        rows = len(kb)
        # held[r, t]: how many values of row r have doubled rank t.
        held = np.bincount(
            (np.arange(rows)[:, None] * (2 * k_max + 1) + doubled[lo:lo + step]).ravel(),
            minlength=rows * (2 * k_max + 1),
        ).reshape(rows, 2 * k_max + 1)
        held[:, 0] = 0  # the zero padding
        counts = np.zeros((rows, cap + 1), dtype=dtype)
        counts[:, 0] = 1
        reach = np.zeros(rows, dtype=np.int64)  # largest sum with a nonzero count
        top = 0  # reach.max()
        values = np.flatnonzero(held[:, :cap + 1].any(axis=0))
        for t, most, least in zip(values.tolist(), held.max(axis=0)[values].tolist(),
                                  held.min(axis=0)[values].tolist()):
            for nth in range(1, most + 1):
                if nth <= least:  # every row: contiguous views, overlap buffered
                    hi = min(top + t, cap)
                    counts[:, t:hi + 1] += counts[:, :hi + 1 - t]
                    reach += t
                    top += t
                else:
                    sel = np.flatnonzero(held[:, t] >= nth)
                    hi = min(int(reach[sel].max()) + t, cap)
                    counts[sel, t:hi + 1] += counts[sel, :hi + 1 - t]
                    reach[sel] += t
                    top = max(top, int(reach[sel].max()))
        np.cumsum(counts, axis=1, out=counts)
        at = np.arange(rows)
        hb = half[lo:lo + step]
        if (counts[at, hb].astype(np.int64) + counts[at, hb - 1] != np.left_shift(1, kb)).any():
            raise InternalError("signed-rank distribution lost mass")
        tail = counts[at, low[lo:lo + step]]
        out[lo:lo + step] = np.minimum(1.0, 2.0 * tail / np.ldexp(1.0, kb))
    return out


def wilcoxon_signed_rank(diffs: Sequence[float]) -> tuple[float, PMethod]:
    """Two-sided signed-rank p-value for paired differences.

    Zero differences are discarded before ranking; tied absolute
    differences receive averaged ranks.  With at most
    ``DEFAULT_EXACT_THRESHOLD`` nonzero differences the p-value comes from
    the exact distribution over all sign assignments; beyond that a normal
    approximation with tie and continuity corrections is used.

    Returns ``(p, method)``; all-zero input yields ``(1.0, DEGENERATE)``.
    This is one row of the block kernel ``pair_statistics`` uses.
    """
    d = np.asarray(diffs, dtype=np.float64).reshape(1, -1)
    if d.size == 0:
        raise ValidationError("need at least one difference")
    if not np.isfinite(d).all():
        raise ValidationError("differences must be finite")
    p, method = _signed_rank_rows(d, DEFAULT_EXACT_THRESHOLD)
    return p[0], method[0]


def _differences(matrix: ResultsMatrix, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """Oriented differences of ordered (row, column) pairs, one row per pair.

    A difference that overflows raises ``ValidationError`` naming the pair
    and the first task where it does.
    """
    position = {name: i for i, name in enumerate(matrix.comparates)}
    left, right = [], []
    for row, column in pairs:
        if row == column:
            raise ValidationError(f"cannot compare {row!r} with itself")
        for name in (row, column):
            if name not in position:
                matrix.index_of(name)  # raises ValidationError
        left.append(position[row])
        right.append(position[column])
    with np.errstate(over="ignore"):
        d = matrix.scores[left] - matrix.scores[right]
    if matrix.direction is Direction.LOWER_IS_BETTER:
        d = -d
    bad = np.argwhere(~np.isfinite(d))
    if bad.size:
        i, j = (int(x) for x in bad[0])
        row, column = pairs[i]
        raise ValidationError(
            f"the score difference of {row!r} and {column!r} overflows "
            f"on task {matrix.tasks[j]!r}"
        )
    return d


def oriented_differences(matrix: ResultsMatrix, row: str, column: str) -> np.ndarray:
    """Per-task score differences, positive when the row comparate is better."""
    return _differences(matrix, [(row, column)])[0]


def _check_tie_epsilon(tie_epsilon: float) -> float:
    tie_epsilon = float(tie_epsilon)
    if tie_epsilon < 0.0 or not math.isfinite(tie_epsilon):
        raise ValidationError("tie_epsilon must be a finite value >= 0")
    return tie_epsilon


def pairwise_comparison(
    matrix: ResultsMatrix,
    row: str,
    column: str,
    tie_epsilon: float = 0.0,
) -> PairwiseComparison:
    """Mean difference, win/tie/loss counts, and Wilcoxon p for one pair.

    A task counts as a tie when the absolute oriented difference is at most
    ``tie_epsilon`` (default: exact equality).  The p-value is computed on
    the raw oriented differences and depends only on the two comparates'
    score vectors.  This is ``pair_statistics`` of the one pair.
    """
    return pair_statistics(matrix, [(row, column)], tie_epsilon)[0]


def pair_statistics(
    matrix: ResultsMatrix,
    pairs: Sequence[tuple[str, str]],
    tie_epsilon: float = 0.0,
) -> PairTable:
    """``pairwise_comparison`` of every ordered (row, column) pair, in order,
    as one table.

    Pairs are evaluated together in numpy blocks of at most about 2**19
    differences, so memory stays bounded whatever the number of tasks.  A
    block of fewer than ``MIN_BLOCK_PAIRS`` pairs is tested row by row by
    ``wilcoxon_signed_rank``, the same kernel on one row.  Each cell is
    bit-identical to evaluating its pair alone.
    """
    tie_epsilon = _check_tie_epsilon(tie_epsilon)
    pairs = tuple(pairs)
    n = matrix.n
    step = max(1, _BLOCK // n)
    means: list[float] = []
    wins: list[int] = []
    losses: list[int] = []
    p_value: list[float] = []
    p_method: list[PMethod] = []
    for lo in range(0, len(pairs), step):
        block = pairs[lo:lo + step]
        d = _differences(matrix, block)
        wins += np.count_nonzero(d > tie_epsilon, axis=1).tolist()
        losses += np.count_nonzero(d < -tie_epsilon, axis=1).tolist()
        # A row mean sums like np.mean of the row.  "+ 0.0" turns a mean that
        # underflows to -0.0 into +0.0, the value the mirror of the reversed
        # pair gives.
        means += (d.mean(axis=1) + 0.0).tolist()
        if len(block) < MIN_BLOCK_PAIRS:
            p, method = zip(*map(wilcoxon_signed_rank, d))
        else:
            p, method = _signed_rank_rows(d, DEFAULT_EXACT_THRESHOLD)
        p_value += p
        p_method += method
    return PairTable(pairs, tuple(means), tuple(wins), tuple(losses), tuple(p_value),
                     tuple(p_method), n)


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
    # chdtrc(df, x) is the function behind scipy.stats.chi2.sf(x, df), without
    # loading scipy.stats (about 0.8 s); only this test needs scipy at all.
    from scipy.special import chdtrc

    p = float(chdtrc(m - 1, statistic))
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
        raise ValidationError(
            f"no critical-value table for alpha={alpha!r}; supported: 0.05, 0.10"
        )
    m = int(m)
    if not 2 <= m <= 1 + len(table):
        raise ValidationError(f"m={m} outside the tabulated range 2..{1 + len(table)}")
    n = int(n)
    if n < 1:
        raise ValidationError("n must be at least 1")
    return table[m - 2] * math.sqrt(m * (m + 1) / (6.0 * n))


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float; ``ValidationError`` unless it lies in (0, 1)."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def holm_correction(
    pairs: Iterable[tuple[object, float]],
    alpha: float,
) -> list[HolmDecision]:
    """Step-down familywise correction over a family of p-values.

    P-values are sorted ascending, ties broken by pair id for determinism,
    so the ids of tied p-values must be comparable; the i-th smallest is tested against alpha / (N + 1 - i)
    and rejection stops at the first failure, leaving that p-value and all
    larger ones non-significant.  Equal p-values always receive the same
    decision.  Results are returned in the sorted order.
    """
    alpha = check_alpha(alpha)
    items = [(pid, float(p)) for pid, p in pairs]
    for pid, p in items:
        if not (0.0 <= p <= 1.0) or not math.isfinite(p):
            raise ValidationError(f"p-value for pair {pid!r} outside [0, 1]: {p!r}")

    items.sort(key=lambda item: (item[1], item[0]))
    total = len(items)
    decisions: list[HolmDecision] = []
    rejecting = True
    for i, (pid, p) in enumerate(items):
        threshold = alpha / (total - i)
        rejecting = rejecting and p <= threshold
        decisions.append(HolmDecision(pid, p, rejecting, threshold))
    # Equal p-values share a decision: thresholds grow along a run of them
    # (division is monotone in its denominator), so the stop rule cannot
    # split the run.
    return decisions


def pair_id(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered pair identifier (name-sorted)."""
    return (a, b) if a <= b else (b, a)


def all_pairs_pvalues(
    matrix: ResultsMatrix,
    names: Sequence[str],
) -> dict[tuple[str, str], float]:
    """Two-sided Wilcoxon p for every unordered pair among ``names``.

    The p-values come from ``pair_statistics``.  With at least
    ``MIN_BLOCK_PAIRS`` pairs, the first pair is tested again by
    ``wilcoxon_signed_rank`` and a disagreement raises ``InternalError``.
    That compares a block with a one-row run of the same kernel, not with
    an independent implementation.
    """
    pairs = list(itertools.combinations(names, 2))
    table = pair_statistics(matrix, pairs)
    if len(pairs) >= MIN_BLOCK_PAIRS:
        a, b = pairs[0]
        alone = wilcoxon_signed_rank(oriented_differences(matrix, a, b))
        if alone != (table.p_value[0], table.p_method[0]):
            raise InternalError(
                f"batched signed-rank test gave {(table.p_value[0], table.p_method[0])!r} "
                f"for ({a!r}, {b!r}); wilcoxon_signed_rank gives {alone!r}"
            )
    return dict(zip(itertools.starmap(pair_id, pairs), table.p_value))


def holm_significance(
    matrix: ResultsMatrix,
    names: Sequence[str],
    alpha: float,
) -> dict[tuple[str, str], bool]:
    """Holm-corrected significance of every pair among ``names``."""
    alpha = check_alpha(alpha)
    members = list(names)
    if len(members) < 2:
        raise TooFewComparates("need at least two comparates for pairwise tests")
    pvalues = all_pairs_pvalues(matrix, members)
    return {d.pair: d.significant for d in holm_correction(pvalues.items(), alpha)}
