"""Frequentist statistics kernel.

Per-task ranks and average ranks, the two-sided Wilcoxon signed-rank test
(exact by dynamic programming, or a tie-corrected normal approximation),
pairwise comparison cells for one pair or for numpy blocks of pairs, the
Friedman test, the rank-based critical difference, and the Holm step-down
correction.  The kernels take matrix positions: a call checks its pairs,
whose names only the matrix maps, before it evaluates any.  Ranks and
signed ranks find their tie groups with one scan, ``_tie_runs``; a row of
differences without a tie, as continuous scores give, skips it.

All functions here are pure and reentrant: no shared mutable state, no
internal randomness.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Direction, ResultsMatrix, check_integer, check_real, check_real_array
from .errors import InternalError, ValidationError

__all__ = [
    "PMethod",
    "RankTable",
    "PairwiseComparison",
    "PairTable",
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
    "all_pairs_pvalues",
    "holm_significance",
]

#: Largest number of nonzero differences for which the exact signed-rank
#: distribution is computed; above this the normal approximation with tie
#: and continuity corrections is used.
DEFAULT_EXACT_THRESHOLD = 25

#: Fewest nonzero differences whose k(k+1)(2k+1) the normal approximation
#: computes with Python ints: int64 overflows from about 1.65 million.
_INT64_TAIL = 1 << 20

#: Most differences per slice of pairs: each signed-rank kernel temporary
#: then takes at most 512 KB, so the few live at once stay near a core's L2
#: cache.  Most counts per block of exact distributions: larger, because
#: ``_exact_pvalues`` loops in Python over each block's values.
_SLICE, _COUNTS = 1 << 16, 1 << 19

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
    """Per-task ranks (1 = best, ties share the averaged rank), row means,
    and each task's tie term: the sum of c^3 - c over its groups of c equal
    scores, an integer."""

    ranks: np.ndarray          # m x n
    average_ranks: np.ndarray  # length m
    tie_terms: np.ndarray      # length n, int64

    def __post_init__(self):
        self.ranks.flags.writeable = False
        self.average_ranks.flags.writeable = False
        self.tie_terms.flags.writeable = False


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


@dataclass(frozen=True, eq=False)
class PairTable(Sequence):
    """Cells of ordered (row, column) pairs, held as numpy columns: ``pairs``
    is a (k, 2) object array of names, and ``p_method`` a tuple.

    Item i is the ``record`` of ``pairs[i]``, built when it is read; its
    ties are ``n - wins[i] - losses[i]``.
    """

    record = PairwiseComparison

    pairs: np.ndarray
    mean_difference: np.ndarray
    wins: np.ndarray
    losses: np.ndarray
    p_value: np.ndarray
    p_method: tuple[PMethod, ...]
    n: int

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i: int) -> PairwiseComparison:
        return self.record(*(column[0] for column in
                             self.oriented(np.array([range(len(self))[i]]), False)))

    def oriented(self, k: np.ndarray, flip) -> tuple[list, ...]:
        """Items ``k`` as lists in field order, mirrored where ``flip`` is
        true.  A mirror is bit-identical to evaluating the reversed pair: names,
        wins and losses swap, p and method stay, and the mean is ``0.0 - x``,
        which keeps a zero at +0.0."""
        pair, mean, wins, losses = (self.pairs[k], self.mean_difference[k], self.wins[k],
                                    self.losses[k])
        return (np.where(flip, pair[:, 1], pair[:, 0]).tolist(),
                np.where(flip, pair[:, 0], pair[:, 1]).tolist(),
                np.where(flip, 0.0 - mean, mean).tolist(),
                np.where(flip, losses, wins).tolist(),
                (self.n - wins - losses).tolist(),
                np.where(flip, wins, losses).tolist(),
                self.p_value[k].tolist(),
                [self.p_method[i] for i in k.tolist()])


def _tie_runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and last positions, start and end, of the run of equal
    values that holds each position of ``key``, a 2-D array sorted along
    its rows."""
    rows, n = key.shape
    pos = np.arange(n)
    first = np.empty((rows, n), dtype=bool)
    first[:, 0] = True
    np.not_equal(key[:, 1:], key[:, :-1], out=first[:, 1:])
    last = np.empty_like(first)
    last[:, -1] = True
    last[:, :-1] = first[:, 1:]
    start = np.maximum.accumulate(np.where(first, pos, 0), axis=1)
    end = np.minimum.accumulate(np.where(last, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
    return start, end


def compute_ranks(matrix: ResultsMatrix) -> RankTable:
    """Rank each comparate on each task: 1 plus the number of strictly
    better comparates plus half the number of equal ones (excluding self).
    Average ranks are the row means.

    Every task is sorted at once, best first, and ``_tie_runs`` finds each
    sorted position's tie group, from start to end: its members are ranked
    1 + start + (end - start) / 2, and each position adds c^2 - 1 to its
    task's tie term, c = end - start + 1 the group's size, which sums to
    c^3 - c per group.
    """
    key = matrix.scores.T  # a task per row
    if matrix.direction is Direction.HIGHER_IS_BETTER:
        key = -key
    order = np.argsort(key, axis=1, kind="stable")
    start, end = _tie_runs(np.take_along_axis(key, order, axis=1))
    ranks = np.empty((matrix.m, matrix.n))
    np.put_along_axis(ranks.T, order, 1.0 + start + 0.5 * (end - start), axis=1)
    size = end - start + 1
    return RankTable(ranks=ranks, average_ranks=ranks.mean(axis=1),
                     tie_terms=(size * size - 1).sum(axis=1))


def _signed_rank_rows(d: np.ndarray) -> tuple[list[float], list[PMethod]]:
    """Two-sided signed-rank p and method of each row of ``d``, as two lists.

    ``d`` is a rows x n array of finite differences; each row gets what
    ``wilcoxon_signed_rank`` documents.  Each row is sorted once, as the
    uint64 keys ``bits(|x|) << 1 | (x > 0)`` with zeros as +inf: the bit
    patterns of non-negative floats sort as the floats do, so a run of
    equal ``key >> 1`` is a tie group, and bit 0 is the sign.  A value's
    doubled averaged rank is start + end + 2 over the 0-based sorted
    positions of its tie group, an exact integer, so 2 W+ and the tie term
    are integer sums.  Most rows of continuous scores hold no tie: there a
    value's doubled rank is 2(i + 1) at sorted position i and the tie term
    is 0, so only the rows with a tie are scanned for their groups
    (``_tie_runs``).  Rows with at most ``DEFAULT_EXACT_THRESHOLD`` nonzero
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
    ranked = np.arange(n) < k[:, None]
    doubled = np.arange(2, 2 * n + 2, 2) * ranked
    ties = np.zeros(rows)
    # Zeros are keyed +inf and equal each other, so only ranked neighbours tie.
    tied = np.flatnonzero(((key[:, 1:] == key[:, :-1]) & ranked[:, 1:]).any(axis=1))
    if tied.size:
        start, end = _tie_runs(key[tied])
        held = ranked[tied]
        doubled[tied] = (start + end + 2) * held
        # Sum over ranked values of c^2 - 1, c their group size: sum of c^3 - c.
        size = end - start + 1
        ties[tied] = ((size * size - 1) * held).sum(axis=1, dtype=np.float64)
        del start, end, size, held
    del key, ranked
    w2 = (doubled * positive).sum(axis=1)
    if (doubled.sum(axis=1) != k * (k + 1)).any():
        raise InternalError("doubled ranks do not sum to k(k+1)")

    # Each row's method by how many of 0 and the exact threshold its k passes.
    passed = (k > 0).astype(np.intp) + (k > DEFAULT_EXACT_THRESHOLD)
    by_passed = (PMethod.DEGENERATE, PMethod.EXACT, PMethod.NORMAL_APPROXIMATION)
    method = [by_passed[c] for c in passed.tolist()]
    p = np.ones(rows)
    exact = (k > 0) & (k <= DEFAULT_EXACT_THRESHOLD)
    if exact.any():
        p[exact] = _exact_pvalues(doubled[exact], w2[exact], k[exact])
    normal = k > DEFAULT_EXACT_THRESHOLD
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
    and at most about ``_COUNTS`` counts in all.  The largest, the count up
    to h, is about 2^(k-1): ``DEFAULT_EXACT_THRESHOLD`` keeps every count
    below 2^25, so they fit in int32.  Each doubled-rank value t is added
    as many times as a row holds it, by shifting the rows that hold it with
    contiguous slices.  By the symmetry, the counts up to h and up to
    h - 1 add up to 2^k.
    """
    k_max = int(k.max(initial=0))
    cap = k_max * (k_max + 1) // 2
    step = max(1, _COUNTS // (cap + 1))
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
        counts = np.zeros((rows, cap + 1), dtype=np.int32)
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
                    peak = int(reach[sel].max()) + t  # the selected rows' new reach
                    hi = min(peak, cap)
                    counts[sel, t:hi + 1] += counts[sel, :hi + 1 - t]
                    reach[sel] += t
                    top = max(top, peak)
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

    ``diffs`` is one row (1-D); a scalar or a block is refused.  Returns
    ``(p, method)``; all-zero input yields ``(1.0, DEGENERATE)``.  This is
    one row of the block kernel ``pair_statistics`` uses.
    """
    d = check_real_array("differences", diffs)
    if d.ndim != 1:
        raise ValidationError(f"need one row of differences, got {d.ndim} dimension(s)")
    if d.size == 0:
        raise ValidationError("need at least one difference")
    if not np.isfinite(d).all():
        raise ValidationError("differences must be finite")
    p, method = _signed_rank_rows(d[None])
    return p[0], method[0]


def _pair_positions(matrix: ResultsMatrix, pairs) -> np.ndarray:
    """The matrix positions of ordered (row, column) name pairs, as a (k, 2)
    array.  The first pair that names one comparate twice or an unknown one
    raises ``ValidationError``: a self-pair first, then the row, then the
    column."""
    asked = np.asarray(pairs, dtype=object)
    if len(asked) and (asked.ndim != 2 or asked.shape[1] != 2):
        raise ValidationError("each pair must name a row and a column comparate")
    at = matrix.positions(asked.reshape(-1, 2))
    bad = (at[:, 0] == at[:, 1]) | (at < 0).any(axis=1)
    if bad.any():
        row, column = asked[bad.argmax()]
        if row == column:
            raise ValidationError(f"cannot compare {row!r} with itself")
        matrix.check_names((row, column), "pair")  # raises ValidationError
    return at


def _differences(matrix: ResultsMatrix, at: np.ndarray) -> np.ndarray:
    """Oriented differences of the pairs at matrix positions ``at``, a (k, 2)
    array, one row per pair.  A difference that overflows raises
    ``ValidationError``, naming the pair and the task."""
    with np.errstate(over="ignore"):
        d = matrix.scores[at[:, 0]] - matrix.scores[at[:, 1]]
    if matrix.direction is Direction.LOWER_IS_BETTER:
        d = -d
    if not np.isfinite(d).all():
        i, j = (int(x) for x in np.argwhere(~np.isfinite(d))[0])
        row, column = (matrix.comparates[x] for x in at[i])
        raise ValidationError(
            f"the score difference of {row!r} and {column!r} overflows "
            f"on task {matrix.tasks[j]!r}"
        )
    return d


def oriented_differences(matrix: ResultsMatrix, row: str, column: str) -> np.ndarray:
    """Per-task score differences, positive when the row comparate is better."""
    return _differences(matrix, _pair_positions(matrix, [(row, column)]))[0]


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
    pairs,
    tie_epsilon: float = 0.0,
) -> PairTable:
    """``pairwise_comparison`` of every ordered (row, column) pair, in order,
    as one table.  ``pairs`` is a sequence of name pairs or a (k, 2) array;
    every pair is checked before any is evaluated.

    The pairs are cut into equal slices of at most ``_SLICE`` (2**16)
    differences, each one numpy block, so the kernel's temporaries stay
    cache-sized whatever n is; a slice's exact distributions are counted in
    blocks of at most ``_COUNTS`` (2**19) counts, more as that count loops
    in Python once per block.  Fewer than ``MIN_BLOCK_PAIRS`` pairs are
    tested row by row by ``wilcoxon_signed_rank``, the same kernel on one
    row.  Each cell is bit-identical to evaluating its pair alone.
    """
    return _pair_table(matrix, _pair_positions(matrix, pairs), tie_epsilon)


def _pair_table(matrix: ResultsMatrix, at: np.ndarray, tie_epsilon: float) -> PairTable:
    """``pair_statistics`` of the pairs at checked matrix positions ``at``."""
    tie_epsilon = check_real("tie_epsilon", tie_epsilon)
    if tie_epsilon < 0.0 or not math.isfinite(tie_epsilon):
        raise ValidationError("tie_epsilon must be a finite value >= 0")
    n, count = matrix.n, len(at)
    slices = -(-count // max(1, _SLICE // n))
    means, p_value = np.empty(count), np.empty(count)
    wins, losses = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
    p_method: list[PMethod] = []
    for s in range(slices):
        part = slice(count * s // slices, count * (s + 1) // slices)
        d = _differences(matrix, at[part])
        wins[part] = np.count_nonzero(d > tie_epsilon, axis=1)
        losses[part] = np.count_nonzero(d < -tie_epsilon, axis=1)
        # A row mean sums like np.mean of the row.  "+ 0.0" turns a mean that
        # underflows to -0.0 into +0.0, the value the mirror of the reversed
        # pair gives.  Finite differences can still sum past the float range.
        with np.errstate(over="ignore"):
            means[part] = d.mean(axis=1) + 0.0
        if not np.isfinite(means[part]).all():
            row, column = (matrix.comparates[x]
                           for x in at[part][np.isfinite(means[part]).argmin()])
            raise ValidationError(
                f"the mean score difference of {row!r} and {column!r} overflows")
        if count < MIN_BLOCK_PAIRS:
            p, method = zip(*map(wilcoxon_signed_rank, d))
        else:
            p, method = _signed_rank_rows(d)
        p_value[part] = p
        p_method += method
    pairs = np.array(matrix.comparates, dtype=object)[at]
    return PairTable(pairs, means, wins, losses, p_value, tuple(p_method), n)


def friedman_test(ranks: RankTable) -> tuple[float, float]:
    """Friedman chi-square statistic with tie correction and its p-value,
    from the ``compute_ranks`` table of a matrix.

    Requires m >= 3 comparates and n >= 2 tasks.  A matrix whose tasks are
    all full ties yields (0, 1).
    """
    m, n = ranks.ranks.shape
    if m < 3:
        raise ValidationError("the Friedman test needs at least three comparates")
    if n < 2:
        raise ValidationError("the Friedman test needs at least two tasks")

    rank_sums = ranks.ranks.sum(axis=1)
    raw = 12.0 / (n * m * (m + 1)) * float((rank_sums**2).sum()) - 3.0 * n * (m + 1)
    # An integer below 2**53, so exact as a float.
    tie_term = float(ranks.tie_terms.sum())
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


def _range_quantile(m: int, alpha: float) -> float:
    """The ``1 - alpha`` quantile of the range of ``m`` standard normals, for
    alpha <= 0.5; ``docs/style-reference.md`` gives the rule and its accuracy."""
    upper = np.vectorize(lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)), otypes=[float])

    def tail(q: float) -> float:  # P(range > q), by the trapezoid rule on the grid
        with np.errstate(divide="ignore"):  # 1 - r rounds to 0 far out in z
            f = weight * -np.expm1((m - 1) * np.log1p(-upper(q - z) / below))
        return (f.sum() - (f[0] + f[-1]) / 2) * (z[1] - z[0]) / math.sqrt(2.0 * math.pi)

    lo, hi = 0.0, 1.0
    for _ in range(10):  # hi = 64 holds q for any alpha a double can hold
        z = np.linspace(-9.0, 9.0 + hi, 241)
        below = upper(-z)  # Phi(z), positive on the grid
        weight = m * np.exp((m - 1) * np.log(below) - z * z / 2)
        if tail(hi) <= alpha:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise InternalError(f"no bracket for the range quantile at m={m}, alpha={alpha!r}")
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if tail(mid) > alpha else (lo, mid)
        if hi - lo <= 1e-12 * hi:
            return (lo + hi) / 2
    raise InternalError(f"the range quantile did not converge at m={m}, alpha={alpha!r}")


def nemenyi_critical_difference(m: int, n: int, alpha: float = 0.05) -> float:
    """Minimal average-rank gap deemed significant at level alpha in (0, 0.5]:
    ``round(q / sqrt(2), 6) * sqrt(m (m + 1) / (6 n))``, with q the ``1 - alpha``
    quantile of the range of m >= 2 standard normals."""
    alpha = check_alpha(alpha)
    if alpha > 0.5:
        raise ValidationError(f"alpha must lie in (0, 0.5] for the Nemenyi test, got {alpha!r}")
    m = check_integer("m", m)
    if m < 2:
        raise ValidationError("m must be at least 2")
    n = check_integer("n", n)
    if n < 1:
        raise ValidationError("n must be at least 1")
    constant = round(_range_quantile(m, alpha) / math.sqrt(2.0), 6)
    return constant * math.sqrt(m * (m + 1) / (6.0 * n))


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float; ``ValidationError`` unless it is a real in (0, 1)."""
    alpha = check_real("alpha", alpha)
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def holm_correction(p, alpha: float) -> np.ndarray:
    """Holm's step-down familywise correction, over the last axis of ``p``.

    Each family's p-values are sorted ascending; the i-th smallest (from 0)
    is tested against alpha / (F - i), F the family size, and rejection
    stops at the first failure.  A p-value is significant iff it is at most
    the last rejected one, so equal p-values always share a decision.
    Returns the decisions as a boolean array shaped like ``p``, in input
    order; leading axes are independent families.  P-values must be reals
    in [0, 1]: anything else raises ``ValidationError``.
    """
    alpha = check_alpha(alpha)
    p = check_real_array("p-values", p)
    if p.ndim == 0:
        raise ValidationError("p-values need an axis to hold the family")
    outside = ~((p >= 0.0) & (p <= 1.0))  # NaN too
    if outside.any():
        raise ValidationError(f"p-value outside [0, 1]: {float(p[outside][0])!r}")
    f = p.shape[-1]
    if f == 0:
        return np.zeros(p.shape, dtype=bool)
    ordered = np.sort(p, axis=-1)
    failed = ordered > alpha / (f - np.arange(f))
    # Rejections run up to the first failure; argmax finds it faster than a
    # logical_and.accumulate of the passes counts the run.
    rejected = np.where(failed.any(axis=-1), failed.argmax(axis=-1), f)
    last = np.take_along_axis(ordered, np.maximum(rejected - 1, 0)[..., None], axis=-1)
    return p <= np.where(rejected[..., None] > 0, last, -1.0)


def all_pairs_pvalues(
    matrix: ResultsMatrix,
    names: Sequence[str],
) -> np.ndarray:
    """Two-sided Wilcoxon p of every pair among ``names``, as a symmetric
    array with a zero diagonal whose ``[i, j]`` is the p of the i-th and j-th.

    The p-values come from ``pair_statistics``.  With at least
    ``MIN_BLOCK_PAIRS`` pairs, the first pair is tested again by
    ``wilcoxon_signed_rank`` and a disagreement raises ``InternalError``.
    That compares a block with a one-row run of the same kernel, not with
    an independent implementation.
    """
    upper = np.triu_indices(len(names), 1)
    pairs = np.array(names, dtype=object)[np.stack(upper, axis=1)]
    table = pair_statistics(matrix, pairs)
    if len(pairs) >= MIN_BLOCK_PAIRS:
        a, b = pairs[0]
        alone = wilcoxon_signed_rank(oriented_differences(matrix, a, b))
        if alone != (table.p_value[0], table.p_method[0]):
            raise InternalError(
                f"batched signed-rank test gave {(table.p_value[0], table.p_method[0])!r} "
                f"for ({a!r}, {b!r}); wilcoxon_signed_rank gives {alone!r}"
            )
    p = np.zeros((len(names), len(names)))
    p[upper] = table.p_value  # in the order of ``pairs``
    return p + p.T


def holm_significance(
    matrix: ResultsMatrix,
    names: Sequence[str],
    alpha: float,
) -> np.ndarray:
    """Holm-corrected significance of every pair among ``names``, as a
    symmetric boolean array with a false diagonal whose ``[i, j]`` is the
    decision on the i-th and j-th."""
    alpha = check_alpha(alpha)
    members = list(names)
    if len(members) < 2:
        raise ValidationError("need at least two comparates for pairwise tests")
    p = all_pairs_pvalues(matrix, members)
    upper = np.triu_indices(len(members), 1)
    significant = np.zeros(p.shape, dtype=bool)
    significant[upper] = holm_correction(p[upper], alpha)
    return significant | significant.T
