"""Independent oracles the test suite checks the implementation against.

These deliberately take different computational routes: the groupwise
rank statistic via the textbook tie-free formula, the reservoir draw of
pattern enumeration with Python integers masked to 64 bits (the package uses
wrapping numpy uint64 arrays), and the Bayesian posterior means in closed
form from the Dirichlet moments (the package estimates them by Monte
Carlo).  Subset unranking walks the pool with one ``math.comb`` per step
(the package searches a binomial table per slot in numpy), and the sampled
ranks are deduplicated one Python int at a time (the package uses
``np.unique`` per batch).

The sign-enumeration signed-rank oracle is the package's own
``mcmatrix.selftest.enumeration_pvalue``, which the ``selftest`` command
runs too; the tests pin its ranks to ``scipy.stats.rankdata``.

``wilcoxon_signed_rank_scalar`` and ``pairwise_comparison_scalar`` are
the one-pair signed-rank test and cell the package computed before its
block kernel, kept unchanged as the bit-for-bit oracles of that kernel.
``contiguous_runs_loop`` is the rank-diagram bar search the package ran
before its one-pass form: it re-tests every pair of a growing run.

``holm_correction_list`` is the list step-down the package ran before its
array kernel, one decision object per p-value in ``(p, id)`` order, and
``holm_mask_list`` the core bitmask it gave a family.
``per_subset_enumeration`` runs ``holm_mask_list`` once per subset of a
pattern enumeration, unranked by ``subset_by_rank``, and keeps examples by
``reservoir_draw``.  ``compute_ranks_loop``
ranks one task at a time with two m x m comparisons and takes the tie term
from ``np.unique``'s counts, as the package did before it sorted every task
at once.

``cell_records`` is the dict builder the package's JSON cell writer
replaced, kept unchanged: the writer's text is held to ``json.dumps`` of it.
``diverging_color_scalar`` is the one-value fill the package computed per
cell before it formed each pair's two fills at once in numpy, kept
unchanged.

``bayes_chunks_serial`` is the Monte Carlo loop the package ran before it
split a chunk's rows over threads, kept unchanged: one thread, and each
product over the whole chunk.  ``bayesian_signed_rank_serial`` averages it
as ``bayesian_signed_rank`` does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from mcmatrix.bayes import (CHUNK_SIZE, BayesConfig, BayesPosterior, _chunk_generator,
                            _prepare)
from mcmatrix.data import Direction, ResultsMatrix
from mcmatrix.errors import InternalError, ValidationError
from mcmatrix.render.style import COLOR_NEGATIVE, COLOR_POSITIVE
from mcmatrix.stability import PatternEnumeration
from mcmatrix.stats import (DEFAULT_EXACT_THRESHOLD, PairwiseComparison, PMethod,
                            all_pairs_pvalues, check_alpha)


def friedman_tie_free(ranks: np.ndarray) -> float:
    """Textbook chi-square statistic from a tie-free m x n rank table."""
    m, n = ranks.shape
    rank_sums = ranks.sum(axis=1)
    return float(
        12.0 / (n * m * (m + 1)) * (rank_sums**2).sum() - 3.0 * n * (m + 1)
    )


def bayes_posterior_means(diffs, rope: float,
                          prior_strength: float) -> tuple[float, float, float]:
    """Exact posterior means (theta_left, theta_rope, theta_right) of the
    Bayesian signed-rank test.

    With z = (0, diffs) and w ~ Dirichlet(alpha), alpha = (s, 1, ..., 1)
    and alpha_0 = s + q, the moments E[w_i w_j] = (alpha_i alpha_j +
    [i = j] alpha_i) / (alpha_0 (alpha_0 + 1)) give
    E[theta_left] = (alpha' L alpha + sum_i alpha_i L_ii) / (alpha_0 (alpha_0 + 1)),
    L the indicator of z_i + z_j < -2 rope; theta_right likewise with
    z_i + z_j > 2 rope.
    """
    z = np.concatenate(([0.0], np.asarray(diffs, dtype=np.float64)))
    alpha = np.ones(z.size)
    alpha[0] = prior_strength
    scale = alpha.sum() * (alpha.sum() + 1.0)
    sums = z[:, None] + z[None, :]

    def mean(region: np.ndarray) -> float:
        region = region.astype(np.float64)
        return float((alpha @ region @ alpha + alpha @ np.diag(region)) / scale)

    left = mean(sums < -2.0 * rope)
    right = mean(sums > 2.0 * rope)
    return left, 1.0 - (left + right), right


_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def reservoir_draw(seed: int, index: int, n: int) -> int:
    """Reservoir slot in [0, n) of the subset with this index, for this seed."""
    return splitmix64((seed & _MASK64) ^ splitmix64(index)) % n


def subset_by_rank(pool: Sequence, k: int, rank: int) -> tuple:
    """Combination unranking in lexicographic order (combinatorial number
    system): maps rank in [0, C(len(pool), k)) to a k-subset."""
    rank = int(rank)
    n = len(pool)
    out = []
    start = 0
    for slot in range(k, 0, -1):
        for idx in range(start, n):
            block = math.comb(n - idx - 1, slot - 1)
            if rank < block:
                out.append(pool[idx])
                start = idx + 1
                break
            rank -= block
    return tuple(out)


def sample_ranks_loop(total_space: int, count: int, seed: int) -> list[int]:
    """``count`` distinct ranks in [0, total_space), ascending, from
    Philox(seed): each batch adds its values one at a time, in draw order,
    until ``count`` are chosen.  Above half the space, every rank but the
    ``total_space - count`` drawn this way."""
    if 2 * count > total_space:
        left_out = set(sample_ranks_loop(total_space, total_space - count, seed))
        return [r for r in range(total_space) if r not in left_out]
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
    chosen: set[int] = set()
    while len(chosen) < count:
        need = count - len(chosen)
        draw = rng.integers(0, total_space, size=max(need * 2, 16))
        for r in draw.tolist():
            if len(chosen) >= count:
                break
            chosen.add(int(r))
    return sorted(chosen)


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


def wilcoxon_signed_rank_scalar(
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
        raise ValidationError("need at least one difference")
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


def pairwise_comparison_scalar(
    matrix: ResultsMatrix,
    row: str,
    column: str,
    tie_epsilon: float = 0.0,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> PairwiseComparison:
    """Mean difference, win/tie/loss counts, and Wilcoxon p for one pair,
    computed on that pair's differences alone."""
    diffs = matrix.scores[matrix.index_of(row)] - matrix.scores[matrix.index_of(column)]
    if matrix.direction is Direction.LOWER_IS_BETTER:
        diffs = -diffs
    wins = int((diffs > tie_epsilon).sum())
    losses = int((diffs < -tie_epsilon).sum())
    p, p_method = wilcoxon_signed_rank_scalar(diffs, exact_threshold=exact_threshold)
    return PairwiseComparison(
        row=row,
        column=column,
        mean_difference=float(np.mean(diffs)) + 0.0,
        wins=wins,
        ties=matrix.n - wins - losses,
        losses=losses,
        p_value=p,
        p_method=p_method,
    )


def contiguous_runs_loop(
    count: int, non_significant: Callable[[int, int], bool]
) -> list[tuple[int, int]]:
    """Maximal index runs [i, j] in which every contained pair is
    non-significant, each run grown from every start and checked against
    the runs kept so far."""
    runs: list[tuple[int, int]] = []
    for i in range(count):
        j = i
        while j + 1 < count and all(
            non_significant(a, j + 1) for a in range(i, j + 1)
        ):
            j += 1
        if j > i and not any(pi <= i and j <= pj for pi, pj in runs):
            runs.append((i, j))
    return runs


@dataclass(frozen=True)
class HolmDecision:
    """Step-down outcome for one pair, in ascending-p order."""

    pair: object
    p_value: float
    significant: bool
    threshold: float


def holm_correction_list(
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


def holm_mask_list(p: np.ndarray, n_core: int, alpha: float) -> int:
    """Core pairs left non-significant by ``holm_correction_list`` over the
    family of ``p`` (core first), as a bitmask in ``combinations`` order."""
    family = [(ij, p[ij]) for ij in itertools.combinations(range(len(p)), 2)]
    flags = {d.pair: d.significant for d in holm_correction_list(family, alpha)}
    core_pairs = itertools.combinations(range(n_core), 2)
    return sum(1 << b for b, ij in enumerate(core_pairs) if not flags[ij])


def per_subset_enumeration(matrix, core, pool, k_extra, alpha, ranks,
                           example_limit, seed):
    """Pattern counts and reservoir examples of the subsets of ``ranks``,
    one ``holm_mask_list`` per family: the one-correction-per-subset loop
    the package's chunked step-down replaced."""
    p = all_pairs_pvalues(matrix, core + pool)
    index = {name: i for i, name in enumerate(core + pool)}
    counts, examples = {}, {}
    for g, rank in enumerate(ranks):
        subset = subset_by_rank(pool, k_extra, rank)
        family = [index[name] for name in core + subset]
        mask = holm_mask_list(p[np.ix_(family, family)], len(core), alpha)
        n_seen = counts.get(mask, 0) + 1
        counts[mask] = n_seen
        bucket = examples.setdefault(mask, [])
        if n_seen <= example_limit:
            bucket.append(subset)
        else:
            slot = reservoir_draw(seed, g, n_seen)
            if slot < example_limit:
                bucket[slot] = subset
    return PatternEnumeration(
        core=core,
        pattern_counts=counts,
        examples_per_pattern={m: tuple(v) for m, v in examples.items()},
        total_subsets=len(ranks),
    )


def compute_ranks_loop(
    matrix: ResultsMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-task ranks, average ranks and per-task tie terms, one task at a
    time: 1 plus the number of strictly better comparates plus half the
    number of equal ones, row means by ``np.mean``, and the sum of c^3 - c
    over ``np.unique``'s counts."""
    vals = matrix.scores
    if matrix.direction is Direction.LOWER_IS_BETTER:
        vals = -vals
    m, n = vals.shape
    ranks = np.empty((m, n), dtype=np.float64)
    tie_terms = np.empty(n, dtype=np.int64)
    for j in range(n):
        col = vals[:, j]
        better = (col[None, :] > col[:, None]).sum(axis=1)
        equal = (col[None, :] == col[:, None]).sum(axis=1) - 1
        ranks[:, j] = 1.0 + better + 0.5 * equal
        _, counts = np.unique(col, return_counts=True)
        tie_terms[j] = (counts**3 - counts).sum()
    average = np.array([float(np.mean(ranks[i])) for i in range(m)])
    return ranks, average, tie_terms


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


_POSITIVE_RGB = tuple(int(COLOR_POSITIVE[i:i + 2], 16) for i in (1, 3, 5))
_NEGATIVE_RGB = tuple(int(COLOR_NEGATIVE[i:i + 2], 16) for i in (1, 3, 5))


def diverging_color_scalar(value: float, limit: float) -> str:
    """Interpolate white -> endpoint on the signed side of a diverging map.

    Zero maps exactly to white; |value| >= limit saturates at the endpoint.
    """
    if value == 0.0:
        return "#ffffff"
    r, g, b = _POSITIVE_RGB if value > 0.0 else _NEGATIVE_RGB
    t = min(abs(value) / limit, 1.0)
    return "#%02x%02x%02x" % (
        round(255 + (r - 255) * t), round(255 + (g - 255) * t), round(255 + (b - 255) * t)
    )


def bayes_chunks_serial(z: np.ndarray, config: BayesConfig):
    """``(i, thetas)``: row i's per-sample theta triples for one substream
    chunk, shape (size, 3), chunk by chunk and row by row within a chunk.

    A chunk's weights depend only on the seed, the chunk and the row
    length, so each chunk is drawn once and shared by every row.  Only one
    chunk's weights, one product buffer and one row's region matrices are
    alive at a time: the regions of every row at once would be k (q+1)^2
    floats.
    """
    concentration = np.ones(z.shape[1], dtype=np.float64)
    concentration[0] = float(config.prior_strength)
    bound = 2.0 * float(config.rope)
    n = int(config.mc_samples) if len(z) else 0
    for chunk_index in range(0, (n + CHUNK_SIZE - 1) // CHUNK_SIZE):
        size = min(CHUNK_SIZE, n - chunk_index * CHUNK_SIZE)
        w = _chunk_generator(config.seed, chunk_index).dirichlet(concentration, size=size)
        # Quadratic forms w' M w, normalized by the total pair mass (sum w)^2
        # so the three regions partition exactly one unit per sample.
        total = w.sum(axis=1) ** 2
        buf = np.empty_like(w)
        for i, row in enumerate(z):
            sums = row[:, None] + row[None, :]
            thetas = []
            for region in (sums < -bound, sums > bound):
                np.matmul(w, region.astype(np.float64), out=buf)
                buf *= w
                thetas.append(buf.sum(axis=1) / total)
            theta_l, theta_r = thetas
            yield i, np.stack([theta_l, 1.0 - (theta_l + theta_r), theta_r], axis=1)
        del w, total, buf  # before the next chunk's draw


def bayesian_signed_rank_serial(rows, config: BayesConfig) -> np.ndarray:
    """The (k, 3) posterior means of ``bayes_chunks_serial``, summed and
    clipped as ``bayesian_signed_rank`` does."""
    z = _prepare(rows, config)
    sums = np.zeros((len(z), 3), dtype=np.float64)
    for i, thetas in bayes_chunks_serial(z, config):
        sums[i] += thetas.sum(axis=0)
    n = int(config.mc_samples)
    return np.clip(sums / n, 0.0, 1.0)
