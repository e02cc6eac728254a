"""Stability laboratory: how rank- and Holm-based conclusions move when the
comparate set changes.

Three experiment families are provided: enumeration of corrected
significance patterns for a core set embedded among varying extras,
detection of average-rank order swaps between two study contexts, and the
weakened-variant attack that inflates a target's average rank by adding a
blended copy of it.  Each demonstrates something a per-pair comparison
grid is immune to by construction.  Every experiment reads its corrected
patterns from one step-down kernel, ``_step_down``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .data import ResultsMatrix, check_integer, check_real, check_seed, weaken_comparate
from .errors import ValidationError
from .stats import (
    all_pairs_pvalues,
    check_alpha,
    compute_ranks,
    holm_correction,
    pair_statistics,
)
from .stats import wilcoxon_signed_rank  # noqa: F401 -- perfbench/spans.py times it here

__all__ = [
    "SignificancePattern",
    "PatternEnumeration",
    "significance_pattern",
    "enumerate_patterns",
    "RankSwapReport",
    "detect_rank_swap",
    "WeightOutcome",
    "WeakenedVariantReport",
    "weakened_variant_attack",
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "SAMPLED_SPACE_LIMIT",
]

#: An exhaustive sweep refuses above this many subsets; sample instead.
DEFAULT_EXHAUSTIVE_LIMIT = 1_000_000

#: A sampled sweep refuses a subset space larger than this: ranks are drawn
#: with numpy's ``Generator.integers`` and unranked in int64, whose range ends here.
SAMPLED_SPACE_LIMIT = 1 << 63

# Example subsets kept per pattern, by reservoir sampling.
_EXAMPLE_LIMIT = 5

# Subsets per vectorized step-down, at most, and subset x family-pair
# entries per step-down, at most, unless one family alone has more: the
# block stays bounded whatever the family size.
_CHUNK, _CHUNK_ENTRIES = 256, 1 << 16


@dataclass(frozen=True)
class SignificancePattern:
    """Core pairs whose corrected difference is NOT significant in one
    study configuration, as a bitmask: bit b stands for the b-th pair of
    ``itertools.combinations(range(len(core)), 2)``.
    """

    core: tuple[str, ...]
    bitmask: int

    def __post_init__(self):
        object.__setattr__(self, "core", tuple(self.core))
        mask = check_integer("bitmask", self.bitmask)
        k = len(self.core)
        if not 0 <= mask < 1 << math.comb(k, 2):
            raise ValidationError(f"bitmask {mask:#x} out of range for core size {k}")
        object.__setattr__(self, "bitmask", mask)

    @property
    def non_significant_pairs(self) -> frozenset[tuple[int, int]]:
        pairs = itertools.combinations(range(len(self.core)), 2)
        return frozenset(ij for b, ij in enumerate(pairs) if self.bitmask >> b & 1)

    def pair_names(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.core[i], self.core[j]) for i, j in sorted(self.non_significant_pairs))


@dataclass(frozen=True)
class PatternEnumeration:
    """Aggregate of an enumeration run: per-pattern subset counts and up to
    a few example subsets per pattern."""

    core: tuple[str, ...]
    pattern_counts: dict[int, int]
    examples_per_pattern: dict[int, tuple[tuple[str, ...], ...]]
    total_subsets: int

    def to_dict(self) -> dict:
        patterns = []
        for mask in sorted(self.pattern_counts,
                           key=lambda m: (-self.pattern_counts[m], m)):
            pat = SignificancePattern(self.core, mask)
            patterns.append(
                {
                    "bitmask": hex(mask),
                    "non_significant_pairs": [list(p) for p in pat.pair_names()],
                    "count": self.pattern_counts[mask],
                    "examples": [list(s) for s in self.examples_per_pattern[mask]],
                }
            )
        return {
            "core": list(self.core),
            "total_subsets": self.total_subsets,
            "patterns": patterns,
        }


def significance_pattern(
    matrix: ResultsMatrix,
    core: Sequence[str],
    extra: Sequence[str],
    alpha: float,
) -> SignificancePattern:
    """Corrected significance pattern of the core pairs inside one study.

    The signed-rank test runs once for every pair among core plus extras
    (a p-value depends only on its pair) and the step-down correction is
    applied to that full family; the returned pattern records which
    core-core pairs came out non-significant.
    """
    alpha = check_alpha(alpha)
    core = matrix.check_names(core, "core")
    extra = matrix.check_names(extra, "extra")
    overlap = set(core) & set(extra)
    if overlap:
        raise ValidationError(f"core and extra sets overlap: {sorted(overlap)!r}")
    family = core + extra
    if len(family) < 2:
        raise ValidationError("need at least two comparates in core + extra")

    p = all_pairs_pvalues(matrix, family)
    return SignificancePattern(core, _holm_mask(p, len(core), alpha))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps modulo 2**64, as SplitMix64 requires.
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _reservoir_keys(seed: int, start: int, count: int) -> np.ndarray:
    """Deterministic uint64 keys of subset indices start .. start + count - 1,
    keyed by (seed, subset index): the n-th subset of a pattern takes
    reservoir slot key % n.  ``enumerate_patterns`` has checked that the
    seed lies in 0 .. 2**64 - 1."""
    index = np.arange(start, start + count, dtype=np.uint64)
    return _splitmix64(np.uint64(seed) ^ _splitmix64(index))


def _unranker(n: int, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """Combination unranking in lexicographic order: the returned function
    maps S ranks in [0, C(n, k)) to the S x k array of their ascending
    indices in range(n).

    x = C(n, k) - 1 - rank is written greedily in the combinatorial number
    system, x = C(c_k, k) + ... + C(c_1, 1) with c_k > ... > c_1, one
    ``searchsorted`` per slot, and the subset is n - 1 - c_k, ..., n - 1 - c_1.
    Column j - 1 (1 <= j <= k) of the table, built once here, holds
    C(j - 1 + i, j) for i in 0 .. n - k, the only binomials slot j can
    subtract.  C(n, k) must not exceed 2**63, so x and the table, whose
    entries are at most C(n - 1, k), are exact in int64.
    """
    columns = [np.array([math.comb(j - 1 + i, j) for i in range(n - k + 1)], dtype=np.int64)
               for j in range(1, k + 1)]
    top = np.int64(math.comb(n, k) - 1)

    def unrank(ranks: np.ndarray) -> np.ndarray:
        x = top - np.asarray(ranks, dtype=np.int64)
        out = np.empty((len(x), k), dtype=np.intp)
        for j in range(k, 0, -1):
            i = np.searchsorted(columns[j - 1], x, side="right") - 1
            x = x - columns[j - 1][i]
            out[:, k - j] = n - j - i
        return out

    return unrank


def _sample_ranks(total_space: int, count: int, seed: int) -> np.ndarray:
    """``count`` distinct ranks in [0, total_space), ascending, from Philox(seed).

    Each batch keeps its not-yet-chosen values in the order they were drawn,
    up to the number still needed.  Above half the space the ranks to leave
    out are drawn instead, so a near-full sample takes a few batches, not
    hundreds."""
    if 2 * count > total_space:
        left_out = _sample_ranks(total_space, total_space - count, seed)
        return np.setdiff1d(np.arange(total_space), left_out, assume_unique=True)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < count:
        need = count - len(chosen)
        draw = rng.integers(0, total_space, size=max(need * 2, 16))
        values, first = np.unique(draw, return_index=True)
        at = np.searchsorted(chosen, values)
        known = np.zeros(len(values), dtype=bool)
        inside = at < len(chosen)
        known[inside] = chosen[at[inside]] == values[inside]
        fresh = np.sort(draw[np.sort(first[~known])[:need]])
        chosen = np.insert(chosen, np.searchsorted(chosen, fresh), fresh)
    return chosen


def _holm_mask(p: np.ndarray, n_core: int, alpha: float) -> int:
    """``_step_down``'s pattern of the one family of ``p``, the core first."""
    pattern, count = _step_down(p, n_core, len(p) - n_core, alpha)
    return pattern(int(count(np.arange(len(p) - n_core)[None])[0]))


def _step_down(
    p: np.ndarray,
    n_core: int,
    k_extra: int,
    alpha: float,
) -> tuple[Callable[[int], int], Callable[[np.ndarray], np.ndarray]]:
    """The one Holm step-down of the stability lab, over many families core + extras.

    ``p`` is the p-value array of core + pool.  Returns a function that maps
    a count t of significant core pairs to its pattern bitmask, and a
    function that maps an S x k_extra array of pool indices to each row's
    count t.  The rows' family p-values are corrected as one S x F array.
    Core p-values do not depend on the extras, and equal p-values share a
    decision, so the significant core pairs are always the first t in
    ascending core p: the pattern sets the bits of the core pairs from the
    t-th on.  The pairs of two core members come in ``triu_indices`` order,
    which is ``combinations`` order: the order of the bits.
    """
    left, right = np.triu_indices(n_core + k_extra, 1)
    core_pairs = right < n_core
    # Entry b of the core p-values: the pair of bit b.
    order = np.argsort(p[np.triu_indices(n_core, 1)], kind="stable")
    core_idx = np.arange(n_core)

    def pattern(t: int) -> int:
        bits = np.zeros(len(order), dtype=bool)
        bits[order[t:]] = True
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    def count(extras: np.ndarray) -> np.ndarray:
        family = np.concatenate(
            [np.broadcast_to(core_idx, (len(extras), n_core)), extras + n_core], axis=1
        )
        significant = holm_correction(p[family[:, left], family[:, right]], alpha)
        return np.count_nonzero(significant[:, core_pairs], axis=1)

    return pattern, count


def enumerate_patterns(
    matrix: ResultsMatrix,
    core: Sequence[str],
    pool: Sequence[str],
    k_extra: int,
    alpha: float,
    sample: int | None = None,
    seed: int = 0,
) -> PatternEnumeration:
    """Pattern counts over every k-extra subset, or over ``sample`` distinct
    subsets drawn with ``seed``.

    Per-pair p-values are computed once up front: they depend only on the
    two comparates involved, so each subset evaluation reduces to one
    step-down correction over cached values.  A sweep is an ascending array
    of subset ranks in lexicographic order over the pool: every rank, or
    the drawn ranks when sampling.  It is processed in chunks of at most
    256 ranks and at most 2**16 subset x family-pair entries (one rank when
    a family alone has more pairs), each unranked to pool indices, corrected
    and counted with numpy, so memory stays bounded by one chunk's block
    whatever the size of the core.  Up to five example subsets per pattern
    are retained by reservoir sampling keyed by (seed, subset index), so a
    seed always selects the same examples; only subsets that enter a
    reservoir are turned into names.
    The one ``seed`` draws the sample and keys the reservoirs; it must lie
    in 0 .. 2**64 - 1.

    An exhaustive sweep of more than ``DEFAULT_EXHAUSTIVE_LIMIT`` subsets,
    a sampled space of more than ``SAMPLED_SPACE_LIMIT`` (2**63) subsets and
    a sample of more than ``DEFAULT_EXHAUSTIVE_LIMIT`` subsets each raise
    ``ValidationError``.  A sample that covers the whole space is an
    exhaustive sweep.
    """
    alpha = check_alpha(alpha)
    check_seed(seed)
    core = matrix.check_names(core, "core")
    pool = matrix.check_names(pool, "pool")
    overlap = set(core) & set(pool)
    if overlap:
        raise ValidationError(f"core and pool overlap: {sorted(overlap)!r}")
    k_extra = check_integer("k_extra", k_extra)
    if k_extra < 0:
        raise ValidationError("k_extra must be >= 0")
    if k_extra > len(pool):
        raise ValidationError(f"k_extra={k_extra} exceeds pool size {len(pool)}")
    if len(core) < 2:
        raise ValidationError("core must contain at least two comparates")

    total_space = math.comb(len(pool), k_extra)
    if sample is not None:
        sample = check_integer("sample", sample)
        if sample < 1:
            raise ValidationError("sample count must be >= 1")
        if sample >= total_space:
            sample = None  # the sample would cover the whole space

    if sample is None:
        if total_space > DEFAULT_EXHAUSTIVE_LIMIT:
            raise ValidationError(
                f"{total_space} subsets exceed the exhaustive limit "
                f"{DEFAULT_EXHAUSTIVE_LIMIT}; use --sample"
            )
        ranks = None
        total = total_space
    else:
        if sample > DEFAULT_EXHAUSTIVE_LIMIT:
            raise ValidationError(
                f"sample count {sample} exceeds the limit of "
                f"{DEFAULT_EXHAUSTIVE_LIMIT} subsets"
            )
        if total_space > SAMPLED_SPACE_LIMIT:
            raise ValidationError(
                f"k_extra={k_extra} over a pool of {len(pool)} gives {total_space} "
                f"subsets, more than --sample can draw from (2**63)"
            )
        ranks = _sample_ranks(total_space, sample, seed)
        total = sample

    # One p-value per pair over core + pool covers every family.
    p = all_pairs_pvalues(matrix, core + pool)
    pattern, count = _step_down(p, len(core), k_extra, alpha)
    counts = np.zeros(math.comb(len(core), 2) + 1, dtype=np.int64)
    # Count of significant core pairs -> kept example subsets, in order of
    # first appearance.
    examples: dict[int, list[tuple[str, ...]]] = {}
    # Ranks come one chunk at a time, so an exhaustive sweep near the limit
    # never holds a million subsets at once, nor a large core many families.
    chunk = max(1, min(_CHUNK, _CHUNK_ENTRIES // math.comb(len(core) + k_extra, 2)))
    unrank = _unranker(len(pool), k_extra)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        extras = unrank(np.arange(start, stop) if ranks is None else ranks[start:stop])
        t = count(extras)
        # n_seen: the row's 1-based place among all subsets of its pattern.
        order = np.argsort(t, kind="stable")
        grouped = t[order]
        place = np.empty_like(t)
        place[order] = np.arange(len(t)) - np.searchsorted(grouped, grouped)
        n_seen = counts[t] + place + 1
        counts += np.bincount(t, minlength=len(counts))
        slot = _reservoir_keys(seed, start, len(t)) % n_seen.astype(np.uint64)
        kept = (n_seen <= _EXAMPLE_LIMIT) | (slot < _EXAMPLE_LIMIT)
        for row in np.flatnonzero(kept).tolist():
            subset = tuple(pool[i] for i in extras[row].tolist())
            kept_for = examples.setdefault(int(t[row]), [])
            if n_seen[row] <= _EXAMPLE_LIMIT:
                kept_for.append(subset)
            elif slot[row] < _EXAMPLE_LIMIT:
                kept_for[int(slot[row])] = subset

    found = {pattern(t): t for t in examples}
    return PatternEnumeration(
        core=core,
        pattern_counts={mask: int(counts[t]) for mask, t in found.items()},
        examples_per_pattern={mask: tuple(examples[t]) for mask, t in found.items()},
        total_subsets=total,
    )


@dataclass(frozen=True)
class RankSwapReport:
    """Average-rank standing of one pair inside two study contexts."""

    pair: tuple[str, str]
    average_ranks_a: dict[str, float]
    average_ranks_b: dict[str, float]
    better_a: str | None  # None means the two tie on average rank
    better_b: str | None
    swapped: bool
    significant_a: bool
    significant_b: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"pair": list(self.pair)}


def _pair_standing(matrix: ResultsMatrix, members: tuple[str, ...], pair: tuple[str, str],
                   p: np.ndarray, alpha: float) -> tuple[dict[str, float], str | None, bool]:
    table = compute_ranks(matrix.select_comparates(members))
    ars = {name: float(table.average_ranks[i]) for i, name in enumerate(members)}
    x, y = pair
    if ars[x] < ars[y]:
        better = x
    elif ars[y] < ars[x]:
        better = y
    else:
        better = None
    family = matrix.positions([x, y, *(c for c in members if c not in pair)])
    significant = not _holm_mask(p[np.ix_(family, family)], 2, alpha)
    return {x: ars[x], y: ars[y]}, better, significant


def detect_rank_swap(
    matrix: ResultsMatrix,
    pair: tuple[str, str],
    set_a: Sequence[str],
    set_b: Sequence[str],
    alpha: float = 0.05,
) -> RankSwapReport:
    """Compare the pair's average-rank order (and corrected significance)
    between two comparate sets that both contain it.

    A p-value depends only on its pair, so each distinct pair of the two
    Holm families is tested once; only the corrections differ.
    """
    alpha = check_alpha(alpha)
    x, y = matrix.check_pair(pair)
    a = matrix.in_matrix_order(matrix.check_names(set_a, "set_a"))
    b = matrix.in_matrix_order(matrix.check_names(set_b, "set_b"))
    for name in (x, y):
        if name not in a or name not in b:
            raise ValidationError(f"comparate {name!r} missing from a set")

    # Both sets are in matrix order, so a shared pair is the same tuple in both.
    families = dict.fromkeys(pq for s in (a, b) for pq in itertools.combinations(s, 2))
    union = matrix.select_comparates(matrix.in_matrix_order(a + b))
    rows, columns = union.positions(list(families)).T
    p = np.zeros((union.m, union.m))
    p[rows, columns] = p[columns, rows] = pair_statistics(union, list(families)).p_value
    ars_a, better_a, sig_a = _pair_standing(union, a, (x, y), p, alpha)
    ars_b, better_b, sig_b = _pair_standing(union, b, (x, y), p, alpha)
    return RankSwapReport(
        pair=(x, y),
        average_ranks_a=ars_a,
        average_ranks_b=ars_b,
        better_a=better_a,
        better_b=better_b,
        swapped=better_a != better_b,
        significant_a=sig_a,
        significant_b=sig_b,
    )


@dataclass(frozen=True)
class WeightOutcome:
    """Effect of one blended-variant weight on the study."""

    weight: float
    variant_name: str
    target_average_rank: float
    variant_average_rank: float
    pattern: SignificancePattern
    flipped_pairs: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "weight": self.weight,
            "variant": self.variant_name,
            "target_average_rank": self.target_average_rank,
            "variant_average_rank": self.variant_average_rank,
            "pattern_bitmask": hex(self.pattern.bitmask),
            "non_significant_pairs": [list(p) for p in self.pattern.pair_names()],
            "flipped_pairs": [list(p) for p in self.flipped_pairs],
        }


@dataclass(frozen=True)
class WeakenedVariantReport:
    """Average-rank trajectory of the target as blended variants join."""

    target: str
    reference: str
    context: tuple[str, ...]
    alpha: float
    baseline_target_average_rank: float
    baseline_pattern: SignificancePattern
    outcomes: tuple[WeightOutcome, ...]

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "reference": self.reference,
            "context": list(self.context),
            "alpha": self.alpha,
            "baseline_target_average_rank": self.baseline_target_average_rank,
            "baseline_pattern_bitmask": hex(self.baseline_pattern.bitmask),
            "baseline_non_significant_pairs": [
                list(p) for p in self.baseline_pattern.pair_names()
            ],
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def weakened_variant_attack(
    matrix: ResultsMatrix,
    target: str,
    reference: str,
    weights: Sequence[float],
    context: Sequence[str],
    alpha: float = 0.05,
) -> WeakenedVariantReport:
    """Add one blended variant of the target per weight and report how the
    target's average rank and the context's corrected significances move.

    For each weight the augmented study is the context plus the variant;
    patterns are recorded over the context pairs so outcomes are directly
    comparable with the unaugmented baseline.  A p-value depends only on its
    pair, so the context pairs are tested once and each weight tests only its
    variant against the context, replacing an earlier same-named variant's.
    """
    alpha = check_alpha(alpha)
    if target == reference:
        raise ValidationError("target and reference must differ")
    context = matrix.check_names(context, "context")
    if target not in context:
        raise ValidationError(f"target {target!r} must be part of the context")
    matrix.index_of(reference)
    ordered = matrix.in_matrix_order(context)

    base_ranks = compute_ranks(matrix.select_comparates(ordered))
    base_ar = float(base_ranks.average_ranks[ordered.index(target)])
    c = len(ordered)
    p = np.zeros((c + 1, c + 1))  # the last row and column: the current variant
    p[:c, :c] = all_pairs_pvalues(matrix, ordered)
    base_mask = _holm_mask(p[:c, :c], c, alpha)

    outcomes = []
    for w in weights:
        w = check_real("weight", w)
        variant = _fresh_variant_name(matrix, target, w)
        augmented = weaken_comparate(matrix, target, reference, w, variant)
        members = augmented.in_matrix_order(context + (variant,))
        table = compute_ranks(augmented.select_comparates(members))
        target_ar = float(table.average_ranks[members.index(target)])
        variant_ar = float(table.average_ranks[members.index(variant)])
        tested = pair_statistics(augmented, [(name, variant) for name in ordered])
        p[:c, c] = p[c, :c] = tested.p_value
        mask = _holm_mask(p, c, alpha)
        flipped = SignificancePattern(ordered, base_mask ^ mask).pair_names()
        outcomes.append(
            WeightOutcome(
                weight=w,
                variant_name=variant,
                target_average_rank=target_ar,
                variant_average_rank=variant_ar,
                pattern=SignificancePattern(ordered, mask),
                flipped_pairs=tuple(sorted(flipped)),
            )
        )

    return WeakenedVariantReport(
        target=target,
        reference=reference,
        context=ordered,
        alpha=alpha,
        baseline_target_average_rank=base_ar,
        baseline_pattern=SignificancePattern(ordered, base_mask),
        outcomes=tuple(outcomes),
    )


def _fresh_variant_name(matrix: ResultsMatrix, target: str, weight: float) -> str:
    # ``:g`` keeps six significant digits; distinct weights need the full repr.
    label = f"{weight:g}"
    base = f"{target}~{label if float(label) == weight else repr(weight)}"
    name = base
    suffix = 2
    while name in matrix.comparates:
        name = f"{base}#{suffix}"
        suffix += 1
    return name
