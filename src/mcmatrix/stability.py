"""Stability laboratory: how rank- and Holm-based conclusions move when the
comparate set changes.

Three experiment families are provided: enumeration of corrected
significance patterns for a core set embedded among varying extras,
detection of average-rank order swaps between two study contexts, and the
weakened-variant attack that inflates a target's average rank by adding a
blended copy of it.  Each demonstrates something a per-pair comparison
grid is immune to by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ResultsMatrix, weaken_comparate
from .errors import (
    EnumerationTooLarge,
    OverlappingSets,
    PairNotInBothSets,
    PoolTooSmall,
    ValidationError,
)
from .stats import (
    DEFAULT_EXACT_THRESHOLD,
    all_pairs_pvalues,
    check_alpha,
    compute_ranks,
    holm_correction,
    holm_significance,
    pair_id,
)
from .stats import wilcoxon_signed_rank  # noqa: F401 -- perfbench/spans.py times it here

__all__ = [
    "SignificancePattern",
    "pattern_from_bitmask",
    "PatternEnumeration",
    "Exhaustive",
    "Sampled",
    "significance_pattern",
    "enumerate_patterns",
    "RankSwapReport",
    "detect_rank_swap",
    "WeightOutcome",
    "WeakenedVariantReport",
    "weakened_variant_attack",
    "DEFAULT_EXHAUSTIVE_LIMIT",
]

#: Exhaustive enumeration refuses above this many subsets; use Sampled mode.
DEFAULT_EXHAUSTIVE_LIMIT = 1_000_000

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SignificancePattern:
    """Core pairs whose corrected difference is NOT significant in one
    study configuration.

    Pairs are (i, j) index pairs into ``core`` with i < j; the bitmask
    packs them in lexicographic pair order and serves as a hash key.
    """

    core: tuple[str, ...]
    non_significant_pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        k = len(self.core)
        for i, j in self.non_significant_pairs:
            if not (0 <= i < j < k):
                raise ValidationError(f"pair ({i}, {j}) out of range for core size {k}")

    @property
    def bitmask(self) -> int:
        mask = 0
        for i, j in self.non_significant_pairs:
            mask |= 1 << _pair_bit(len(self.core), i, j)
        return mask

    def pair_names(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.core[i], self.core[j]) for i, j in sorted(self.non_significant_pairs)
        )


def _pair_bit(k: int, i: int, j: int) -> int:
    # Lexicographic pair order: (0,1), (0,2), ..., (0,k-1), (1,2), ...
    return i * k - i * (i + 1) // 2 + (j - i - 1)


def pattern_from_bitmask(core: Sequence[str], mask: int) -> SignificancePattern:
    core = tuple(core)
    k = len(core)
    pairs = set()
    for i in range(k):
        for j in range(i + 1, k):
            if mask >> _pair_bit(k, i, j) & 1:
                pairs.add((i, j))
    return SignificancePattern(core=core, non_significant_pairs=frozenset(pairs))


@dataclass(frozen=True)
class Exhaustive:
    """Evaluate every k-subset of the pool."""


@dataclass(frozen=True)
class Sampled:
    """Evaluate ``count`` distinct k-subsets drawn with the given seed."""

    count: int
    seed: int = 0


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
            pat = pattern_from_bitmask(self.core, mask)
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
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> SignificancePattern:
    """Corrected significance pattern of the core pairs inside one study.

    The signed-rank test runs for every pair among core plus extras and the
    step-down correction is applied to that full family; the returned
    pattern records which core-core pairs came out non-significant.
    """
    core = matrix.check_names(core, "core")
    extra = matrix.check_names(extra, "extra")
    overlap = set(core) & set(extra)
    if overlap:
        raise OverlappingSets(f"core and extra sets overlap: {sorted(overlap)!r}")
    family = core + extra
    if len(family) < 2:
        raise ValidationError("need at least two comparates in core + extra")

    flags = holm_significance(matrix, family, alpha, exact_threshold=exact_threshold)
    pairs = frozenset(
        (i, j)
        for i in range(len(core))
        for j in range(i + 1, len(core))
        if not flags[pair_id(core[i], core[j])]
    )
    return SignificancePattern(core=core, non_significant_pairs=pairs)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _reservoir_draw(seed: int, index: int, n: int) -> int:
    """Deterministic integer in [0, n) keyed by (seed, subset index)."""
    return _splitmix64((seed & _MASK64) ^ _splitmix64(index)) % n


def _subset_by_rank(pool: Sequence[str], k: int, rank: int) -> tuple[str, ...]:
    """Combination unranking in lexicographic order (combinatorial number
    system): maps rank in [0, C(len(pool), k)) to a k-subset."""
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


def _holm_mask(
    core: tuple[str, ...],
    family: tuple[str, ...],
    pvalues: dict[tuple[str, str], float],
    alpha: float,
) -> int:
    items = []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            pid = pair_id(family[i], family[j])
            items.append((pid, pvalues[pid]))
    flags = {d.pair: d.significant for d in holm_correction(items, alpha)}
    k = len(core)
    mask = 0
    for i in range(k):
        for j in range(i + 1, k):
            if not flags[pair_id(core[i], core[j])]:
                mask |= 1 << _pair_bit(k, i, j)
    return mask


def enumerate_patterns(
    matrix: ResultsMatrix,
    core: Sequence[str],
    pool: Sequence[str],
    k_extra: int,
    alpha: float,
    mode: Exhaustive | Sampled = Exhaustive(),
    example_limit: int = 5,
    example_seed: int = 0,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> PatternEnumeration:
    """Pattern counts over every (or a sampled set of) k-extra subsets.

    Per-pair p-values are computed once up front: they depend only on the
    two comparates involved, so each subset evaluation reduces to one
    step-down correction over cached values.  Example subsets are retained
    by reservoir sampling keyed by (seed, subset index), so a seed always
    selects the same examples.
    """
    alpha = check_alpha(alpha)
    core = matrix.check_names(core, "core")
    pool = matrix.check_names(pool, "pool")
    overlap = set(core) & set(pool)
    if overlap:
        raise OverlappingSets(f"core and pool overlap: {sorted(overlap)!r}")
    k_extra = int(k_extra)
    if k_extra < 0:
        raise ValidationError("k_extra must be >= 0")
    if k_extra > len(pool):
        raise PoolTooSmall(f"k_extra={k_extra} exceeds pool size {len(pool)}")
    if len(core) < 2:
        raise ValidationError("core must contain at least two comparates")

    total_space = math.comb(len(pool), k_extra)

    # One p-value per pair over core + pool covers every family.
    pvalues = all_pairs_pvalues(matrix, core + pool, exact_threshold)

    if isinstance(mode, Sampled):
        count = int(mode.count)
        if count < 1:
            raise ValidationError("sample count must be >= 1")
        if count >= total_space:
            mode = Exhaustive()  # the sample would cover the whole space

    if isinstance(mode, Exhaustive):
        if total_space > exhaustive_limit:
            raise EnumerationTooLarge(
                f"{total_space} subsets exceed the exhaustive limit "
                f"{exhaustive_limit}; use Sampled mode"
            )
        ranks: list[int] | range = range(total_space)
    elif isinstance(mode, Sampled):
        rng = np.random.Generator(np.random.Philox(key=int(mode.seed) & _MASK64))
        chosen: set[int] = set()
        while len(chosen) < count:
            need = count - len(chosen)
            draw = rng.integers(0, total_space, size=max(need * 2, 16))
            for r in draw.tolist():
                if len(chosen) >= count:
                    break
                chosen.add(int(r))
        ranks = sorted(chosen)
    else:
        raise ValidationError(f"unknown enumeration mode {mode!r}")

    counts: dict[int, int] = {}
    examples: dict[int, list[tuple[str, ...]]] = {}
    example_limit = max(0, int(example_limit))
    # Subsets are unranked on demand (lexicographic order over the pool) so
    # exhaustive sweeps near the limit do not hold a million tuples at once.
    for g, rank in enumerate(ranks):
        subset = _subset_by_rank(pool, k_extra, rank)
        mask = _holm_mask(core, core + subset, pvalues, alpha)
        n_seen = counts.get(mask, 0) + 1
        counts[mask] = n_seen
        bucket = examples.setdefault(mask, [])
        if n_seen <= example_limit:
            bucket.append(subset)
        elif example_limit > 0:
            slot = _reservoir_draw(example_seed, g, n_seen)
            if slot < example_limit:
                bucket[slot] = subset

    return PatternEnumeration(
        core=core,
        pattern_counts=counts,
        examples_per_pattern={m: tuple(v) for m, v in examples.items()},
        total_subsets=len(ranks),
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
        return {
            "pair": list(self.pair),
            "average_ranks_a": self.average_ranks_a,
            "average_ranks_b": self.average_ranks_b,
            "better_a": self.better_a,
            "better_b": self.better_b,
            "swapped": self.swapped,
            "significant_a": self.significant_a,
            "significant_b": self.significant_b,
        }


def _pair_standing(matrix: ResultsMatrix, members: tuple[str, ...],
                   pair: tuple[str, str], alpha: float,
                   exact_threshold: int) -> tuple[dict[str, float], str | None, bool]:
    sub = matrix.select_comparates(members)
    table = compute_ranks(sub)
    ars = {name: float(table.average_ranks[i]) for i, name in enumerate(members)}
    x, y = pair
    if ars[x] < ars[y]:
        better = x
    elif ars[y] < ars[x]:
        better = y
    else:
        better = None
    flags = holm_significance(sub, members, alpha, exact_threshold=exact_threshold)
    return (
        {x: ars[x], y: ars[y]},
        better,
        flags[pair_id(x, y)],
    )


def detect_rank_swap(
    matrix: ResultsMatrix,
    pair: tuple[str, str],
    set_a: Sequence[str],
    set_b: Sequence[str],
    alpha: float = 0.05,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> RankSwapReport:
    """Compare the pair's average-rank order (and corrected significance)
    between two comparate sets that both contain it."""
    x, y = pair
    a = matrix.check_names(set_a, "set_a")
    b = matrix.check_names(set_b, "set_b")
    for name in (x, y):
        if name not in a or name not in b:
            raise PairNotInBothSets(f"comparate {name!r} missing from a set")

    a = matrix.in_matrix_order(a)
    b = matrix.in_matrix_order(b)
    ars_a, better_a, sig_a = _pair_standing(matrix, a, (x, y), alpha, exact_threshold)
    ars_b, better_b, sig_b = _pair_standing(matrix, b, (x, y), alpha, exact_threshold)
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
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> WeakenedVariantReport:
    """Add one blended variant of the target per weight and report how the
    target's average rank and the context's corrected significances move.

    For each weight the augmented study is the context plus the variant;
    patterns are recorded over the context pairs so outcomes are directly
    comparable with the unaugmented baseline.
    """
    context = matrix.check_names(context, "context")
    if target not in context:
        raise ValidationError(f"target {target!r} must be part of the context")
    matrix.index_of(reference)
    ordered = matrix.in_matrix_order(context)

    base_sub = matrix.select_comparates(ordered)
    base_ranks = compute_ranks(base_sub)
    base_ar = float(base_ranks.average_ranks[ordered.index(target)])
    base_pattern = significance_pattern(
        matrix, ordered, (), alpha, exact_threshold=exact_threshold
    )
    base_flags = {
        pair: True for pair in base_pattern.pair_names()
    }  # pairs currently non-significant

    outcomes = []
    for w in weights:
        w = float(w)
        variant = _fresh_variant_name(matrix, target, w)
        augmented = weaken_comparate(matrix, target, reference, w, variant)
        members = augmented.in_matrix_order(context + (variant,))
        sub = augmented.select_comparates(members)
        table = compute_ranks(sub)
        target_ar = float(table.average_ranks[members.index(target)])
        variant_ar = float(table.average_ranks[members.index(variant)])
        pattern = significance_pattern(
            augmented, ordered, (variant,), alpha, exact_threshold=exact_threshold
        )
        now_flags = {pair: True for pair in pattern.pair_names()}
        flipped = tuple(
            sorted(set(base_flags) ^ set(now_flags))
        )
        outcomes.append(
            WeightOutcome(
                weight=w,
                variant_name=variant,
                target_average_rank=target_ar,
                variant_average_rank=variant_ar,
                pattern=pattern,
                flipped_pairs=flipped,
            )
        )

    return WeakenedVariantReport(
        target=target,
        reference=reference,
        context=ordered,
        alpha=float(alpha),
        baseline_target_average_rank=base_ar,
        baseline_pattern=base_pattern,
        outcomes=tuple(outcomes),
    )


def _fresh_variant_name(matrix: ResultsMatrix, target: str, weight: float) -> str:
    base = f"{target}~{weight:g}"
    name = base
    suffix = 2
    while name in matrix.comparates:
        name = f"{base}#{suffix}"
        suffix += 1
    return name
