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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import ResultsMatrix, weaken_comparate
from .errors import (
    EnumerationTooLarge,
    InternalError,
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
    "SAMPLED_SPACE_LIMIT",
]

#: Exhaustive enumeration refuses above this many subsets; use Sampled mode.
DEFAULT_EXHAUSTIVE_LIMIT = 1_000_000

#: Sampled mode refuses a subset space larger than this: ranks are drawn
#: with numpy's ``Generator.integers``, whose int64 range ends here.
SAMPLED_SPACE_LIMIT = 1 << 63

# Subsets per vectorized step-down: bounds the subsets x family-pairs block.
_CHUNK = 256

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


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps modulo 2**64, as SplitMix64 requires.
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _reservoir_keys(seed: int, start: int, count: int) -> list[int]:
    """Deterministic keys of subset indices start .. start + count - 1,
    keyed by (seed, subset index): the n-th subset of a pattern takes
    reservoir slot key % n."""
    index = np.arange(start, start + count, dtype=np.uint64)
    return _splitmix64(np.uint64(seed & _MASK64) ^ _splitmix64(index)).tolist()


def _subset_by_rank(pool: Sequence, k: int, rank: int) -> tuple:
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


def _sample_ranks(total_space: int, count: int, seed: int) -> list[int]:
    """``count`` distinct ranks in [0, total_space), ascending, from Philox(seed)."""
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


def _step_down(
    names: tuple[str, ...],
    n_core: int,
    k_extra: int,
    pvalues: dict[tuple[str, str], float],
    alpha: float,
) -> Callable[[np.ndarray], list[int]]:
    """Vectorized ``_holm_mask`` over many families core + extras.

    ``names`` is core + pool.  The returned function maps an S x k_extra
    array of pool indices to the S pattern bitmasks.  Each row's family
    p-values are sorted and compared with alpha / (F - i); the rejections
    are the leading run of passes.  A pair is significant iff at least one
    p was rejected and its p is <= the last rejected p, which is the stop
    rule together with the equal-p unification of ``holm_correction``.
    Core p-values do not depend on the extras, so the significant core
    pairs are always the first few in ascending core p, and a row's mask
    is one of C(n_core, 2) + 1 precomputed suffix masks.
    """
    n = len(names)
    pmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            pmat[i, j] = pmat[j, i] = pvalues[pair_id(names[i], names[j])]
    left, right = np.triu_indices(n_core + k_extra, 1)
    thresholds = alpha / (len(left) - np.arange(len(left)))
    core_pairs = sorted(
        (pmat[i, j], _pair_bit(n_core, i, j))
        for i in range(n_core)
        for j in range(i + 1, n_core)
    )
    core_p = np.array([p for p, _ in core_pairs])
    suffix_masks = [0] * (len(core_pairs) + 1)
    for t in range(len(core_pairs) - 1, -1, -1):
        suffix_masks[t] = suffix_masks[t + 1] | 1 << core_pairs[t][1]
    core_idx = np.arange(n_core)

    def masks(extras: np.ndarray) -> list[int]:
        s = len(extras)
        family = np.concatenate(
            [np.broadcast_to(core_idx, (s, n_core)), extras + n_core], axis=1
        )
        ps = np.sort(pmat[family[:, left], family[:, right]], axis=1)
        rejected = np.logical_and.accumulate(ps <= thresholds, axis=1).sum(axis=1)
        last = np.where(rejected > 0, ps[np.arange(s), rejected - 1], -1.0)
        significant = np.searchsorted(core_p, last, side="right")
        return [suffix_masks[t] for t in significant.tolist()]

    return masks


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
    step-down correction over cached values.  Subsets are taken in index
    order (lexicographic over the pool; ascending rank in Sampled mode) and
    corrected with numpy in chunks of at most 256, so memory stays bounded
    by one chunk's subsets x family pairs.  The first subset of each newly
    seen pattern is also corrected by ``holm_correction``, and a mismatch
    raises ``InternalError``.  Example subsets are retained by reservoir
    sampling keyed by (seed, subset index), so a seed always selects the
    same examples.

    Sampled mode refuses a space of more than ``SAMPLED_SPACE_LIMIT``
    (2**63) subsets, and a sample of more than ``exhaustive_limit``
    subsets, with ``ValidationError``.
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
        rows = itertools.combinations(range(len(pool)), k_extra)
    elif isinstance(mode, Sampled):
        if count > exhaustive_limit:
            raise ValidationError(
                f"sample count {count} exceeds the limit of {exhaustive_limit} subsets"
            )
        if total_space > SAMPLED_SPACE_LIMIT:
            raise ValidationError(
                f"k_extra={k_extra} over a pool of {len(pool)} gives {total_space} "
                f"subsets, more than Sampled mode can draw from (2**63)"
            )
        rows = (_subset_by_rank(range(len(pool)), k_extra, r)
                for r in _sample_ranks(total_space, count, mode.seed))
    else:
        raise ValidationError(f"unknown enumeration mode {mode!r}")

    # One p-value per pair over core + pool covers every family.
    pvalues = all_pairs_pvalues(matrix, core + pool, exact_threshold)
    masks = _step_down(core + pool, len(core), k_extra, pvalues, alpha)
    counts: dict[int, int] = {}
    examples: dict[int, list[tuple[str, ...]]] = {}
    example_limit = max(0, int(example_limit))
    start = 0
    # Pool-index rows come lazily, one chunk at a time, so exhaustive sweeps
    # near the limit never hold a million subsets at once.
    for chunk in iter(lambda: list(itertools.islice(rows, _CHUNK)), []):
        extras = np.array(chunk, dtype=np.intp).reshape(len(chunk), k_extra)
        keys = _reservoir_keys(example_seed, start, len(chunk))
        for row, mask, key in zip(chunk, masks(extras), keys):
            n_seen = counts.get(mask, 0) + 1
            counts[mask] = n_seen
            if n_seen == 1:
                subset = tuple(pool[i] for i in row)
                expected = _holm_mask(core, core + subset, pvalues, alpha)
                if expected != mask:
                    raise InternalError(
                        f"vectorized step-down gave pattern {mask:#x} for extras "
                        f"{subset!r}; holm_correction gives {expected:#x}"
                    )
                examples[mask] = [subset] if example_limit else []
            elif n_seen <= example_limit:
                examples[mask].append(tuple(pool[i] for i in row))
            elif example_limit > 0:
                slot = key % n_seen
                if slot < example_limit:
                    examples[mask][slot] = tuple(pool[i] for i in row)
        start += len(chunk)

    return PatternEnumeration(
        core=core,
        pattern_counts=counts,
        examples_per_pattern={m: tuple(v) for m, v in examples.items()},
        total_subsets=start,
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
