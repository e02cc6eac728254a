import math
from itertools import combinations

import numpy as np
import pytest

from mcmatrix import (
    Direction,
    Exhaustive,
    ResultsMatrix,
    Sampled,
    build_mcm,
    detect_rank_swap,
    enumerate_patterns,
    significance_pattern,
    stability,
    weaken_comparate,
    weakened_variant_attack,
)
from mcmatrix.errors import (
    EnumerationTooLarge,
    InternalError,
    OverlappingSets,
    PairNotInBothSets,
    PoolTooSmall,
    ValidationError,
)
from mcmatrix.stability import (
    PatternEnumeration,
    _holm_mask,
    _reservoir_keys,
    _sample_ranks,
    _step_down,
    _subset_by_rank,
    pattern_from_bitmask,
)
from mcmatrix.stats import (
    all_pairs_pvalues,
    compute_ranks,
    oriented_differences,
    wilcoxon_signed_rank,
)

from conftest import fixture_matrix, inverted_holm, load_fixture, random_matrix
from oracles import reservoir_draw


class TestSignificancePattern:
    def test_single_pair_holm_identity(self):
        # With no extras and one pair, the correction threshold is alpha.
        scores = np.array(
            [np.linspace(0.8, 0.9, 10), np.linspace(0.5, 0.6, 10)]
        )
        matrix = ResultsMatrix(
            ("strong", "weak"), tuple(f"t{j}" for j in range(10)), scores,
            Direction.HIGHER_IS_BETTER,
        )
        p, _ = wilcoxon_signed_rank(oriented_differences(matrix, "strong", "weak"))
        assert p <= 0.05
        pattern = significance_pattern(matrix, ["strong", "weak"], [], 0.05)
        assert pattern.non_significant_pairs == frozenset()

    def test_core_of_four_bitmask_width(self, demo_matrix):
        pattern = significance_pattern(
            demo_matrix, list(demo_matrix.comparates), [], 0.05
        )
        assert pattern.bitmask < (1 << 6)  # C(4, 2) pair bits
        rebuilt = pattern_from_bitmask(pattern.core, pattern.bitmask)
        assert rebuilt.non_significant_pairs == pattern.non_significant_pairs

    def test_extras_can_flip_core_pair(self):
        fixture = load_fixture("holm_flip")
        matrix = fixture_matrix(fixture)
        a, b = fixture["pair"]
        alpha = fixture["alpha"]
        alone = significance_pattern(matrix, [a, b], [], alpha)
        embedded = significance_pattern(
            matrix, [a, b], fixture["large_family_extras"], alpha
        )
        assert alone.non_significant_pairs == frozenset()
        assert embedded.non_significant_pairs == frozenset({(0, 1)})

    def test_raw_p_identical_across_contexts(self):
        fixture = load_fixture("holm_flip")
        matrix = fixture_matrix(fixture)
        a, b = fixture["pair"]
        p_alone, _ = wilcoxon_signed_rank(oriented_differences(matrix, a, b))
        sub = matrix.select_comparates([a, b])
        p_small, _ = wilcoxon_signed_rank(oriented_differences(sub, a, b))
        assert p_alone == p_small == fixture["raw_p"]

    def test_overlap_rejected(self, demo_matrix):
        with pytest.raises(OverlappingSets):
            significance_pattern(demo_matrix, ["Alpha", "Bravo"], ["Bravo"], 0.05)


class TestEnumeratePatterns:
    def test_exhaustive_conservation(self):
        rng = np.random.default_rng(42)
        matrix = random_matrix(rng, m=9, n=12)
        core = matrix.comparates[:3]
        pool = matrix.comparates[3:]
        enumeration = enumerate_patterns(matrix, core, pool, 3, 0.05)
        assert enumeration.total_subsets == math.comb(len(pool), 3)
        assert sum(enumeration.pattern_counts.values()) == enumeration.total_subsets

    def test_zero_extras_single_subset(self, demo_matrix):
        enumeration = enumerate_patterns(
            demo_matrix, demo_matrix.comparates[:2], demo_matrix.comparates[2:], 0, 0.05
        )
        assert enumeration.total_subsets == 1
        assert list(enumeration.pattern_counts.values()) == [1]

    def test_pool_too_small(self, demo_matrix):
        with pytest.raises(PoolTooSmall):
            enumerate_patterns(
                demo_matrix, demo_matrix.comparates[:2], demo_matrix.comparates[2:], 5, 0.05
            )

    def test_exhaustive_limit_guard(self):
        rng = np.random.default_rng(43)
        matrix = random_matrix(rng, m=10, n=4)
        with pytest.raises(EnumerationTooLarge):
            enumerate_patterns(
                matrix, matrix.comparates[:2], matrix.comparates[2:], 4, 0.05,
                exhaustive_limit=10,
            )

    def test_sample_above_exhaustive_limit_refused(self):
        rng = np.random.default_rng(43)
        matrix = random_matrix(rng, m=10, n=4)
        with pytest.raises(ValidationError, match="sample count 11 exceeds the limit of 10"):
            enumerate_patterns(
                matrix, matrix.comparates[:2], matrix.comparates[2:], 4, 0.05,
                mode=Sampled(11), exhaustive_limit=10,
            )
        # A sample that covers the whole space is an exhaustive sweep.
        full = enumerate_patterns(matrix, matrix.comparates[:2], matrix.comparates[2:], 1,
                                  0.05, mode=Sampled(11), exhaustive_limit=10)
        assert full.total_subsets == 8

    def test_sampled_mode_deterministic(self):
        rng = np.random.default_rng(44)
        matrix = random_matrix(rng, m=10, n=10)
        core = matrix.comparates[:3]
        pool = matrix.comparates[3:]
        first = enumerate_patterns(matrix, core, pool, 3, 0.05, mode=Sampled(12, seed=9))
        second = enumerate_patterns(matrix, core, pool, 3, 0.05, mode=Sampled(12, seed=9))
        assert first == second
        assert first.total_subsets == 12
        assert sum(first.pattern_counts.values()) == 12

    def test_examples_capped_and_consistent(self):
        rng = np.random.default_rng(45)
        matrix = random_matrix(rng, m=10, n=8)
        core = matrix.comparates[:2]
        pool = matrix.comparates[2:]
        enumeration = enumerate_patterns(matrix, core, pool, 2, 0.05, example_limit=5)
        for mask, examples in enumeration.examples_per_pattern.items():
            assert len(examples) <= 5
            for subset in examples:
                pattern = significance_pattern(matrix, core, subset, 0.05)
                assert pattern.bitmask == mask

    def test_matches_per_subset_recomputation(self):
        # The enumeration caches p-values; recomputing each subset from
        # scratch must land on the same pattern (raw-p invariance).
        rng = np.random.default_rng(46)
        matrix = random_matrix(rng, m=8, n=10)
        core = matrix.comparates[:3]
        pool = matrix.comparates[3:]
        enumeration = enumerate_patterns(matrix, core, pool, 2, 0.1)
        from itertools import combinations

        fresh: dict[int, int] = {}
        for subset in combinations(pool, 2):
            mask = significance_pattern(matrix, core, subset, 0.1).bitmask
            fresh[mask] = fresh.get(mask, 0) + 1
        assert fresh == enumeration.pattern_counts

    def test_unranking_matches_lexicographic_order(self):
        from itertools import combinations

        from mcmatrix.stability import _subset_by_rank

        pool = tuple("abcdefgh")
        for k in (0, 1, 3, 5, 8):
            expected = list(combinations(pool, k))
            got = [_subset_by_rank(pool, k, r) for r in range(math.comb(8, k))]
            assert got == expected

    def test_sampled_count_covering_space_degrades_to_exhaustive(self):
        rng = np.random.default_rng(48)
        matrix = random_matrix(rng, m=6, n=6)
        core = matrix.comparates[:2]
        pool = matrix.comparates[2:]
        sampled = enumerate_patterns(
            matrix, core, pool, 2, 0.05, mode=Sampled(999, seed=0)
        )
        exhaustive = enumerate_patterns(matrix, core, pool, 2, 0.05)
        assert sampled == exhaustive
        assert sampled.total_subsets == math.comb(4, 2)

    def test_example_seed_reproducible(self):
        rng = np.random.default_rng(49)
        matrix = random_matrix(rng, m=10, n=8, tie_prob=0.3)
        core = matrix.comparates[:2]
        pool = matrix.comparates[2:]
        kwargs = dict(example_limit=2)
        a = enumerate_patterns(matrix, core, pool, 3, 0.05, example_seed=7, **kwargs)
        b = enumerate_patterns(matrix, core, pool, 3, 0.05, example_seed=7, **kwargs)
        assert a == b


def tied_matrix(rng, m, n):
    """Small n and one-decimal scores give many equal exact p-values; the
    skill spread makes some pairs reject."""
    skill = rng.permutation(np.linspace(0.0, 1.0, m))
    scores = np.round(skill[:, None] + rng.uniform(0.0, 0.6, size=(m, n)), 1)
    return ResultsMatrix(
        tuple(f"c{i}" for i in range(m)), tuple(f"t{j}" for j in range(n)), scores,
        Direction.HIGHER_IS_BETTER,
    )


def per_subset_enumeration(matrix, core, pool, k_extra, alpha, ranks,
                           example_limit, example_seed):
    """The one-``holm_correction``-per-subset loop the chunked kernel replaced."""
    pvalues = all_pairs_pvalues(matrix, core + pool)
    counts, examples = {}, {}
    for g, rank in enumerate(ranks):
        subset = _subset_by_rank(pool, k_extra, rank)
        mask = _holm_mask(core, core + subset, pvalues, alpha)
        n_seen = counts.get(mask, 0) + 1
        counts[mask] = n_seen
        bucket = examples.setdefault(mask, [])
        if n_seen <= example_limit:
            bucket.append(subset)
        elif example_limit > 0:
            slot = reservoir_draw(example_seed, g, n_seen)
            if slot < example_limit:
                bucket[slot] = subset
    return PatternEnumeration(
        core=core,
        pattern_counts=counts,
        examples_per_pattern={m: tuple(v) for m, v in examples.items()},
        total_subsets=len(ranks),
    )


class TestStepDownKernel:
    def kernel_and_oracle(self, core, pool, k_extra, pvalues, alpha):
        rows = list(combinations(range(len(pool)), k_extra))
        masks = _step_down(core + pool, len(core), k_extra, pvalues, alpha)
        got = masks(np.array(rows, dtype=np.intp).reshape(len(rows), k_extra))
        expected = [
            _holm_mask(core, core + tuple(pool[i] for i in row), pvalues, alpha)
            for row in rows
        ]
        return got, expected

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_matches_holm_mask_on_tied_matrices(self, alpha):
        rng = np.random.default_rng(int(alpha * 1000))
        seen = set()
        for n in (6, 8, 10, 12, 16):
            matrix = tied_matrix(rng, m=11, n=n)
            core, pool = matrix.comparates[:3], matrix.comparates[3:]
            pvalues = all_pairs_pvalues(matrix, core + pool)
            for k_extra in (0, 1, 2, 4, 8):
                got, expected = self.kernel_and_oracle(core, pool, k_extra, pvalues, alpha)
                assert got == expected
                seen.update(got)
        assert len(seen) >= 3  # the matrices exercise more than one pattern

    def test_matches_holm_mask_on_equal_p_values(self):
        # p-values from a handful of values, several on a Holm threshold.
        rng = np.random.default_rng(11)
        values = [0.0, 0.001, 0.0025, 0.005, 0.00625, 0.01, 0.0125, 0.025, 0.05, 1.0]
        names = tuple(f"c{i}" for i in range(10))
        core, pool = names[:4], names[4:]
        seen = set()
        for _ in range(40):
            pvalues = {
                (a, b): float(rng.choice(values))
                for a, b in combinations(names, 2)
            }
            alpha = float(rng.choice([0.01, 0.05, 0.2]))
            for k_extra in (0, 1, 3, 6):
                got, expected = self.kernel_and_oracle(core, pool, k_extra, pvalues, alpha)
                assert got == expected
                seen.update(got)
        assert len(seen) >= 10

    @pytest.mark.parametrize("example_limit", [0, 1, 5])
    @pytest.mark.parametrize("count", [None, 300, 512])
    def test_chunked_run_matches_per_subset_loop(self, example_limit, count):
        # None: 792 exhaustive subsets, the last of four chunks partial;
        # 512 sampled subsets fill exactly two chunks.
        rng = np.random.default_rng(50)
        matrix = tied_matrix(rng, m=15, n=9)
        core, pool = matrix.comparates[:3], matrix.comparates[3:]
        mode = Exhaustive() if count is None else Sampled(count, seed=3)
        got = enumerate_patterns(matrix, core, pool, 5, 0.2, mode=mode,
                                 example_limit=example_limit, example_seed=5)
        ranks = (range(math.comb(12, 5)) if count is None
                 else _sample_ranks(math.comb(12, 5), count, 3))
        expected = per_subset_enumeration(matrix, core, pool, 5, 0.2, ranks,
                                          example_limit, 5)
        assert got == expected
        assert len(got.pattern_counts) >= 2

    def test_chunk_size_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(51)
        matrix = tied_matrix(rng, m=15, n=9)
        core, pool = matrix.comparates[:3], matrix.comparates[3:]
        results = []
        for chunk in (1, 8, 256, 792, 4096):  # 792 = C(12, 5), 8 divides it
            monkeypatch.setattr(stability, "_CHUNK", chunk)
            results.append(enumerate_patterns(matrix, core, pool, 5, 0.2, example_limit=3))
        assert all(r == results[0] for r in results)

    def test_reservoir_keys_match_python_integer_route(self):
        for seed in (0, 7, -1, 2**63 + 5, 2**70 + 3):
            for start in (0, 1, 255, 2**32 - 3, 2**63):
                assert _reservoir_keys(seed, start, 6) == [
                    reservoir_draw(seed, start + i, 2**64) for i in range(6)
                ]

    def test_step_down_mismatch_raises_internal_error(self, monkeypatch):
        rng = np.random.default_rng(52)
        matrix = tied_matrix(rng, m=8, n=9)
        monkeypatch.setattr(stability, "holm_correction", inverted_holm)
        with pytest.raises(InternalError, match="vectorized step-down"):
            enumerate_patterns(matrix, matrix.comparates[:3], matrix.comparates[3:], 2, 0.2)

    def test_sampled_space_beyond_int64_rejected(self):
        rng = np.random.default_rng(53)
        matrix = random_matrix(rng, m=72, n=3)
        # C(70, 35) is above 2**64; C(67, 33) lies between 2**63 and 2**64.
        for pool_end, k_extra in ((72, 35), (69, 33)):
            with pytest.raises(ValidationError, match=r"2\*\*63"):
                enumerate_patterns(matrix, matrix.comparates[:2],
                                   matrix.comparates[2:pool_end], k_extra, 0.05,
                                   mode=Sampled(5))
        # C(64, 32) < 2**63 still samples.
        enumeration = enumerate_patterns(matrix, matrix.comparates[:2],
                                         matrix.comparates[2:66], 32, 0.05,
                                         mode=Sampled(5), example_limit=0)
        assert enumeration.total_subsets == 5


class TestDetectRankSwap:
    def test_identical_sets_never_swap(self, demo_matrix):
        report = detect_rank_swap(
            demo_matrix, ("Alpha", "Bravo"),
            demo_matrix.comparates, demo_matrix.comparates,
        )
        assert not report.swapped

    def test_replacement_witness(self):
        fixture = load_fixture("rank_swap")
        matrix = fixture_matrix(fixture)
        report = detect_rank_swap(
            matrix, tuple(fixture["pair"]), fixture["set_a"], fixture["set_b"],
            fixture["alpha"],
        )
        assert report.swapped
        assert report.better_a is not None and report.better_b is not None
        assert report.better_a != report.better_b

    def test_addone_witness(self):
        fixture = load_fixture("rank_swap_addone")
        matrix = fixture_matrix(fixture)
        report = detect_rank_swap(
            matrix, tuple(fixture["pair"]), fixture["set_a"], fixture["set_b"],
            fixture["alpha"],
        )
        assert report.swapped
        assert {report.better_a, report.better_b} == set(fixture["pair"])

    def test_mean_performance_order_is_context_free(self):
        # The contrast the operation exists to demonstrate: ordering by the
        # mean score never swaps, on the very same witness data.
        for name in ("rank_swap", "rank_swap_addone"):
            fixture = load_fixture(name)
            matrix = fixture_matrix(fixture)
            a, b = fixture["pair"]
            orders = []
            for subset in (fixture["set_a"], fixture["set_b"]):
                report = build_mcm(matrix.select_comparates(
                    matrix.in_matrix_order(subset)))
                order = [c for c in report.row_order if c in (a, b)]
                orders.append(order)
            assert orders[0] == orders[1]

    def test_pair_must_be_in_both_sets(self, demo_matrix):
        with pytest.raises(PairNotInBothSets):
            detect_rank_swap(
                demo_matrix, ("Alpha", "Bravo"),
                ("Alpha", "Charlie"), ("Alpha", "Bravo"),
            )


class TestWeakenedVariantAttack:
    def test_clone_changes_ar_only_by_tie_splitting(self, demo_matrix):
        report = weakened_variant_attack(
            demo_matrix, "Alpha", "Delta", [1.0], demo_matrix.comparates, 0.05
        )
        outcome = report.outcomes[0]
        # The clone ties the target on every task, so the two share the
        # averaged rank on every task: identical average ranks.
        assert outcome.target_average_rank == outcome.variant_average_rank
        augmented = weaken_comparate(demo_matrix, "Alpha", "Delta", 1.0,
                                     outcome.variant_name)
        table = compute_ranks(augmented)
        idx = augmented.comparates.index("Alpha")
        assert outcome.target_average_rank == table.average_ranks[idx]

    def test_witness_flips_rank_order(self):
        fixture = load_fixture("weakened_variant")
        matrix = fixture_matrix(fixture)
        target, rival = fixture["target"], fixture["rival"]
        report = weakened_variant_attack(
            matrix, target, fixture["reference"], [fixture["weight"]],
            fixture["context"], fixture["alpha"],
        )
        outcome = report.outcomes[0]
        # Before: rival ahead; after: target ahead.
        baseline = compute_ranks(matrix.select_comparates(report.context))
        ars = dict(zip(report.context, baseline.average_ranks))
        assert ars[rival] < ars[target]
        augmented = weaken_comparate(
            matrix, target, fixture["reference"], fixture["weight"],
            outcome.variant_name,
        )
        after = compute_ranks(
            augmented.select_comparates((*report.context, outcome.variant_name))
        )
        ars_after = dict(
            zip((*report.context, outcome.variant_name), after.average_ranks)
        )
        assert ars_after[target] < ars_after[rival]
        # And the variant really is strictly weaker than the target.
        assert (augmented.row(outcome.variant_name) < augmented.row(target)).all()

    def test_mcm_cell_immune_to_the_attack(self):
        fixture = load_fixture("weakened_variant")
        matrix = fixture_matrix(fixture)
        target, rival = fixture["target"], fixture["rival"]
        before = build_mcm(matrix.select_comparates((target, rival)))
        augmented = weaken_comparate(
            matrix, target, fixture["reference"], fixture["weight"], "blend"
        )
        after = build_mcm(augmented.select_comparates((target, rival, "blend")))
        assert before.cells[(target, rival)] == after.cells[(target, rival)]
        mean_order_before = [c for c in before.row_order if c in (target, rival)]
        mean_order_after = [c for c in after.row_order if c in (target, rival)]
        assert mean_order_before == mean_order_after

    def test_target_must_be_in_context(self, demo_matrix):
        with pytest.raises(ValidationError):
            weakened_variant_attack(
                demo_matrix, "Alpha", "Delta", [0.5], ["Bravo", "Charlie"], 0.05
            )


class TestMcmImmunityAcrossManipulations:
    def test_cells_identical_under_all_manipulations(self):
        rng = np.random.default_rng(77)
        matrix = random_matrix(rng, m=6, n=9)
        a, b = matrix.comparates[0], matrix.comparates[1]
        baseline = build_mcm(matrix.select_comparates((a, b))).cells[(a, b)]

        # Subset change.
        subset = matrix.select_comparates(matrix.comparates[:4])
        assert build_mcm(subset).cells[(a, b)] == baseline
        # Comparate addition via a weakened variant.
        augmented = weaken_comparate(matrix, a, matrix.comparates[-1], 0.3, "variant")
        assert build_mcm(augmented).cells[(a, b)] == baseline
        # Comparate removal.
        removed = matrix.select_comparates([c for c in matrix.comparates if c != matrix.comparates[2]])
        assert build_mcm(removed).cells[(a, b)] == baseline
