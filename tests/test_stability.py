import math

import numpy as np
import pytest

from mcmatrix import (
    Direction,
    ResultsMatrix,
    Sampled,
    build_mcm,
    detect_rank_swap,
    enumerate_patterns,
    significance_pattern,
    weaken_comparate,
    weakened_variant_attack,
)
from mcmatrix.errors import (
    EnumerationTooLarge,
    OverlappingSets,
    PairNotInBothSets,
    PoolTooSmall,
    ValidationError,
)
from mcmatrix.stability import pattern_from_bitmask
from mcmatrix.stats import compute_ranks, oriented_differences, wilcoxon_signed_rank

from conftest import fixture_matrix, load_fixture, random_matrix


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
