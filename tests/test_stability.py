import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmatrix import (
    Direction,
    MCMConfig,
    ResultsMatrix,
    build_mcm,
    detect_rank_swap,
    enumerate_patterns,
    mcm_cell_invariance_check,
    significance_pattern,
    stability,
    weaken_comparate,
    weakened_variant_attack,
)
from mcmatrix.errors import ValidationError
from mcmatrix.stability import (
    SignificancePattern,
    _holm_mask,
    _reservoir_keys,
    _sample_ranks,
    _step_down,
    _unrank,
)
from mcmatrix.stats import (
    all_pairs_pvalues,
    compute_ranks,
    holm_significance,
    oriented_differences,
    wilcoxon_signed_rank,
)

from conftest import fixture_matrix, load_fixture, random_matrix
from oracles import (holm_mask_list, per_subset_enumeration, reservoir_draw,
                     sample_ranks_loop, subset_by_rank)


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
        rebuilt = SignificancePattern(pattern.core, pattern.bitmask)
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
        with pytest.raises(ValidationError, match="core and extra sets overlap"):
            significance_pattern(demo_matrix, ["Alpha", "Bravo"], ["Bravo"], 0.05)

    def test_bitmask_decodes_in_combinations_order(self):
        for k in range(6):
            core = tuple(f"c{i}" for i in range(k))
            pairs = list(combinations(range(k), 2))
            for mask in range(1 << len(pairs)):
                pattern = SignificancePattern(core, mask)
                expected = [pair for b, pair in enumerate(pairs) if mask >> b & 1]
                assert pattern.non_significant_pairs == frozenset(expected)
                assert pattern.pair_names() == tuple((core[i], core[j])
                                                     for i, j in expected)

    @pytest.mark.parametrize("mask, message", [
        (1 << 6, "bitmask 0x40 out of range for core size 4"),
        (-1, "bitmask -0x1 out of range for core size 4"),
        (True, "bitmask must be an integer"),
        (False, "bitmask must be an integer"),
        (3.0, "bitmask must be an integer"),
        ("3", "bitmask must be an integer"),
    ])
    def test_bad_bitmask_refused(self, mask, message):
        with pytest.raises(ValidationError, match=message):
            SignificancePattern(("a", "b", "c", "d"), mask)

    def test_numpy_bitmask_is_stored_as_int(self):
        pattern = SignificancePattern(["a", "b", "c"], np.int64(5))
        assert pattern == SignificancePattern(("a", "b", "c"), 5)
        assert type(pattern.bitmask) is int and pattern.core == ("a", "b", "c")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.01, 0.05, 0.2]),
       data=st.data())
def test_holm_mask_matches_holm_significance(seed, alpha, data):
    rng = np.random.default_rng(seed)
    matrix = tied_matrix(rng, m=data.draw(st.integers(2, 8)), n=data.draw(st.integers(3, 12)))
    names = data.draw(st.permutations(matrix.comparates))
    n_family = data.draw(st.integers(2, len(names)))
    n_core = data.draw(st.integers(2, n_family))
    core, extra = tuple(names[:n_core]), tuple(names[n_core:n_family])
    p = all_pairs_pvalues(matrix, core + extra)
    pattern, count = _step_down(p, n_core, len(extra), alpha)
    mask = pattern(int(count(np.arange(len(extra))[None])[0]))
    flags = holm_significance(matrix, core + extra, alpha)
    expected = sum(1 << b for b, (i, j) in enumerate(combinations(range(n_core), 2))
                   if not flags[i, j])
    assert mask == expected == holm_mask_list(p, n_core, alpha) == _holm_mask(p, n_core, alpha)
    assert (flags == flags.T).all() and not flags.diagonal().any()
    reordered = core + tuple(data.draw(st.permutations(extra)))
    assert _holm_mask(all_pairs_pvalues(matrix, reordered), n_core, alpha) == mask


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

    @pytest.mark.parametrize("setting, value", [
        (setting, value)
        for setting in ("k_extra", "sample", "seed")
        for value in (True, False, 2.9, 2.0, float("nan"), float("inf"), "3", None)
        if (setting, value) != ("sample", None)  # no sample: an exhaustive sweep
    ])
    def test_setting_of_the_wrong_kind_is_refused(self, setting, value):
        matrix = random_matrix(np.random.default_rng(44), m=8, n=6)
        kwargs = {"k_extra": 2, "sample": 4, "seed": 0, setting: value}
        with pytest.raises(ValidationError, match=f"{setting} must be an integer"):
            enumerate_patterns(matrix, matrix.comparates[:2], matrix.comparates[2:],
                               alpha=0.05, **kwargs)

    def test_numpy_integer_settings_accepted(self):
        matrix = random_matrix(np.random.default_rng(44), m=8, n=6)
        core, pool = matrix.comparates[:2], matrix.comparates[2:]
        plain = enumerate_patterns(matrix, core, pool, 2, 0.05, sample=4, seed=7)
        assert plain == enumerate_patterns(matrix, core, pool, np.int64(2), np.float64(0.05),
                                           sample=np.int32(4), seed=np.uint64(7))

    def test_pool_too_small(self, demo_matrix):
        with pytest.raises(ValidationError, match="exceeds pool size"):
            enumerate_patterns(
                demo_matrix, demo_matrix.comparates[:2], demo_matrix.comparates[2:], 5, 0.05
            )

    def test_exhaustive_limit_guard(self, monkeypatch):
        rng = np.random.default_rng(43)
        matrix = random_matrix(rng, m=10, n=4)
        monkeypatch.setattr(stability, "DEFAULT_EXHAUSTIVE_LIMIT", 10)
        with pytest.raises(ValidationError, match="exceed the exhaustive limit"):
            enumerate_patterns(
                matrix, matrix.comparates[:2], matrix.comparates[2:], 4, 0.05,
            )

    def test_sample_above_exhaustive_limit_refused(self, monkeypatch):
        rng = np.random.default_rng(43)
        matrix = random_matrix(rng, m=10, n=4)
        monkeypatch.setattr(stability, "DEFAULT_EXHAUSTIVE_LIMIT", 10)
        with pytest.raises(ValidationError, match="sample count 11 exceeds the limit of 10"):
            enumerate_patterns(
                matrix, matrix.comparates[:2], matrix.comparates[2:], 4, 0.05,
                sample=11,
            )
        # A sample that covers the whole space is an exhaustive sweep.
        full = enumerate_patterns(matrix, matrix.comparates[:2], matrix.comparates[2:], 1,
                                  0.05, sample=11)
        assert full.total_subsets == 8

    def test_sampled_mode_deterministic(self):
        rng = np.random.default_rng(44)
        matrix = random_matrix(rng, m=10, n=10)
        core = matrix.comparates[:3]
        pool = matrix.comparates[3:]
        first = enumerate_patterns(matrix, core, pool, 3, 0.05, sample=12, seed=9)
        second = enumerate_patterns(matrix, core, pool, 3, 0.05, sample=12, seed=9)
        assert first == second
        assert first.total_subsets == 12
        assert sum(first.pattern_counts.values()) == 12

    def test_examples_capped_and_consistent(self):
        rng = np.random.default_rng(45)
        matrix = random_matrix(rng, m=10, n=8)
        core = matrix.comparates[:2]
        pool = matrix.comparates[2:]
        enumeration = enumerate_patterns(matrix, core, pool, 2, 0.05)
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
        pool = tuple("abcdefgh")
        for k in (0, 1, 3, 5, 8):
            expected = list(combinations(pool, k))
            got = [subset_by_rank(pool, k, r) for r in range(math.comb(8, k))]
            assert got == expected
            rows = _unrank(8, k, np.arange(math.comb(8, k)))
            assert [tuple(pool[i] for i in row) for row in rows.tolist()] == expected

    def test_sampled_count_covering_space_degrades_to_exhaustive(self):
        rng = np.random.default_rng(48)
        matrix = random_matrix(rng, m=6, n=6)
        core = matrix.comparates[:2]
        pool = matrix.comparates[2:]
        sampled = enumerate_patterns(
            matrix, core, pool, 2, 0.05, sample=999, seed=0
        )
        exhaustive = enumerate_patterns(matrix, core, pool, 2, 0.05)
        assert sampled == exhaustive
        assert sampled.total_subsets == math.comb(4, 2)

    def test_example_seed_reproducible(self):
        rng = np.random.default_rng(49)
        matrix = random_matrix(rng, m=10, n=8, tie_prob=0.3)
        core = matrix.comparates[:2]
        pool = matrix.comparates[2:]
        a = enumerate_patterns(matrix, core, pool, 3, 0.05, seed=7)
        b = enumerate_patterns(matrix, core, pool, 3, 0.05, seed=7)
        assert a == b

    @pytest.mark.parametrize("sample", [None, 3])
    def test_seed_outside_uint64_refused(self, sample):
        rng = np.random.default_rng(49)
        matrix = random_matrix(rng, m=6, n=8)
        core, pool = matrix.comparates[:2], matrix.comparates[2:]
        for seed in (-1, 2**64):
            with pytest.raises(ValidationError, match="seed must be a 64-bit unsigned"):
                enumerate_patterns(matrix, core, pool, 2, 0.05, sample=sample, seed=seed)
        top = enumerate_patterns(matrix, core, pool, 2, 0.05, sample=sample, seed=2**64 - 1)
        assert top.total_subsets == (sample or math.comb(4, 2))


def tied_matrix(rng, m, n):
    """Small n and one-decimal scores give many equal exact p-values; the
    skill spread makes some pairs reject."""
    skill = rng.permutation(np.linspace(0.0, 1.0, m))
    scores = np.round(skill[:, None] + rng.uniform(0.0, 0.6, size=(m, n)), 1)
    return ResultsMatrix(
        tuple(f"c{i}" for i in range(m)), tuple(f"t{j}" for j in range(n)), scores,
        Direction.HIGHER_IS_BETTER,
    )


class TestStepDownKernel:
    def kernel_and_oracle(self, n_core, p, k_extra, alpha):
        """``p`` holds the p-values of core + pool, the core first."""
        rows = list(combinations(range(len(p) - n_core), k_extra))
        pattern, count = _step_down(p, n_core, k_extra, alpha)
        counts = count(np.array(rows, dtype=np.intp).reshape(len(rows), k_extra))
        got = [pattern(t) for t in counts.tolist()]
        families = [[*range(n_core), *(n_core + i for i in row)] for row in rows]
        expected = [holm_mask_list(p[np.ix_(f, f)], n_core, alpha) for f in families]
        return got, expected

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_matches_holm_mask_on_tied_matrices(self, alpha):
        rng = np.random.default_rng(int(alpha * 1000))
        seen = set()
        for n in (6, 8, 10, 12, 16):
            matrix = tied_matrix(rng, m=11, n=n)
            core, pool = matrix.comparates[:3], matrix.comparates[3:]
            p = all_pairs_pvalues(matrix, core + pool)
            for k_extra in (0, 1, 2, 4, 8):
                got, expected = self.kernel_and_oracle(len(core), p, k_extra, alpha)
                assert got == expected
                seen.update(got)
        assert len(seen) >= 3  # the matrices exercise more than one pattern

    def test_matches_holm_mask_on_equal_p_values(self):
        # p-values from a handful of values, several on a Holm threshold.
        rng = np.random.default_rng(11)
        values = [0.0, 0.001, 0.0025, 0.005, 0.00625, 0.01, 0.0125, 0.025, 0.05, 1.0]
        seen = set()
        for _ in range(40):
            p = np.zeros((10, 10))  # a core of 4 and a pool of 6
            for i, j in combinations(range(10), 2):
                p[i, j] = p[j, i] = float(rng.choice(values))
            alpha = float(rng.choice([0.01, 0.05, 0.2]))
            for k_extra in (0, 1, 3, 6):
                got, expected = self.kernel_and_oracle(4, p, k_extra, alpha)
                assert got == expected
                seen.update(got)
        assert len(seen) >= 10

    @pytest.mark.parametrize("example_limit", [1, 5])
    @pytest.mark.parametrize("count", [None, 300, 512])
    def test_chunked_run_matches_per_subset_loop(self, monkeypatch, example_limit, count):
        # None: 792 exhaustive subsets, the last of four chunks partial;
        # 512 sampled subsets fill exactly two chunks.
        rng = np.random.default_rng(50)
        matrix = tied_matrix(rng, m=15, n=9)
        core, pool = matrix.comparates[:3], matrix.comparates[3:]
        monkeypatch.setattr(stability, "_EXAMPLE_LIMIT", example_limit)
        got = enumerate_patterns(matrix, core, pool, 5, 0.2, sample=count, seed=5)
        ranks = (range(math.comb(12, 5)) if count is None
                 else _sample_ranks(math.comb(12, 5), count, 5))
        expected = per_subset_enumeration(matrix, core, pool, 5, 0.2, ranks,
                                          example_limit, 5)
        assert got == expected
        assert len(got.pattern_counts) >= 2

    def test_chunk_size_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(51)
        matrix = tied_matrix(rng, m=15, n=9)
        core, pool = matrix.comparates[:3], matrix.comparates[3:]
        results = []
        # 792 = C(12, 5), 8 divides it; a family of 8 has 28 pairs, so an
        # entry budget of 28 x 7 cuts chunks of 7 subsets, and one below 28
        # chunks of one.
        for chunk, entries in ((1, 1 << 16), (8, 1 << 16), (256, 1 << 16), (792, 1 << 16),
                               (4096, 1 << 16), (256, 28 * 7), (256, 27), (4096, 1 << 30)):
            monkeypatch.setattr(stability, "_CHUNK", chunk)
            monkeypatch.setattr(stability, "_CHUNK_ENTRIES", entries)
            for sample in (None, 300):
                results.append((sample, enumerate_patterns(matrix, core, pool, 5, 0.2,
                                                           sample=sample, seed=3)))
        for sample in (None, 300):
            runs = [r for s, r in results if s == sample]
            assert all(r == runs[0] for r in runs)

    def test_reservoir_keys_match_python_integer_route(self):
        for seed in (0, 7, 2**63 + 5, 2**64 - 1):
            for start in (0, 1, 255, 2**32 - 3, 2**63):
                assert _reservoir_keys(seed, start, 6).tolist() == [
                    reservoir_draw(seed, start + i, 2**64) for i in range(6)
                ]

    def test_sampled_space_beyond_int64_rejected(self):
        rng = np.random.default_rng(53)
        matrix = random_matrix(rng, m=72, n=3)
        # C(70, 35) is above 2**64; C(67, 33) lies between 2**63 and 2**64.
        for pool_end, k_extra in ((72, 35), (69, 33)):
            with pytest.raises(ValidationError, match=r"2\*\*63"):
                enumerate_patterns(matrix, matrix.comparates[:2],
                                   matrix.comparates[2:pool_end], k_extra, 0.05,
                                   sample=5)
        # C(64, 32) < 2**63 still samples.
        enumeration = enumerate_patterns(matrix, matrix.comparates[:2],
                                         matrix.comparates[2:66], 32, 0.05,
                                         sample=5)
        assert enumeration.total_subsets == 5


@st.composite
def _rank_batches(draw):
    # n <= 66 keeps C(n, k) <= C(66, 33) ~ 7.2e18, just below 2**63.
    n = draw(st.integers(0, 66))
    k = draw(st.integers(0, n))
    top = math.comb(n, k) - 1
    ranks = draw(st.lists(st.integers(0, top), max_size=20))
    return n, k, [0, top] + ranks


class TestUnranking:
    @given(_rank_batches())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_oracle(self, batch):
        n, k, ranks = batch
        rows = _unrank(n, k, np.array(ranks, dtype=np.int64))
        assert rows.shape == (len(ranks), k)
        assert [tuple(row) for row in rows.tolist()] == [
            subset_by_rank(range(n), k, r) for r in ranks
        ]

    @pytest.mark.parametrize("n, k", [(0, 0), (5, 0), (5, 5), (66, 1), (66, 33),
                                      (66, 65), (64, 32)])
    def test_edges_of_the_space(self, n, k):
        top = math.comb(n, k) - 1
        ranks = sorted({r for r in (0, 1, top // 3, top // 2, top - 1, top) if 0 <= r <= top})
        rows = _unrank(n, k, np.array(ranks, dtype=np.int64))
        assert [tuple(row) for row in rows.tolist()] == [
            subset_by_rank(range(n), k, r) for r in ranks
        ]
        assert rows[0].tolist() == list(range(k))  # rank 0: the first k indices
        assert rows[-1].tolist() == list(range(n - k, n))  # last rank: the last k

    @pytest.mark.parametrize("total, count, seed", [
        (math.comb(12, 5), 300, 3),
        (math.comb(14, 7), 3400, 0),  # near the space size: the complement is drawn
        (math.comb(14, 7), 3431, 9),
        (math.comb(21, 10), 349_188, 0),
        (math.comb(64, 32), 50, 1),
        (20, 20, 2),
    ])
    def test_sample_ranks_match_one_at_a_time_loop(self, total, count, seed):
        got = _sample_ranks(total, count, seed)
        assert got.tolist() == sample_ranks_loop(total, count, seed)


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
        with pytest.raises(ValidationError, match="comparate 'Bravo' missing from a set"):
            detect_rank_swap(
                demo_matrix, ("Alpha", "Bravo"),
                ("Alpha", "Charlie"), ("Alpha", "Bravo"),
            )

    def test_pair_of_one_comparate_refused_before_any_test(self, demo_matrix,
                                                          tested_pairs):
        with pytest.raises(ValidationError, match="the pair names 'Alpha' twice"):
            detect_rank_swap(demo_matrix, ("Alpha", "Alpha"),
                             demo_matrix.comparates, demo_matrix.comparates)
        assert tested_pairs == []


def test_name_list_given_as_one_string_is_refused():
    # "AB" names a comparate here, and its letters name two others: a string
    # read as a list of characters would silently select ('A', 'B').
    rng = np.random.default_rng(3)
    matrix = ResultsMatrix(("A", "B", "AB", "C"), ("t0", "t1", "t2", "t3", "t4"),
                           rng.random((4, 5)), Direction.HIGHER_IS_BETTER)
    with pytest.raises(ValidationError, match="row selection must be a list of names"):
        build_mcm(matrix, MCMConfig(row_comparates="AB"))
    with pytest.raises(ValidationError, match="core must be a list of names"):
        enumerate_patterns(matrix, "AB", ("C",), 1, 0.05)
    with pytest.raises(ValidationError, match="set_b must be a list of names"):
        detect_rank_swap(matrix, ("A", "B"), ("A", "B", "C"), "AB")
    with pytest.raises(ValidationError, match="subset must be a list of names"):
        mcm_cell_invariance_check(matrix, ("A", "B"), ["AB"])


def test_pair_given_as_one_string_is_refused():
    # The letters of "AB" name two comparates: read as a pair of characters,
    # the string would silently study ('A', 'B').
    rng = np.random.default_rng(3)
    matrix = ResultsMatrix(("A", "B", "AB", "C"), ("t0", "t1", "t2", "t3", "t4"),
                           rng.random((4, 5)), Direction.HIGHER_IS_BETTER)
    with pytest.raises(ValidationError, match="pair must be a list of names, not the string"):
        detect_rank_swap(matrix, "AB", ("A", "B", "C"), ("A", "B"))
    with pytest.raises(ValidationError, match="pair must be a list of names, not the string"):
        mcm_cell_invariance_check(matrix, "AB", [("A", "B", "C")])
    with pytest.raises(ValidationError, match="the pair names 'A' twice"):
        mcm_cell_invariance_check(matrix, ("A", "A"), [("A", "B")])
    with pytest.raises(ValidationError, match="a pair names two comparates, not 3"):
        detect_rank_swap(matrix, ("A", "B", "C"), ("A", "B", "C"), ("A", "B", "C"))


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

    @pytest.mark.parametrize("weight", [True, "0.5"])
    def test_weight_that_is_not_a_real_number_refused(self, demo_matrix, weight):
        with pytest.raises(ValidationError, match="weight must be a real number"):
            weakened_variant_attack(demo_matrix, "Alpha", "Delta", [weight],
                                    demo_matrix.comparates, 0.05)


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


def holm_significance_pattern(matrix, core, family, alpha):
    """Core pattern from ``holm_significance`` on the family's own
    sub-matrix, which tests every pair of the study afresh."""
    members = matrix.in_matrix_order(family)
    flags = holm_significance(matrix.select_comparates(members), members, alpha)
    at = [members.index(name) for name in core]
    return frozenset((i, j) for i, j in combinations(range(len(core)), 2)
                     if not flags[at[i], at[j]])


class TestOnePValueTablePerExperiment:
    def test_weaken_tests_context_pairs_once(self, tested_pairs):
        matrix = random_matrix(np.random.default_rng(3), m=6, n=10)
        context = matrix.comparates[:5]
        weights = [0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0]
        weakened_variant_attack(matrix, "c0", "c5", weights, context, 0.05)
        assert len(tested_pairs) == 10 + 8 * 5  # each study from scratch: 130
        assert set(tested_pairs[:10]) == {frozenset(p) for p in combinations(context, 2)}

    def test_rank_swap_tests_each_family_pair_once(self, tested_pairs):
        matrix = random_matrix(np.random.default_rng(4), m=8, n=10)
        set_a = ("c0", "c1", "c2", "c3", "c4")
        set_b = ("c0", "c1", "c5", "c6", "c7")
        detect_rank_swap(matrix, ("c0", "c1"), set_a, set_b)
        families = {frozenset(p) for s in (set_a, set_b) for p in combinations(s, 2)}
        assert len(tested_pairs) == len(families) == 19
        assert set(tested_pairs) == families

    def test_significance_pattern_tests_the_family_once(self, tested_pairs):
        matrix = random_matrix(np.random.default_rng(5), m=6, n=10)
        significance_pattern(matrix, ["c0", "c1", "c2"], ["c4", "c5"], 0.05)
        assert len(tested_pairs) == len(set(tested_pairs)) == math.comb(5, 2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
    def test_invalid_alpha_refused_before_any_test(self, demo_matrix, tested_pairs,
                                                   alpha):
        names = demo_matrix.comparates
        with pytest.raises(ValidationError, match="alpha must lie in"):
            weakened_variant_attack(demo_matrix, "Alpha", "Delta", [0.5], names, alpha)
        with pytest.raises(ValidationError, match="alpha must lie in"):
            detect_rank_swap(demo_matrix, ("Alpha", "Bravo"), names, names, alpha)
        with pytest.raises(ValidationError, match="alpha must lie in"):
            significance_pattern(demo_matrix, names[:2], names[2:], alpha)
        with pytest.raises(ValidationError, match="alpha must lie in"):
            holm_significance(demo_matrix, names, alpha)
        for weights in ([0.5], []):
            with pytest.raises(ValidationError, match="target and reference must differ"):
                weakened_variant_attack(demo_matrix, "Alpha", "Alpha", weights, names)
        assert tested_pairs == []

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_matches_holm_significance_on_tied_matrices(self, alpha):
        rng = np.random.default_rng(int(alpha * 100))
        for _ in range(12):
            m, n = int(rng.integers(4, 8)), int(rng.integers(4, 12))
            matrix = tied_matrix(rng, m, n)
            names = matrix.comparates
            context = tuple(rng.choice(names[:-1], size=int(rng.integers(2, m)),
                                       replace=False))
            target, reference = context[0], names[-1]
            weights = np.round(rng.uniform(0.0, 1.0, size=3), 1).tolist() + [0.1234561]
            report = weakened_variant_attack(matrix, target, reference, weights,
                                             context, alpha)
            core = report.context
            base = holm_significance_pattern(matrix, core, core, alpha)
            assert report.baseline_pattern.non_significant_pairs == base
            for w, outcome in zip(weights, report.outcomes):
                augmented = weaken_comparate(matrix, target, reference, w,
                                             outcome.variant_name)
                now = holm_significance_pattern(augmented, core,
                                           core + (outcome.variant_name,), alpha)
                assert outcome.pattern.non_significant_pairs == now
                flipped = sorted((core[i], core[j]) for i, j in base ^ now)
                assert outcome.flipped_pairs == tuple(flipped)

            pair = tuple(rng.choice(names, size=2, replace=False))
            rest = [c for c in names if c not in pair]
            sets = [pair + tuple(rng.choice(rest, size=int(rng.integers(0, m - 1)),
                                            replace=False)) for _ in range(2)]
            swap = detect_rank_swap(matrix, pair, sets[0], sets[1], alpha)
            for members, significant in zip(sets, (swap.significant_a,
                                                   swap.significant_b)):
                members = matrix.in_matrix_order(members)
                flags = holm_significance(matrix.select_comparates(members), members,
                                          alpha)
                assert significant == flags[members.index(pair[0]),
                                            members.index(pair[1])]
