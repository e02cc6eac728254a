import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata, studentized_range

from mcmatrix import data, stats
from mcmatrix import (
    Direction,
    PMethod,
    ResultsMatrix,
    build_mcm,
    compute_ranks,
    friedman_test,
    holm_correction,
    nemenyi_critical_difference,
    pairwise_comparison,
    wilcoxon_signed_rank,
)
from mcmatrix.errors import InternalError, TooFewComparates, TooFewTasks, ValidationError
from mcmatrix.selftest import average_ranks, enumeration_pvalue

from conftest import cell_bits, random_matrix, swapped_cell_bits
from oracles import (
    compute_ranks_loop,
    friedman_tie_free,
    holm_correction_list,
    pairwise_comparison_scalar,
    wilcoxon_signed_rank_scalar,
)


def _matrix(scores, direction=Direction.HIGHER_IS_BETTER, names=None):
    scores = np.array(scores, dtype=float)
    m, n = scores.shape
    names = names or tuple(f"c{i}" for i in range(m))
    return ResultsMatrix(names, tuple(f"t{j}" for j in range(n)), scores, direction)


class TestComputeRanks:
    def test_full_tie_gives_midrank(self):
        matrix = _matrix([[0.5], [0.5], [0.5]])
        table = compute_ranks(matrix)
        assert (table.ranks[:, 0] == 2.0).all()  # (m + 1) / 2

    def test_spec_example_with_tie(self):
        matrix = _matrix([[0.9], [0.8], [0.8], [0.1]])
        table = compute_ranks(matrix)
        assert table.ranks[:, 0].tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_single_task_average_equals_column(self):
        matrix = _matrix([[0.3], [0.9], [0.5]])
        table = compute_ranks(matrix)
        assert (table.average_ranks == table.ranks[:, 0]).all()

    def test_lower_is_better_flips(self):
        matrix = _matrix([[0.1], [0.9]], direction=Direction.LOWER_IS_BETTER)
        assert compute_ranks(matrix).ranks[:, 0].tolist() == [1.0, 2.0]

    def test_rank_sums_and_row_means(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            matrix = random_matrix(rng, tie_prob=0.6)
            table = compute_ranks(matrix)
            target = matrix.m * (matrix.m + 1) / 2.0
            assert np.abs(table.ranks.sum(axis=0) - target).max() <= 1e-9
            for i in range(matrix.m):
                assert table.average_ranks[i] == np.mean(table.ranks[i])

    def test_tie_terms_count_equal_scores(self):
        matrix = _matrix([[0.5, 0.0], [0.5, 0.2], [0.5, 0.2], [0.1, -0.0]])
        # Task 0: one group of 3; task 1: 0.0 and -0.0 tie, and so do the 0.2s.
        assert compute_ranks(matrix).tie_terms.tolist() == [24, 12]

    @given(
        m=st.integers(2, 7), n=st.integers(1, 9),  # a matrix has m >= 2
        direction=st.sampled_from(list(Direction)), data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop_oracle(self, m, n, direction, data):
        # Few distinct values, both zeros among them: many ties.
        values = st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, 3.5, -7.0, 1e300])
        scores = data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                    min_size=m, max_size=m))
        matrix = _matrix(scores, direction)
        table = compute_ranks(matrix)
        ranks, average, tie_terms = compute_ranks_loop(matrix)
        assert np.array_equal(table.ranks, ranks)
        assert np.array_equal(table.average_ranks, average)
        assert np.array_equal(table.tie_terms, tie_terms)
        assert table.tie_terms.dtype == np.int64


class TestWilcoxon:
    def test_all_zero_is_degenerate(self):
        assert wilcoxon_signed_rank([0.0, 0.0, 0.0]) == (1.0, PMethod.DEGENERATE)

    def test_three_positive(self):
        p, method = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert p == 0.25 and method is PMethod.EXACT

    def test_empty_input(self):
        with pytest.raises(ValidationError, match="need at least one difference"):
            wilcoxon_signed_rank([])

    @pytest.mark.parametrize("diffs", [
        ["0.5", "-0.25", "1"],
        [True, False, True],
        [True, 0.5, 2.0],
        [0.5, np.True_, 2.0],
        [0.5 + 0j, -0.25, 1.0],
        [None, 0.5, 1.0],
        [object(), 0.5, 1.0],
        [[0.5], [-0.25, 1.0]],
    ], ids=["strings", "bools", "mixed-bool", "mixed-numpy-bool", "complex", "none", "object",
            "ragged"])
    def test_non_numbers_refused(self, diffs):
        with pytest.raises(ValidationError, match="differences must be numbers"):
            wilcoxon_signed_rank(diffs)

    def test_zeros_discarded_before_ranking(self):
        with_zeros = wilcoxon_signed_rank([0.0, 1.0, 2.0, 3.0, 0.0])
        assert with_zeros == wilcoxon_signed_rank([1.0, 2.0, 3.0])

    @given(
        st.lists(
            st.integers(min_value=-30, max_value=30).map(lambda v: v / 10.0),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_matches_enumeration_oracle(self, diffs):
        expected = enumeration_pvalue(np.array(diffs))
        got, method = wilcoxon_signed_rank(diffs)
        assert method in (PMethod.EXACT, PMethod.DEGENERATE)
        assert got == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.integers(min_value=-4, max_value=4).map(lambda v: v / 4.0),
                    min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_enumeration_oracle_ranks_match_scipy(self, values):
        x = np.array(values)
        assert average_ranks(x).tobytes() == rankdata(x).tobytes()

    def test_threshold_switches_method(self):
        assert stats.DEFAULT_EXACT_THRESHOLD == 25
        diffs = np.random.default_rng(3).normal(size=26)
        _, method = wilcoxon_signed_rank(diffs[:25])
        assert method is PMethod.EXACT
        _, method = wilcoxon_signed_rank(diffs)
        assert method is PMethod.NORMAL_APPROXIMATION

    def test_approximation_close_to_exact(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(20, 26))
            diffs = rng.normal(0.3, 1.0, size=k)
            exact, _ = _forced(diffs, "exact")
            approx, _ = _forced(diffs, "approx")
            worst = max(worst, abs(exact - approx))
        assert worst <= 0.01

    def test_matches_scipy_reference(self):
        from scipy.stats import wilcoxon as scipy_wilcoxon

        rng = np.random.default_rng(123)
        for _ in range(100):
            k = int(rng.integers(1, 26))
            diffs = rng.normal(0.2, 1.0, size=k)  # continuous: tie-free
            p_exact, _ = _forced(diffs, "exact")
            ref = scipy_wilcoxon(
                diffs, zero_method="wilcox", correction=True, mode="exact"
            ).pvalue
            assert p_exact == pytest.approx(ref, abs=1e-15)
        for _ in range(100):
            k = int(rng.integers(26, 60))
            diffs = np.round(rng.normal(0.1, 1.0, size=k), 1)
            diffs = diffs[diffs != 0.0]
            if diffs.size < 5:
                continue
            p_approx, _ = _forced(diffs, "approx")
            ref = scipy_wilcoxon(
                diffs, zero_method="wilcox", correction=True, mode="approx"
            ).pvalue
            assert p_approx == pytest.approx(ref, abs=1e-12)

    def test_sign_flip_preserves_p(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            diffs = np.round(rng.normal(size=int(rng.integers(1, 15))), 2)
            p_fwd, _ = wilcoxon_signed_rank(diffs)
            p_rev, _ = wilcoxon_signed_rank(-diffs)
            assert p_fwd == p_rev


class TestPairwiseComparison:
    def test_identical_rows(self):
        matrix = _matrix([[0.5, 0.6], [0.5, 0.6]])
        cell = pairwise_comparison(matrix, "c0", "c1")
        assert cell.mean_difference == 0.0
        assert cell.ties == 2 and cell.wins == 0 and cell.losses == 0
        assert cell.p_value == 1.0 and cell.p_method is PMethod.DEGENERATE

    def test_spec_two_task_example(self):
        matrix = _matrix([[0.9, 0.6], [0.8, 0.7]])
        cell = pairwise_comparison(matrix, "c0", "c1")
        assert cell.mean_difference == pytest.approx(0.0)
        assert (cell.wins, cell.ties, cell.losses) == (1, 0, 1)

    def test_lower_is_better_orientation(self):
        matrix = _matrix([[0.1, 0.2], [0.5, 0.9]], direction=Direction.LOWER_IS_BETTER)
        cell = pairwise_comparison(matrix, "c0", "c1")
        assert cell.wins == matrix.n and cell.mean_difference > 0.0

    def test_counts_always_total_n(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            matrix = random_matrix(rng, tie_prob=0.7)
            a, b = matrix.comparates[0], matrix.comparates[1]
            eps = float(rng.choice([0.0, 0.05]))
            cell = pairwise_comparison(matrix, a, b, tie_epsilon=eps)
            assert cell.wins + cell.ties + cell.losses == matrix.n

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            direction = list(Direction)[trial % 2]
            n = int(rng.choice([1, 3, 8, 20, 30]))
            matrix = random_matrix(rng, n=n, tie_prob=0.5, direction=direction)
            if trial % 4 == 0:  # duplicated rows: every difference is zero
                scores = matrix.scores.copy()
                scores[-1] = scores[0]
                matrix = ResultsMatrix(matrix.comparates, matrix.tasks, scores, direction)
            eps = float(rng.choice([0.0, 0.05]))
            a, b = matrix.comparates[0], matrix.comparates[-1]
            fwd = pairwise_comparison(matrix, a, b, tie_epsilon=eps)
            rev = pairwise_comparison(matrix, b, a, tie_epsilon=eps)
            assert rev.mean_difference == -fwd.mean_difference
            assert (rev.wins, rev.losses) == (fwd.losses, fwd.wins)
            assert rev.ties == fwd.ties
            assert rev.p_value == fwd.p_value
            assert cell_bits(rev) == swapped_cell_bits(fwd)
            assert cell_bits(fwd) == swapped_cell_bits(rev)
            table = stats.pair_statistics(matrix, [(a, b)], tie_epsilon=eps)
            mirror = table.record(*(column[0] for column in
                                    table.oriented(np.array([0]), flip=True)))
            assert cell_bits(mirror) == cell_bits(rev)
        # A mean difference that underflows to zero is +0.0 in both directions.
        matrix = _matrix([[5e-324, 0.0, 0.0], [0.0, 0.0, 0.0]])
        fwd = pairwise_comparison(matrix, "c0", "c1")
        rev = pairwise_comparison(matrix, "c1", "c0")
        assert cell_bits(rev) == swapped_cell_bits(fwd)
        assert cell_bits(fwd) == swapped_cell_bits(rev)
        table = stats.pair_statistics(matrix, [("c0", "c1")])
        mirror = table.record(*(column[0] for column in table.oriented(np.array([0]), flip=True)))
        assert cell_bits(mirror) == cell_bits(rev)

    def test_tie_epsilon_widens_ties(self):
        matrix = _matrix([[0.50, 0.52], [0.49, 0.60]])
        strict = pairwise_comparison(matrix, "c0", "c1")
        loose = pairwise_comparison(matrix, "c0", "c1", tie_epsilon=0.02)
        assert strict.ties == 0
        assert loose.ties == 1  # |0.50 - 0.49| <= 0.02

    def test_errors(self):
        matrix = _matrix([[0.5], [0.6]])
        with pytest.raises(ValidationError, match="cannot compare 'c0' with itself"):
            pairwise_comparison(matrix, "c0", "c0")
        with pytest.raises(ValidationError, match="unknown comparate 'zzz'"):
            pairwise_comparison(matrix, "c0", "zzz")


@st.composite
def _difference_blocks(draw):
    """Rows x n differences with ties, zeros, -0.0, subnormals, magnitudes
    near the float maximum and all-zero rows, whose rows' nonzero counts
    differ; some blocks draw every value from at most three."""
    n = draw(st.integers(1, 40))
    values = st.one_of(
        st.integers(-4, 4).map(lambda v: v / 4.0),
        st.sampled_from([0.0, -0.0, 0.1 + 0.2, -0.3, 0.3]),
        st.sampled_from([5e-324, -5e-324, 2.5e-310, -2.2250738585072014e-308,
                         1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    if draw(st.booleans()):  # heavy ties
        values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=3)))
    rows = [draw(st.lists(values, min_size=n, max_size=n))
            for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [0.0] * n
    return np.array(rows, dtype=np.float64)


def _result_bits(result) -> tuple:
    p, method = result
    return struct.pack("<d", p), method


def _rows_at(d, threshold: int) -> tuple[list[float], list[PMethod]]:
    """The block kernel with its exact threshold patched to ``threshold``;
    the package runs it only at ``DEFAULT_EXACT_THRESHOLD``.  Its exact
    counts are int32, so past 31 nonzero differences they lose mass."""
    with mock.patch.object(stats, "DEFAULT_EXACT_THRESHOLD", threshold):
        return stats._signed_rank_rows(d)


def _forced(diffs, method: str) -> tuple[float, PMethod]:
    """The kernel on one vector, with the branch forced as
    ``wilcoxon_signed_rank_scalar(diffs, method=method)`` forces it."""
    d = np.asarray(diffs, dtype=np.float64).reshape(1, -1)
    threshold = {"auto": stats.DEFAULT_EXACT_THRESHOLD, "exact": d.size, "approx": 0}[method]
    (p,), (method,) = _rows_at(d, threshold)
    return p, method


class TestSignedRankKernel:
    @given(_difference_blocks(), st.sampled_from([0, 1, 5, 12, 25, 31]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_block_matches_scalar_oracle_bit_for_bit(self, block, threshold, python_ints):
        # The normal tail's Python-int branch, which rows of a million
        # nonzero differences take, forced on every row.
        tail = 0 if python_ints else stats._INT64_TAIL
        with mock.patch.object(stats, "_INT64_TAIL", tail):
            got = zip(*_rows_at(block, threshold))
        want = [wilcoxon_signed_rank_scalar(row, threshold) for row in block]
        assert [_result_bits(r) for r in got] == [_result_bits(r) for r in want]

    @given(_difference_blocks(), st.sampled_from(["auto", "exact", "approx"]))
    @settings(max_examples=150, deadline=None)
    # 30 and 31 nonzero differences, the most the int32 exact counts hold.
    # The all-positive rows have the p-values 2^-29 and 2^-30.
    @example(np.array([[*range(1, 31), 0],
                       [(1 + i // 3) * (-1) ** (i // 2) for i in range(31)],
                       [*range(1, 32)]], dtype=np.float64), "exact")
    def test_forced_method_matches_scalar_oracle_bit_for_bit(self, block, method):
        for row in block:
            if method == "exact" and np.count_nonzero(row) > 31:
                continue  # past int32: test_exact_counts_past_int32_lose_mass
            assert (_result_bits(_forced(row, method))
                    == _result_bits(wilcoxon_signed_rank_scalar(row, method=method)))

    def test_untied_tied_zero_and_single_rows_in_one_block_match_the_oracle(self):
        # Scores on a grid of quarters keep differences exact, so equal |d|
        # are true ties; the normal draws give rows without any tie.
        rng = np.random.default_rng(31)
        n = 30
        base = rng.integers(0, 40, n) / 4.0
        first = np.arange(n) < 20
        one_tie = np.where(first, np.arange(n) + 1.0, 0.0)
        one_tie[6] = -6.0  # |d| = 6 twice, once of each sign
        some = np.arange(n) < 27
        rows = [
            base,
            base + rng.normal(0.0, 1.0, n),  # no tie: normal
            base + np.where(first, rng.normal(0.0, 1.0, n), 0.0),  # zeros equal: exact
            base + np.where(some, rng.normal(0.0, 1.0, n), 0.0),  # zeros equal: normal
            base + np.where(first, rng.choice([-0.5, -0.25, 0.25, 0.5], n), 0.0),  # exact
            base + rng.choice([-0.75, -0.5, -0.25, 0.25, 0.5, 0.75], n),  # ties: normal
            base.copy(),  # all zero
            base + np.where(np.arange(n) == 7, 0.25, 0.0),  # one nonzero
            base + np.where(np.arange(n) == 29, -1.0, 0.0),  # one nonzero, negative
            base + one_tie,  # one tie: exact
        ]
        matrix = _matrix(rows)
        block = stats._differences(matrix, np.array([[i, 0] for i in range(1, len(rows))]))
        # Per row: any nonzero, a tie among them, a zero, a single nonzero.
        kinds = set()
        for d in block:
            nonzero = np.abs(d[d != 0.0])
            kinds.add((len(nonzero) > 0, len(np.unique(nonzero)) < len(nonzero),
                       0 < len(nonzero) < n, len(nonzero) == 1))
        assert kinds == {(True, False, False, False), (True, False, True, False),
                         (True, True, True, False), (True, True, False, False),
                         (False, False, False, False), (True, False, True, True)}
        want = [wilcoxon_signed_rank_scalar(d) for d in block]
        assert {method for _, method in want} == set(PMethod)
        assert ([_result_bits(r) for r in zip(*stats._signed_rank_rows(block))]
                == [_result_bits(r) for r in want])
        pairs = list(itertools.permutations(matrix.comparates, 2))
        assert len(pairs) >= stats.MIN_BLOCK_PAIRS
        assert ([cell_bits(c) for c in stats.pair_statistics(matrix, pairs)]
                == [cell_bits(pairwise_comparison_scalar(matrix, r, c)) for r, c in pairs])

    # Around the row-by-row bound, MIN_BLOCK_PAIRS pairs, and with slices of
    # one row to one past the whole block, cut from a _SLICE one either side
    # of a multiple of n.  Rows repeat or change at one task, so blocks hold
    # all-zero and single-nonzero rows next to tied and untied ones.
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_blocks_around_the_bounds_match_the_scalar_oracle(self, data):
        n = data.draw(st.integers(1, 30), label="n")
        values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                           st.floats(-1.0, 1.0, allow_nan=False))
        rows: list[list[float]] = []
        for _ in range(5):
            if rows and data.draw(st.booleans()):
                row = list(data.draw(st.sampled_from(rows)))
                if data.draw(st.booleans()):
                    row[data.draw(st.integers(0, n - 1))] = data.draw(values)
            else:
                row = data.draw(st.lists(values, min_size=n, max_size=n))
            rows.append(row)
        matrix = _matrix(rows, data.draw(st.sampled_from(list(Direction))))
        count = data.draw(st.integers(stats.MIN_BLOCK_PAIRS - 1, stats.MIN_BLOCK_PAIRS + 3))
        pairs = data.draw(st.lists(st.sampled_from(
            list(itertools.permutations(matrix.comparates, 2))), min_size=count, max_size=count))
        per_slice = data.draw(st.integers(1, count + 1))
        budget = max(1, per_slice * n + data.draw(st.integers(-1, 1)))
        with mock.patch.object(stats, "_SLICE", budget):
            got = stats.pair_statistics(matrix, pairs)
        assert ([cell_bits(c) for c in got]
                == [cell_bits(pairwise_comparison_scalar(matrix, r, c)) for r, c in pairs])

    def test_exact_counts_past_int32_lose_mass(self):
        # The package counts exactly up to 25 nonzero differences.  Forced
        # past 31, the int32 counts wrap, and the lost-mass check refuses
        # the p-value rather than return a wrong one.
        diffs = np.arange(1.0, 33.0)
        with pytest.raises(InternalError, match="lost mass"):
            _forced(diffs, "exact")
        assert (_result_bits(_forced(diffs[:31], "exact"))
                == _result_bits(wilcoxon_signed_rank_scalar(diffs[:31], method="exact")))


class TestPairStatistics:
    @pytest.mark.parametrize("eps", ["0.6", True, None])
    def test_tie_epsilon_that_is_not_a_real_number_refused(self, eps):
        matrix = _matrix([[0.1, 0.9], [0.5, 0.2]])
        with pytest.raises(ValidationError, match="tie_epsilon must be a real number"):
            stats.pair_statistics(matrix, [("c0", "c1")], tie_epsilon=eps)

    @pytest.mark.parametrize("slice_, counts", [
        (48, stats._COUNTS), (stats._SLICE, 48), (48, 48), (400, 400),
        (stats._SLICE, stats._COUNTS),
    ])
    def test_matches_the_scalar_oracle_bit_for_bit(self, monkeypatch, slice_, counts):
        # A small slice cuts the pairs into many slices, down to one pair
        # each; a small count budget cuts a slice's exact distributions into
        # many blocks.  Each budget is driven alone, and both together.
        monkeypatch.setattr(stats, "_SLICE", slice_)
        monkeypatch.setattr(stats, "_COUNTS", counts)
        rng = np.random.default_rng(21)
        for trial in range(40):
            direction = list(Direction)[trial % 2]
            n = int(rng.choice([1, 3, 8, 20, 30, 70]))
            matrix = random_matrix(rng, n=n, tie_prob=0.6, direction=direction)
            if trial % 4 == 0:  # duplicated rows: every difference is zero
                scores = matrix.scores.copy()
                scores[-1] = scores[0]
                matrix = ResultsMatrix(matrix.comparates, matrix.tasks, scores, direction)
            eps = float(rng.choice([0.0, 0.05]))
            pairs = list(itertools.permutations(matrix.comparates, 2))
            expected = [cell_bits(pairwise_comparison_scalar(matrix, r, c, eps))
                        for r, c in pairs]
            got = stats.pair_statistics(matrix, pairs, eps)
            assert [cell_bits(c) for c in got] == expected
            assert [cell_bits(pairwise_comparison(matrix, r, c, eps))
                    for r, c in pairs] == expected

    def test_short_blocks_are_tested_row_by_row(self, monkeypatch):
        test = stats.wilcoxon_signed_rank
        rows = []

        def counting(diffs, *args, **kwargs):
            rows.append(None)
            return test(diffs, *args, **kwargs)

        monkeypatch.setattr(stats, "wilcoxon_signed_rank", counting)
        matrix = random_matrix(np.random.default_rng(5), m=5, n=9)
        pairs = list(itertools.combinations(matrix.comparates, 2))
        for count in (1, stats.MIN_BLOCK_PAIRS - 1, stats.MIN_BLOCK_PAIRS, len(pairs)):
            rows.clear()
            stats.pair_statistics(matrix, pairs[:count])
            assert len(rows) == (count if count < stats.MIN_BLOCK_PAIRS else 0)

    def test_overflowing_difference_names_the_pair_and_task(self):
        matrix = _matrix([[0.0, 1e308, -1e308], [0.0, -1e308, 1e308], [0.0, 0.0, 0.0]])
        message = r"difference of 'c0' and 'c1' overflows on task 't1'"
        with pytest.raises(ValidationError, match=message):
            stats.pair_statistics(matrix, [("c0", "c2"), ("c0", "c1")])
        with pytest.raises(ValidationError, match=message):
            pairwise_comparison(matrix, "c0", "c1")
        with pytest.raises(ValidationError, match=message):
            stats.all_pairs_pvalues(matrix, matrix.comparates)

    def test_overflowing_mean_difference_names_the_pair(self):
        # Every score, row sum and difference is finite; a pair's sum of
        # differences is not.
        matrix = _matrix([[8e307, 8e307], [-8e307, -8e307], [1.0, 2.0]])
        message = r"mean score difference of 'c1' and 'c0' overflows"
        with pytest.raises(ValidationError, match=message):
            stats.pair_statistics(matrix, [("c1", "c2"), ("c1", "c0"), ("c0", "c2")])
        with pytest.raises(ValidationError, match="difference of 'c0' and 'c1' overflows"):
            build_mcm(matrix)

    def test_same_and_unknown_comparates(self):
        matrix = _matrix([[0.5], [0.6]])
        with pytest.raises(ValidationError, match="cannot compare 'c1' with itself"):
            stats.pair_statistics(matrix, [("c0", "c1"), ("c1", "c1")])
        with pytest.raises(ValidationError, match="unknown comparate 'zzz'"):
            stats.pair_statistics(matrix, [("c0", "zzz")])
        # The first bad pair is named; within a pair, a self-pair comes first,
        # then the row, then the column.
        for pairs, message in (
            ([("c0", "zzz"), ("c1", "c1")], "unknown comparate 'zzz'"),
            ([("c1", "c1"), ("c0", "zzz")], "cannot compare 'c1' with itself"),
            ([("zzz", "zzz")], "cannot compare 'zzz' with itself"),
            ([("yyy", "zzz")], "unknown comparate 'yyy'"),
            ([("c0", "c1"), (None, "c0")], "unknown comparate None"),
            (np.array([("c0", "c1"), ("c1", "xxx")]), "unknown comparate 'xxx'"),
        ):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                stats.pair_statistics(matrix, pairs)
        with pytest.raises(ValidationError, match=r"^unknown comparate \['c0'\]$"):
            stats.pair_statistics(matrix, [("c0", "c1"), (["c0"], "c1")])  # unhashable
        for pairs in (["c0c1"], [("c0", "c1", "c0")], [("c0", "c1"), ("c1",)]):
            with pytest.raises(ValidationError, match="must name a row and a column"):
                stats.pair_statistics(matrix, pairs)

    def test_pairs_are_checked_before_any_slice_on_the_matrix_map(self, monkeypatch):
        # Slices of two pairs: every pair is checked before the first slice
        # is evaluated, so a bad name in the last slice raises before an
        # overflow in the first, and the names are read from the one map
        # the matrix built.
        built = []
        check_unique = data._check_unique
        monkeypatch.setattr(data, "_check_unique",
                            lambda *args: built.append(args[0]) or check_unique(*args))
        matrix = _matrix([[0.0, 1e308], [0.0, -1e308], [0.0, 0.0], [0.5, 0.5]])
        assert built == ["comparate", "task"]
        pairs = [("c0", "c2"), ("c2", "c3"), ("c3", "c0"), ("c1", "c2"),
                 ("c0", "c3"), ("c1", "c3")] * 3
        whole = stats.pair_statistics(matrix, pairs)
        mapped = []
        positions = ResultsMatrix.positions
        monkeypatch.setattr(ResultsMatrix, "positions",
                            lambda *args: mapped.append(None) or positions(*args))
        monkeypatch.setattr(stats, "_SLICE", 2 * matrix.n)
        sliced = stats.pair_statistics(matrix, pairs)
        assert len(mapped) == 1
        assert list(map(cell_bits, sliced)) == list(map(cell_bits, whole))
        overflow = [("c0", "c1"), ("c0", "c2"), ("c2", "c3"), ("c3", "zzz")]
        with pytest.raises(ValidationError, match="unknown comparate 'zzz'"):
            stats.pair_statistics(matrix, overflow)
        with pytest.raises(ValidationError, match="difference of 'c0' and 'c1' overflows"):
            stats.pair_statistics(matrix, overflow[:-1])
        assert built == ["comparate", "task"]

    @pytest.mark.parametrize("m", [0, 1, 2, 4, 7])
    def test_all_pairs_pvalues_is_one_symmetric_array(self, m):
        # Seven comparates give 21 pairs, a block; four or fewer, one pair at a time.
        matrix = random_matrix(np.random.default_rng(6), m=7, n=9)
        names = matrix.comparates[::-1][:m]
        p = stats.all_pairs_pvalues(matrix, names)
        assert p.shape == (m, m) and (p == p.T).all() and (np.diag(p) == 0.0).all()
        for i, j in itertools.combinations(range(m), 2):
            table = stats.pair_statistics(matrix, [(names[i], names[j])])
            assert p[i, j] == table.p_value[0]

    def test_p_value_disagreeing_with_single_pair_is_internal_error(self, monkeypatch):
        test = stats.wilcoxon_signed_rank

        def perturbed(*args, **kwargs):
            p, method = test(*args, **kwargs)
            return math.nextafter(p, 0.0), method

        monkeypatch.setattr(stats, "wilcoxon_signed_rank", perturbed)
        matrix = random_matrix(np.random.default_rng(4), m=5, n=9)
        with pytest.raises(InternalError, match="batched signed-rank test"):
            stats.all_pairs_pvalues(matrix, matrix.comparates)
        # Fewer pairs are tested one at a time, with nothing to compare.
        few = stats.all_pairs_pvalues(matrix, matrix.comparates[:4])
        assert few.shape == (4, 4) and math.comb(4, 2) == 6 < stats.MIN_BLOCK_PAIRS


class TestFriedman:
    def test_identical_scores(self):
        matrix = _matrix([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        assert friedman_test(compute_ranks(matrix)) == (0.0, 1.0)

    def test_matches_textbook_formula_tie_free(self):
        # One dominant comparate on every task, m=3, n=10.
        rng = np.random.default_rng(12)
        base = rng.uniform(0.1, 0.5, size=(3, 10))
        base[0] = rng.uniform(0.8, 0.9, size=10)
        matrix = _matrix(base)
        table = compute_ranks(matrix)
        expected = friedman_tie_free(table.ranks)
        statistic, p = friedman_test(table)
        assert statistic == pytest.approx(expected, rel=1e-12)
        assert 0.0 <= p <= 1.0

    def test_matches_scipy_with_ties(self):
        from scipy.stats import friedmanchisquare

        rng = np.random.default_rng(99)
        for _ in range(100):
            matrix = random_matrix(
                rng, m=int(rng.integers(3, 8)), n=int(rng.integers(3, 25)),
                tie_prob=0.5,
            )
            stat, p = friedman_test(compute_ranks(matrix))
            ref_stat, ref_p = friedmanchisquare(
                *[matrix.scores[i] for i in range(matrix.m)]
            )
            assert stat == pytest.approx(ref_stat, rel=1e-12, abs=1e-12)
            assert p == pytest.approx(ref_p, rel=1e-12, abs=1e-12)

    def test_p_value_is_chi2_sf_bit_for_bit(self):
        # friedman_test calls chdtrc(df, x) for chi2.sf(x, df); scipy.stats
        # stays the oracle here.
        from scipy.special import chdtrc
        from scipy.stats import chi2

        rng = np.random.default_rng(15)
        x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 700.0, 1e6],
                            rng.exponential(20.0, size=500)])
        for df in range(1, 200):
            assert chdtrc(df, x).tobytes() == chi2.sf(x, df).tobytes()
        for _ in range(20):
            matrix = random_matrix(rng, m=int(rng.integers(3, 12)), n=8, tie_prob=0.3)
            stat, p = friedman_test(compute_ranks(matrix))
            assert p == float(chi2.sf(stat, matrix.m - 1))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        matrix = random_matrix(rng, m=5, n=12)
        stat, _ = friedman_test(compute_ranks(matrix))
        perm = rng.permutation(5)
        shuffled = ResultsMatrix(
            tuple(matrix.comparates[i] for i in perm),
            matrix.tasks,
            matrix.scores[perm],
            matrix.direction,
        )
        stat2, _ = friedman_test(compute_ranks(shuffled))
        assert stat2 == pytest.approx(stat, rel=1e-12, abs=1e-12)

    def test_monotone_transform_per_task_invariance(self):
        rng = np.random.default_rng(14)
        matrix = random_matrix(rng, m=4, n=8)
        stat, _ = friedman_test(compute_ranks(matrix))
        warped = matrix.scores.copy()
        warped[:, 0] = np.exp(warped[:, 0])
        warped[:, 1] = warped[:, 1] ** 3 + 2.0
        matrix2 = _matrix(warped, names=matrix.comparates)
        stat2, _ = friedman_test(compute_ranks(matrix2))
        assert stat2 == pytest.approx(stat, rel=1e-12)

    def test_size_guards(self):
        with pytest.raises(TooFewComparates):
            friedman_test(compute_ranks(_matrix([[1.0, 2.0], [3.0, 4.0]])))
        with pytest.raises(TooFewTasks):
            friedman_test(compute_ranks(_matrix([[1.0], [2.0], [3.0]])))


class TestNemenyi:
    def test_spec_example(self):
        cd = nemenyi_critical_difference(5, 108, 0.05)
        assert cd == pytest.approx(2.728 * math.sqrt(30 / 648), rel=1e-3)
        assert cd == pytest.approx(0.587, abs=5e-4)

    def test_quadrupling_n_halves_cd(self):
        assert nemenyi_critical_difference(6, 400, 0.05) == pytest.approx(
            nemenyi_critical_difference(6, 100, 0.05) / 2.0
        )

    def test_two_groups_reduces_to_z(self):
        cd = nemenyi_critical_difference(2, 50, 0.05)
        assert cd == pytest.approx(1.959964 * math.sqrt(1 / 50), rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.05, 0.10])
    @pytest.mark.parametrize("m", [2, 3, 7, 12, 20])
    def test_table_against_studentized_range(self, alpha, m):
        q = studentized_range.ppf(1.0 - alpha, m, 1e8) / math.sqrt(2.0)
        cd = nemenyi_critical_difference(m, 10, alpha)
        assert cd == pytest.approx(q * math.sqrt(m * (m + 1) / 60.0), rel=1e-4)

    @pytest.mark.parametrize("m, n", [(3.7, 10), (3, 10.9), (True, 10), (3, "10")])
    def test_counts_that_are_not_integers_refused(self, m, n):
        with pytest.raises(ValidationError, match="must be an integer"):
            nemenyi_critical_difference(m, n, 0.05)

    def test_alpha_that_is_not_a_real_number_refused(self):
        with pytest.raises(ValidationError, match="alpha must be a real number"):
            nemenyi_critical_difference(3, 10, "0.05")

    def test_guards(self):
        with pytest.raises(ValidationError, match="no critical-value table for alpha"):
            nemenyi_critical_difference(5, 10, 0.01)
        with pytest.raises(ValidationError, match="outside the tabulated range"):
            nemenyi_critical_difference(21, 10, 0.05)
        with pytest.raises(ValidationError, match="outside the tabulated range"):
            nemenyi_critical_difference(1, 10, 0.05)


class TestHolm:
    @pytest.mark.parametrize("alpha", ["0.05", None, True, 0.05 + 0j, [0.05]])
    def test_alpha_that_is_not_a_real_number_refused(self, alpha):
        with pytest.raises(ValidationError, match="alpha must be a real number"):
            stats.check_alpha(alpha)
        with pytest.raises(ValidationError, match="alpha must be a real number"):
            holm_correction([0.01], alpha)

    def test_alpha_accepts_numpy_scalars(self):
        assert stats.check_alpha(np.float32(0.25)) == 0.25
        assert stats.check_alpha(np.float64(0.05)) == 0.05

    def test_all_significant_example(self):
        assert holm_correction([0.01, 0.02, 0.04], alpha=0.05).tolist() == [True] * 3

    def test_stop_at_first_failure_example(self):
        assert holm_correction([0.02, 0.03, 0.04], alpha=0.05).tolist() == [False] * 3

    def test_single_p_identity(self):
        assert holm_correction([0.049], alpha=0.05).tolist() == [True]
        assert holm_correction([0.05], alpha=0.05).tolist() == [True]
        assert holm_correction([np.nextafter(0.05, 1.0)], alpha=0.05).tolist() == [False]

    def test_decisions_in_input_order(self):
        assert holm_correction([0.5, 0.01, 0.011], alpha=0.05).tolist() == [
            False, True, True]

    def test_equal_ps_share_decision(self):
        significant = holm_correction([0.03, 0.03, 0.001], alpha=0.05)
        assert significant[0] == significant[1]

    def test_families_on_the_last_axis(self):
        p = np.array([[[0.01, 0.02, 0.04], [0.02, 0.03, 0.04]],
                      [[0.04, 0.001, 0.5], [1.0, 0.0, 0.0]]])
        expected = [[[True] * 3, [False] * 3], [[False, True, False], [False, True, True]]]
        assert holm_correction(p, alpha=0.05).tolist() == expected
        assert holm_correction(np.empty((3, 0)), alpha=0.05).shape == (3, 0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
        st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, ps, alpha):
        flags = holm_correction(ps, alpha=alpha).tolist()
        for i, pi in enumerate(ps):
            for j, pj in enumerate(ps):
                if pi <= pj and flags[j]:
                    assert flags[i]

    @staticmethod
    def tied_family(data, alpha, size):
        # Each p is a step-down threshold exactly, one ulp either side of
        # one, or 0, 1 or a repeat of a few values: many ties and every
        # boundary.
        thresholds = [alpha / k for k in range(1, size + 1)]
        near = [np.nextafter(t, side) for t in thresholds for side in (0.0, 1.0)]
        values = st.sampled_from([0.0, 1.0, 0.002, 0.3, *thresholds, *near])
        return data.draw(st.lists(values, min_size=size, max_size=size))

    @given(alpha=st.sampled_from([0.01, 0.05, 0.1, 0.2]), size=st.integers(1, 12),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_list_oracle_on_tied_p_values(self, alpha, size, data):
        ps = self.tied_family(data, alpha, size)
        decisions = holm_correction_list(list(enumerate(ps)), alpha)
        expected = [d.significant for d in sorted(decisions, key=lambda d: d.pair)]
        assert holm_correction(ps, alpha).tolist() == expected

    @given(alpha=st.sampled_from([0.01, 0.05, 0.2]), rows=st.integers(1, 6),
           size=st.integers(1, 10), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_batched_rows_match_the_list_oracle(self, alpha, rows, size, data):
        p = np.array([self.tied_family(data, alpha, size) for _ in range(rows)])
        got = holm_correction(p, alpha)
        assert got.shape == p.shape and got.dtype == bool
        for row, flags in zip(p.tolist(), got.tolist()):
            decisions = holm_correction_list(list(enumerate(row)), alpha)
            assert flags == [d.significant for d in sorted(decisions, key=lambda d: d.pair)]

    def test_guards(self):
        with pytest.raises(ValidationError, match="alpha must lie in"):
            holm_correction([0.5], alpha=1.0)
        for bad in (1.5, -0.25, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="p-value outside"):
                holm_correction([0.01, bad], alpha=0.05)
        with pytest.raises(ValidationError, match="p-values need an axis"):
            holm_correction(0.01, alpha=0.05)

    @pytest.mark.parametrize("p", [True, [True, False], [True, 0.01], [[0.2, 0.01], [False, 0.5]],
                                   ["0.01"], [0.01 + 0j], [[0.01], [0.1, 0.2]]],
                             ids=["bool", "bools", "mixed-bool", "mixed-bool-rows", "string",
                                  "complex", "ragged"])
    def test_p_values_that_are_not_real_numbers_refused(self, p):
        with pytest.raises(ValidationError, match="p-values must be numbers"):
            holm_correction(p, alpha=0.05)
