import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcmatrix.mcm
from mcmatrix import (
    BayesConfig,
    Direction,
    MCMConfig,
    ResultsMatrix,
    build_mcm,
    mcm_cell_invariance_check,
    mcm_report_to_dict,
)
from mcmatrix.bayes import CHUNK_SIZE, PosteriorTable, bayesian_signed_rank
from mcmatrix.errors import InternalError, ValidationError
from mcmatrix.stability import significance_pattern
from mcmatrix.mcm import PairGrid, cell_records_json, compare_pairs
from mcmatrix.render import render_mcm
from mcmatrix.stats import (
    MIN_BLOCK_PAIRS,
    PairTable,
    PairwiseComparison,
    PMethod,
    oriented_differences,
    pairwise_comparison,
)

from conftest import (
    cell_bits,
    fixture_matrix,
    load_fixture,
    posterior_bits,
    random_matrix,
    swapped_cell_bits,
    swapped_posterior_bits,
)
from oracles import cell_records, pairwise_comparison_scalar


def _matrix(scores, names=None, direction=Direction.HIGHER_IS_BETTER):
    scores = np.array(scores, dtype=float)
    names = names or tuple(f"c{i}" for i in range(scores.shape[0]))
    return ResultsMatrix(
        names, tuple(f"t{j}" for j in range(scores.shape[1])), scores, direction
    )


class TestBuildMcm:
    def test_all_pairs_count(self):
        rng = np.random.default_rng(0)
        matrix = random_matrix(rng, m=5, n=8)
        report = build_mcm(matrix)
        assert report.comparison_count == 10  # m (m - 1) / 2
        assert len(report.cells) == 20  # full off-diagonal grid

    def test_disjoint_focused_count(self):
        rng = np.random.default_rng(1)
        matrix = random_matrix(rng, m=5, n=6)
        names = matrix.comparates
        report = build_mcm(
            matrix,
            MCMConfig(row_comparates=names[:2], column_comparates=names[2:]),
        )
        assert report.comparison_count == 6
        assert len(report.cells) == 6

    def test_overlapping_focused_count(self):
        rng = np.random.default_rng(2)
        matrix = random_matrix(rng, m=4, n=6)
        names = matrix.comparates
        report = build_mcm(
            matrix,
            MCMConfig(row_comparates=names[:2], column_comparates=names[:3]),
        )
        assert report.comparison_count == 2 * 3 - 2  # |rows||cols| - |overlap|

    def test_ordering_by_mean_performance(self):
        matrix = _matrix(
            [[0.2, 0.2], [0.9, 0.9], [0.5, 0.7]], names=("low", "high", "mid")
        )
        report = build_mcm(matrix)
        assert report.row_order == ("high", "mid", "low")
        assert report.column_order == report.row_order

    def test_ordering_lower_is_better(self):
        matrix = _matrix(
            [[0.2, 0.2], [0.9, 0.9]], names=("small", "big"),
            direction=Direction.LOWER_IS_BETTER,
        )
        report = build_mcm(matrix)
        assert report.row_order == ("small", "big")

    def test_ties_break_lexicographically(self):
        matrix = _matrix([[0.5, 0.5], [0.5, 0.5]], names=("zeta", "alpha"))
        report = build_mcm(matrix)
        assert report.row_order == ("alpha", "zeta")

    def test_significance_is_uncorrected_per_cell(self):
        rng = np.random.default_rng(3)
        matrix = random_matrix(rng, m=5, n=10)
        report = build_mcm(matrix, MCMConfig(alpha=0.3))
        records = mcm_report_to_dict(report)["cells"]
        assert [r["significant"] for r in records] == [
            cell.p_value < 0.3 for cell in report.cells.values()
        ]

    def test_grid_antisymmetry(self):
        rng = np.random.default_rng(4)
        matrix = random_matrix(rng, m=4, n=9)
        report = build_mcm(matrix)
        for a, b in report.cells:
            fwd, rev = report.cells[(a, b)], report.cells[(b, a)]
            assert rev.mean_difference == -fwd.mean_difference
            assert (rev.wins, rev.losses, rev.ties) == (fwd.losses, fwd.wins, fwd.ties)
            assert rev.p_value == fwd.p_value

    def test_pairwise_order_stable_under_set_changes(self):
        rng = np.random.default_rng(5)
        matrix = random_matrix(rng, m=6, n=7)
        full = build_mcm(matrix)
        a, b = full.row_order[1], full.row_order[3]
        small = build_mcm(matrix.select_comparates((b, a)))
        assert small.row_order == (a, b)

    def test_each_unordered_pair_is_evaluated_once(self, monkeypatch):
        evaluate = mcmatrix.mcm.pairwise_comparison
        batch = mcmatrix.mcm._pair_table
        posterior = mcmatrix.mcm.bayesian_signed_rank
        block_calls = []
        single_calls = []
        bayes_calls = []

        def counting_block(matrix, at, *args, **kwargs):
            block_calls.extend(frozenset(matrix.comparates[i] for i in pair)
                               for pair in at.tolist())
            return batch(matrix, at, *args, **kwargs)

        def counting_single(matrix, row, column, *args, **kwargs):
            single_calls.append(frozenset((row, column)))
            return evaluate(matrix, row, column, *args, **kwargs)

        def counting_bayes(rows, *args, **kwargs):
            bayes_calls.append(len(rows))
            return posterior(rows, *args, **kwargs)

        monkeypatch.setattr(mcmatrix.mcm, "_pair_table", counting_block)
        monkeypatch.setattr(mcmatrix.mcm, "pairwise_comparison", counting_single)
        monkeypatch.setattr(mcmatrix.mcm, "bayesian_signed_rank", counting_bayes)
        bayes_config = BayesConfig(mc_samples=300, seed=2)
        rng = np.random.default_rng(6)
        matrix = random_matrix(rng, m=6, n=8, tie_prob=0.5)
        names = matrix.comparates
        scores = matrix.scores.copy()
        scores[3] = scores[1]  # an all-zero pair, whose mean difference is +0.0
        matrix = ResultsMatrix(names, matrix.tasks, scores, matrix.direction)
        for rows, cols, expected in (
            (None, None, math.comb(6, 2)),
            (names[:2], names[2:], 8),  # disjoint: every cell is its own pair
            (names[:3], names[1:5], 9),  # (c1, c2) and (c2, c1) share a pair
            (names[:2], names[:4], 5),  # fewer than MIN_BLOCK_PAIRS
        ):
            block_calls.clear()
            single_calls.clear()
            bayes_calls.clear()
            report = build_mcm(
                matrix,
                MCMConfig(row_comparates=rows, column_comparates=cols, tie_epsilon=0.05),
                bayes_config,
            )
            if expected >= MIN_BLOCK_PAIRS:
                evaluated = block_calls
                assert single_calls == block_calls[:1]  # the cross-check
            else:
                evaluated = single_calls
                assert block_calls == []
            assert len(evaluated) == len(set(evaluated)) == expected
            assert bayes_calls == [expected]  # one block per build, a row per pair
            assert set(evaluated) == {frozenset(pair) for pair in report.cells}
            for (r, c), cell in report.cells.items():
                assert cell_bits(cell) == cell_bits(pairwise_comparison_scalar(matrix, r, c, 0.05))
                direct = posterior([oriented_differences(matrix, r, c)], bayes_config)[0]
                assert posterior_bits(report.bayes[(r, c)]) == posterior_bits(direct)

    def test_batched_cell_disagreeing_with_single_pair_is_internal_error(
            self, monkeypatch):
        evaluate = mcmatrix.mcm.pairwise_comparison

        def perturbed(*args, **kwargs):
            cell = evaluate(*args, **kwargs)
            return dataclasses.replace(cell, p_value=math.nextafter(cell.p_value, 0.0))

        monkeypatch.setattr(mcmatrix.mcm, "pairwise_comparison", perturbed)
        matrix = random_matrix(np.random.default_rng(12), m=5, n=9)
        with pytest.raises(InternalError, match="batched pair statistics"):
            build_mcm(matrix)
        # Fewer pairs are evaluated one at a time, with nothing to compare.
        build_mcm(matrix.select_comparates(matrix.comparates[:4]))

    def test_include_bayes_attaches_posteriors(self):
        rng = np.random.default_rng(7)
        matrix = random_matrix(rng, m=3, n=5)
        report = build_mcm(
            matrix,
            MCMConfig(),
            bayes_config=BayesConfig(mc_samples=500, seed=1),
        )
        assert report.bayes is not None and len(report.bayes) == len(report.cells)
        post = next(iter(report.bayes.values()))
        assert post.theta_left + post.theta_rope + post.theta_right == pytest.approx(1.0)
        assert build_mcm(matrix, MCMConfig()).bayes is None

    def test_guards(self):
        rng = np.random.default_rng(8)
        matrix = random_matrix(rng, m=3, n=4)
        with pytest.raises(ValidationError, match="alpha must lie in"):
            build_mcm(matrix, MCMConfig(alpha=0.0))
        with pytest.raises(ValidationError, match="unknown comparate 'nope'"):
            build_mcm(matrix, MCMConfig(row_comparates=("nope",)))

    def test_compare_pairs_takes_a_mask_of_the_grid_shape(self):
        matrix = random_matrix(np.random.default_rng(8), m=3, n=4)
        names = matrix.comparates
        with pytest.raises(ValidationError, match=r"mask of shape \(2, 3\) for a 3 x 3 grid"):
            compare_pairs(matrix, names, names, np.ones((2, 3), dtype=bool))
        with pytest.raises(ValidationError, match="unknown comparate 'nope'"):
            compare_pairs(matrix, ("nope",), names, np.ones((1, 3), dtype=bool))
        with pytest.raises(ValidationError, match="cannot compare 'c0' with itself"):
            compare_pairs(matrix, names, names, np.ones((3, 3), dtype=bool))
        cells, bayes = compare_pairs(matrix, names, names, np.zeros((3, 3), dtype=bool))
        assert len(cells) == len(cells.table) == 0 and bayes is None


class TestGridCells:
    def test_cells_are_a_read_only_mapping_in_grid_order(self):
        matrix = random_matrix(np.random.default_rng(14), m=5, n=9, tie_prob=0.4)
        scores = matrix.scores.copy()
        scores[4] = scores[2]  # an all-zero pair, whose mean difference is +0.0
        matrix = ResultsMatrix(matrix.comparates, matrix.tasks, scores, matrix.direction)
        report = build_mcm(matrix)
        grid = [(r, c) for r in report.row_order for c in report.column_order if r != c]
        assert list(report.cells) == grid and len(report.cells) == 20
        a, b = grid[0]
        for key in ((a, a), (a, "nobody"), ("nobody", b)):
            with pytest.raises(KeyError):
                report.cells[key]
        with pytest.raises(TypeError):
            report.cells[(a, b)] = report.cells[(b, a)]
        for a, b in grid:
            assert cell_bits(report.cells[(b, a)]) == swapped_cell_bits(report.cells[(a, b)])

    def test_every_cell_of_a_focused_report_is_its_pair_evaluated_directly(self):
        # Rows after columns in matrix order, overlapping: most cells read a
        # mirror, and the shared comparates leave diagonal positions empty.
        matrix = random_matrix(np.random.default_rng(16), m=7, n=9, tie_prob=0.4)
        names = matrix.comparates
        config = MCMConfig(row_comparates=names[3:], column_comparates=names[:5],
                           tie_epsilon=0.05)
        report = build_mcm(matrix, config)
        grid = [(r, c) for r in report.row_order for c in report.column_order if r != c]
        assert list(report.cells) == grid and len(report.cells) == 4 * 5 - 2
        assert (report.cells.slot < 0).any() and (report.cells.slot > 0).any()
        for r, c in grid:
            direct = pairwise_comparison(matrix, r, c, tie_epsilon=0.05)
            assert cell_bits(report.cells[(r, c)]) == cell_bits(direct)

    def test_grid_writers_build_no_cell_beyond_the_cross_check(self, monkeypatch):
        built = []
        init = PairwiseComparison.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        matrix = random_matrix(np.random.default_rng(15), m=30, n=12, tie_prob=0.3)
        monkeypatch.setattr(PairwiseComparison, "__init__", counting)
        report = build_mcm(matrix)
        for fmt in ("svg", "html"):
            render_mcm(report, fmt)
        cell_records_json(report.cells, report.alpha)
        # pairwise_comparison of the first pair, and the table's first cell.
        assert len(built) == 2


class TestCellInvariance:
    def test_single_subset_trivially_true(self):
        rng = np.random.default_rng(9)
        matrix = random_matrix(rng, m=5, n=6)
        pair = (matrix.comparates[0], matrix.comparates[1])
        assert mcm_cell_invariance_check(matrix, pair, [matrix.comparates])

    def test_random_supersets(self):
        rng = np.random.default_rng(10)
        matrix = random_matrix(rng, m=8, n=10)
        pair = (matrix.comparates[2], matrix.comparates[5])
        others = [c for c in matrix.comparates if c not in pair]
        subsets = []
        for _ in range(20):
            extra = rng.choice(others, size=int(rng.integers(0, 4)), replace=False)
            subsets.append(tuple(pair) + tuple(extra))
        assert mcm_cell_invariance_check(matrix, pair, subsets)

    def test_pair_missing_from_subset(self):
        rng = np.random.default_rng(11)
        matrix = random_matrix(rng, m=4, n=5)
        pair = (matrix.comparates[0], matrix.comparates[1])
        with pytest.raises(ValidationError, match="lacks pair"):
            mcm_cell_invariance_check(matrix, pair, [matrix.comparates[1:]])

    def test_holm_flags_are_not_invariant(self):
        """The same supersets harness run against corrected flags must find
        a flip on the shipped witness, while the cells stay identical."""
        fixture = load_fixture("holm_flip")
        matrix = fixture_matrix(fixture)
        a, b = fixture["pair"]
        alpha = fixture["alpha"]

        small = significance_pattern(matrix, [a, b], fixture["small_family_extras"], alpha)
        large = significance_pattern(matrix, [a, b], fixture["large_family_extras"], alpha)
        assert small.non_significant_pairs != large.non_significant_pairs

        subset_small = (a, b, *fixture["small_family_extras"])
        subset_large = (a, b, *fixture["large_family_extras"])
        assert mcm_cell_invariance_check(matrix, (a, b), [subset_small, subset_large])


class TestPosteriorInvariance:
    def test_posterior_is_the_same_bits_in_any_block_and_any_report(self):
        # Two full chunks and a short third, so every chunk's shared draw is
        # checked against the pair's own.
        config = BayesConfig(rope=0.02, mc_samples=2 * CHUNK_SIZE + 300, seed=31)
        matrix = random_matrix(np.random.default_rng(24), m=5, n=11, tie_prob=0.3)
        pairs = list(itertools.combinations(matrix.comparates, 2))
        block = bayesian_signed_rank([oriented_differences(matrix, *p) for p in pairs], config)
        alone = {}
        for i, pair in enumerate(pairs):
            table = bayesian_signed_rank([oriented_differences(matrix, *pair)], config)
            assert len(table) == 1
            alone[pair] = table[0]
            assert posterior_bits(block[i]) == posterior_bits(table[0])
        for size in range(2, matrix.m + 1):
            for subset in itertools.combinations(matrix.comparates, size):
                report = build_mcm(matrix.select_comparates(subset), MCMConfig(), config)
                for a, b in itertools.combinations(subset, 2):
                    posterior = alone[(a, b)]
                    assert posterior_bits(report.bayes[(a, b)]) == posterior_bits(posterior)
                    assert (posterior_bits(report.bayes[(b, a)])
                            == swapped_posterior_bits(posterior))


class TestReportJson:
    def test_schema_shape(self):
        rng = np.random.default_rng(12)
        matrix = random_matrix(rng, m=4, n=6)
        report = build_mcm(matrix)
        obj = mcm_report_to_dict(report)
        assert set(obj) >= {"ordering", "mean_performance", "alpha", "cells"}
        assert len(obj["cells"]) == len(report.cells)
        cell = obj["cells"][0]
        assert set(cell) >= {
            "row", "col", "mean_diff", "wins", "ties", "losses",
            "p", "p_method", "significant",
        }
        assert obj["ordering"] == list(report.row_order)
        assert obj["cells"] == cell_records(report.cells, report.alpha)

    def test_bayes_key_present_when_included(self):
        rng = np.random.default_rng(13)
        matrix = random_matrix(rng, m=3, n=4)
        report = build_mcm(
            matrix,
            MCMConfig(),
            bayes_config=BayesConfig(mc_samples=200, seed=0),
        )
        obj = mcm_report_to_dict(report)
        assert all("bayes" in cell for cell in obj["cells"])
        sample = obj["cells"][0]["bayes"]
        assert set(sample) == {"theta_left", "theta_rope", "theta_right", "mc_samples"}


# Names with quotes, backslashes, control characters and non-ASCII letters.
_NAMES = st.text(st.sampled_from('ab"\\\'<&\x00\x1f\n\t\u00eb\u4e2d\U0001f600 '),
                 min_size=1, max_size=6)
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1.0, -2.5e-8]),
                    st.floats(allow_nan=False, allow_infinity=False))
_P = st.one_of(st.sampled_from([0.0, 5e-324, 0.05, 1.0]), st.floats(0.0, 1.0))
_COUNT = st.integers(0, 10**6)


@st.composite
def _grids(draw) -> tuple[PairGrid, PairGrid]:
    """Cells and posteriors on one slot matrix, read from drawn tables of
    every pair of up to five names in matrix order: a full grid, a focused
    one whose rows come after its columns in matrix order, or the upper
    triangle."""
    names = draw(st.lists(_NAMES, min_size=2, max_size=5, unique=True))
    m = len(names)
    pairs = list(itertools.combinations(range(m), 2))
    kind = draw(st.sampled_from(["full", "focused", "upper"]))
    rows = cols = range(m)
    if kind == "focused":
        rows, cols = range(draw(st.integers(0, m - 1)), m), range(draw(st.integers(1, m)))
    slot = np.zeros((len(rows), len(cols)), dtype=np.intp)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            if r != c and (kind != "upper" or r < c):
                k = pairs.index((min(r, c), max(r, c))) + 1
                slot[i, j] = k if r < c else -k
    size = len(pairs)
    n = draw(_COUNT)
    wins = draw(st.lists(st.integers(0, n), min_size=size, max_size=size))
    losses = [draw(st.integers(0, n - w)) for w in wins]

    def column(values):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    table = PairTable(np.array([(names[a], names[b]) for a, b in pairs], dtype=object),
                      column(_FLOATS), np.array(wins), np.array(losses), column(_P),
                      tuple(draw(st.lists(st.sampled_from(PMethod), min_size=size,
                                          max_size=size))), n)
    posteriors = PosteriorTable(column(_P), column(_P), column(_P), draw(_COUNT))
    row_names, col_names = (tuple(names[i] for i in at) for at in (rows, cols))
    return (PairGrid(row_names, col_names, slot, table),
            PairGrid(row_names, col_names, slot, posteriors))


_NO_SLOT = np.zeros((1, 1), dtype=np.intp)
_EMPTY_GRIDS = (
    PairGrid(("a",), ("a",), _NO_SLOT, PairTable(
        np.empty((0, 2), dtype=object), np.empty(0), np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64), np.empty(0), (), 0)),
    PairGrid(("a",), ("a",), _NO_SLOT, PosteriorTable(np.empty(0), np.empty(0), np.empty(0), 1)),
)


@settings(max_examples=200, deadline=None)
@given(_grids())
@example(_EMPTY_GRIDS)
def test_items_and_values_read_row_by_row_equal_per_key_reads(grids):
    for grid, bits in zip(grids, (cell_bits, posterior_bits)):
        items, values = grid.items(), grid.values()
        assert len(items) == len(values) == len(grid)
        assert [(key, bits(value)) for key, value in items] == [
            (key, bits(grid[key])) for key in grid]
        assert [bits(value) for value in values] == [bits(grid[key]) for key in grid]
        assert all(type(value) is type(grid[key]) for key, value in items)


class TestCellRecordsJson:
    @settings(max_examples=300, deadline=None)
    @given(_grids(), _P, st.booleans())
    @example(_EMPTY_GRIDS, 0.05, False)
    @example(_EMPTY_GRIDS, 0.05, True)
    def test_equals_json_dumps_at_the_same_nesting(self, grids, alpha, with_bayes):
        cells, posteriors = grids
        bayes = posteriors if with_bayes else None
        expected = json.dumps({"cells": cell_records(cells, alpha, bayes)}, indent=2)
        text = cell_records_json(cells, alpha, bayes)
        assert '{\n  "cells": ' + text + "\n}" == expected
