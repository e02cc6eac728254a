import dataclasses
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
from mcmatrix.bayes import BayesPosterior
from mcmatrix.errors import InternalError, ValidationError
from mcmatrix.stability import significance_pattern
from mcmatrix.mcm import PairGrid, cell_records, cell_records_json
from mcmatrix.render import render_mcm
from mcmatrix.stats import (
    MIN_BLOCK_PAIRS,
    PairTable,
    PairwiseComparison,
    PMethod,
    oriented_differences,
)

from conftest import cell_bits, fixture_matrix, load_fixture, posterior_bits, random_matrix
from oracles import pairwise_comparison_scalar


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
        batch = mcmatrix.mcm.pair_statistics
        posterior = mcmatrix.mcm.bayesian_signed_rank
        block_calls = []
        single_calls = []
        bayes_calls = []

        def counting_block(matrix, pairs, *args, **kwargs):
            block_calls.extend(frozenset(pair) for pair in pairs)
            return batch(matrix, pairs, *args, **kwargs)

        def counting_single(matrix, row, column, *args, **kwargs):
            single_calls.append(frozenset((row, column)))
            return evaluate(matrix, row, column, *args, **kwargs)

        def counting_bayes(*args, **kwargs):
            bayes_calls.append(None)
            return posterior(*args, **kwargs)

        monkeypatch.setattr(mcmatrix.mcm, "pair_statistics", counting_block)
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
            assert len(bayes_calls) == expected
            assert set(evaluated) == {frozenset(pair) for pair in report.cells}
            for (r, c), cell in report.cells.items():
                assert cell_bits(cell) == cell_bits(pairwise_comparison_scalar(matrix, r, c, 0.05))
                direct = posterior(oriented_differences(matrix, r, c), bayes_config)
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
            assert cell_bits(report.cells[(b, a)]) == cell_bits(report.cells[(a, b)].mirrored())

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
def _grids(draw) -> PairGrid:
    """A ``PairGrid`` over a ``PairTable`` of up to six unordered pairs, each
    asked for in one orientation, the other or both, in a drawn order."""
    pairs = draw(st.lists(st.tuples(_NAMES, _NAMES).filter(lambda p: p[0] != p[1]),
                          max_size=6, unique_by=frozenset))
    size = len(pairs)
    n = draw(_COUNT)
    wins = draw(st.lists(st.integers(0, n), min_size=size, max_size=size))
    losses = [draw(st.integers(0, n - w)) for w in wins]

    def column(values):
        return tuple(draw(st.lists(values, min_size=size, max_size=size)))

    table = PairTable(tuple(pairs), column(_FLOATS), tuple(wins), tuple(losses), column(_P),
                      column(st.sampled_from(PMethod)), n)
    keys = [((a, b), (i, False)) for i, (a, b) in enumerate(pairs)]
    keys += [((b, a), (i, True)) for i, (a, b) in enumerate(pairs)]
    chosen = draw(st.lists(st.sampled_from(range(len(keys))), unique=True)) if keys else []
    return PairGrid(table, dict(keys[k] for k in chosen))


_EMPTY_GRID = PairGrid(PairTable((), (), (), (), (), (), 0), {})


class TestCellRecordsJson:
    @settings(max_examples=300, deadline=None)
    @given(_grids(), _P, st.none() | st.lists(
        st.builds(BayesPosterior, _P, _P, _P, _COUNT), min_size=6, max_size=6))
    @example(_EMPTY_GRID, 0.05, None)
    @example(_EMPTY_GRID, 0.05, [BayesPosterior(0.0, 1.0, 0.0, 1)] * 6)
    def test_equals_json_dumps_at_the_same_nesting(self, cells, alpha, posteriors):
        bayes = None if posteriors is None else PairGrid(posteriors, cells.index)
        expected = json.dumps({"cells": cell_records(cells, alpha, bayes)}, indent=2)
        text = cell_records_json(cells, alpha, bayes)
        assert '{\n  "cells": ' + text + "\n}" == expected
