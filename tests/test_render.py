import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmatrix import (
    Direction,
    MCMConfig,
    ResultsMatrix,
    build_mcm,
    cd_layout,
    render_cd_diagram,
    render_mcm,
    render_pattern_graph,
)
from mcmatrix.errors import TooFewComparates, TooFewTasks, ValidationError
from mcmatrix.render import contiguous_nonsignificant_runs, diverging_color
from mcmatrix.render.style import COLOR_NEGATIVE, COLOR_POSITIVE
from mcmatrix.stability import pattern_from_bitmask

from conftest import GOLDEN, golden_matrix
from oracles import contiguous_runs_loop


class TestDivergingColor:
    def test_zero_is_white(self):
        assert diverging_color(0.0, 1.0) == "#ffffff"

    def test_saturates_at_limit(self):
        assert diverging_color(5.0, 1.0) == COLOR_POSITIVE
        assert diverging_color(-5.0, 1.0) == COLOR_NEGATIVE

    def test_sign_selects_endpoint(self):
        positive = diverging_color(0.5, 1.0)
        negative = diverging_color(-0.5, 1.0)
        assert positive != negative


class TestRenderMcm:
    def test_golden_bytes(self):
        report = build_mcm(golden_matrix(), MCMConfig(alpha=0.05))
        metadata = {"fixture": "golden", "alpha": 0.05}
        assert render_mcm(report, format="svg", metadata=metadata) == (
            GOLDEN / "mcm.svg"
        ).read_bytes()
        assert render_mcm(report, format="html", metadata=metadata) == (
            GOLDEN / "mcm.html"
        ).read_bytes()

    def test_repeat_render_identical(self):
        report = build_mcm(golden_matrix())
        assert render_mcm(report) == render_mcm(report)

    def test_zero_difference_cell_is_white(self):
        matrix = ResultsMatrix(
            ("same1", "same2", "other"),
            ("t1", "t2"),
            np.array([[0.5, 0.7], [0.5, 0.7], [0.9, 0.1]]),
            Direction.HIGHER_IS_BETTER,
        )
        svg = render_mcm(build_mcm(matrix), format="svg").decode()
        fills = re.findall(r'fill="(#\w{6})"[^>]*class="cell-bg"', svg)
        assert "#ffffff" in fills  # the (same1, same2) cell

    def test_bold_iff_significant(self):
        report = build_mcm(golden_matrix(), MCMConfig(alpha=0.05))
        svg = render_mcm(report, format="svg").decode()
        bold_count = svg.count('font-weight="bold"')
        significant_cells = sum(
            1
            for r in report.row_order
            for c in report.column_order
            if r != c and report.cells[(r, c)].p_value < report.alpha
        )
        assert bold_count == 3 * significant_cells  # three text lines per cell

    def test_fill_saturates_at_largest_difference(self):
        report = build_mcm(golden_matrix())
        svg = render_mcm(report, format="svg").decode()
        fills = re.findall(r'fill="(#\w{6})"[^>]*class="cell-bg"', svg)
        # The largest |difference| sits on both sides of the diagonal, once
        # with each sign; no smaller one reaches an endpoint.
        assert fills.count(COLOR_POSITIVE) == fills.count(COLOR_NEGATIVE) == 1

    def test_all_zero_differences_render_white(self):
        matrix = ResultsMatrix(
            ("a", "b", "c"), ("t1", "t2"), np.full((3, 2), 0.5),
            Direction.HIGHER_IS_BETTER,
        )
        svg = render_mcm(build_mcm(matrix), format="svg").decode()
        assert set(re.findall(r'fill="(#\w{6})"[^>]*class="cell-bg"', svg)) == {"#ffffff"}

    def test_html_embeds_identical_svg(self):
        report = build_mcm(golden_matrix())
        metadata = {"k": 1}
        svg = render_mcm(report, format="svg", metadata=metadata)
        html = render_mcm(report, format="html", metadata=metadata)
        assert svg.rstrip(b"\n") in html

    def test_mean_performance_next_to_labels(self):
        report = build_mcm(golden_matrix())
        svg = render_mcm(report, format="svg").decode()
        assert "(0.8700)" in svg  # Alpha's mean accuracy

    def test_empty_report_rejected(self):
        with pytest.raises(ValidationError, match="report contains no comparisons"):
            build_mcm(
                golden_matrix(),
                MCMConfig(row_comparates=("Alpha",), column_comparates=("Alpha",)),
            )
        # An empty selection selects nothing; it is not a second spelling of "all".
        for config in (MCMConfig(row_comparates=()), MCMConfig(column_comparates=())):
            with pytest.raises(ValidationError, match="report contains no comparisons"):
                build_mcm(golden_matrix(), config)
        full = build_mcm(golden_matrix())
        with pytest.raises(ValidationError, match="report contains no comparisons"):
            render_mcm(dataclasses.replace(full, cells={}))


class TestCliqueRuns:
    def test_spec_pattern_two_overlapping_bars(self):
        # Five comparates, only adjacent pairs (0,1) and (1,2) non-significant.
        non_sig_pairs = {(0, 1), (1, 2)}

        def non_sig(i, j):
            return (min(i, j), max(i, j)) in non_sig_pairs

        assert contiguous_nonsignificant_runs(5, non_sig) == [(0, 1), (1, 2)]

    def test_contained_runs_dropped(self):
        def all_non_sig(i, j):
            return True

        assert contiguous_nonsignificant_runs(4, all_non_sig) == [(0, 3)]

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 16).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, 10),
                            st.lists(st.integers(0, 9), min_size=m * m, max_size=m * m))))
    def test_matches_loop_oracle(self, case):
        # A pair is non-significant with probability density / 10, so dense
        # predicates with long runs are drawn as well as sparse ones.
        m, density, draws = case

        def non_sig(i, j):
            return draws[min(i, j) * m + max(i, j)] < density

        assert contiguous_nonsignificant_runs(m, non_sig) == contiguous_runs_loop(m, non_sig)

    def test_each_pair_tested_at_most_once(self):
        calls = []

        def all_non_sig(i, j):
            calls.append((i, j))
            return True

        contiguous_nonsignificant_runs(30, all_non_sig)
        assert len(calls) == len(set(calls)) == 30 * 29 // 2


class TestCdDiagram:
    def test_golden_bytes(self):
        metadata = {"fixture": "golden", "alpha": 0.05}
        assert render_cd_diagram(
            golden_matrix(), 0.05, "nemenyi", metadata=metadata
        ) == (GOLDEN / "cd_nemenyi.svg").read_bytes()
        assert render_cd_diagram(
            golden_matrix(), 0.05, "wilcoxon-holm", metadata=metadata
        ) == (GOLDEN / "cd_wilcoxon_holm.svg").read_bytes()

    def test_positions_affine_and_order_preserving(self):
        layout = cd_layout(golden_matrix(), 0.05, "nemenyi")
        m = len(layout.names)
        for ar, pos in zip(layout.average_ranks, layout.positions):
            assert pos == (m - ar) / (m - 1)
        assert list(layout.positions) == sorted(layout.positions, reverse=True)

    def test_best_average_rank_at_the_right(self):
        matrix = golden_matrix()
        layout = cd_layout(matrix, 0.05, "nemenyi")
        assert layout.average_ranks[0] == min(layout.average_ranks)
        assert layout.positions[0] == max(layout.positions)

    def test_dominant_comparate_has_rank_one(self):
        scores = np.vstack(
            [np.full(6, 0.99), np.random.default_rng(1).uniform(0.1, 0.8, size=(3, 6))]
        )
        matrix = ResultsMatrix(
            ("champ", "b", "c", "d"), tuple(f"t{j}" for j in range(6)), scores,
            Direction.HIGHER_IS_BETTER,
        )
        layout = cd_layout(matrix, 0.05, "nemenyi")
        assert layout.names[0] == "champ"
        assert layout.average_ranks[0] == 1.0
        assert layout.positions[0] == 1.0

    def test_full_tie_single_bar_spanning_all(self):
        matrix = ResultsMatrix(
            ("a", "b", "c"),
            ("t1", "t2"),
            np.full((3, 2), 0.5),
            Direction.HIGHER_IS_BETTER,
        )
        layout = cd_layout(matrix, 0.05, "nemenyi")
        assert set(layout.average_ranks) == {2.0}  # (m + 1) / 2
        assert layout.bars == ((0, 2),)

    def test_size_guards(self):
        two = ResultsMatrix(
            ("a", "b"), ("t1", "t2"), np.array([[1.0, 2.0], [3.0, 4.0]]), "higher"
        )
        with pytest.raises(TooFewComparates):
            render_cd_diagram(two, 0.05, "nemenyi")
        one_task = ResultsMatrix(
            ("a", "b", "c"), ("t1",), np.array([[1.0], [2.0], [3.0]]), "higher"
        )
        with pytest.raises(TooFewTasks):
            render_cd_diagram(one_task, 0.05, "nemenyi")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            render_cd_diagram(golden_matrix(), 0.05, "bonferroni")


def test_pattern_graph_renders_edges():
    pattern = pattern_from_bitmask(("a", "b", "c", "d"), 0b000011)
    svg = render_pattern_graph(pattern).decode()
    assert svg.count("<line") == 2
    assert svg.count("<circle") == 4
    assert render_pattern_graph(pattern) == render_pattern_graph(pattern)
