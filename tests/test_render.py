import dataclasses
import math
import re
from xml.sax.saxutils import escape, quoteattr

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from mcmatrix.render import cd_view, contiguous_nonsignificant_runs, diverging_color
from mcmatrix.render.core import _escape, _quoteattr, fnum
from mcmatrix.render.style import COLOR_NEGATIVE, COLOR_POSITIVE, _diverging_fills
from mcmatrix.stability import SignificancePattern

from conftest import GOLDEN, golden_matrix
from oracles import contiguous_runs_loop, diverging_color_scalar


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

    @staticmethod
    def _assert_matches_the_scalar_oracle(values, limit):
        # Each value's fill, from the array rule (as a pair and its mirror
        # share it) and from the one-value call, against the scalar rule.
        positive, negative = _diverging_fills(np.abs(np.array(values, dtype=np.float64)), limit)
        want = [diverging_color_scalar(v, limit) for v in values]
        assert [p if v > 0.0 else q for v, p, q in zip(values, positive, negative)] == want
        assert [diverging_color(v, limit) for v in values] == want

    # A power-of-two limit makes value / limit an exact fraction a / 2^j, so
    # a channel's 255 + (c - 255) * t can land exactly on .5; other limits,
    # subnormal ones included, and values past the limit, subnormal values
    # and zeros of both signs come from the float strategies.
    @given(
        st.one_of(st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
                  st.floats(min_value=5e-324, max_value=1e308)),
        st.lists(st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -1e300, 5e-324]),
            st.tuples(st.integers(-2**10, 2**10), st.integers(0, 10))
              .map(lambda aj: math.ldexp(aj[0], -aj[1])),
            st.floats(allow_nan=False, allow_infinity=False),
        ), min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    @example(1.0, [0.5, -0.5, 1 / 16, -1 / 16, 3 / 32, 0.0, -0.0])
    def test_array_rule_matches_the_scalar_oracle(self, limit, fractions):
        # Drawn fractions and constants are scaled by the limit: +-1 is the
        # limit itself, +-2 past it.
        values = [x if abs(x) > 2.0 or x == 0.0 or x == 5e-324 else x * limit
                  for x in fractions]
        self._assert_matches_the_scalar_oracle(values, limit)

    def test_levels_that_land_on_a_half_round_to_even(self):
        # t = 1/2 puts the positive green and the negative blue channel on
        # x.5 exactly, and t = 1/16 the positive red: 151.5, 217.5, 252.5.
        halves = {255 + (int(color[i:i + 2], 16) - 255) * t
                  for t in (0.5, 1 / 16) for color in (COLOR_POSITIVE, COLOR_NEGATIVE)
                  for i in (1, 3, 5)}
        assert {151.5, 217.5, 252.5} <= halves
        self._assert_matches_the_scalar_oracle([0.5, -0.5, 1 / 16, -1 / 16], 1.0)
        assert diverging_color(0.5, 1.0) == "#eb9893"  # 151.5 rounds to 152 (0x98)


@given(st.text(st.sampled_from("ab&<>\"'\n\r\t \u00e9;#"), max_size=12) | st.text())
@settings(max_examples=300, deadline=None)
def test_escaping_follows_the_standard_library(value):
    assert _escape(value) == escape(value)
    assert _quoteattr(value) == quoteattr(value)


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

    # Scores whose differences fall on and around the label's half unit,
    # 5e-5, or round to 0.0000 with either sign.
    @given(st.integers(2, 5).flatmap(lambda m: st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(
            st.sampled_from([0.0, 1e-5, 4.9e-5, 5e-5, 5.1e-5, 1.5e-4, 2.5e-4, 0.3, 1e-300]),
            min_size=n, max_size=n), min_size=m, max_size=m))),
        st.lists(st.sampled_from([1.0, -1.0]), min_size=15, max_size=15))
    @settings(max_examples=150, deadline=None)
    def test_each_cell_label_and_fill_follow_its_value(self, rows, signs):
        scores = np.array(rows) * np.resize(signs, (len(rows), 1))
        matrix = ResultsMatrix(tuple(f"c{i}" for i in range(len(rows))),
                               tuple(f"t{j}" for j in range(scores.shape[1])), scores,
                               Direction.HIGHER_IS_BETTER)
        report = build_mcm(matrix)
        html = render_mcm(report, format="html").decode()
        cells = list(report.cells.values())
        limit = max(abs(cell.mean_difference) for cell in cells)
        assert re.findall(r'fill="(#\w{6})"[^>]*class="cell-bg"', html) == [
            diverging_color_scalar(cell.mean_difference, limit) for cell in cells]
        assert re.findall(r"<tr><td>c\d</td><td>c\d</td><td>([^<]*)</td>", html) == [
            fnum(cell.mean_difference, 4) for cell in cells]

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
        # Five comparates, only adjacent pairs (0,1) and (1,2) joined.
        joined = np.zeros((5, 5), dtype=bool)
        joined[[0, 1], [1, 2]] = True
        assert contiguous_nonsignificant_runs(joined) == [(0, 1), (1, 2)]

    def test_contained_runs_dropped(self):
        assert contiguous_nonsignificant_runs(np.ones((4, 4), dtype=bool)) == [(0, 3)]

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 16).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, 10),
                            st.lists(st.integers(0, 9), min_size=m * m, max_size=m * m))))
    def test_matches_loop_oracle(self, case):
        # A pair is joined with probability density / 10, so dense matrices
        # with long runs are drawn as well as sparse ones.  The oracle reads
        # each pair above the diagonal; the lower triangle is drawn apart.
        m, density, draws = case
        joined = np.array(draws, dtype=np.int64).reshape(m, m) < density
        assert contiguous_nonsignificant_runs(joined) == contiguous_runs_loop(
            m, lambda i, j: joined[min(i, j), max(i, j)])

    def test_only_the_upper_triangle_is_read(self):
        # The diagonal and the lower triangle are noise: the runs follow the
        # pairs above the diagonal alone.
        rng = np.random.default_rng(12)
        for m in (1, 2, 5, 30):
            for density in (0.3, 0.8, 1.0):
                upper = np.triu(rng.random((m, m)) < density, 1)
                expected = contiguous_runs_loop(m, lambda i, j: upper[min(i, j), max(i, j)])
                for _ in range(5):
                    noise = np.tril(rng.random((m, m)) < 0.5)
                    assert contiguous_nonsignificant_runs(upper | noise) == expected


class TestCdDiagram:
    def test_a_gap_equal_to_the_critical_difference_is_joined(self, monkeypatch):
        # No tabulated critical difference equals an average-rank gap that a
        # table can reach (searched over m 3-20 and n 2-1,000), so the
        # boundary is pinned with the CD patched onto a gap: a, b and c
        # rank 1.0, 2.5 and 2.5.
        matrix = ResultsMatrix(("a", "b", "c"), ("t1", "t2"),
                               np.array([[3.0, 3.0], [2.0, 1.0], [1.0, 2.0]]),
                               Direction.HIGHER_IS_BETTER)
        monkeypatch.setattr(cd_view, "nemenyi_critical_difference", lambda m, n, alpha: 1.5)
        layout = cd_layout(matrix, 0.05, "nemenyi")
        assert layout.average_ranks == (1.0, 2.5, 2.5)
        assert layout.bars == ((0, 2),)

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
    pattern = SignificancePattern(("a", "b", "c", "d"), 0b000011)
    svg = render_pattern_graph(pattern).decode()
    assert svg.count("<line") == 2
    assert svg.count("<circle") == 4
    assert render_pattern_graph(pattern) == render_pattern_graph(pattern)
