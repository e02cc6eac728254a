"""Critical-difference diagram rendering.

Comparates sit on a horizontal axis at their average ranks with the best
(lowest) average rank at the right.  Pairs whose differences are not
statistically significant are joined with horizontal bars: under the
rank-based test, groups whose average-rank spread stays within the
critical difference; under the signed-rank/Holm variant, maximal
rank-contiguous runs in which every pair is non-significant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..data import ResultsMatrix
from ..errors import TooFewComparates, TooFewTasks, ValidationError
from ..stats import (
    compute_ranks,
    holm_significance,
    nemenyi_critical_difference,
    pair_id,
)
from .core import SvgDoc, fnum
from .style import RenderStyle

__all__ = [
    "CdLayout",
    "cd_layout",
    "render_cd_diagram",
    "contiguous_nonsignificant_runs",
]


@dataclass(frozen=True)
class CdLayout:
    """Geometry-free layout: AR-sorted names, their positions on the axis
    (best at the right), and the index runs to join with bars."""

    names: tuple[str, ...]
    average_ranks: tuple[float, ...]
    positions: tuple[float, ...]
    bars: tuple[tuple[int, int], ...]
    critical_difference: float | None
    alpha: float
    method: str


def contiguous_nonsignificant_runs(
    count: int, non_significant: Callable[[int, int], bool]
) -> list[tuple[int, int]]:
    """Maximal index runs [i, j] in which every contained pair is
    non-significant.  Runs fully contained in a longer run are dropped."""
    runs: list[tuple[int, int]] = []
    for i in range(count):
        j = i
        while j + 1 < count and all(
            non_significant(a, j + 1) for a in range(i, j + 1)
        ):
            j += 1
        if j > i and not any(pi <= i and j <= pj for pi, pj in runs):
            runs.append((i, j))
    return runs


def _axis_position(ar: float, m: int, x_left: float, width: float) -> float:
    # Affine in AR, decreasing: rank 1 maps to the right edge, rank m to
    # the left edge.
    return x_left + (m - ar) / (m - 1) * width


def cd_layout(
    matrix: ResultsMatrix,
    alpha: float = 0.05,
    pairwise_method: str = "nemenyi",
    axis_left: float = 0.0,
    axis_width: float = 1.0,
) -> CdLayout:
    """Compute everything the diagram needs, independent of page geometry."""
    method = str(pairwise_method).strip().lower().replace("_", "-")
    if method not in ("nemenyi", "wilcoxon-holm"):
        raise ValidationError(
            f"unknown pairwise method {pairwise_method!r}; "
            "expected 'nemenyi' or 'wilcoxon-holm'"
        )
    if matrix.m < 3:
        raise TooFewComparates("a rank diagram needs at least three comparates")
    if matrix.n < 2:
        raise TooFewTasks("a rank diagram needs at least two tasks")

    table = compute_ranks(matrix)
    order = sorted(
        range(matrix.m), key=lambda i: (table.average_ranks[i], matrix.comparates[i])
    )
    names = tuple(matrix.comparates[i] for i in order)
    ars = tuple(float(table.average_ranks[i]) for i in order)
    positions = tuple(_axis_position(ar, matrix.m, axis_left, axis_width) for ar in ars)

    cd: float | None = None
    if method == "nemenyi":
        cd = nemenyi_critical_difference(matrix.m, matrix.n, alpha)

        def non_sig(i: int, j: int) -> bool:
            return abs(ars[j] - ars[i]) <= cd

    else:
        flags = holm_significance(matrix, matrix.comparates, alpha)

        def non_sig(i: int, j: int) -> bool:
            return not flags[pair_id(names[i], names[j])]

    bars = tuple(contiguous_nonsignificant_runs(matrix.m, non_sig))
    return CdLayout(
        names=names,
        average_ranks=ars,
        positions=positions,
        bars=bars,
        critical_difference=cd,
        alpha=float(alpha),
        method=method,
    )


def render_cd_diagram(
    matrix: ResultsMatrix,
    alpha: float = 0.05,
    pairwise_method: str = "nemenyi",
    style: RenderStyle = RenderStyle(),
    metadata: dict | None = None,
) -> bytes:
    """Render the diagram as SVG bytes; deterministic for fixed inputs."""
    m = matrix.m
    pad = style.padding
    axis_left = pad + 40.0
    layout = cd_layout(matrix, alpha, pairwise_method, axis_left, style.cd_axis_width)

    fs = style.font_size
    right_count = (m + 1) // 2  # best half labelled on the right
    left_count = m - right_count
    bar_rows = _assign_bar_rows(layout)
    n_bar_rows = (max(bar_rows) + 1) if bar_rows else 0

    axis_y = pad + 2.6 * fs + (2.0 * fs if layout.critical_difference else 0.0)
    bars_top = axis_y + 14.0
    labels_top = bars_top + n_bar_rows * style.cd_bar_spacing + 10.0
    height = labels_top + max(right_count, left_count) * style.cd_row_height + pad
    width = axis_left + style.cd_axis_width + 40.0 + pad
    doc = SvgDoc(width, height, style.font_family)
    doc.rect(0, 0, width, height, fill="#ffffff")

    title = (
        f"alpha = {fnum(layout.alpha, 2)}, "
        + (
            f"critical difference = {fnum(layout.critical_difference, 4)}"
            if layout.critical_difference is not None
            else "Wilcoxon signed-rank with Holm correction"
        )
    )
    doc.text(axis_left + style.cd_axis_width / 2.0, pad + fs, title, fs)

    # CD ruler above the axis.
    if layout.critical_difference is not None:
        unit = style.cd_axis_width / (m - 1)
        ruler_len = min(layout.critical_difference, float(m - 1)) * unit
        rx = axis_left + style.cd_axis_width - ruler_len
        ry = pad + 2.2 * fs
        doc.line(rx, ry, rx + ruler_len, ry, width=1.5)
        doc.line(rx, ry - 4, rx, ry + 4)
        doc.line(rx + ruler_len, ry - 4, rx + ruler_len, ry + 4)

    # Axis with integer rank ticks, best rank at the right.
    doc.group_start("axis")
    doc.line(axis_left, axis_y, axis_left + style.cd_axis_width, axis_y, width=1.5)
    for rank in range(1, m + 1):
        x = _axis_position(float(rank), m, axis_left, style.cd_axis_width)
        doc.line(x, axis_y - 4, x, axis_y + 4)
        doc.text(x, axis_y - 8, str(rank), fs * 0.9)
    doc.group_end()

    # Joining bars.
    doc.group_start("bars")
    for (i, j), row in zip(layout.bars, bar_rows):
        y = bars_top + row * style.cd_bar_spacing
        doc.line(layout.positions[j] - 3, y, layout.positions[i] + 3, y, width=3.0)
    doc.group_end()

    # Labels: best half on the right, rest on the left, with connectors.
    doc.group_start("labels")
    right_x = axis_left + style.cd_axis_width + 36.0
    left_x = axis_left - 36.0
    for idx, name in enumerate(layout.names):
        on_right = idx < right_count
        slot = idx if on_right else (m - 1 - idx)
        y = labels_top + slot * style.cd_row_height
        x_label = right_x if on_right else left_x
        anchor = "start" if on_right else "end"
        px = layout.positions[idx]
        doc.line(px, axis_y, px, y, stroke="#555555", width=1.0)
        doc.line(px, y, x_label - (6.0 if on_right else -6.0), y,
                 stroke="#555555", width=1.0)
        doc.text(
            x_label,
            y + 0.35 * fs,
            f"{name} ({fnum(layout.average_ranks[idx], 4)})",
            fs,
            anchor=anchor,
        )
    doc.group_end()

    meta = dict(metadata) if metadata else {}
    meta.setdefault("figure", "critical-difference-diagram")
    meta.setdefault("method", layout.method)
    return doc.tobytes(meta)


def _assign_bar_rows(layout: CdLayout) -> list[int]:
    """Greedy stagger: overlapping bars land on different rows."""
    rows: list[int] = []
    occupied: list[list[tuple[float, float]]] = []
    for i, j in layout.bars:
        lo, hi = layout.positions[j], layout.positions[i]
        row = 0
        while row < len(occupied) and any(
            not (hi < a or b < lo) for a, b in occupied[row]
        ):
            row += 1
        if row == len(occupied):
            occupied.append([])
        occupied[row].append((lo, hi))
        rows.append(row)
    return rows
