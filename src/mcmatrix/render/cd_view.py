"""Critical-difference diagram rendering.

Comparates sit on a horizontal axis at their average ranks with the best
(lowest) average rank at the right.  Pairs whose differences are not
statistically significant are joined with horizontal bars: maximal
rank-contiguous runs in which every pair is joined.  Each test decides
the joined pairs once, as one boolean matrix in average-rank order: under
the rank-based test a pair is joined when its average-rank gap stays
within the critical difference, under the signed-rank/Holm variant when
Holm leaves it non-significant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import ResultsMatrix
from ..errors import ValidationError
from ..stats import compute_ranks, holm_significance, nemenyi_critical_difference
from .core import SvgDoc, fnum
from .style import CD_AXIS_WIDTH, CD_BAR_SPACING, CD_ROW_HEIGHT, FONT_SIZE, PADDING

__all__ = [
    "CdLayout",
    "cd_layout",
    "render_cd_diagram",
    "contiguous_nonsignificant_runs",
]


@dataclass(frozen=True)
class CdLayout:
    """Geometry-free layout: AR-sorted names, their positions on the unit
    axis, (m - ar) / (m - 1) (best at the right, 1.0), and the index runs
    to join with bars."""

    names: tuple[str, ...]
    average_ranks: tuple[float, ...]
    positions: tuple[float, ...]
    bars: tuple[tuple[int, int], ...]
    critical_difference: float | None
    alpha: float
    method: str


def contiguous_nonsignificant_runs(joined) -> list[tuple[int, int]]:
    """Maximal index runs [i, j] in which every contained pair is joined.
    Runs fully contained in a longer run are dropped.

    ``joined`` is a square boolean matrix; only its strict upper triangle
    is read.  ``lo[b]`` is the smallest ``a`` such that every pair
    ``(a', b)`` with ``a <= a' < b`` is joined, one past the last pair of
    column ``b`` that is not, so ``b`` extends a run that starts at ``i``
    iff ``lo[b] <= i``.  The run ends never decrease with ``i``, so a run is
    contained in an earlier one iff it ends where the last kept run ends.
    """
    apart = np.triu(~np.asarray(joined, dtype=bool), 1)
    count = len(apart)
    if not count:
        return []
    lo = np.where(apart.any(0), count - np.argmax(apart[::-1], 0), 0).tolist()
    runs: list[tuple[int, int]] = []
    j = last_end = 0
    for i in range(count):
        j = max(j, i)
        while j + 1 < count and lo[j + 1] <= i:
            j += 1
        if j > i and j > last_end:
            runs.append((i, j))
            last_end = j
    return runs


def _unit_position(ar: float, m: int) -> float:
    # Affine in AR, decreasing: rank 1 maps to 1.0, rank m to 0.0.
    return (m - ar) / (m - 1)


def cd_layout(
    matrix: ResultsMatrix,
    alpha: float = 0.05,
    pairwise_method: str = "nemenyi",
) -> CdLayout:
    """Compute everything the diagram needs, independent of page geometry.
    ``pairwise_method`` is ``"nemenyi"`` or ``"wilcoxon-holm"``, spelled so."""
    if pairwise_method not in ("nemenyi", "wilcoxon-holm"):
        raise ValidationError(
            f"unknown pairwise method {pairwise_method!r}; "
            "expected 'nemenyi' or 'wilcoxon-holm'"
        )
    if matrix.m < 3:
        raise ValidationError("a rank diagram needs at least three comparates")
    if matrix.n < 2:
        raise ValidationError("a rank diagram needs at least two tasks")

    table = compute_ranks(matrix)
    # Names are distinct, so the sort never reaches the positions.
    ars, names, order = zip(*sorted(zip(table.average_ranks.tolist(), matrix.comparates,
                                        range(matrix.m))))
    positions = tuple(_unit_position(ar, matrix.m) for ar in ars)

    cd: float | None = None
    if pairwise_method == "nemenyi":
        cd = nemenyi_critical_difference(matrix.m, matrix.n, alpha)
        joined = np.abs(np.subtract.outer(ars, ars)) <= cd
    else:
        joined = ~holm_significance(matrix, matrix.comparates, alpha)[np.ix_(order, order)]
    bars = tuple(contiguous_nonsignificant_runs(joined))
    return CdLayout(
        names=names,
        average_ranks=ars,
        positions=positions,
        bars=bars,
        critical_difference=cd,
        alpha=float(alpha),
        method=pairwise_method,
    )


def render_cd_diagram(
    matrix: ResultsMatrix,
    alpha: float = 0.05,
    pairwise_method: str = "nemenyi",
    metadata: dict | None = None,
) -> bytes:
    """Render the diagram as SVG bytes; deterministic for fixed inputs."""
    m = matrix.m
    pad = PADDING
    left = pad + 40.0
    layout = cd_layout(matrix, alpha, pairwise_method)
    xs = [left + u * CD_AXIS_WIDTH for u in layout.positions]

    fs = FONT_SIZE
    right_count = (m + 1) // 2  # best half labelled on the right
    left_count = m - right_count
    bar_rows = _assign_bar_rows(layout.bars, xs)
    n_bar_rows = (max(bar_rows) + 1) if bar_rows else 0

    axis_y = pad + 2.6 * fs + (2.0 * fs if layout.critical_difference else 0.0)
    bars_top = axis_y + 14.0
    labels_top = bars_top + n_bar_rows * CD_BAR_SPACING + 10.0
    height = labels_top + max(right_count, left_count) * CD_ROW_HEIGHT + pad
    width = left + CD_AXIS_WIDTH + 40.0 + pad
    doc = SvgDoc(width, height)

    title = (
        f"alpha = {fnum(layout.alpha, 2)}, "
        + (
            f"critical difference = {fnum(layout.critical_difference, 4)}"
            if layout.critical_difference is not None
            else "Wilcoxon signed-rank with Holm correction"
        )
    )
    doc.text(left + CD_AXIS_WIDTH / 2.0, pad + fs, title, fs)

    # CD ruler above the axis.
    if layout.critical_difference is not None:
        unit = CD_AXIS_WIDTH / (m - 1)
        ruler_len = min(layout.critical_difference, float(m - 1)) * unit
        rx = left + CD_AXIS_WIDTH - ruler_len
        ry = pad + 2.2 * fs
        doc.line(rx, ry, rx + ruler_len, ry, width=1.5)
        doc.line(rx, ry - 4, rx, ry + 4)
        doc.line(rx + ruler_len, ry - 4, rx + ruler_len, ry + 4)

    # Axis with integer rank ticks, best rank at the right.
    doc.group_start("axis")
    doc.line(left, axis_y, left + CD_AXIS_WIDTH, axis_y, width=1.5)
    for rank in range(1, m + 1):
        x = left + _unit_position(float(rank), m) * CD_AXIS_WIDTH
        doc.line(x, axis_y - 4, x, axis_y + 4)
        doc.text(x, axis_y - 8, str(rank), fs * 0.9)
    doc.group_end()

    # Joining bars.
    doc.group_start("bars")
    for (i, j), row in zip(layout.bars, bar_rows):
        y = bars_top + row * CD_BAR_SPACING
        doc.line(xs[j] - 3, y, xs[i] + 3, y, width=3.0)
    doc.group_end()

    # Labels: best half on the right, rest on the left, with connectors.
    doc.group_start("labels")
    right_x = left + CD_AXIS_WIDTH + 36.0
    left_x = left - 36.0
    for idx, name in enumerate(layout.names):
        on_right = idx < right_count
        slot = idx if on_right else (m - 1 - idx)
        y = labels_top + slot * CD_ROW_HEIGHT
        x_label = right_x if on_right else left_x
        anchor = "start" if on_right else "end"
        px = xs[idx]
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
    return doc.tostring(meta).encode("utf-8")


def _assign_bar_rows(bars: tuple[tuple[int, int], ...], xs: list[float]) -> list[int]:
    """Greedy stagger: overlapping bars (at pixel positions ``xs``) land on
    different rows."""
    rows: list[int] = []
    occupied: list[list[tuple[float, float]]] = []
    for i, j in bars:
        lo, hi = xs[j], xs[i]
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
