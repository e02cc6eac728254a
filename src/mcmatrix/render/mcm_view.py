"""Comparison-grid rendering: SVG heatmap and standalone HTML."""

from __future__ import annotations

from xml.sax.saxutils import escape

from ..errors import EmptyReport, ValidationError
from ..mcm import MCMReport
from .core import SvgDoc, fnum, wrap_html
from .style import (
    CELL_DECIMAL_PLACES,
    CELL_HEIGHT,
    CELL_WIDTH,
    FONT_SIZE,
    HEADER_HEIGHT,
    LABEL_WIDTH,
    PADDING,
    diverging_color,
)

__all__ = ["render_mcm"]


def render_mcm(
    report: MCMReport,
    format: str = "svg",
    metadata: dict | None = None,
) -> bytes:
    """Render a report as SVG, or as HTML embedding the identical SVG.

    Cell fill encodes the mean difference on a diverging scale (white at
    zero) that saturates at the largest |mean difference|.  Text shows the
    mean difference, the win/tie/loss count, and the Wilcoxon p, in bold
    exactly when the cell is significant.  Mean performance is printed next
    to each comparate label.  HTML adds a table row per cell with the same
    labels.  Output bytes are a pure function of (report, format, metadata).
    """
    fmt = str(format).strip().lower()
    if fmt not in ("svg", "html"):
        raise ValidationError(f"unknown render format {format!r}")
    if not report.cells:
        raise EmptyReport("report contains no comparisons")

    # A zero difference is white whatever the limit, so a limit of 0 is
    # never divided by.
    limit = max(abs(c.mean_difference) for c in report.cells.values())
    places = CELL_DECIMAL_PLACES
    rows, cols = report.row_order, report.column_order

    width = PADDING * 2 + LABEL_WIDTH + CELL_WIDTH * len(cols)
    height = PADDING * 2 + HEADER_HEIGHT + CELL_HEIGHT * len(rows)
    doc = SvgDoc(width, height)
    doc.rect(0, 0, width, height, fill="#ffffff")

    x0 = PADDING + LABEL_WIDTH
    y0 = PADDING + HEADER_HEIGHT
    fs = FONT_SIZE

    doc.group_start("column-labels")
    for j, name in enumerate(cols):
        cx = x0 + (j + 0.5) * CELL_WIDTH
        doc.text(cx, PADDING + fs, name, fs)
        doc.text(
            cx,
            PADDING + 2.4 * fs,
            f"({fnum(report.mean_performance[name], places)})",
            fs * 0.9,
        )
    doc.group_end()

    doc.group_start("row-labels")
    for i, name in enumerate(rows):
        cy = y0 + (i + 0.5) * CELL_HEIGHT
        rx = PADDING + LABEL_WIDTH - 8.0
        doc.text(rx, cy - 0.25 * fs, name, fs, anchor="end")
        doc.text(
            rx,
            cy + 1.05 * fs,
            f"({fnum(report.mean_performance[name], places)})",
            fs * 0.9,
            anchor="end",
        )
    doc.group_end()

    table = [
        "<table>\n<tr><th>row</th><th>column</th><th>mean difference</th>"
        "<th>wins / ties / losses</th><th>p</th><th>significant</th></tr>"
    ] if fmt == "html" else None
    doc.group_start("cells")
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            x = x0 + j * CELL_WIDTH
            y = y0 + i * CELL_HEIGHT
            if r == c:
                doc.rect(x, y, CELL_WIDTH, CELL_HEIGHT,
                         fill="#f2f2f2", stroke="#bbbbbb", extra='class="diagonal"')
                continue
            cell = report.cells[(r, c)]
            fill = diverging_color(cell.mean_difference, limit)
            doc.rect(x, y, CELL_WIDTH, CELL_HEIGHT,
                     fill=fill, stroke="#bbbbbb", extra='class="cell-bg"')
            significant = report.significance[(r, c)]
            mean = fnum(cell.mean_difference, places)
            wtl = f"{cell.wins} / {cell.ties} / {cell.losses}"
            p = fnum(cell.p_value, places)
            cx = x + CELL_WIDTH / 2.0
            for k, line in enumerate((mean, wtl, f"p = {p}")):
                cy = y + CELL_HEIGHT / 2.0 + (k - 1) * 1.25 * fs + 0.35 * fs
                doc.text(cx, cy, line, fs, bold=significant)
            if table is not None:
                table.append(
                    f"<tr><td>{escape(r)}</td><td>{escape(c)}</td><td>{mean}</td>"
                    f"<td>{wtl}</td><td>{p}</td>"
                    f"<td>{'yes' if significant else 'no'}</td></tr>"
                )
    doc.group_end()

    svg = doc.tobytes(metadata)
    if table is None:
        return svg
    table.append("</table>")
    return wrap_html(svg, "Pairwise comparison matrix", "\n".join(table), metadata)
