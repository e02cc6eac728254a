"""Comparison-grid rendering: SVG heatmap and standalone HTML."""

from __future__ import annotations

from xml.sax.saxutils import escape

from ..errors import EmptyReport, ValidationError
from ..mcm import MCMReport
from .core import SvgDoc, fnum, wrap_html
from .style import RenderStyle, diverging_color

__all__ = ["render_mcm", "resolve_scale_limit"]


def resolve_scale_limit(report: MCMReport, style: RenderStyle) -> float:
    if style.color_scale_limit is not None:
        return float(style.color_scale_limit)
    largest = max((abs(c.mean_difference) for c in report.cells.values()), default=0.0)
    return largest if largest > 0.0 else 1.0


def render_mcm(
    report: MCMReport,
    style: RenderStyle = RenderStyle(),
    format: str = "svg",
    metadata: dict | None = None,
) -> bytes:
    """Render a report as SVG, or as HTML embedding the identical SVG.

    Cell fill encodes the mean difference on a diverging scale (white at
    zero); text shows the mean difference, the win/tie/loss count, and the
    Wilcoxon p, in bold when the cell is significant.  Mean performance is
    printed next to each comparate label.  HTML adds a table row per cell
    with the same labels.  Output bytes are a pure function of (report,
    style, metadata).
    """
    fmt = str(format).strip().lower()
    if fmt not in ("svg", "html"):
        raise ValidationError(f"unknown render format {format!r}")
    if not report.cells:
        raise EmptyReport("report contains no comparisons")

    limit = resolve_scale_limit(report, style)
    places = int(style.cell_decimal_places)
    rows, cols = report.row_order, report.column_order

    width = style.padding * 2 + style.label_width + style.cell_width * len(cols)
    height = style.padding * 2 + style.header_height + style.cell_height * len(rows)
    doc = SvgDoc(width, height, style.font_family)
    doc.rect(0, 0, width, height, fill="#ffffff")

    x0 = style.padding + style.label_width
    y0 = style.padding + style.header_height
    fs = style.font_size

    doc.group_start("column-labels")
    for j, name in enumerate(cols):
        cx = x0 + (j + 0.5) * style.cell_width
        doc.text(cx, style.padding + fs, name, fs)
        doc.text(
            cx,
            style.padding + 2.4 * fs,
            f"({fnum(report.mean_performance[name], places)})",
            fs * 0.9,
        )
    doc.group_end()

    doc.group_start("row-labels")
    for i, name in enumerate(rows):
        cy = y0 + (i + 0.5) * style.cell_height
        rx = style.padding + style.label_width - 8.0
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
            x = x0 + j * style.cell_width
            y = y0 + i * style.cell_height
            if r == c:
                doc.rect(x, y, style.cell_width, style.cell_height,
                         fill="#f2f2f2", stroke="#bbbbbb", extra='class="diagonal"')
                continue
            cell = report.cells[(r, c)]
            fill = diverging_color(cell.mean_difference, limit, style)
            doc.rect(x, y, style.cell_width, style.cell_height,
                     fill=fill, stroke="#bbbbbb", extra='class="cell-bg"')
            significant = report.significance[(r, c)]
            bold = style.bold_significant and significant
            mean = fnum(cell.mean_difference, places)
            wtl = f"{cell.wins} / {cell.ties} / {cell.losses}"
            p = fnum(cell.p_value, places)
            cx = x + style.cell_width / 2.0
            for k, line in enumerate((mean, wtl, f"p = {p}")):
                cy = y + style.cell_height / 2.0 + (k - 1) * 1.25 * fs + 0.35 * fs
                doc.text(cx, cy, line, fs, bold=bold)
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

