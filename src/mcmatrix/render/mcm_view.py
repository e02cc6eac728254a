"""Comparison-grid rendering: SVG heatmap and standalone HTML."""

from __future__ import annotations

from xml.sax.saxutils import escape

from ..errors import ValidationError
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
    exactly when p < alpha.  Mean performance is printed next to each
    comparate label.  HTML adds a table row per cell with the same labels.
    Output bytes are a pure function of (report, format, metadata).
    """
    fmt = str(format).strip().lower()
    if fmt not in ("svg", "html"):
        raise ValidationError(f"unknown render format {format!r}")
    if not report.cells:
        raise ValidationError("report contains no comparisons")

    # Each unordered pair is one row of the cells' table, read in both
    # orientations.  A zero difference is white whatever the limit, so a
    # limit of 0 is never divided by.
    pairs, index = report.cells.table, report.cells.index
    limit = max(map(abs, pairs.mean_difference))
    places = CELL_DECIMAL_PLACES
    rows, cols = report.row_order, report.column_order
    alpha = report.alpha

    width = PADDING * 2 + LABEL_WIDTH + CELL_WIDTH * len(cols)
    height = PADDING * 2 + HEADER_HEIGHT + CELL_HEIGHT * len(rows)
    doc = SvgDoc(width, height)

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

    # Every cell of a column shares its x strings and every cell of a row
    # its y strings, so each coordinate is formatted once, from the same
    # expression a per-cell computation would use.  Cell texts are numbers,
    # slashes and "p = ", which need no escaping.
    xs = [x0 + j * CELL_WIDTH for j in range(len(cols))]
    col_x = [fnum(x) for x in xs]
    col_cx = [fnum(x + CELL_WIDTH / 2.0) for x in xs]
    ys = [y0 + i * CELL_HEIGHT for i in range(len(rows))]
    row_y = [fnum(y) for y in ys]
    row_text_y = [
        [fnum(y + CELL_HEIGHT / 2.0 + (k - 1) * 1.25 * fs + 0.35 * fs) for k in range(3)]
        for y in ys
    ]
    size = f'width="{fnum(CELL_WIDTH)}" height="{fnum(CELL_HEIGHT)}"'
    stroke = f'stroke="#bbbbbb" stroke-width="{fnum(1.0)}"'
    text = f' font-family={SvgDoc.family} font-size="{fnum(fs, 1)}" text-anchor="middle"'
    bold = text + ' font-weight="bold"'

    table = [
        "<table>\n<tr><th>row</th><th>column</th><th>mean difference</th>"
        "<th>wins / ties / losses</th><th>p</th><th>significant</th></tr>"
    ] if fmt == "html" else None
    # A pair's p label is the same in both orientations.
    p_labels = [fnum(p, places) for p in pairs.p_value]
    row_html = [escape(r) for r in rows]
    col_html = [escape(c) for c in cols]
    doc.group_start("cells")
    for i, r in enumerate(rows):
        y = row_y[i]
        y_mean, y_wtl, y_p = row_text_y[i]
        for j, c in enumerate(cols):
            x = col_x[j]
            if r == c:
                doc.raw(f'<rect x="{x}" y="{y}" {size} fill="#f2f2f2" {stroke} '
                        'class="diagonal"/>')
                continue
            k, reverse = index[(r, c)]
            _, _, mean_difference, wins, ties, losses, p_value, _ = pairs.fields(k, reverse)
            significant = p_value < alpha
            mean = fnum(mean_difference, places)
            wtl = f"{wins} / {ties} / {losses}"
            p = p_labels[k]
            cx = col_cx[j]
            attrs = bold if significant else text
            doc.raw(
                f'<rect x="{x}" y="{y}" {size} '
                f'fill="{diverging_color(mean_difference, limit)}" {stroke} '
                'class="cell-bg"/>\n'
                f'<text x="{cx}" y="{y_mean}"{attrs}>{mean}</text>\n'
                f'<text x="{cx}" y="{y_wtl}"{attrs}>{wtl}</text>\n'
                f'<text x="{cx}" y="{y_p}"{attrs}>p = {p}</text>'
            )
            if table is not None:
                table.append(
                    f"<tr><td>{row_html[i]}</td><td>{col_html[j]}</td><td>{mean}</td>"
                    f"<td>{wtl}</td><td>{p}</td>"
                    f"<td>{'yes' if significant else 'no'}</td></tr>"
                )
    doc.group_end()

    page = doc.tostring(metadata)
    if table is not None:
        table.append("</table>")
        page = wrap_html(page, "\n".join(table), metadata)
    return page.encode("utf-8")
