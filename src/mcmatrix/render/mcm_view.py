"""Comparison-grid rendering: SVG heatmap and standalone HTML."""

from __future__ import annotations

import io

from ..errors import ValidationError
from ..mcm import MCMReport
from .core import SvgDoc, _escape, _metadata_json, fnum
from .style import (
    CELL_DECIMAL_PLACES,
    CELL_HEIGHT,
    CELL_WIDTH,
    FONT_SIZE,
    HEADER_HEIGHT,
    LABEL_WIDTH,
    PADDING,
    _diverging_fills,
)

__all__ = ["render_mcm"]

_TITLE = "Pairwise comparison matrix"
# The HTML page up to its metadata, which the figure and the table follow.
_HTML_HEAD = (
    '<!DOCTYPE html>\n<html lang="en">\n<head>\n<meta charset="utf-8"/>\n'
    f"<title>{_TITLE}</title>\n"
    "<style>body{font-family:Helvetica,Arial,sans-serif;margin:1em;}"
    "table{border-collapse:collapse;margin-top:1em;}"
    "td,th{border:1px solid #999;padding:4px 8px;font-size:12px;}</style>\n"
    "</head>\n<body>\n"
)


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

    Each grid row is joined and encoded as it is formed, into the one
    buffer whose value is returned, so the writer never holds the page as
    text; the HTML table's rows go into a second buffer, appended after the
    figure.
    """
    fmt = str(format).strip().lower()
    if fmt not in ("svg", "html"):
        raise ValidationError(f"unknown render format {format!r}")
    if not report.cells:
        raise ValidationError("report contains no comparisons")

    # Each unordered pair is one row of the cells' table, read in both
    # orientations.  A zero difference is white whatever the limit, so a
    # limit of 0 is never divided by.
    pairs = report.cells.table
    magnitude = abs(pairs.mean_difference)
    limit = float(magnitude.max())
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
    # expression a per-cell computation would use, into the markup that
    # runs up to the cell's next value.  Cell texts are numbers, slashes
    # and "p = ", which need no escaping.
    xs = [x0 + j * CELL_WIDTH for j in range(len(cols))]
    col_x = [fnum(x) for x in xs]
    text_head = [f'<text x="{fnum(x + CELL_WIDTH / 2.0)}" y="' for x in xs]
    ys = [y0 + i * CELL_HEIGHT for i in range(len(rows))]
    row_y = [fnum(y) for y in ys]
    row_text_y = [
        [f'{fnum(y + CELL_HEIGHT / 2.0 + (k - 1) * 1.25 * fs + 0.35 * fs)}"' for k in range(3)]
        for y in ys
    ]
    size = f'width="{fnum(CELL_WIDTH)}" height="{fnum(CELL_HEIGHT)}"'
    stroke = f'stroke="#bbbbbb" stroke-width="{fnum(1.0)}"'
    fill_end = f'" {stroke} class="cell-bg"/>\n'
    text = f' font-family={SvgDoc.family} font-size="{fnum(fs, 1)}" text-anchor="middle"'
    bold = text + ' font-weight="bold"'

    # A pair's p label is the same in both orientations; p is never
    # negative, so its label needs no zero rule.  So are |mean| and
    # its fill's t: the mean label and fill of a cell are its pair's, picked
    # by the sign of its value (a value that rounds to zero reads 0.0000).
    p_labels = [f"{p:.{places}f}" for p in pairs.p_value.tolist()]
    digits = [f"{x:.{places}f}" for x in magnitude.tolist()]
    zero = fnum(0.0, places)
    negative = [d if d == zero else "-" + d for d in digits]
    fill_positive, fill_negative = _diverging_fills(magnitude, limit)
    row_html = [_escape(r) for r in rows]
    col_html = [_escape(c) for c in cols]
    out = io.BytesIO()
    table = io.BytesIO() if fmt == "html" else None
    if table is not None:
        out.write(_HTML_HEAD.encode("utf-8"))
        if metadata is not None:
            out.write(f'<script type="application/json" id="run-metadata">'
                      f'{_metadata_json(metadata)}</script>\n'.encode("utf-8"))
        out.write(f'<h1>{_TITLE}</h1>\n<div class="figure">\n'.encode("utf-8"))
        table.write(b"<table>\n<tr><th>row</th><th>column</th><th>mean difference</th>"
                    b"<th>wins / ties / losses</th><th>p</th><th>significant</th></tr>\n")
    doc.group_start("cells")
    out.write("\n".join([*doc.lines(metadata), ""]).encode("utf-8"))
    # A grid row is joined and encoded as it is formed: each cell, diagonal
    # and table row ends its own line.
    for i in range(len(rows)):
        y = row_y[i]
        rect_y = f'" y="{y}" {size} fill="'
        y_mean, y_wtl, y_p = row_text_y[i]
        at, items, (_, _, means, wins, ties, losses, p_values, _) = report.cells.row(i)
        cells = [None] * len(cols)  # None is the diagonal
        html = []
        for j, k, mean_difference, w, t, l, p_value in zip(at, items, means, wins, ties,
                                                           losses, p_values):
            significant = p_value < alpha
            if mean_difference > 0.0:
                mean, fill = digits[k], fill_positive[k]
            else:
                mean, fill = negative[k], fill_negative[k]
            wtl = f"{w} / {t} / {l}"
            head = text_head[j]
            attrs = bold if significant else text
            cells[j] = (
                f'<rect x="{col_x[j]}{rect_y}{fill}{fill_end}'
                f'{head}{y_mean}{attrs}>{mean}</text>\n'
                f'{head}{y_wtl}{attrs}>{wtl}</text>\n'
                f'{head}{y_p}{attrs}>p = {p_labels[k]}</text>\n'
            )
            if table is not None:
                html.append(
                    f"<tr><td>{row_html[i]}</td><td>{col_html[j]}</td><td>{mean}</td>"
                    f"<td>{wtl}</td><td>{p_labels[k]}</td>"
                    f"<td>{'yes' if significant else 'no'}</td></tr>\n"
                )
        out.write("".join(
            cell or f'<rect x="{col_x[j]}" y="{y}" {size} fill="#f2f2f2" {stroke} '
                    'class="diagonal"/>\n' for j, cell in enumerate(cells)).encode("utf-8"))
        if table is not None:
            table.write("".join(html).encode("utf-8"))
    out.write(b"</g>\n</svg>\n")
    if table is not None:
        out.write(b"</div>\n")
        out.write(table.getvalue())
        out.write(b"</table>\n</body>\n</html>\n")
    return out.getvalue()
