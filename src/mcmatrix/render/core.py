"""Minimal deterministic SVG assembly.

Documents are built as ordered lists of element strings with fixed-point
number formatting, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
from xml.sax.saxutils import escape, quoteattr

__all__ = ["fnum", "SvgDoc", "wrap_html"]


def fnum(x: float, places: int = 2) -> str:
    """Fixed-point coordinates and value labels; negative zero is normalized."""
    s = f"{float(x):.{places}f}"
    if float(s) == 0.0:
        s = f"{0.0:.{places}f}"
    return s


class SvgDoc:
    """Accumulates SVG elements; ``tobytes`` emits the full document.

    Every text element uses the document's font ``family``.
    """

    def __init__(self, width: float, height: float, family: str):
        self.width = width
        self.height = height
        self._family = quoteattr(family)
        self._parts: list[str] = []

    def raw(self, fragment: str) -> None:
        self._parts.append(fragment)

    def rect(self, x, y, w, h, fill: str, stroke: str | None = None,
             stroke_width: float = 1.0, extra: str = "") -> None:
        attrs = (
            f'x="{fnum(x)}" y="{fnum(y)}" width="{fnum(w)}" height="{fnum(h)}" '
            f'fill="{fill}"'
        )
        if stroke is not None:
            attrs += f' stroke="{stroke}" stroke-width="{fnum(stroke_width)}"'
        if extra:
            attrs += " " + extra
        self._parts.append(f"<rect {attrs}/>")

    def line(self, x1, y1, x2, y2, stroke: str = "#000000",
             width: float = 1.0) -> None:
        self._parts.append(
            f'<line x1="{fnum(x1)}" y1="{fnum(y1)}" x2="{fnum(x2)}" y2="{fnum(y2)}" '
            f'stroke="{stroke}" stroke-width="{fnum(width)}"/>'
        )

    def text(self, x, y, content: str, size: float, anchor: str = "middle",
             bold: bool = False) -> None:
        weight = ' font-weight="bold"' if bold else ""
        self._parts.append(
            f'<text x="{fnum(x)}" y="{fnum(y)}" font-family={self._family} '
            f'font-size="{fnum(size, 1)}" text-anchor="{anchor}"{weight}>'
            f"{escape(content)}</text>"
        )

    def group_start(self, cls: str = "") -> None:
        self._parts.append(f'<g class="{cls}">' if cls else "<g>")

    def group_end(self) -> None:
        self._parts.append("</g>")

    def tobytes(self, metadata: dict | None = None) -> bytes:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{fnum(self.width)}" height="{fnum(self.height)}" '
            f'viewBox="0 0 {fnum(self.width)} {fnum(self.height)}">'
        )
        parts = [head]
        if metadata is not None:
            blob = json.dumps(metadata, sort_keys=True, separators=(",", ":"))
            parts.append(f"<metadata>{escape(blob)}</metadata>")
        parts.extend(self._parts)
        parts.append("</svg>\n")
        return "\n".join(parts).encode("utf-8")


def wrap_html(svg: bytes, title: str, table_html: str,
              metadata: dict | None = None) -> bytes:
    """HTML page embedding the SVG unchanged plus an accessible data table."""
    meta_block = ""
    if metadata is not None:
        blob = json.dumps(metadata, sort_keys=True, separators=(",", ":"))
        meta_block = (
            f'<script type="application/json" id="run-metadata">{blob}</script>\n'
        )
    doc = (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8"/>\n'
        f"<title>{escape(title)}</title>\n"
        "<style>body{font-family:Helvetica,Arial,sans-serif;margin:1em;}"
        "table{border-collapse:collapse;margin-top:1em;}"
        "td,th{border:1px solid #999;padding:4px 8px;font-size:12px;}</style>\n"
        "</head>\n<body>\n"
        f"{meta_block}"
        f"<h1>{escape(title)}</h1>\n"
        f'<div class="figure">\n{svg.decode("utf-8")}</div>\n'
        f"{table_html}\n"
        "</body>\n</html>\n"
    )
    return doc.encode("utf-8")
