"""Minimal deterministic SVG assembly.

Documents are built as ordered lists of element strings with fixed-point
number formatting, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json

from .style import FONT_FAMILY

__all__ = ["fnum", "SvgDoc"]


def _escape(data: str) -> str:
    """XML character data: ``&``, ``>`` and ``<`` escaped, in that order,
    as ``xml.sax.saxutils.escape`` does (which would import
    ``urllib.request``)."""
    return data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(data: str) -> str:
    """A quoted XML attribute value, as ``xml.sax.saxutils.quoteattr``
    writes it: escaped, with newline, return and tab as character
    references; in double quotes unless it holds one and no single quote,
    then in single quotes; holding both, in double quotes as ``&quot;``."""
    data = _escape(data).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in data:
        return f'"{data}"'
    if "'" not in data:
        return f"'{data}'"
    return '"%s"' % data.replace('"', "&quot;")


def _metadata_json(metadata: dict) -> str:
    """Run metadata as compact JSON with sorted keys and ``<``, ``>`` and
    ``&`` as JSON escapes: a script element decodes no entities, so this
    text parses back to the metadata and no name in it closes the element."""
    blob = json.dumps(metadata, sort_keys=True, separators=(",", ":"))
    return blob.replace("<", "\\u003c").replace(">", "\\u003e").replace("&", "\\u0026")


def fnum(x: float, places: int = 2) -> str:
    """Fixed-point coordinates and value labels; negative zero is normalized."""
    s = f"{float(x):.{places}f}"
    if float(s) == 0.0:
        s = f"{0.0:.{places}f}"
    return s


class SvgDoc:
    """Accumulates SVG elements on a white page; ``tostring`` emits the full
    document.

    Every text element uses ``FONT_FAMILY``, quoted as ``family``.
    """

    family = _quoteattr(FONT_FAMILY)

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = [
            f'<rect x="0.00" y="0.00" width="{fnum(width)}" height="{fnum(height)}" '
            'fill="#ffffff"/>'
        ]

    def raw(self, fragment: str) -> None:
        self._parts.append(fragment)

    def line(self, x1, y1, x2, y2, stroke: str = "#000000",
             width: float = 1.0) -> None:
        self._parts.append(
            f'<line x1="{fnum(x1)}" y1="{fnum(y1)}" x2="{fnum(x2)}" y2="{fnum(y2)}" '
            f'stroke="{stroke}" stroke-width="{fnum(width)}"/>'
        )

    def text(self, x, y, content: str, size: float, anchor: str = "middle") -> None:
        self._parts.append(
            f'<text x="{fnum(x)}" y="{fnum(y)}" font-family={self.family} '
            f'font-size="{fnum(size, 1)}" text-anchor="{anchor}">'
            f"{_escape(content)}</text>"
        )

    def group_start(self, cls: str) -> None:
        self._parts.append(f'<g class="{cls}">')

    def group_end(self) -> None:
        self._parts.append("</g>")

    def lines(self, metadata: dict | None = None) -> list[str]:
        """The document's lines up to its closing tag: ``tostring`` joins
        them and ``</svg>`` with newlines."""
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{fnum(self.width)}" height="{fnum(self.height)}" '
            f'viewBox="0 0 {fnum(self.width)} {fnum(self.height)}">'
        )
        lines = [head]
        if metadata is not None:
            lines.append(f"<metadata>{_escape(_metadata_json(metadata))}</metadata>")
        return [*lines, *self._parts]

    def tostring(self, metadata: dict | None = None) -> str:
        return "\n".join([*self.lines(metadata), "</svg>", ""])
