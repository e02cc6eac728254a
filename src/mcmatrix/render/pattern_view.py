"""Mini significance graphs for enumerated patterns.

Core comparates sit on a circle; a line joins each pair whose difference
is not significant after correction, mirroring the joining-bar convention
of rank diagrams.
"""

from __future__ import annotations

import math

from .core import SvgDoc
from .style import FONT_SIZE, PADDING

__all__ = ["render_pattern_graph"]


def render_pattern_graph(pattern, metadata: dict | None = None) -> bytes:
    names = pattern.core
    k = len(names)
    radius = 70.0
    pad = PADDING + 50.0
    size = 2 * (radius + pad)
    doc = SvgDoc(size, size)
    cx = cy = size / 2.0

    points = []
    for i in range(k):
        angle = -math.pi / 2.0 + 2.0 * math.pi * i / k
        points.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))

    doc.group_start("edges")
    for i, j in sorted(pattern.non_significant_pairs):
        doc.line(points[i][0], points[i][1], points[j][0], points[j][1], width=2.0)
    doc.group_end()

    doc.group_start("nodes")
    for i, name in enumerate(names):
        x, y = points[i]
        doc.raw(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#000000"/>')
        # Push the label outward from the circle center.
        lx = cx + (x - cx) * 1.35
        ly = cy + (y - cy) * 1.35
        doc.text(lx, ly + 0.35 * FONT_SIZE, name, FONT_SIZE)
    doc.group_end()

    meta = dict(metadata) if metadata else {}
    meta.setdefault("figure", "significance-pattern")
    meta.setdefault("bitmask", hex(pattern.bitmask))
    return doc.tostring(meta).encode("utf-8")
