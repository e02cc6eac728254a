"""Deterministic figure generation: comparison-grid heatmaps (SVG/HTML),
critical-difference diagrams, and pattern mini-graphs."""

from .cd_view import CdLayout, cd_layout, contiguous_nonsignificant_runs, render_cd_diagram
from .mcm_view import render_mcm
from .pattern_view import render_pattern_graph
from .style import diverging_color

__all__ = [
    "diverging_color",
    "render_mcm",
    "render_cd_diagram",
    "cd_layout",
    "CdLayout",
    "contiguous_nonsignificant_runs",
    "render_pattern_graph",
]
