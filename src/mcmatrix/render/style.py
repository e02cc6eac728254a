"""Visual style for rendered figures.

The constants are documented in ``docs/style-reference.md``; changing any
of them changes golden-file bytes, so treat them as part of the output
contract.
"""

from __future__ import annotations

__all__ = ["diverging_color"]

# Diverging fill endpoints: positive mean difference (row better) vs negative.
COLOR_POSITIVE = "#d73027"
COLOR_NEGATIVE = "#4575b4"
CELL_DECIMAL_PLACES = 4

FONT_FAMILY = "Helvetica, Arial, sans-serif"
FONT_SIZE = 12.0
CELL_WIDTH = 150.0
CELL_HEIGHT = 64.0
LABEL_WIDTH = 190.0
HEADER_HEIGHT = 56.0
PADDING = 16.0

# Rank-diagram geometry.
CD_AXIS_WIDTH = 560.0
CD_ROW_HEIGHT = 22.0
CD_BAR_SPACING = 10.0

_POSITIVE_RGB = tuple(int(COLOR_POSITIVE[i:i + 2], 16) for i in (1, 3, 5))
_NEGATIVE_RGB = tuple(int(COLOR_NEGATIVE[i:i + 2], 16) for i in (1, 3, 5))


def diverging_color(value: float, limit: float) -> str:
    """Interpolate white -> endpoint on the signed side of a diverging map.

    Zero maps exactly to white; |value| >= limit saturates at the endpoint.
    """
    if value == 0.0:
        return "#ffffff"
    r, g, b = _POSITIVE_RGB if value > 0.0 else _NEGATIVE_RGB
    t = min(abs(value) / limit, 1.0)
    return "#%02x%02x%02x" % (
        round(255 + (r - 255) * t), round(255 + (g - 255) * t), round(255 + (b - 255) * t)
    )
