"""Visual style for rendered figures.

The constants are documented in ``docs/style-reference.md``; changing any
of them changes golden-file bytes, so treat them as part of the output
contract.  The diverging fill has one rule, ``_diverging_fills``, which
forms the fills of a whole array of |values| at once, both signs of each;
``diverging_color`` is that rule on one value.
"""

from __future__ import annotations

import numpy as np

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

# Per endpoint, per channel: the endpoint's level minus white's, 255.
_RGB_SPAN = np.array([[int(color[i:i + 2], 16) - 255 for i in (1, 3, 5)]
                      for color in (COLOR_POSITIVE, COLOR_NEGATIVE)], dtype=np.float64)


def _diverging_fills(magnitude: np.ndarray, limit: float) -> tuple[list[str], list[str]]:
    """The fill of +x and of -x for each x in ``magnitude``, an array of
    |value|s: two lists of ``#rrggbb``.

    t = min(x / limit, 1) moves each channel from white to the endpoint as
    255 + (c - 255) * t, rounded half to even; the IEEE operations of a
    value taken alone, so a value and its mirror share t.  Zero is white
    whatever the limit, and is never divided by.  A quotient past the float
    range is inf, as in Python, and saturates; so does any nonzero x over a
    limit of 0.
    """
    with np.errstate(over="ignore", divide="ignore"):
        t = np.minimum(np.divide(magnitude, limit, out=np.zeros(len(magnitude)),
                                 where=magnitude != 0.0), 1.0)
    level = np.rint(255 + _RGB_SPAN * t[:, None, None]).astype(np.uint8)
    # Per side, the levels' bytes in hex with a space after every 3 bytes.
    return tuple(["#" + fill for fill in side.tobytes().hex(" ", 3).split()]
                 for side in level.transpose(1, 0, 2))


def diverging_color(value: float, limit: float) -> str:
    """Interpolate white -> endpoint on the signed side of a diverging map.

    Zero maps exactly to white; |value| >= limit saturates at the endpoint.
    This is ``_diverging_fills`` of the one value.
    """
    positive, negative = _diverging_fills(np.array([abs(value)], dtype=np.float64), limit)
    return positive[0] if value > 0.0 else negative[0]
