"""Independent oracles the test suite checks the implementation against.

These deliberately take different computational routes: ranks via scipy,
the signed-rank null distribution via explicit enumeration of sign
assignments (not subset-sum counting), and the groupwise rank statistic
via the textbook tie-free formula, and the reservoir draw of pattern
enumeration with Python integers masked to 64 bits (the package uses
wrapping numpy uint64 arrays).
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata


def wilcoxon_enumeration_p(diffs) -> float:
    """Two-sided signed-rank p over all 2^k sign assignments of the nonzero
    differences, with averaged ranks for tied absolutes; the smaller tail
    is doubled and capped at 1."""
    d = np.asarray(diffs, dtype=float)
    nz = d[d != 0.0]
    k = nz.size
    if k == 0:
        return 1.0
    ranks = rankdata(np.abs(nz))
    observed = float(ranks[nz > 0.0].sum())

    # Vectorized enumeration: row b of the mask grid encodes assignment b.
    assignments = np.arange(1 << k, dtype=np.uint64)
    bits = (assignments[:, None] >> np.arange(k, dtype=np.uint64)) & 1
    stats = bits.astype(float) @ ranks
    le = int((stats <= observed).sum())
    ge = int((stats >= observed).sum())
    return min(1.0, 2.0 * min(le, ge) / float(1 << k))


def friedman_tie_free(ranks: np.ndarray) -> float:
    """Textbook chi-square statistic from a tie-free m x n rank table."""
    m, n = ranks.shape
    rank_sums = ranks.sum(axis=1)
    return float(
        12.0 / (n * m * (m + 1)) * (rank_sums**2).sum() - 3.0 * n * (m + 1)
    )


_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def reservoir_draw(seed: int, index: int, n: int) -> int:
    """Reservoir slot in [0, n) of the subset with this index, for this seed."""
    return splitmix64((seed & _MASK64) ^ splitmix64(index)) % n
