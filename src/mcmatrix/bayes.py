"""Bayesian signed-rank test via Monte Carlo over Dirichlet-process weights.

Given paired score differences ``z_1..z_q`` and the prior's
pseudo-observation ``z_0 = 0``, draw weight vectors
``w ~ Dirichlet(s, 1, ..., 1)`` over the q+1 entries and measure the
probability mass of all ordered index pairs (i, j) whose sum ``z_i + z_j``
falls left of the rope, inside it, or right of it.  The rope is the closed
interval [-2r, 2r]: sums on the boundary count as "no meaningful
difference" so the three probabilities always partition the unit mass.

The pseudo-observation is fixed at 0 (Benavoli et al., "Time for a
change", JMLR 2017).  That makes the test mirror-symmetric: negating the
differences negates every pair sum exactly, so the left and right regions
swap under the same Dirichlet draws and the posterior of a reversed pair
is its pair's mirror (``PosteriorTable.oriented``) bit for bit.

Sampling is chunked through counter-keyed Philox streams: chunk c uses the
substream ``Philox(key=seed, counter=c << 128)``, so results are
bit-identical for a given seed regardless of how chunks are scheduled.
A chunk's weights depend only on the seed, the chunk and the number of
differences, so ``bayesian_signed_rank`` takes a block of pairs, draws
each chunk once and shares it across the block: a pair's posterior is the
same bits in any block, and alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import check_integer, check_real, check_real_array
from .errors import ValidationError

__all__ = [
    "BayesConfig",
    "BayesPosterior",
    "PosteriorTable",
    "bayesian_signed_rank",
    "posterior_samples",
    "CHUNK_SIZE",
]

#: Monte Carlo samples drawn per RNG substream.  Fixed: changing it would
#: change which substream produces which sample and break reproducibility.
CHUNK_SIZE = 8192

_UINT64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class BayesConfig:
    """Parameters of the Bayesian signed-rank test.

    ``rope`` is the half-width r of the region of practical equivalence:
    a pair sum with ``|z_i + z_j| <= 2 r`` counts as no meaningful
    difference.  ``prior_strength`` (s) is the Dirichlet-process prior's
    weight on its pseudo-observation, which sits at 0 so that reversing a
    pair only mirrors its posterior.
    """

    rope: float = 0.01
    prior_strength: float = 1.0
    mc_samples: int = 100_000
    seed: int = 0

    def validate(self) -> None:
        """Refuse a setting of the wrong kind or out of range with a
        ``ValidationError`` that names it: ``rope`` and ``prior_strength``
        are real numbers, ``mc_samples`` and ``seed`` integers (a ``bool``
        is neither)."""
        rope = check_real("rope", self.rope)
        if not (rope >= 0.0 and math.isfinite(rope)):
            raise ValidationError(f"rope must be finite and >= 0, got {self.rope!r}")
        strength = check_real("prior strength", self.prior_strength)
        if not (strength > 0.0 and math.isfinite(strength)):
            raise ValidationError(
                f"prior strength must be finite and > 0, got {self.prior_strength!r}"
            )
        if check_integer("mc_samples", self.mc_samples) < 1:
            raise ValidationError("mc_samples must be at least 1")
        if not 0 <= check_integer("seed", self.seed) <= _UINT64_MAX:
            raise ValidationError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class BayesPosterior:
    """Posterior mean probabilities for a row-vs-column comparison.

    With differences oriented positive-is-row-better: ``theta_right`` is
    the probability the row comparate is meaningfully better,
    ``theta_left`` that the column comparate is, and ``theta_rope`` that
    the difference is not meaningful.  The three sum to one.
    """

    theta_left: float
    theta_rope: float
    theta_right: float
    mc_samples_used: int


@dataclass(frozen=True, eq=False)
class PosteriorTable(Sequence):
    """Posteriors of a block of pairs, held as numpy columns.

    Item i is the ``BayesPosterior`` of row i of the block, built when it
    is read.  Every posterior of a table averages ``mc_samples_used``
    samples.
    """

    theta_left: np.ndarray
    theta_rope: np.ndarray
    theta_right: np.ndarray
    mc_samples_used: int

    def __len__(self) -> int:
        return len(self.theta_left)

    def __getitem__(self, i: int) -> BayesPosterior:
        return self.cell(range(len(self))[i] + 1)

    def cell(self, slot: int) -> BayesPosterior:
        """The posterior at ``slot``, as ``oriented`` reads it."""
        return BayesPosterior(*(column[0] for column in self.oriented(np.array([slot]))))

    def oriented(self, slots: np.ndarray) -> tuple[list, ...]:
        """The posteriors at signed ``slots`` as lists, in ``BayesPosterior``
        field order: slot k + 1 reads row k, and -(k + 1) the reversed pair's
        posterior, its mirror (see above): the left and right thetas swap,
        and ``theta_rope``, computed as ``1 - (l + r)``, stays."""
        k, flip = np.abs(slots) - 1, slots < 0
        left, right = self.theta_left[k], self.theta_right[k]
        return (np.where(flip, right, left).tolist(), self.theta_rope[k].tolist(),
                np.where(flip, left, right).tolist(), [self.mc_samples_used] * len(k))


def _prepare(rows, config: BayesConfig) -> np.ndarray:
    """Each row's z = (0, d), as one (k, q + 1) array."""
    config.validate()
    d = check_real_array("differences", rows)
    if d.ndim != 2:
        raise ValidationError(
            f"need one row of differences per pair, got {d.ndim} dimension(s)"
        )
    if d.shape[1] == 0:
        raise ValidationError("need at least one difference")
    if not np.isfinite(d).all():
        raise ValidationError("differences must be finite")
    z = np.zeros((d.shape[0], d.shape[1] + 1), dtype=np.float64)
    z[:, 1:] = d
    return z


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=int(seed), counter=chunk_index << 128)
    )


def _chunks(z: np.ndarray, config: BayesConfig):
    """``(i, thetas)``: row i's per-sample theta triples for one substream
    chunk, shape (size, 3), chunk by chunk and row by row within a chunk.

    A chunk's weights depend only on the seed, the chunk and the row
    length, so each chunk is drawn once and shared by every row.  Only one
    chunk's weights, one product buffer and one row's region matrices are
    alive at a time: the regions of every row at once would be k (q+1)^2
    floats.
    """
    concentration = np.ones(z.shape[1], dtype=np.float64)
    concentration[0] = float(config.prior_strength)
    bound = 2.0 * float(config.rope)
    n = int(config.mc_samples) if len(z) else 0
    for chunk_index in range(0, (n + CHUNK_SIZE - 1) // CHUNK_SIZE):
        size = min(CHUNK_SIZE, n - chunk_index * CHUNK_SIZE)
        w = _chunk_generator(config.seed, chunk_index).dirichlet(concentration, size=size)
        # Quadratic forms w' M w, normalized by the total pair mass (sum w)^2
        # so the three regions partition exactly one unit per sample.
        total = w.sum(axis=1) ** 2
        buf = np.empty_like(w)
        for i, row in enumerate(z):
            sums = row[:, None] + row[None, :]
            thetas = []
            for region in (sums < -bound, sums > bound):
                np.matmul(w, region.astype(np.float64), out=buf)
                buf *= w
                thetas.append(buf.sum(axis=1) / total)
            theta_l, theta_r = thetas
            yield i, np.stack([theta_l, 1.0 - (theta_l + theta_r), theta_r], axis=1)
        del w, total, buf  # before the next chunk's draw


def posterior_samples(diffs, config: BayesConfig = BayesConfig()) -> np.ndarray:
    """All per-sample (theta_left, theta_rope, theta_right) triples.

    The rows are exactly the samples ``bayesian_signed_rank`` averages for
    the same inputs and seed; useful for convergence diagnostics.
    """
    chunks = _chunks(_prepare([diffs], config), config)
    return np.concatenate([thetas for _, thetas in chunks], axis=0)


def bayesian_signed_rank(rows, config: BayesConfig = BayesConfig()) -> PosteriorTable:
    """Posteriors of (column better, no meaningful difference, row better),
    one per row of differences.

    ``rows`` holds one row of oriented differences per pair, all of one
    length; a single pair is ``bayesian_signed_rank([d], config)[0]``.
    Each chunk of Dirichlet weights is drawn once and shared by every row,
    so a row's posterior is bit-identical whatever block it is in.
    Deterministic given the inputs and ``config.seed``; chunk substreams
    make the result independent of evaluation order.
    """
    z = _prepare(rows, config)
    sums = np.zeros((len(z), 3), dtype=np.float64)
    for i, thetas in _chunks(z, config):
        sums[i] += thetas.sum(axis=0)
    n = int(config.mc_samples)
    means = np.clip(sums / n, 0.0, 1.0)
    return PosteriorTable(*means.T, n)
