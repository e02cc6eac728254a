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
is ``BayesPosterior.mirrored()`` bit for bit.

Sampling is chunked through counter-keyed Philox streams: chunk c uses the
substream ``Philox(key=seed, counter=c << 128)``, so results are
bit-identical for a given seed regardless of how chunks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidConfig, ValidationError

__all__ = [
    "BayesConfig",
    "BayesPosterior",
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
        if not (self.rope >= 0.0 and math.isfinite(self.rope)):
            raise InvalidConfig(f"rope must be finite and >= 0, got {self.rope!r}")
        if not (self.prior_strength > 0.0 and math.isfinite(self.prior_strength)):
            raise InvalidConfig(
                f"prior strength must be finite and > 0, got {self.prior_strength!r}"
            )
        if int(self.mc_samples) < 1:
            raise InvalidConfig("mc_samples must be at least 1")
        if not 0 <= int(self.seed) <= _UINT64_MAX:
            raise InvalidConfig("seed must be a 64-bit unsigned integer")


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

    def mirrored(self) -> BayesPosterior:
        """The posterior of the reversed pair, whose differences are negated.

        Bit-identical to evaluating the negated differences: every pair sum
        only changes sign, so ``theta_left`` and ``theta_right`` swap and
        ``theta_rope`` (computed as ``1 - (l + r)``) stays.
        """
        return BayesPosterior(
            theta_left=self.theta_right,
            theta_rope=self.theta_rope,
            theta_right=self.theta_left,
            mc_samples_used=self.mc_samples_used,
        )


def _prepare(diffs, config: BayesConfig):
    config.validate()
    d = np.asarray(diffs, dtype=np.float64)
    if d.size == 0:
        raise EmptyInput("need at least one difference")
    if not np.isfinite(d).all():
        raise ValidationError("differences must be finite")
    z = np.concatenate(([0.0], d))
    sums = z[:, None] + z[None, :]
    bound = 2.0 * float(config.rope)
    left = (sums < -bound).astype(np.float64)
    right = (sums > bound).astype(np.float64)
    concentration = np.ones(z.size, dtype=np.float64)
    concentration[0] = float(config.prior_strength)
    return left, right, concentration


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=int(seed), counter=chunk_index << 128)
    )


def _chunk_thetas(left, right, concentration, seed, chunk_index, size):
    """Per-sample theta triples for one substream chunk, shape (size, 3)."""
    rng = _chunk_generator(seed, chunk_index)
    w = rng.dirichlet(concentration, size=size)
    # Quadratic forms w' M w, normalized by the total pair mass (sum w)^2
    # so the three regions partition exactly one unit per sample.
    total = w.sum(axis=1) ** 2
    theta_l = ((w @ left) * w).sum(axis=1) / total
    theta_r = ((w @ right) * w).sum(axis=1) / total
    theta_e = 1.0 - (theta_l + theta_r)
    return np.stack([theta_l, theta_e, theta_r], axis=1)


def _chunks(diffs, config: BayesConfig):
    """The theta triples of ``config.mc_samples`` samples, one substream
    chunk at a time."""
    left, right, concentration = _prepare(diffs, config)
    n = int(config.mc_samples)
    for chunk_index in range(0, (n + CHUNK_SIZE - 1) // CHUNK_SIZE):
        size = min(CHUNK_SIZE, n - chunk_index * CHUNK_SIZE)
        yield _chunk_thetas(left, right, concentration, config.seed, chunk_index, size)


def posterior_samples(diffs, config: BayesConfig = BayesConfig()) -> np.ndarray:
    """All per-sample (theta_left, theta_rope, theta_right) triples.

    The rows are exactly the samples ``bayesian_signed_rank`` averages for
    the same inputs and seed; useful for convergence diagnostics.
    """
    return np.concatenate(list(_chunks(diffs, config)), axis=0)


def bayesian_signed_rank(diffs, config: BayesConfig = BayesConfig()) -> BayesPosterior:
    """Posterior of (column better, no meaningful difference, row better).

    Deterministic given the inputs and ``config.seed``; chunk substreams
    make the result independent of evaluation order.
    """
    sums = np.zeros(3, dtype=np.float64)
    for thetas in _chunks(diffs, config):
        sums += thetas.sum(axis=0)
    n = int(config.mc_samples)
    means = np.clip(sums / n, 0.0, 1.0)
    return BayesPosterior(
        theta_left=float(means[0]),
        theta_rope=float(means[1]),
        theta_right=float(means[2]),
        mc_samples_used=n,
    )
