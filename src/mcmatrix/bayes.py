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
is its pair's mirror (``PosteriorTable.oriented`` with ``flip``) bit for bit.

Sampling is chunked through counter-keyed Philox streams: chunk c uses the
substream ``Philox(key=seed, counter=c << 128)``, so results are
bit-identical for a given seed regardless of how chunks are scheduled.
A chunk's weights depend only on the seed, the chunk and the number of
differences, so ``bayesian_signed_rank`` takes a block of pairs, draws
each chunk once and shares it across the block: a pair's posterior is the
same bits in any block, and alone.

Nearly all the time goes to two (samples x (q+1)) by ((q+1) x (q+1))
products per pair and chunk, which release the GIL.  While numpy's BLAS is
OpenBLAS pinned to one thread, a chunk's pairs are split over one thread
per usable CPU (``_workers``).  The threads share the chunk's one product
buffer, each in its own rows, and run each product over sample slices of
that many rows.  A product over a row slice keeps the whole product's bits
only on some BLAS kernels and shapes, so each chunk shape is checked on
the BLAS in use before it is split (``_slices_keep_bits``), and runs whole
on one thread otherwise.  Chunks stay sequential and each pair's thetas
are computed with the same operations, so a posterior keeps its bits at
any thread count.
"""

from __future__ import annotations

import functools
import math
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import check_integer, check_real, check_real_array, check_seed
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

#: The variables OpenBLAS reads its thread count from, in its order.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: A leading integer, read as C's ``atoi`` reads it.
_LEADING_INT = re.compile(r"\s*([+-]?[0-9]+)")

#: ``_slices_keep_bits`` per (chunk size, row width, slices), in this process.
_SLICES_CHECKED: dict[tuple[int, int, int], bool] = {}


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
        check_seed(self.seed)


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

    Item i is the ``record`` of row i of the block, built when it is read.
    Every posterior of a table averages ``mc_samples_used`` samples.
    """

    record = BayesPosterior

    theta_left: np.ndarray
    theta_rope: np.ndarray
    theta_right: np.ndarray
    mc_samples_used: int

    def __len__(self) -> int:
        return len(self.theta_left)

    def __getitem__(self, i: int) -> BayesPosterior:
        return self.record(*(column[0] for column in
                             self.oriented(np.array([range(len(self))[i]]), False)))

    def oriented(self, k: np.ndarray, flip) -> tuple[list, ...]:
        """Rows ``k`` as lists in field order, mirrored where ``flip`` is
        true.  A mirror is the reversed pair's posterior (see above): the
        left and right thetas swap, and ``theta_rope``, ``1 - (l + r)``, stays."""
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


def _blas_threads() -> int | None:
    """The BLAS's thread count: the first positive one that
    ``_BLAS_THREAD_VARS`` set, or None when none does."""
    for name in _BLAS_THREAD_VARS:
        match = _LEADING_INT.match(os.environ.get(name, ""))
        if match and int(match.group(1)) > 0:
            return int(match.group(1))
    return None


@functools.cache
def _openblas() -> bool:
    """Whether numpy reports OpenBLAS as its BLAS; False when it cannot say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):  # numpy < 1.26, or no report
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _workers() -> int:
    """Threads the Monte Carlo may use: one per usable CPU while numpy's
    BLAS is OpenBLAS pinned to one thread, else 1.

    A BLAS that threads each product uses the CPUs itself.  OpenBLAS packs
    a product's inputs before it multiplies, so where a row slice starts in
    memory does not change its bits, and a check of one chunk's slices
    holds for every chunk of that shape (see ``_slices_keep_bits``); other
    BLAS libraries may not.
    """
    if _blas_threads() != 1 or not _openblas():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _slices_keep_bits(w: np.ndarray, buf: np.ndarray, edges: list[int]) -> bool:
    """Whether products over the row slices of ``w`` between ``edges`` give
    the whole product's bits, checked on the BLAS in use, in ``buf``'s first
    rows.

    A BLAS may run a small product, or one row, on another kernel than the
    whole product, or block a wide one otherwise: on OpenBLAS's x86-64
    kernels, slices of up to about 10^6 multiply-adds differ, and at widths
    such as 193 or 230 a few elements at each slice's end do.  Which
    elements round otherwise depends only on the shapes, so one product
    with signed factors across 2^±20, which makes almost any change of
    summation order show, stands for every region of the chunk.  Each
    product is reduced to one wrapping integer digest per row, so the check
    holds no second buffer.
    """
    size, width = w.shape
    rng = np.random.default_rng(width)
    probe = rng.normal(size=(width, width)) * 2.0 ** rng.integers(-20, 21, (width, width))
    odd = rng.integers(0, 2**63, width, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    np.matmul(w, probe, out=buf[:size])
    whole = buf[:size].view(np.uint64) @ odd
    for lo, hi in zip(edges, edges[1:]):
        np.matmul(w[lo:hi], probe, out=buf[:hi - lo])
        if not np.array_equal(buf[:hi - lo].view(np.uint64) @ odd, whole[lo:hi]):
            return False
    return True


def _thetas(row, w, total, bound, scratch, edges) -> np.ndarray:
    """One row's per-sample (theta_left, theta_rope, theta_right) over a
    chunk's weights ``w``, shape (len(w), 3).

    Each product runs over the sample slices between consecutive ``edges``
    in the first rows of ``scratch``; a row's result does not depend on the
    slices it was computed in (see ``_slices_keep_bits``).
    """
    sums = row[:, None] + row[None, :]
    thetas = []
    for region in (sums < -bound, sums > bound):
        region = region.astype(np.float64)
        theta = np.empty(len(w))
        for lo, hi in zip(edges, edges[1:]):
            # Quadratic forms w' M w, normalized by the total pair mass
            # (sum w)^2 so the three regions partition exactly one unit
            # per sample.
            buf = scratch[: hi - lo]
            np.matmul(w[lo:hi], region, out=buf)
            buf *= w[lo:hi]
            np.divide(buf.sum(axis=1), total[lo:hi], out=theta[lo:hi])
        thetas.append(theta)
    theta_l, theta_r = thetas
    return np.stack([theta_l, 1.0 - (theta_l + theta_r), theta_r], axis=1)


def _chunks(z: np.ndarray, config: BayesConfig, reduce, workers: int = 1) -> None:
    """``reduce(i, thetas)`` with row i's per-sample theta triples for
    each substream chunk, shape (size, 3), chunk by chunk.

    A chunk's weights depend only on the seed, the chunk and the row
    length, so each chunk is drawn once and shared by every row of ``z``.
    Up to ``workers`` threads split those rows, thread t taking rows t,
    t + W, ..., and each running every product over one of W sample slices
    of the chunk in turn, in its own rows of the chunk's one product
    buffer.  A chunk shape whose slices fail ``_slices_keep_bits`` runs
    whole on the calling thread.  ``reduce`` is called from the threads,
    never twice at once for one row.  Only one chunk's weights, one product
    buffer and each thread's current row regions are alive at a time: the
    regions of every row at once would be k (q+1)^2 floats.
    """
    concentration = np.ones(z.shape[1], dtype=np.float64)
    concentration[0] = float(config.prior_strength)
    bound = 2.0 * float(config.rope)
    n = int(config.mc_samples) if len(z) else 0
    workers = min(workers, len(z))
    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
    try:
        for chunk_index in range(0, (n + CHUNK_SIZE - 1) // CHUNK_SIZE):
            size = min(CHUNK_SIZE, n - chunk_index * CHUNK_SIZE)
            w = _chunk_generator(config.seed, chunk_index).dirichlet(concentration,
                                                                     size=size)
            total = w.sum(axis=1) ** 2
            share = min(workers, size)
            rows = -(-size // share)
            buf = np.empty((share * rows, z.shape[1]))
            edges = [size * t // share for t in range(share + 1)]
            if share > 1:
                key = (size, z.shape[1], share)
                if key not in _SLICES_CHECKED:
                    _SLICES_CHECKED[key] = _slices_keep_bits(w, buf, edges)
                if not _SLICES_CHECKED[key]:
                    share, rows, edges = 1, size, [0, size]

            def work(t):
                scratch = buf[t * rows:(t + 1) * rows]
                for i in range(t, len(z), share):
                    reduce(i, _thetas(z[i], w, total, bound, scratch, edges))

            if share == 1:
                work(0)
            else:
                for done in [pool.submit(work, t) for t in range(share)]:
                    done.result()
            del w, total, buf, work  # before the next chunk's draw
    finally:
        if pool is not None:
            pool.shutdown()


def posterior_samples(diffs, config: BayesConfig = BayesConfig()) -> np.ndarray:
    """All per-sample (theta_left, theta_rope, theta_right) triples.

    The rows are exactly the samples ``bayesian_signed_rank`` averages for
    the same inputs and seed; useful for convergence diagnostics.
    """
    parts = []
    _chunks(_prepare([diffs], config), config, lambda i, thetas: parts.append(thetas))
    return np.concatenate(parts, axis=0)


def bayesian_signed_rank(rows, config: BayesConfig = BayesConfig()) -> PosteriorTable:
    """Posteriors of (column better, no meaningful difference, row better),
    one per row of differences.

    ``rows`` holds one row of oriented differences per pair, all of one
    length; a single pair is ``bayesian_signed_rank([d], config)[0]``.
    Each chunk of Dirichlet weights is drawn once and shared by every row,
    so a row's posterior is bit-identical whatever block it is in, and
    however many threads split the block (``_workers``).
    Deterministic given the inputs and ``config.seed``; chunk substreams
    make the result independent of evaluation order.
    """
    z = _prepare(rows, config)
    sums = np.zeros((len(z), 3), dtype=np.float64)

    def add(i, thetas):
        sums[i] += thetas.sum(axis=0)

    _chunks(z, config, add, _workers())
    n = int(config.mc_samples)
    means = np.clip(sums / n, 0.0, 1.0)
    return PosteriorTable(*means.T, n)
