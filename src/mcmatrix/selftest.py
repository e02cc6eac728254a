"""Embedded oracle suites for the `selftest` CLI subcommand.

Each suite checks an implementation against an independent route: the
signed-rank p against brute-force enumeration of all sign assignments, the
step-down correction against its worked examples, and per-task rank sums
against the closed form m(m+1)/2.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import numpy as np

from .data import Direction, ResultsMatrix
from .stats import compute_ranks, holm_correction, wilcoxon_signed_rank

__all__ = ["run_selftest", "average_ranks", "enumeration_pvalue"]


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, ties sharing the mean of their sorted positions."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def enumeration_pvalue(diffs: np.ndarray) -> float:
    """Two-sided signed-rank p by enumerating all 2^k sign assignments.

    Independent route: tied ranks come from sorting and the distribution
    from explicit enumeration rather than subset-sum counting.
    """
    nz = diffs[diffs != 0.0]
    k = nz.size
    if k == 0:
        return 1.0
    ranks = average_ranks(np.abs(nz))
    observed = float(ranks[nz > 0.0].sum())
    # Row b: the positive-rank sum when bit i of b makes difference i positive.
    sums = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) @ ranks
    tail = min(int((sums <= observed).sum()), int((sums >= observed).sum()))
    return min(1.0, 2.0 * tail / 2.0**k)


def _suite_wilcoxon() -> str:
    rng = np.random.default_rng(20240117)
    for _ in range(200):
        k = int(rng.integers(1, 11))
        diffs = np.round(rng.normal(0.0, 1.0, size=k), 2)
        expected = enumeration_pvalue(diffs)
        got, _ = wilcoxon_signed_rank(diffs)
        if abs(got - expected) > 1e-12:
            raise AssertionError(
                f"signed-rank mismatch for {diffs.tolist()!r}: {got} vs {expected}"
            )
    return "200 random vectors vs sign-enumeration oracle"


def _suite_holm() -> str:
    alpha = 0.05
    examples = [
        ([0.04, 0.01, 0.02], [True, True, True]),
        ([0.03, 0.02, 0.04], [False, False, False]),
        ([0.001, 0.04, 0.012, 0.5], [True, False, True, False]),
    ]
    for p, expected in examples:
        # The textbook step-down: the i-th smallest of N (from 1) against
        # alpha / (N + 1 - i), stopping at the first failure.
        rejecting, stepped = True, {}
        for i, x in enumerate(sorted(p), start=1):
            rejecting = rejecting and x <= alpha / (len(p) + 1 - i)
            stepped[x] = rejecting
        if [stepped[x] for x in p] != expected:
            raise AssertionError(f"worked example {p!r} is not {expected!r}")
        if holm_correction(p, alpha).tolist() != expected:
            raise AssertionError(f"step-down decisions for {p!r} are not {expected!r}")
    return "worked step-down examples"


def _suite_rank_sums() -> str:
    rng = np.random.default_rng(987654321)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 21))
        scores = np.round(rng.uniform(0.0, 1.0, size=(m, n)), 2)
        matrix = ResultsMatrix(
            tuple(f"c{i}" for i in range(m)),
            tuple(f"t{j}" for j in range(n)),
            scores,
            Direction.HIGHER_IS_BETTER,
        )
        table = compute_ranks(matrix)
        target = m * (m + 1) / 2.0
        sums = table.ranks.sum(axis=0)
        if np.abs(sums - target).max() > 1e-9:
            raise AssertionError("per-task rank sums off target")
    return "200 random matrices, per-task rank sums = m(m+1)/2"


def run_selftest() -> bool:
    """Run all suites; prints one PASS/FAIL line each, returns overall."""
    suites = [
        ("wilcoxon-enumeration", _suite_wilcoxon),
        ("holm-examples", _suite_holm),
        ("rank-sums", _suite_rank_sums),
    ]
    ok = True
    for name, suite in suites:
        try:
            detail = suite()
            print(f"PASS {name}: {detail}")
        except AssertionError as exc:
            ok = False
            print(f"FAIL {name}: {exc}")
    return ok
