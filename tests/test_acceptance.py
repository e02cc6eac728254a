"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criterion 8 needs an external results table (see the
README) and reports SKIPPED-NO-DATA without it; criteria 1-7, 9, and 10
constitute full acceptance in that case.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mcmatrix import (
    BayesConfig,
    MCMConfig,
    ResultsMatrix,
    bayesian_signed_rank,
    build_mcm,
    compute_ranks,
    enumerate_patterns,
    friedman_test,
    holm_correction,
    load_results,
    mcm_cell_invariance_check,
    posterior_samples,
    render_cd_diagram,
    render_mcm,
    significance_pattern,
    wilcoxon_signed_rank,
)
from mcmatrix.selftest import enumeration_pvalue
from mcmatrix.stats import _signed_rank_rows, oriented_differences

from conftest import GOLDEN, fixture_matrix, golden_matrix, load_fixture, random_matrix


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"\n[criterion {number:2d}] PASS  {description}")


def test_criterion_1_wilcoxon_exact_oracle():
    with criterion(1, "exact signed-rank p equals the 2^k enumeration oracle "
                      "(1000 vectors, k <= 12, tol 1e-12, < 10 s)"):
        rng = np.random.default_rng(1001)
        start = time.monotonic()
        for case in range(1000):
            length = int(rng.integers(1, 15))
            diffs = rng.normal(0.0, 1.0, size=length)
            if case % 2:  # force ties among absolutes and some zeros
                diffs = np.round(diffs, 1)
            diffs = diffs[np.flatnonzero(diffs)][:12]
            if diffs.size == 0:
                diffs = np.array([1.0])
            expected = enumeration_pvalue(diffs)
            got, _ = wilcoxon_signed_rank(diffs)
            assert abs(got - expected) <= 1e-12, (diffs.tolist(), got, expected)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_wilcoxon_approximation_quality():
    with criterion(2, "normal approximation within 0.01 of exact "
                      "(500 tie-free vectors, 20 <= k <= 25, < 30 s)"):
        rng = np.random.default_rng(1002)
        start = time.monotonic()
        worst = 0.0
        for _ in range(500):
            k = int(rng.integers(20, 26))
            diffs = rng.normal(rng.uniform(-0.5, 0.5), 1.0, size=k)
            assert np.unique(np.abs(diffs)).size == k  # tie-free draw
            (exact,), _ = _signed_rank_rows(diffs.reshape(1, -1))
            with mock.patch("mcmatrix.stats.DEFAULT_EXACT_THRESHOLD", 0):  # approximate
                (approx,), _ = _signed_rank_rows(diffs.reshape(1, -1))
            worst = max(worst, abs(exact - approx))
        elapsed = time.monotonic() - start
        assert worst <= 0.01, f"worst gap {worst:.4f}"
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_3_holm_worked_examples():
    with criterion(3, "step-down worked examples reproduce the "
                      "alpha/(N+1-i) decisions exactly"):
        assert holm_correction([0.01, 0.02, 0.04], alpha=0.05).tolist() == [True] * 3
        # 0.02 > 0.05 / 3 stops the chain.
        assert holm_correction([0.02, 0.03, 0.04], alpha=0.05).tolist() == [False] * 3

        # Each p exactly on its threshold alpha / (N + 1 - i) is rejected;
        # one ulp above the first threshold stops every rejection.
        thresholds = [0.05 / 3, 0.05 / 2, 0.05]
        assert holm_correction(thresholds, alpha=0.05).tolist() == [True] * 3
        above = [np.nextafter(thresholds[0], 1.0), *thresholds[1:]]
        assert holm_correction(above, alpha=0.05).tolist() == [False] * 3


def test_criterion_4_rank_invariants():
    with criterion(4, "rank sums m(m+1)/2 within 1e-9 and average ranks equal "
                      "row means exactly (1000 random matrices)"):
        rng = np.random.default_rng(1004)
        for _ in range(1000):
            matrix = random_matrix(
                rng,
                m=int(rng.integers(2, 11)),
                n=int(rng.integers(1, 51)),
                tie_prob=0.5,
            )
            table = compute_ranks(matrix)
            target = matrix.m * (matrix.m + 1) / 2.0
            assert np.abs(table.ranks.sum(axis=0) - target).max() <= 1e-9
            for i in range(matrix.m):
                assert table.average_ranks[i] == np.mean(table.ranks[i])


def test_criterion_5_mcm_cell_invariance_and_holm_contrast():
    with criterion(5, "cells bit-identical across comparate supersets "
                      "(200 matrices x 20 supersets); corrected flags flip "
                      "on the shipped witness"):
        rng = np.random.default_rng(1005)
        for _ in range(200):
            matrix = random_matrix(rng, m=int(rng.integers(4, 9)),
                                   n=int(rng.integers(3, 13)), tie_prob=0.3)
            a, b = rng.choice(matrix.comparates, size=2, replace=False)
            others = [c for c in matrix.comparates if c not in (a, b)]
            subsets = []
            for _ in range(20):
                extra = rng.choice(
                    others, size=int(rng.integers(0, min(3, len(others)) + 1)),
                    replace=False,
                )
                subsets.append((a, b, *extra))
            assert mcm_cell_invariance_check(matrix, (a, b), subsets)

        fixture = load_fixture("holm_flip")
        witness = fixture_matrix(fixture)
        pair = tuple(fixture["pair"])
        alpha = fixture["alpha"]
        small = significance_pattern(
            witness, list(pair), fixture["small_family_extras"], alpha
        )
        large = significance_pattern(
            witness, list(pair), fixture["large_family_extras"], alpha
        )
        # Same raw cells, different corrected conclusions.
        assert small.non_significant_pairs != large.non_significant_pairs
        assert mcm_cell_invariance_check(
            witness,
            pair,
            [pair + tuple(fixture["small_family_extras"]),
             pair + tuple(fixture["large_family_extras"])],
        )


def test_criterion_6_pattern_count_conservation():
    with criterion(6, "exhaustive pattern counts sum to C(|pool|, k); "
                      "published counts satisfy 123+1876+680+1197 = C(19,4); "
                      "desk-scale run < 60 s"):
        assert 123 + 1876 + 680 + 1197 == 3876 == math.comb(19, 4)

        rng = np.random.default_rng(1006)
        start = time.monotonic()
        matrix = random_matrix(rng, m=16, n=12, tie_prob=0.0)
        core = matrix.comparates[:4]
        pool = matrix.comparates[4:]  # 12 comparates
        enumeration = enumerate_patterns(matrix, core, pool, 4, 0.05)
        elapsed = time.monotonic() - start
        assert enumeration.total_subsets == math.comb(12, 4)
        assert sum(enumeration.pattern_counts.values()) == enumeration.total_subsets
        for examples in enumeration.examples_per_pattern.values():
            assert 0 < len(examples) <= 5
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_7_bayes_properties():
    with criterion(7, "per-sample theta triples sum to exactly 1; symmetric "
                      "inputs balance within 3 SE; seed and positive-scaling "
                      "reproducibility are bit-exact"):
        diffs = [0.31, -0.12, 0.55, 0.0, -0.41, 0.07]
        config = BayesConfig(mc_samples=20_000, seed=1007)
        samples = posterior_samples(diffs, config)
        totals = (samples[:, 0] + samples[:, 2]) + samples[:, 1]
        assert (totals == 1.0).all()

        sym = BayesConfig(rope=0.0, mc_samples=40_000, seed=7)
        posterior = bayesian_signed_rank([[0.8, -0.8]], sym)[0]
        gap_samples = posterior_samples([0.8, -0.8], sym)
        gap = gap_samples[:, 0] - gap_samples[:, 2]
        se = float(gap.std(ddof=1) / np.sqrt(gap.shape[0]))
        assert abs(posterior.theta_left - posterior.theta_right) <= 3.0 * se

        again = bayesian_signed_rank([diffs], config)[0]
        assert again == bayesian_signed_rank([diffs], config)[0]

        for factor in (2.0, 0.5, 8.0):
            scaled = bayesian_signed_rank(
                [[d * factor for d in diffs]],
                BayesConfig(rope=0.01 * factor, mc_samples=20_000, seed=1007),
            )[0]
            base = bayesian_signed_rank(
                [diffs], BayesConfig(rope=0.01, mc_samples=20_000, seed=1007)
            )[0]
            assert scaled == base


UCR_PATH = os.environ.get(
    "MCMATRIX_UCR_CSV",
    str(Path(__file__).resolve().parents[1] / "data" / "ucr_accuracies.csv"),
)


def _find_name(matrix: ResultsMatrix, wanted: str) -> str:
    for name in matrix.comparates:
        if name.lower() == wanted.lower():
            return name
    raise KeyError(wanted)


@pytest.mark.skipif(
    not Path(UCR_PATH).exists(),
    reason="SKIPPED-NO-DATA: external archive results not supplied",
)
def test_criterion_8_external_reproduction():
    with criterion(8, "external-archive reproduction: pattern counts "
                      "123/1876/680/1197 and posterior 77.7%/17.3% (+-1pp)"):
        matrix = load_results(Path(UCR_PATH).read_bytes(), "csv", "higher")
        core = tuple(
            _find_name(matrix, name)
            for name in ("DrCIF", "HC2", "Hydra", "MultiRocket")
        )
        pool = tuple(c for c in matrix.comparates if c not in core)
        assert len(pool) == 19, f"expected 19 pool comparates, found {len(pool)}"
        enumeration = enumerate_patterns(matrix, core, pool, 4, 0.05)
        counts = sorted(enumeration.pattern_counts.values())
        assert counts == sorted([123, 1876, 680, 1197]), counts

        rocket = _find_name(matrix, "ROCKET")
        inception = _find_name(matrix, "InceptionTime")
        posterior = bayesian_signed_rank(
            [oriented_differences(matrix, rocket, inception)],
            BayesConfig(rope=0.01, mc_samples=100_000, seed=0),
        )[0]
        assert abs(posterior.theta_right - 0.777) <= 0.01
        assert abs(posterior.theta_rope - 0.173) <= 0.01


def test_criterion_9_render_determinism():
    with criterion(9, "golden SVG/HTML byte-exact across runs; "
                      "zero-difference cells white; significant cells bold"):
        matrix = golden_matrix()
        metadata = {"fixture": "golden", "alpha": 0.05}
        report = build_mcm(matrix, MCMConfig(alpha=0.05))
        assert render_mcm(report, format="svg", metadata=metadata) == (
            GOLDEN / "mcm.svg"
        ).read_bytes()
        assert render_mcm(report, format="html", metadata=metadata) == (
            GOLDEN / "mcm.html"
        ).read_bytes()
        assert render_cd_diagram(matrix, 0.05, "nemenyi", metadata=metadata) == (
            GOLDEN / "cd_nemenyi.svg"
        ).read_bytes()
        assert render_cd_diagram(matrix, 0.05, "wilcoxon-holm", metadata=metadata) == (
            GOLDEN / "cd_wilcoxon_holm.svg"
        ).read_bytes()

        tied = ResultsMatrix(
            ("x", "y"), ("t1", "t2"), np.array([[0.4, 0.6], [0.4, 0.6]]), "higher"
        )
        svg = render_mcm(build_mcm(tied), format="svg").decode()
        assert 'fill="#ffffff"' in svg.split('class="cell-bg"')[0].rsplit("<rect", 1)[1]

        report = build_mcm(matrix, MCMConfig(alpha=0.05))
        svg = render_mcm(report, format="svg").decode()
        n_significant = sum(cell.p_value < report.alpha for cell in report.cells.values())
        assert svg.count('font-weight="bold"') == 3 * n_significant


def test_criterion_10_friedman_sanity():
    with criterion(10, "all-identical matrix gives (0, 1); statistic invariant "
                       "under label permutation (100 random matrices)"):
        identical = ResultsMatrix(
            ("a", "b", "c"), ("t1", "t2"), np.full((3, 2), 0.7), "higher"
        )
        assert friedman_test(compute_ranks(identical)) == (0.0, 1.0)

        rng = np.random.default_rng(1010)
        for _ in range(100):
            matrix = random_matrix(rng, m=int(rng.integers(3, 8)),
                                   n=int(rng.integers(2, 20)), tie_prob=0.4)
            stat, _ = friedman_test(compute_ranks(matrix))
            perm = rng.permutation(matrix.m)
            shuffled = ResultsMatrix(
                tuple(matrix.comparates[i] for i in perm),
                matrix.tasks,
                matrix.scores[perm],
                matrix.direction,
            )
            stat_perm, _ = friedman_test(compute_ranks(shuffled))
            assert stat_perm == pytest.approx(stat, rel=1e-12, abs=1e-12)
