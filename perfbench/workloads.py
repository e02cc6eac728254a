"""Seeded inputs and command lists for the benchmark workloads.

A seed selects one of ``DATASETS`` generated datasets per workload
(``seed % DATASETS``), so every input the benchmark can produce has an
output digest recorded in ``digests.json``.  A dataset is one or more
named tables; each op reads one of them.  Tables come from
``random.Random`` seeded with a string, whose stream Python keeps stable
across versions and platforms, and are written as CSV with ``repr`` floats
so they parse back exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

DATASETS = 32


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass, on the workload's table named ``table``.

    ``items`` counts the output items the op produces (grid cells, cells
    carrying a posterior, or evaluated subsets); ``pairs`` counts the
    distinct unordered comparate pairs the op needs a statistic for.
    """

    name: str
    table: str
    args: tuple[str, ...]
    items: int
    pairs: int

    def argv(self, table: Path, output: Path) -> list[str]:
        return [*self.args, "--input", str(table), "--direction", "higher",
                "--output", str(output)]


@dataclass(frozen=True)
class Workload:
    """Generated tables and the ops one pass runs on them.

    ``generate`` maps a table name to the function that writes that table
    for a dataset number.

    ``layers`` names the spans (see ``spans.PATCHES``) every pass must
    record: the layers the workload is chosen to exercise.  If one of them
    never fires, its metrics are left out instead of reading zero.
    """

    name: str
    why: str
    generate: Mapping[str, Callable[[int], bytes]]
    ops: tuple[Op, ...]
    layers: frozenset[str]

    def tables(self, seed: int) -> dict[str, bytes]:
        return {name: make(seed % DATASETS) for name, make in self.generate.items()}


def _csv(comparates: list[str], rows: list[list[str]], n: int) -> bytes:
    lines = ["comparate," + ",".join(f"t{j:03d}" for j in range(n))]
    lines += [name + "," + ",".join(row) for name, row in zip(comparates, rows)]
    return ("\n".join(lines) + "\n").encode("ascii")


def _scores(rng: random.Random, skills: list[float], n: int, noise: float) -> list[list[float]]:
    # Accuracy-like scores: a per-task difficulty shared by every comparate,
    # a per-comparate skill and independent per-cell noise.
    base = [rng.uniform(0.55, 0.85) for _ in range(n)]
    return [[b + s + rng.gauss(0.0, noise) for b in base] for s in skills]


def grid_approx_table(dataset: int) -> bytes:
    """m = 100, n = 108, continuous scores: every cell is a normal approximation."""
    rng = random.Random(f"perfbench:grid_approx:{dataset}")
    m, n = 100, 108
    skills = [rng.gauss(0.0, 0.02) for _ in range(m)]
    rows = _scores(rng, skills, n, 0.03)
    return _csv([f"m{i:03d}" for i in range(m)], [[repr(x) for x in r] for r in rows], n)


def grid_exact_table(dataset: int) -> bytes:
    """m = 100, n = 20, two-decimal scores with duplicated rows.

    Rounding makes zero and tied differences common; the last four rows
    copy earlier rows, so their pairs have all-zero differences.
    """
    rng = random.Random(f"perfbench:grid_exact:{dataset}")
    m, n, copies = 100, 20, 4
    skills = [rng.gauss(0.0, 0.02) for _ in range(m - copies)]
    rows = [[f"{x:.2f}" for x in r] for r in _scores(rng, skills, n, 0.03)]
    rows += [list(rows[rng.randrange(m - copies)]) for _ in range(copies)]
    return _csv([f"m{i:03d}" for i in range(m)], rows, n)


def _signed_rank_z(diffs: list[float]) -> float:
    # Normal score of the signed-rank statistic for tie-free differences.
    order = sorted(range(len(diffs)), key=lambda j: abs(diffs[j]))
    w_plus = sum(rank for rank, j in enumerate(order, start=1) if diffs[j] > 0)
    n = len(diffs)
    return (w_plus - n * (n + 1) / 4) / math.sqrt(n * (n + 1) * (2 * n + 1) / 24)


def enumerate_table(dataset: int) -> bytes:
    """Core of 4 near the Holm thresholds, pool of 19 with a tight cluster.

    Each core comparate is redrawn until it differs from the previous one
    with a signed-rank z in [2.8, 3.2] (p between about 0.0014 and 0.005).
    Ten pool comparates form a cluster whose pairs are not significant, so
    the number of large p-values in a family, and with it the Holm
    threshold each core pair meets, varies from subset to subset: the
    subsets show several significance patterns (checked for every dataset
    by ``record_digests.py``).
    """
    rng = random.Random(f"perfbench:enumerate:{dataset}")
    n, noise = 108, 0.03
    base = [rng.uniform(0.55, 0.85) for _ in range(n)]
    core = [[b + rng.gauss(0.0, noise) for b in base]]
    while len(core) < 4:
        row = [x + 0.008 + rng.gauss(0.0, noise) for x in core[-1]]
        if 2.8 <= _signed_rank_z([a - b for a, b in zip(row, core[-1])]) <= 3.2:
            core.append(row)
    skills = [0.015 + rng.gauss(0.0, 0.003) for _ in range(10)]
    skills += [rng.uniform(-0.1, 0.1) for _ in range(9)]
    pool = [[b + s + rng.gauss(0.0, noise) for b in base] for s in skills]
    names = [f"core{i}" for i in range(4)] + [f"x{i:02d}" for i in range(19)]
    return _csv(names, [[repr(x) for x in r] for r in core + pool], n)


def bayes_table(dataset: int) -> bytes:
    """m = 5, n = 108 with gaps on the scale of the rope (0.01)."""
    rng = random.Random(f"perfbench:bayes:{dataset}")
    n = 108
    skills = [0.0, 0.005, 0.01, 0.02, rng.uniform(-0.02, 0.03)]
    rows = _scores(rng, skills, n, 0.03)
    return _csv([f"b{i}" for i in range(5)], [[repr(x) for x in r] for r in rows], n)


_CORE = "core0,core1,core2,core3"
# A quarter of the CLI default keeps a pass near two seconds, so a run holds
# several passes; the cost per sample is the same.
_SAMPLES = "25000"
_GRID_PAIRS = math.comb(100, 2)
_CLI = frozenset({"cli.main", "data.load_results", "stats.wilcoxon_signed_rank"})
_GRID = _CLI | {"stats.pairwise_comparison", "stats.holm_correction", "stats.compute_ranks",
                "stats.friedman_test", "mcm.build_mcm", "render.render_mcm",
                "render.render_cd_diagram"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid",
            "two m=100 grids: n=108 continuous scores, all normal-approximation cells, and n=20 "
            "two-decimal scores, exact or degenerate cells; pair kernel, grid and render dominate",
            {"approx": grid_approx_table, "exact": grid_exact_table},
            (
                Op("approx.mcm", "approx", ("mcm", "--format", "html"), 100 * 99, _GRID_PAIRS),
                Op("approx.stats", "approx", ("stats",), _GRID_PAIRS, _GRID_PAIRS),
                Op("approx.cd", "approx", ("cd", "--pairwise", "wilcoxon-holm"), 0,
                   _GRID_PAIRS),
                Op("exact.mcm", "exact", ("mcm", "--format", "svg"), 100 * 99, _GRID_PAIRS),
                Op("exact.stats", "exact", ("stats",), _GRID_PAIRS, _GRID_PAIRS),
                Op("exact.cd", "exact", ("cd", "--pairwise", "wilcoxon-holm"), 0,
                   _GRID_PAIRS),
            ),
            _GRID,
        ),
        Workload(
            "enumerate",
            "core 4, pool 19: the per-subset Holm step-down dominates, over 11,628 "
            "exhaustive and 10,000 sampled subsets; the p-value precompute is 253 pairs",
            {"enumerate": enumerate_table},
            (
                Op("exhaustive", "enumerate",
                   ("stability", "enumerate", "--core", _CORE, "--k-extra", "5"),
                   math.comb(19, 5), math.comb(23, 2)),
                Op("sampled", "enumerate",
                   ("stability", "enumerate", "--core", _CORE, "--k-extra", "8",
                    "--sample", "10000"), 10_000, math.comb(23, 2)),
            ),
            _CLI | {"stats.holm_correction", "stability.enumerate_patterns"},
        ),
        Workload(
            "bayes",
            "m=5, n=108 at 25,000 samples per posterior: Monte Carlo posteriors are "
            "over 95% of the time and the pair kernel is negligible",
            {"bayes": bayes_table},
            (
                Op("mcm", "bayes", ("mcm", "--include-bayes", "--mc-samples", _SAMPLES,
                                    "--format", "json"), 20, 10),
                Op("stats", "bayes", ("stats", "--include-bayes", "--mc-samples", _SAMPLES),
                   10, 10),
            ),
            _CLI | {"stats.pairwise_comparison", "stats.compute_ranks", "stats.friedman_test",
                    "mcm.build_mcm", "bayes.bayesian_signed_rank"},
        ),
    )
}
