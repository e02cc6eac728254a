"""Commands run through ``main`` on random tables, with every number of the
output checked against the independent oracles.

For ``stats`` and ``mcm --format json``, cells are held to
``pairwise_comparison_scalar`` bit for bit, ranks to ``compute_ranks_loop``,
the Friedman test to ``scipy.stats``, and each posterior to
``bayesian_signed_rank_serial`` of its pair in matrix order, with left and
right swapped on a cell whose row comes later in the matrix.

For ``cd``, the average ranks are held to ``compute_ranks_loop``, the
Nemenyi critical difference to ``scipy.stats.studentized_range``, the
Holm decisions to ``holm_mask_list`` of the scalar p-values, and the bars
to ``contiguous_runs_loop``; the SVG's labels and bars are held to the
same layout.  ``stability enumerate`` is held to ``per_subset_enumeration``,
and ``rank-swap`` and ``weaken`` to ``compute_ranks_loop`` and
``holm_mask_list`` on the restricted tables.

The scores are rounded to at most two decimals, so tied scores, tied
differences and zero differences all occur.  Tables of two comparates are
drawn too, except for ``stats`` and ``mcm``.
"""

import functools
import json
import math
import re
import struct
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, friedmanchisquare, studentized_range

from mcmatrix import BayesConfig, Direction, ResultsMatrix
from mcmatrix.cli import main
from mcmatrix.render import cd_layout
from mcmatrix.render.core import fnum
from mcmatrix.render.style import CD_AXIS_WIDTH, PADDING

from oracles import (bayesian_signed_rank_serial, compute_ranks_loop, contiguous_runs_loop,
                     holm_mask_list, pairwise_comparison_scalar, per_subset_enumeration,
                     sample_ranks_loop)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def _tables(draw, min_m: int = 2, max_m: int = 8):
    """A table of ``min_m`` to ``max_m`` comparates and 1 to 30 tasks, in
    either direction, with scores rounded to 0, 1 or 2 decimals."""
    m, n = draw(st.integers(min_m, max_m)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    skill = rng.uniform(0.0, 1.0, size=(m, 1))
    scores = np.round(skill + rng.uniform(0.0, 1.0, size=(m, n)), draw(st.integers(0, 2)))
    return ResultsMatrix(tuple(f"c{i}" for i in range(m)), tuple(f"t{j}" for j in range(n)),
                         scores, draw(st.sampled_from(list(Direction))))


@st.composite
def _studies(draw):
    """A table and the flags shared by ``stats`` and ``mcm``."""
    matrix = draw(_tables(3))
    flags = {"--alpha": draw(st.sampled_from([0.05, 0.2])),
             "--tie-epsilon": draw(st.sampled_from([0.0, 0.1]))}
    if draw(st.booleans()):
        flags.update({"--include-bayes": None, "--mc-samples": draw(st.integers(1, 300)),
                      "--seed": draw(st.integers(0, 2**64 - 1)),
                      "--rope": draw(st.sampled_from([0.0, 0.01, 0.5]))})
    return matrix, flags


def _main(matrix: ResultsMatrix, command: list[str], flags: dict) -> tuple[int, bytes]:
    """``main`` on ``matrix`` written as CSV: its exit code and output."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scores.csv", Path(tmp) / "out"
        lines = [",".join(("comparate", *matrix.tasks))]
        lines += [",".join((name, *map(repr, row)))
                  for name, row in zip(matrix.comparates, matrix.scores.tolist())]
        path.write_text("\n".join(lines) + "\n")
        argv = [*command, "--input", str(path), "--direction", matrix.direction.value,
                "--output", str(out)]
        for flag, value in flags.items():
            argv += [flag] if value is None else [flag, str(value)]
        code = main(argv)
        return code, out.read_bytes() if out.exists() else b""


def _run(matrix: ResultsMatrix, command: list[str], flags: dict) -> dict:
    """``main`` on ``matrix``, which must succeed, with its JSON output parsed."""
    code, out = _main(matrix, command, flags)
    assert code == 0
    return json.loads(out)


def _scalar_p(matrix: ResultsMatrix, names) -> np.ndarray:
    """The oracle p-value of every pair among ``names``, as a symmetric array."""
    p = np.zeros((len(names), len(names)))
    for (i, a), (j, b) in combinations(enumerate(names), 2):
        p[i, j] = p[j, i] = pairwise_comparison_scalar(matrix, a, b, 0.0).p_value
    return p


def _pairs_of(mask: int, names) -> list[list[str]]:
    """The pairs of ``names`` whose bits are set, in ``combinations`` order."""
    return [[a, b] for bit, (a, b) in enumerate(combinations(names, 2)) if mask >> bit & 1]


def _average_ranks(matrix: ResultsMatrix, names) -> dict[str, float]:
    """``compute_ranks_loop``'s average ranks of the table restricted to ``names``."""
    rows = [matrix.index_of(name) for name in names]
    restricted = ResultsMatrix(tuple(names), matrix.tasks, matrix.scores[rows], matrix.direction)
    return dict(zip(names, compute_ranks_loop(restricted)[1].tolist()))


def _posteriors(matrix: ResultsMatrix, flags: dict) -> dict | None:
    """Each matrix-order pair's (left, rope, right) from the serial oracle."""
    if "--include-bayes" not in flags:
        return None
    config = BayesConfig(rope=flags["--rope"], mc_samples=flags["--mc-samples"],
                         seed=flags["--seed"])
    pairs = [(i, j) for i in range(matrix.m) for j in range(i + 1, matrix.m)]
    sign = 1.0 if matrix.direction is Direction.HIGHER_IS_BETTER else -1.0
    rows = [sign * (matrix.scores[i] - matrix.scores[j]) for i, j in pairs]
    return dict(zip(pairs, bayesian_signed_rank_serial(rows, config).tolist()))


def _check_cells(matrix: ResultsMatrix, flags: dict, records: list[dict],
                 keys: list[tuple[str, str]]) -> None:
    """Each record against the oracles, in the order of ``keys``."""
    assert [(r["row"], r["col"]) for r in records] == keys
    posteriors = _posteriors(matrix, flags)
    for record in records:
        row, column = record["row"], record["col"]
        cell = pairwise_comparison_scalar(matrix, row, column, flags["--tie-epsilon"])
        assert _bits(record["mean_diff"]) == _bits(cell.mean_difference)
        assert (record["wins"], record["ties"], record["losses"]) == (
            cell.wins, cell.ties, cell.losses)
        assert _bits(record["p"]) == _bits(cell.p_value)
        assert record["p_method"] == cell.p_method.value
        assert record["significant"] is (cell.p_value < flags["--alpha"])
        if posteriors is None:
            assert "bayes" not in record
            continue
        i, j = matrix.index_of(row), matrix.index_of(column)
        left, rope, right = posteriors[min(i, j), max(i, j)]
        if i > j:  # the mirror of its pair
            left, right = right, left
        got = record["bayes"]
        assert [_bits(got[k]) for k in ("theta_left", "theta_rope", "theta_right")] == [
            _bits(left), _bits(rope), _bits(right)]
        assert got["mc_samples"] == flags["--mc-samples"]


@settings(max_examples=60, deadline=None)
@given(_studies())
def test_stats_numbers_match_the_oracles(study):
    matrix, flags = study
    doc = _run(matrix, ["stats"], flags)
    assert doc["comparates"] == list(matrix.comparates)
    assert doc["tasks"] == list(matrix.tasks)
    ranks, average, _ = compute_ranks_loop(matrix)
    assert np.array_equal(np.array(doc["ranks"]), ranks)
    assert list(doc["average_ranks"]) == list(matrix.comparates)
    assert [_bits(x) for x in doc["average_ranks"].values()] == [_bits(x) for x in average]
    if matrix.n < 2:
        assert doc["friedman"] == {"skipped": "the Friedman test needs at least two tasks"}
    elif all(len(set(task)) == 1 for task in matrix.scores.T.tolist()):
        assert doc["friedman"] == {"statistic": 0.0, "p_value": 1.0}  # every task a full tie
    else:
        statistic = friedmanchisquare(*matrix.scores).statistic
        assert math.isclose(doc["friedman"]["statistic"], statistic, rel_tol=1e-12,
                            abs_tol=1e-12)
        p = chi2.sf(statistic, matrix.m - 1)
        assert math.isclose(doc["friedman"]["p_value"], p, rel_tol=1e-12)
    keys = [(a, b) for i, a in enumerate(matrix.comparates) for b in matrix.comparates[i + 1:]]
    _check_cells(matrix, flags, doc["pairwise"], keys)


@settings(max_examples=60, deadline=None)
@given(_studies(), st.data())
def test_mcm_json_numbers_match_the_oracles(study, data):
    matrix, flags = study
    names = list(matrix.comparates)
    rows = cols = names
    focus = data.draw(st.sampled_from(["full", "rows", "cols", "both"]))
    if focus != "full":
        # Overlapping selections, so that a pair can sit on both sides of
        # the diagonal: one cell is its pair, the other the mirror.
        shared = data.draw(st.sampled_from(names))
        subsets = st.lists(st.sampled_from(names), unique=True, max_size=len(names))
        if focus in ("rows", "both"):
            rows = [shared] + [c for c in data.draw(subsets) if c != shared]
        if focus in ("cols", "both"):
            cols = [c for c in data.draw(subsets) if c != shared] + [shared]
        if len(set(rows) | set(cols)) < 2:
            cols = names
        for flag, chosen in (("--rows", rows), ("--cols", cols)):
            if chosen is not names:
                flags = {**flags, flag: ",".join(chosen)}
    doc = _run(matrix, ["mcm", "--format", "json"], flags)

    means = {c: float(np.mean(matrix.scores[matrix.index_of(c)])) for c in set(rows) | set(cols)}
    sign = -1.0 if matrix.direction is Direction.HIGHER_IS_BETTER else 1.0

    def ordered(chosen):
        return sorted(chosen, key=lambda c: (sign * means[c], c))

    assert doc["row_order"] == ordered(rows) and doc["column_order"] == ordered(cols)
    assert doc["ordering"] == ordered(means)
    assert {c: _bits(x) for c, x in doc["mean_performance"].items()} == {
        c: _bits(x) for c, x in means.items()}
    assert (doc["alpha"], doc["tie_epsilon"], doc["n_tasks"]) == (
        flags["--alpha"], flags["--tie-epsilon"], matrix.n)
    keys = [(r, c) for r in ordered(rows) for c in ordered(cols) if r != c]
    full = set(rows) == set(cols)
    assert doc["comparison_count"] == (len(keys) // 2 if full else len(keys))
    _check_cells(matrix, flags, doc["cells"], keys)


@functools.lru_cache(maxsize=None)
def _studentized_q(alpha: float, m: int) -> float:
    return studentized_range.ppf(1.0 - alpha, m, 1e8) / math.sqrt(2.0)


@settings(max_examples=60, deadline=None)
@given(_tables(), st.sampled_from(["nemenyi", "wilcoxon-holm"]), st.sampled_from([0.05, 0.1]))
def test_cd_numbers_match_the_oracles(matrix, method, alpha):
    code, svg = _main(matrix, ["cd", "--pairwise", method], {"--alpha": alpha})
    m, n = matrix.m, matrix.n
    if m < 3 or n < 2:
        assert (code, svg) == (2, b"")
        return
    assert code == 0
    averages = _average_ranks(matrix, matrix.comparates)
    ranked = sorted((ar, name) for name, ar in averages.items())
    layout = cd_layout(matrix, alpha, method)
    assert layout.names == tuple(name for _, name in ranked)
    assert [_bits(ar) for ar in layout.average_ranks] == [_bits(ar) for ar, _ in ranked]
    ars, names = layout.average_ranks, layout.names
    if method == "nemenyi":
        cd = layout.critical_difference
        # The package's table holds q to six decimals.
        assert math.isclose(cd, _studentized_q(alpha, m) * math.sqrt(m * (m + 1) / (6.0 * n)),
                            rel_tol=1e-6)

        def joined(i, j):
            return abs(ars[i] - ars[j]) <= cd
    else:
        assert layout.critical_difference is None
        mask = holm_mask_list(_scalar_p(matrix, matrix.comparates), m, alpha)
        # ~mask sets the bits of the pairs Holm finds significant.
        apart = {frozenset(pair) for pair in _pairs_of(~mask, matrix.comparates)}

        def joined(i, j):
            return frozenset((names[i], names[j])) not in apart
    assert list(layout.bars) == contiguous_runs_loop(m, joined)

    text = svg.decode("utf-8")
    labels = re.search(r'<g class="labels">(.*?)</g>', text, re.S).group(1)
    assert re.findall(r">([^<]*)</text>", labels) == [
        f"{name} ({fnum(ar, 4)})" for ar, name in ranked]
    title = re.search(r">(alpha = [^<]*)</text>", text).group(1)
    assert title.endswith(f"critical difference = {fnum(layout.critical_difference, 4)}"
                          if method == "nemenyi" else "Holm correction")
    bars = re.search(r'<g class="bars">(.*?)</g>', text, re.S).group(1)
    xs = [PADDING + 40.0 + (m - ar) / (m - 1) * CD_AXIS_WIDTH for ar, _ in ranked]
    drawn = [tuple(map(float, ends))
             for ends in re.findall(r'x1="([^"]*)"[^>]*x2="([^"]*)"', bars)]
    assert len(drawn) == len(layout.bars)
    for (x1, x2), (i, j) in zip(drawn, layout.bars):
        assert math.isclose(x1, xs[j] - 3.0, abs_tol=0.006)
        assert math.isclose(x2, xs[i] + 3.0, abs_tol=0.006)


@settings(max_examples=60, deadline=None)
@given(_tables(max_m=11), st.data())
def test_enumerate_counts_match_the_subset_loop(matrix, data):
    # Cores of at most four leave pools of up to nine, whose patterns hold
    # enough subsets to replace reservoir examples.
    names = data.draw(st.permutations(matrix.comparates))
    n_core = data.draw(st.integers(2, min(4, len(names))))
    core, pool = tuple(names[:n_core]), tuple(names[n_core:])
    k_extra = data.draw(st.integers(0, len(pool)))
    total = math.comb(len(pool), k_extra)
    sample = data.draw(st.none() | st.integers(1, total + 1))
    alpha, seed = data.draw(st.sampled_from([0.05, 0.2])), data.draw(st.integers(0, 2**64 - 1))
    flags = {"--core": ",".join(core), "--k-extra": k_extra, "--alpha": alpha, "--seed": seed}
    if pool:
        flags["--pool"] = ",".join(pool)  # the pool's order is the order of the subsets
    if sample is not None:
        flags["--sample"] = sample
    doc = _run(matrix, ["stability", "enumerate"], flags)
    ranks = (range(total) if sample is None or sample >= total
             else sample_ranks_loop(total, sample, seed))
    expected = per_subset_enumeration(matrix, core, pool, k_extra, alpha, ranks, 5, seed)
    assert doc.pop("metadata")["config"]["pool"] == list(pool)
    assert doc == expected.to_dict()


@settings(max_examples=60, deadline=None)
@given(_tables(), st.data())
def test_rank_swap_matches_the_oracles(matrix, data):
    names = data.draw(st.permutations(matrix.comparates))
    pair, others = list(names[:2]), names[2:]
    sets = [pair + data.draw(st.lists(st.sampled_from(others), unique=True)) if others else pair
            for _ in "ab"]
    sets = [data.draw(st.permutations(chosen)) for chosen in sets]
    alpha = data.draw(st.sampled_from([0.05, 0.2]))
    doc = _run(matrix, ["stability", "rank-swap"],
               {"--pair": ",".join(pair), "--set-a": ",".join(sets[0]),
                "--set-b": ",".join(sets[1]), "--alpha": alpha})
    assert doc["pair"] == pair
    x, y = pair
    for side, chosen in zip("ab", sets):
        averages = _average_ranks(matrix, chosen)
        got = doc[f"average_ranks_{side}"]
        assert list(got) == pair
        assert [_bits(got[c]) for c in pair] == [_bits(averages[c]) for c in pair]
        better = x if averages[x] < averages[y] else y if averages[y] < averages[x] else None
        assert doc[f"better_{side}"] == better
        family = pair + [c for c in chosen if c not in pair]
        significant = holm_mask_list(_scalar_p(matrix, family), 2, alpha) == 0
        assert doc[f"significant_{side}"] is significant
    assert doc["swapped"] is (doc["better_a"] != doc["better_b"])


def _blend(target: float, reference: float, weight: float) -> float:
    """A variant's score: ``weight`` of the target's and the rest of the
    reference's, kept between the two."""
    if weight in (0.0, 1.0):
        return target if weight == 1.0 else reference
    mixed = weight * target + (1.0 - weight) * reference
    return min(max(mixed, min(target, reference)), max(target, reference))


@settings(max_examples=40, deadline=None)
@given(_tables(), st.data())
def test_weaken_matches_the_oracles(matrix, data):
    names = data.draw(st.permutations(matrix.comparates))
    target, reference = names[0], data.draw(st.sampled_from(names[1:]))
    context = [target] + data.draw(st.lists(st.sampled_from(names[1:]), min_size=1, unique=True))
    weights = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                 min_size=1, max_size=3))
    alpha = data.draw(st.sampled_from([0.05, 0.2]))
    doc = _run(matrix, ["stability", "weaken"],
               {"--target": target, "--reference": reference, "--context": ",".join(context),
                "--weights": ",".join(map(repr, weights)), "--alpha": alpha})
    ordered = [c for c in matrix.comparates if c in context]
    assert doc["context"] == ordered
    base = holm_mask_list(_scalar_p(matrix, ordered), len(ordered), alpha)
    assert doc["baseline_pattern_bitmask"] == hex(base)
    assert doc["baseline_non_significant_pairs"] == _pairs_of(base, ordered)
    assert _bits(doc["baseline_target_average_rank"]) == _bits(
        _average_ranks(matrix, ordered)[target])
    t, r = matrix.scores[matrix.index_of(target)], matrix.scores[matrix.index_of(reference)]
    assert len(doc["outcomes"]) == len(weights)
    for weight, outcome in zip(weights, doc["outcomes"]):
        variant = outcome["variant"]
        assert _bits(outcome["weight"]) == _bits(weight) and variant not in matrix.comparates
        blended = [_blend(a, b, weight) for a, b in zip(t.tolist(), r.tolist())]
        augmented = ResultsMatrix(matrix.comparates + (variant,), matrix.tasks,
                                  np.vstack([matrix.scores, blended]), matrix.direction)
        averages = _average_ranks(augmented, ordered + [variant])
        assert _bits(outcome["target_average_rank"]) == _bits(averages[target])
        assert _bits(outcome["variant_average_rank"]) == _bits(averages[variant])
        mask = holm_mask_list(_scalar_p(augmented, ordered + [variant]), len(ordered), alpha)
        assert outcome["pattern_bitmask"] == hex(mask)
        assert outcome["non_significant_pairs"] == _pairs_of(mask, ordered)
        assert outcome["flipped_pairs"] == sorted(_pairs_of(base ^ mask, ordered))
