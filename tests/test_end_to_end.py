"""``stats`` and ``mcm --format json`` run through ``main`` on random tables,
with every number of the output checked against the independent oracles.

Cells are held to ``pairwise_comparison_scalar`` bit for bit, ranks to
``compute_ranks_loop``, the Friedman test to ``scipy.stats``, and each
posterior to ``bayesian_signed_rank_serial`` of its pair in matrix order,
with left and right swapped on a cell whose row comes later in the matrix.
The scores are rounded to at most two decimals, so tied scores, tied
differences and zero differences all occur.
"""

import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, friedmanchisquare

from mcmatrix import BayesConfig, Direction, ResultsMatrix
from mcmatrix.cli import main

from oracles import bayesian_signed_rank_serial, compute_ranks_loop, pairwise_comparison_scalar


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def _studies(draw):
    """A table and the flags shared by both commands."""
    m, n = draw(st.integers(3, 8)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    skill = rng.uniform(0.0, 1.0, size=(m, 1))
    scores = np.round(skill + rng.uniform(0.0, 1.0, size=(m, n)), draw(st.integers(0, 2)))
    matrix = ResultsMatrix(tuple(f"c{i}" for i in range(m)), tuple(f"t{j}" for j in range(n)),
                           scores, draw(st.sampled_from(list(Direction))))
    flags = {"--alpha": draw(st.sampled_from([0.05, 0.2])),
             "--tie-epsilon": draw(st.sampled_from([0.0, 0.1]))}
    if draw(st.booleans()):
        flags.update({"--include-bayes": None, "--mc-samples": draw(st.integers(1, 300)),
                      "--seed": draw(st.integers(0, 2**64 - 1)),
                      "--rope": draw(st.sampled_from([0.0, 0.01, 0.5]))})
    return matrix, flags


def _run(matrix: ResultsMatrix, command: list[str], flags: dict) -> dict:
    """``main`` on ``matrix`` written as CSV, with its JSON output parsed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        lines = [",".join(("comparate", *matrix.tasks))]
        lines += [",".join((name, *map(repr, row)))
                  for name, row in zip(matrix.comparates, matrix.scores.tolist())]
        path.write_text("\n".join(lines) + "\n")
        argv = [*command, "--input", str(path), "--direction", matrix.direction.value,
                "--output", str(Path(tmp) / "out.json")]
        for flag, value in flags.items():
            argv += [flag] if value is None else [flag, str(value)]
        assert main(argv) == 0
        return json.loads((Path(tmp) / "out.json").read_text())


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
