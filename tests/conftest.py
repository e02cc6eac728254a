import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import mcmatrix.mcm
import mcmatrix.stability
import mcmatrix.stats
from mcmatrix import Direction, ResultsMatrix
from mcmatrix.cli import main
from mcmatrix.data import dump_results
from mcmatrix.stats import holm_correction

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def random_matrix(rng, m=None, n=None, tie_prob=0.0, direction=Direction.HIGHER_IS_BETTER):
    """Random results matrix; tie_prob rounds scores coarsely to force ties."""
    m = m if m is not None else int(rng.integers(2, 8))
    n = n if n is not None else int(rng.integers(1, 16))
    scores = rng.uniform(0.0, 1.0, size=(m, n))
    if tie_prob > 0.0 and rng.random() < tie_prob:
        scores = np.round(scores, 1)
    return ResultsMatrix(
        tuple(f"c{i}" for i in range(m)),
        tuple(f"t{j}" for j in range(n)),
        scores,
        direction,
    )


def cell_bits(cell) -> tuple:
    """A comparison cell with its floats as IEEE bytes, so -0.0 != 0.0."""
    return (
        cell.row, cell.column, struct.pack("<d", cell.mean_difference),
        cell.wins, cell.ties, cell.losses, struct.pack("<d", cell.p_value),
        cell.p_method,
    )


def posterior_bits(posterior) -> tuple:
    """A Bayesian posterior with its thetas as IEEE bytes."""
    thetas = (posterior.theta_left, posterior.theta_rope, posterior.theta_right)
    return tuple(struct.pack("<d", t) for t in thetas) + (posterior.mc_samples_used,)


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def fixture_matrix(fixture: dict) -> ResultsMatrix:
    spec = fixture["matrix"]
    return ResultsMatrix(
        tuple(spec["comparates"]),
        tuple(spec["tasks"]),
        np.array(spec["scores"], dtype=float),
        Direction(spec["direction"]),
    )


def golden_matrix() -> ResultsMatrix:
    """Fixed five-comparate matrix behind the golden render files."""
    scores = np.array(
        [
            [0.91, 0.85, 0.78, 0.94, 0.88, 0.90, 0.83, 0.87],
            [0.89, 0.87, 0.75, 0.90, 0.86, 0.88, 0.85, 0.84],
            [0.70, 0.72, 0.66, 0.74, 0.70, 0.71, 0.69, 0.73],
            [0.50, 0.55, 0.48, 0.61, 0.52, 0.57, 0.53, 0.55],
            [0.62, 0.60, 0.58, 0.66, 0.61, 0.63, 0.60, 0.64],
        ]
    )
    return ResultsMatrix(
        ("Alpha", "Bravo", "Charlie", "Delta", "Echo"),
        tuple(f"t{j}" for j in range(1, 9)),
        scores,
        Direction.HIGHER_IS_BETTER,
    )


def escaping_matrix() -> ResultsMatrix:
    """Six comparates whose names need XML or JSON escaping: ``&``, ``<``,
    ``>``, both quotes, a backslash and a non-ASCII letter."""
    scores = np.array(
        [
            [0.91, 0.85, 0.78, 0.94, 0.88, 0.90, 0.83, 0.87],
            [0.89, 0.87, 0.75, 0.90, 0.86, 0.88, 0.85, 0.84],
            [0.70, 0.72, 0.66, 0.74, 0.70, 0.71, 0.69, 0.73],
            [0.71, 0.70, 0.67, 0.72, 0.72, 0.70, 0.68, 0.74],
            [0.50, 0.55, 0.48, 0.61, 0.52, 0.57, 0.53, 0.55],
            [0.62, 0.60, 0.58, 0.66, 0.61, 0.63, 0.60, 0.64],
        ]
    )
    return ResultsMatrix(
        ("R&D", "<b>", "a > b", 'say "hi"', "it's", "back\\slash Zo\u00eb"),
        tuple(f"t{j}" for j in range(1, 9)),
        scores,
        Direction.HIGHER_IS_BETTER,
    )


#: (golden file stem, fixture, stability experiment and its arguments).
STABILITY_GOLDEN_CASES = (
    ("weaken_weakened_variant", "weakened_variant",
     ("weaken", "--target", "c0", "--reference", "c2",
      "--weights", "0.25,0.5,1", "--context", "c0,c1")),
    ("rank_swap_weakened_variant", "weakened_variant",
     ("rank-swap", "--pair", "c0,c1", "--set-a", "c0,c1", "--set-b", "c0,c1,c2")),
    ("weaken_rank_swap", "rank_swap",
     ("weaken", "--target", "c0", "--reference", "c3",
      "--weights", "0.3,0.7", "--context", "c0,c1,c2")),
    ("rank_swap_rank_swap", "rank_swap",
     ("rank-swap", "--pair", "c0,c1", "--set-a", "c0,c1,c2", "--set-b", "c0,c1,c3")),
    ("weaken_holm_flip", "holm_flip",
     ("weaken", "--target", "c0", "--reference", "c3",
      "--weights", "0,0.5,0.9,1", "--context", "c0,c1,c2")),
    ("rank_swap_holm_flip", "holm_flip",
     ("rank-swap", "--pair", "c0,c1", "--set-a", "c0,c1", "--set-b", "c0,c1,c2,c3")),
)


_FOCUS = ("--rows", "Alpha,Bravo", "--cols", "Alpha,Charlie,Echo")
_ENUMERATE = ("stability", "enumerate", "--core", "Alpha,Charlie", "--k-extra", "2")
#: (golden file name, ``mcmatrix`` arguments, the file read, relative to the
#: run's working directory, and the matrix the run reads as JSON).
CLI_GOLDEN_CASES = (
    ("mcm.json", ("mcm", "--format", "json"), "out", golden_matrix),
    ("mcm_focused.json", ("mcm", "--format", "json", *_FOCUS), "out", golden_matrix),
    ("mcm_focused.html", ("mcm", "--format", "html", *_FOCUS), "out", golden_matrix),
    ("mcm_bayes.json", ("mcm", "--format", "json", "--include-bayes",
                        "--mc-samples", "2000"), "out", golden_matrix),
    ("stats.json", ("stats",), "out", golden_matrix),
    ("stats_bayes.json", ("stats", "--include-bayes", "--mc-samples", "2000"), "out",
     golden_matrix),
    ("enumerate.json", _ENUMERATE, "out", golden_matrix),
    ("enumerate_sampled.json", (*_ENUMERATE, "--sample", "2", "--seed", "3"), "out",
     golden_matrix),
    # The pattern directory is relative: the SVG metadata records its name.
    ("enumerate_pattern.svg",
     ("stability", "enumerate", "--core", "Alpha,Bravo,Echo", "--k-extra", "1",
      "--render-patterns", "patterns"), "patterns/pattern-0x0001.svg", golden_matrix),
    ("escaping_mcm.html", ("mcm", "--format", "html"), "out", escaping_matrix),
    ("escaping_mcm.json", ("mcm", "--format", "json"), "out", escaping_matrix),
    ("escaping_stats.json", ("stats",), "out", escaping_matrix),
)


def _cli_bytes(source: Path, direction: str, argv: tuple, directory: Path,
               result: str = "out") -> bytes:
    """Run ``mcmatrix`` inside ``directory`` with ``--output out`` and return
    the bytes of ``result``, a path relative to ``directory``."""
    argv = [*argv, "--input", str(source), "--direction", direction,
            "--output", "out"]
    previous = os.getcwd()
    os.chdir(directory)
    try:
        if main(argv) != 0:
            raise AssertionError(f"mcmatrix run failed: {argv!r}")
        return Path(result).read_bytes()
    finally:
        os.chdir(previous)


def stability_json(fixture_name: str, experiment: tuple, directory: Path) -> bytes:
    """``mcmatrix stability <experiment>`` JSON bytes on a fixture's matrix."""
    spec = load_fixture(fixture_name)["matrix"]
    source = directory / f"{fixture_name}.json"
    source.write_text(json.dumps(spec))
    return _cli_bytes(source, spec["direction"], ("stability", *experiment), directory)


def golden_cli_output(argv: tuple, result: str, directory: Path,
                      make_matrix=golden_matrix) -> bytes:
    """Bytes of ``result`` after ``mcmatrix <argv>`` on ``make_matrix()``,
    read as JSON."""
    matrix = make_matrix()
    source = directory / "golden.json"
    source.write_bytes(dump_results(matrix, "json"))
    return _cli_bytes(source, matrix.direction.value, argv, directory, result)


@pytest.fixture
def demo_matrix() -> ResultsMatrix:
    scores = np.array(
        [
            [0.91, 0.85, 0.78, 0.94, 0.88],
            [0.89, 0.87, 0.75, 0.90, 0.86],
            [0.70, 0.72, 0.66, 0.74, 0.70],
            [0.50, 0.55, 0.48, 0.61, 0.52],
        ]
    )
    return ResultsMatrix(
        ("Alpha", "Bravo", "Charlie", "Delta"),
        ("t1", "t2", "t3", "t4", "t5"),
        scores,
        Direction.HIGHER_IS_BETTER,
    )


@pytest.fixture
def tested_pairs(monkeypatch) -> list:
    """The unordered pairs handed to ``pair_statistics``, one entry per pair,
    in every module that looks it up."""
    calls = []
    batch = mcmatrix.stats.pair_statistics

    def counting(matrix, pairs, *args, **kwargs):
        pairs = list(pairs)
        calls.extend(frozenset(pair) for pair in pairs)
        return batch(matrix, pairs, *args, **kwargs)

    for module in (mcmatrix.stats, mcmatrix.mcm, mcmatrix.stability):
        monkeypatch.setattr(module, "pair_statistics", counting)
    return calls


def inverted_holm(pairs, alpha):
    """``holm_correction`` with every decision flipped: a deliberately wrong oracle."""
    return [dataclasses.replace(d, significant=not d.significant)
            for d in holm_correction(pairs, alpha)]
