import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from mcmatrix import Direction, ResultsMatrix
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


def inverted_holm(pairs, alpha):
    """``holm_correction`` with every decision flipped: a deliberately wrong oracle."""
    return [dataclasses.replace(d, significant=not d.significant)
            for d in holm_correction(pairs, alpha)]
