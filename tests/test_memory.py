"""Memory bounds of the grid commands' largest transients, on an m = 100
grid of 108 continuous tasks (4,950 pairs, every cell approximate).

``tracemalloc`` sees numpy's buffers as well as Python objects, so a peak
here is the working set of the call, whatever holds it.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from mcmatrix import build_mcm
from mcmatrix.mcm import cell_records_json
from mcmatrix.render import render_mcm
from mcmatrix.stats import pair_statistics

from conftest import random_matrix


def _traced(call):
    """``call()`` and the most memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def matrix():
    return random_matrix(np.random.default_rng(23), m=100, n=108)


@pytest.fixture(scope="module")
def report(matrix):
    return build_mcm(matrix)


def test_pair_kernel_working_set_is_slice_sized(matrix):
    # 4,950 x 108 differences: blocks of 2^19 differences held about 31 MB;
    # slices of 2^16 hold about 4 MB, the result table included.
    pairs = list(itertools.combinations(matrix.comparates, 2))
    table, peak = _traced(lambda: pair_statistics(matrix, pairs))
    assert len(table) == 4950
    assert peak < 8e6


@pytest.mark.parametrize("write", [
    lambda report: render_mcm(report, "html", {"tool": "mcmatrix"}),
    lambda report: render_mcm(report, "svg", {"tool": "mcmatrix"}),
    lambda report: cell_records_json(report.cells, report.alpha),
], ids=["html", "svg", "cells-json"])
def test_grid_writer_holds_its_output_about_twice(report, write):
    # The row strings and the joined output, then the output and its
    # encoding: never the three at once.
    out, peak = _traced(lambda: write(report))
    assert len(out) > 2e6
    assert peak < 2.5 * len(out)
