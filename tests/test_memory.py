"""Memory bounds of the grid commands' largest transients, and of what a
report keeps alive, on an m = 100 grid of 108 continuous tasks (4,950
pairs, every cell approximate), of the Bayesian block kernel's working
set, and of the stability lab's step-down and enumeration on a large core.

``tracemalloc`` sees numpy's buffers as well as Python objects, so a peak
here is the working set of the call, whatever holds it.
"""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from mcmatrix import BayesConfig, bayes, build_mcm
from mcmatrix.bayes import CHUNK_SIZE, bayesian_signed_rank
from mcmatrix.cli import main
from mcmatrix.data import dump_results
from mcmatrix.mcm import cell_records_json
from mcmatrix.stability import _step_down, enumerate_patterns
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


def test_report_keeps_its_columns_and_slot_matrix_alive(matrix):
    # 4,950 pairs in numpy columns and a 100 x 100 slot matrix take about
    # 0.37 MB; a Python object per cell, or a dict keyed by ordered pair,
    # keeps over 2 MB.
    tracemalloc.start()
    try:
        report = build_mcm(matrix)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.cells) == 9900
    assert kept < 0.5e6


@pytest.mark.parametrize("write, bound", [
    (lambda report: render_mcm(report, "html", {"tool": "mcmatrix"}), 1.75),
    (lambda report: render_mcm(report, "svg", {"tool": "mcmatrix"}), 1.75),
    (lambda report: cell_records_json(report.cells, report.alpha), 2.5),
], ids=["html", "svg", "cells-json"])
def test_grid_writer_holds_its_output_once_and_a_part(report, write, bound):
    # SVG and HTML: each grid row goes into the output's buffer as it is
    # formed, and the HTML table's rows into a second one, appended at the
    # end; about 1.6x the output at the peak, and over 2x when the page was
    # joined as text and then encoded.  The cells' JSON text is the join of
    # its rows: the rows and the text, never a third copy.
    out, peak = _traced(lambda: write(report))
    assert len(out) > 2e6
    assert peak < bound * len(out)


@pytest.mark.parametrize("command, m, n, bound", [
    (["mcm", "--format", "json"], 100, 108, 1.3),
    (["stats"], 300, 20, 1.4),
], ids=["mcm-json", "stats"])
def test_json_command_does_not_hold_its_output(tmp_path, command, m, n, bound):
    # Through main: each grid row's text goes to the file as it is formed,
    # so the peak is the build, not the document.  `mcm` on the m = 100,
    # n = 108 table peaks at about 1.1x its output and `stats` on an
    # m = 300, n = 20 table at about 1.15x; 1.75x and 2.05x when the
    # document was held in one buffer and written at the end.  `stats`
    # imports scipy.special for the Friedman p once, about 10 MB traced
    # that is no part of the writer, so it is imported first.
    import scipy.special  # noqa: F401
    table = tmp_path / "table.csv"
    table.write_bytes(dump_results(random_matrix(np.random.default_rng(23), m=m, n=n)))
    out = tmp_path / "out.json"
    argv = [*command, "--input", str(table), "--direction", "higher", "--output", str(out)]
    code, peak = _traced(lambda: main(argv))
    assert code == 0 and out.stat().st_size > 2e6
    assert peak < bound * out.stat().st_size


@pytest.mark.parametrize("workers", [None] + [
    pytest.param(w, marks=pytest.mark.skipif(
        bayes._blas_threads() != 1, reason="needs OPENBLAS_NUM_THREADS=1")) for w in (2, 4)])
def test_posterior_block_working_set_does_not_grow_with_its_rows(monkeypatch, workers):
    # One chunk of weights, one product buffer and one row's regions are
    # alive at a time, whatever the number of rows: about 15 MB at n = 108.
    # Split over threads, the workers share the one buffer, each region a
    # few hundred KB, and the check of the chunk's slices runs in it too.
    if workers is not None:
        monkeypatch.setattr(bayes, "_workers", lambda: workers)
    monkeypatch.setattr(bayes, "_SLICES_CHECKED", {})
    rows = np.random.default_rng(24).normal(0.0, 0.05, size=(45, 108))
    config = BayesConfig(mc_samples=2 * CHUNK_SIZE, seed=5)
    one, one_peak = _traced(lambda: bayesian_signed_rank(rows[:1], config))
    block, block_peak = _traced(lambda: bayesian_signed_rank(rows, config))
    assert len(block) == 45 and block[0] == one[0]
    assert block_peak <= 1.2 * one_peak


def test_step_down_on_a_large_core_forms_only_the_patterns_it_is_asked_for():
    # A core of 120 has 7,140 pairs.  A list of every count's pattern holds
    # 7,141 integers of up to 7,140 bits: about 7.5 MB, formed in 30-40 s.
    # One family row of three is 7,381 p-values, and each pattern is formed
    # when it is read: under 1 MB.
    rng = np.random.default_rng(25)
    size = 123  # the core and a pool of three, two of them in each family
    p = np.zeros((size, size))
    left, right = np.triu_indices(size, 1)
    p[left, right] = p[right, left] = rng.uniform(0.0, 2e-5, len(left)) ** rng.uniform(
        0.5, 1.0, len(left))
    rows = np.array(list(itertools.combinations(range(3), 2)))

    def kernel():
        pattern, count = _step_down(p, 120, 2, 0.05)
        return [pattern(t) for t in count(rows).tolist()]

    masks, peak = _traced(kernel)
    assert len(masks) == 3 and all(0 < mask < 1 << 7140 for mask in masks)
    assert peak < 2e6


def test_enumeration_chunk_is_bounded_by_its_family_pairs():
    # A core of 150 and two extras: families of 11,476 pairs.  Chunks of 256
    # subsets held about 71.5 MB of p-values and decisions; chunks of at
    # most about 2^16 subset x pair entries (5 subsets here) hold about 8 MB,
    # most of it the p-value precompute over 175 comparates.
    matrix = random_matrix(np.random.default_rng(26), m=175, n=20)
    core, pool = matrix.comparates[:150], matrix.comparates[150:]
    enumeration, peak = _traced(lambda: enumerate_patterns(matrix, core, pool, 2, 0.05))
    assert enumeration.total_subsets == 300
    assert peak < 12e6
