"""Tests of the benchmark itself.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import DATASETS, WORKLOADS, Op  # noqa: E402

ROOT = HERE.parent


@pytest.fixture(scope="module")
def cli():
    return run.import_cli(ROOT)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    assert workload.tables(7) == workload.tables(7)
    assert workload.tables(7) == workload.tables(7 + DATASETS)
    for table, data in workload.tables(8).items():
        assert workload.tables(7)[table] != data


def test_every_op_reads_a_generated_table():
    for workload in WORKLOADS.values():
        assert {op.table for op in workload.ops} == set(workload.generate)


def test_generated_tables_have_the_documented_shapes():
    def shape(name, table):
        rows = WORKLOADS[name].tables(0)[table].decode().splitlines()
        return len(rows) - 1, len(rows[0].split(",")) - 1, rows[1:]

    assert shape("grid", "approx")[:2] == (100, 108)
    assert shape("enumerate", "enumerate")[:2] == (23, 108)
    assert shape("bayes", "bayes")[:2] == (5, 108)
    m, n, rows = shape("grid", "exact")
    assert (m, n) == (100, 20)
    scores = [row.split(",", 1)[1] for row in rows]
    assert len(set(scores)) < m  # duplicated rows give degenerate cells
    assert all(len(cell.split(".")[1]) == 2 for s in scores for cell in s.split(","))


def _span(sid, name, start, end, parent=None, op=0, **info):
    return spans.Span(sid, name, start, end, parent, op, info or None)


def test_self_time_of_a_hand_built_span_tree():
    tree = [
        _span(1, "stats.wilcoxon_signed_rank", 20, 30, parent=2),
        _span(2, "stats.pairwise_comparison", 15, 40, parent=3, p_method="exact"),
        _span(4, "stats.pairwise_comparison", 45, 60, parent=3, p_method="degenerate"),
        _span(3, "mcm.build_mcm", 10, 70, parent=0, cells=2),
        _span(5, "render.render_mcm", 75, 95, parent=0, bytes_out=123),
        _span(0, "cli.main", 0, 100),
    ]
    own = spans.self_ns(tree)
    assert own == {0: 100 - 60 - 20, 1: 10, 2: 25 - 10, 3: 60 - 25 - 15, 4: 15, 5: 20}

    metrics = spans.layer_metrics(tree, op_pairs=[1])
    assert metrics["cli.self_s"] == 20e-9
    assert metrics["mcm.build_s"] == 60e-9
    assert metrics["mcm.self_s"] == 20e-9
    assert metrics["mcm.cells"] == 2
    assert metrics["stats.exact_cells"] == 1
    assert metrics["stats.degenerate_cells"] == 1
    assert metrics["stats.pair_evals_per_unique_pair"] == 1.0
    assert metrics["render.bytes_out"] == 123


TINY_TABLE = b"comparate,t1,t2,t3,t4\nA,0.9,0.8,0.7,0.6\nB,0.5,0.8,0.6,0.4\nC,0.1,0.2,0.3,0.5\n"
TINY_OP = Op("stats", "tiny", ("stats",), items=3, pairs=3)


def _tiny_pass(cli, tmp_path, expected, tracer=None):
    table = tmp_path / "tiny.csv"
    table.write_bytes(TINY_TABLE)
    return run.run_pass(cli, (TINY_OP,), {"tiny": table}, tmp_path, expected, tracer)


def test_corrupted_output_counts_as_failed(cli, tmp_path, monkeypatch):
    clean = _tiny_pass(cli, tmp_path, {})
    expected = {"stats": clean.digests[0]}
    assert _tiny_pass(cli, tmp_path, expected).failed == 0

    def corrupting_write(path, payload):
        Path(path).write_bytes(payload.replace(b"0", b"1", 1))

    monkeypatch.setattr(cli, "_write_output", corrupting_write)
    corrupted = _tiny_pass(cli, tmp_path, expected)
    assert (corrupted.attempted, corrupted.failed) == (1, 1)
    assert corrupted.digests[0] != expected["stats"]


def test_nonzero_exit_counts_as_failed(cli, tmp_path):
    table = tmp_path / "bad.csv"
    table.write_bytes(b"comparate,t1\nA,nan\nB,1\n")
    result = run.run_pass(cli, (TINY_OP,), {"tiny": table}, tmp_path, {"stats": "0" * 64})
    assert (result.failed, result.digests) == (1, [None])


def test_calibrated_pass_times_the_reference_around_each_op(cli, tmp_path):
    table = tmp_path / "tiny.csv"
    table.write_bytes(TINY_TABLE)
    result = run.run_pass(cli, (TINY_OP, TINY_OP), {"tiny": table}, tmp_path, {},
                          calibrate=True)
    assert len(result.reference) == 3 and min(result.reference) > 0.0
    assert _tiny_pass(cli, tmp_path, {}).reference == []


def test_scaled_seconds_are_at_the_reference_speed():
    def scaled(seconds, reference):
        return run.PassResult(seconds, 0, 1, 0, [], reference).scaled_seconds

    ref = run.REF_SECONDS
    assert scaled(3.0, [ref, ref]) == pytest.approx(3.0)
    assert scaled(3.0, [ref, 3 * ref]) == pytest.approx(1.5)  # the host ran at half speed
    assert scaled(3.0, [ref, ref, 9 * ref]) == pytest.approx(3.0)  # one stalled sample


def test_traced_pass_is_byte_identical_and_counts_each_layer(cli, tmp_path):
    untraced = _tiny_pass(cli, tmp_path, {})
    tracer = spans.Tracer()
    with tracer.installed():
        traced = _tiny_pass(cli, tmp_path, {"stats": untraced.digests[0]}, tracer)
    assert traced.failed == 0
    assert not hasattr(cli.main, "__wrapped__")  # originals are restored

    metrics = spans.layer_metrics(tracer.spans, op_pairs=[TINY_OP.pairs])
    assert metrics["stats.wilcoxon_calls"] == 3
    assert metrics["stats.exact_cells"] == 3
    assert metrics["stats.pair_evals_per_unique_pair"] == 1.0
    assert metrics["data.bytes_in"] == len(TINY_TABLE)
    assert metrics["cli.self_s"] > 0.0


def test_every_layer_metric_names_its_spans():
    metrics = spans.layer_metrics([], op_pairs=[])
    sourced = {metric for names in spans.SOURCES.values() for metric in names}
    assert set(metrics) == sourced
    patched = {name for _, _, name, _ in spans.PATCHES}
    assert patched >= set(spans.SOURCES)
    assert all(workload.layers <= patched for workload in WORKLOADS.values())


def test_missing_patch_site_leaves_its_metrics_out(cli, tmp_path, monkeypatch):
    import mcmatrix.stability

    monkeypatch.delattr(mcmatrix.stability, "wilcoxon_signed_rank")
    tracer = spans.Tracer()
    with tracer.installed():
        _tiny_pass(cli, tmp_path, {}, tracer)
    assert tracer.missing == ["mcmatrix.stability.wilcoxon_signed_rank"]

    metrics = spans.layer_metrics(tracer.spans, [TINY_OP.pairs], spans.unrecorded(tracer, ()))
    for name in spans.SOURCES["stats.wilcoxon_signed_rank"]:
        assert name not in metrics
    assert metrics["stats.exact_cells"] == 3


def test_expected_layer_that_never_fired_leaves_its_metrics_out(cli, tmp_path):
    tracer = spans.Tracer()
    with tracer.installed():
        _tiny_pass(cli, tmp_path, {}, tracer)
    skipped = spans.unrecorded(tracer, WORKLOADS["bayes"].layers)
    assert skipped == {"mcm.build_mcm", "bayes.bayesian_signed_rank"}

    metrics = spans.layer_metrics(tracer.spans, [TINY_OP.pairs], skipped)
    assert "bayes.posteriors" not in metrics and "mcm.build_s" not in metrics
    assert metrics["stability.subsets"] == 0  # idle on bayes, so a true zero
    assert metrics["stats.wilcoxon_calls"] == 3
