import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcmatrix
from mcmatrix.cli import _float_rows, _json_chunks, main
from mcmatrix.data import dump_results

from conftest import (
    CLI_GOLDEN_CASES,
    GOLDEN,
    STABILITY_GOLDEN_CASES,
    golden_cli_output,
    random_matrix,
    stability_json,
)

CSV = (
    "comparate,t1,t2,t3,t4,t5,t6,t7,t8,t9,t10\n"
    "Alpha,0.91,0.85,0.78,0.94,0.88,0.9,0.83,0.87,0.89,0.92\n"
    "Bravo,0.89,0.87,0.75,0.9,0.86,0.88,0.85,0.84,0.87,0.9\n"
    "Charlie,0.7,0.72,0.66,0.74,0.7,0.71,0.69,0.73,0.68,0.72\n"
    "Delta,0.5,0.55,0.48,0.61,0.52,0.57,0.53,0.55,0.5,0.54\n"
)


@pytest.fixture
def results_csv(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(CSV)
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_TWO_BY_ONE = '{"comparates": ["A", "B"], "tasks": ["t1"], "scores": %s}'

# Malformed tables: (file suffix, bytes, start of the stderr message).
MALFORMED_TABLES = {
    "csv-empty": (".csv", b"", "error: empty CSV input"),
    "csv-header-without-task": (
        ".csv", b"comparate\nA\nB\n",
        "error: CSV header must list at least one task (row=1, column=None)"),
    "csv-row-with-too-many-cells": (
        ".csv", b"comparate,t1\nA,0.5,0.6\nB,0.4\n",
        "error: expected 2 cells, found 3 (row=2, column=None)"),
    "csv-empty-comparate-name": (
        ".csv", b"comparate,t1\n,0.5\nB,0.4\n",
        "error: empty comparate name (row=2, column=1)"),
    "csv-header-without-rows": (
        ".csv", b"comparate,t1,t2\n", "error: CSV input has a header but no data rows"),
    "csv-not-utf8": (
        ".csv", b"comparate,t1\nA\xff,0.5\nB,0.4\n", "error: input is not valid UTF-8"),
    "json-not-an-object": (".json", b"[1, 2]", "error: JSON input must be an object"),
    "json-missing-key": (
        ".json", b'{"comparates": ["A", "B"], "tasks": ["t1"]}',
        "error: JSON input is missing 'scores'"),
    "json-wrong-row-count": (
        ".json", (_TWO_BY_ONE % "[[0.5]]").encode(),
        "error: scores must have one row per comparate (2 expected, 1 found)"),
    "json-non-number-cell": (
        ".json", (_TWO_BY_ONE % '[[0.5], ["0.4"]]').encode(),
        "error: cell is not a number (row=2, column=1)"),
    "json-overflowing-number": (
        ".json", (_TWO_BY_ONE % "[[0.5], [1e999]]").encode(),
        "error: non-finite score (row=2, column=1)"),
    "json-integer-beyond-float": (
        ".json", (_TWO_BY_ONE % f"[[0.5], [1{'0' * 400}]]").encode(),
        "error: non-finite score (row=2, column=1)"),
    "json-integer-beyond-int-parsing": (
        ".json", (_TWO_BY_ONE % f"[[0.5], [1{'0' * 5000}]]").encode(),
        "error: non-finite score (row=2, column=1)"),
    "json-numeric-direction": (
        ".json", b'{"direction": 1, "comparates": ["A", "B"], "tasks": ["t1"], '
                 b'"scores": [[1], [2]]}',
        "error: unknown direction 1.0; expected 'higher' or 'lower'"),
    "json-numeric-comparate-name": (
        ".json", b'{"comparates": [1, "B"], "tasks": ["t1"], "scores": [[1], [2]]}',
        "error: comparate name is not a string (row=1, column=None)"),
    "json-comparate-name-with-whitespace": (
        ".json", b'{"comparates": [" A", "B"], "tasks": ["t1"], "scores": [[1], [2]]}',
        "error: comparate name ' A' at position 1 has leading or trailing whitespace"),
    "json-nested-too-deep": (
        ".json", b"[" * 100_000 + b"]" * 100_000,
        "error: invalid JSON: maximum recursion depth exceeded"),
    "json-null-comparate-name": (
        ".json", b'{"comparates": [null, "B"], "tasks": ["t1"], "scores": [[1], [2]]}',
        "error: comparate name is not a string (row=1, column=None)"),
    "json-array-task-name": (
        ".json", b'{"comparates": ["A", "B"], "tasks": [["x"]], "scores": [[1], [2]]}',
        "error: task name is not a string (row=None, column=1)"),
    "json-row-longer-than-tasks": (
        ".json",
        b'{"comparates": ["A", "B"], "tasks": ["t1", "t2"], "scores": [[1, 2, 3], [1, 2]]}',
        "error: extra cell (row=1, column=3)"),
    "csv-newline-in-unquoted-field": (
        ".csv", b"comparate,t1\r\nA,0.5\rx\nB,0.4\n",
        "error: invalid CSV: new-line character seen in unquoted field"),
    "csv-digit-group-underscore": (
        ".csv", b"comparate,t1,t2\nA,1_0,0.5\nB,0.4,0.3\n",
        "error: cell '1_0' is not a number (row=2, column=2)"),
    "csv-arabic-indic-digit": (
        ".csv", "comparate,t1,t2\nA,0.5,0.5\nB,0.4,\u0661\n".encode(),
        "error: cell '\u0661' is not a number (row=3, column=3)"),
    "csv-fullwidth-digit": (
        ".csv", "comparate,t1,t2\nA,\uff11,0.5\nB,0.4,0.3\n".encode(),
        "error: cell '\uff11' is not a number (row=2, column=2)"),
    "csv-field-over-the-size-limit": (
        ".csv", b"comparate,t1\nA," + b"1" * 200_000 + b"\nB,0.4\n",
        "error: invalid CSV: field larger than field limit (131072) (row=2, column=None)"),
}

# Malformed flags: (argv after the input flags, stderr message).
MALFORMED_FLAGS = {
    "rank-swap-pair-of-three": (
        ["stability", "rank-swap", "--pair", "Alpha,Bravo,Charlie",
         "--set-a", "Alpha,Bravo", "--set-b", "Alpha,Bravo,Charlie"],
        "usage error: --pair needs exactly two names"),
    "weaken-weight-not-a-number": (
        ["stability", "weaken", "--target", "Alpha", "--reference", "Delta",
         "--weights", "x", "--context", "Alpha,Bravo"],
        "usage error: bad --weights value 'x'"),
    "weaken-no-weight": (
        ["stability", "weaken", "--target", "Alpha", "--reference", "Delta",
         "--weights", ",", "--context", "Alpha,Bravo"],
        "usage error: --weights must list at least one weight"),
    "mcm-no-row": (["mcm", "--rows", ","], "usage error: empty name list ','"),
}


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1 and "usage error" in err

    def test_unknown_flag_is_usage_error(self, results_csv, capsys):
        code, _, _ = run(
            ["mcm", "--input", str(results_csv), "--direction", "higher", "--nope"],
            capsys,
        )
        assert code == 1

    def test_missing_input_file_is_usage_error(self, capsys):
        code, _, _ = run(
            ["mcm", "--input", "/does/not/exist.csv", "--direction", "higher"], capsys
        )
        assert code == 1

    def test_missing_output_directory_is_usage_error(self, results_csv, capsys):
        target = "/nonexistent/x.json"
        code, _, err = run(
            ["mcm", "--input", str(results_csv), "--direction", "higher",
             "--format", "json", "--output", target],
            capsys,
        )
        assert code == 1 and target in err and "Traceback" not in err

    def test_output_below_a_regular_file_is_usage_error(self, results_csv, capsys):
        target = str(results_csv / "x")
        code, _, err = run(
            ["stats", "--input", str(results_csv), "--direction", "higher",
             "--output", target],
            capsys,
        )
        assert code == 1 and target in err and "Traceback" not in err

    def test_directory_as_input_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["mcm", "--input", str(tmp_path), "--direction", "higher"], capsys
        )
        assert code == 1 and str(tmp_path) in err and "Traceback" not in err

    def test_pattern_directory_that_is_a_file_is_usage_error(self, results_csv, capsys):
        code, out, err = run(
            ["stability", "enumerate", "--input", str(results_csv),
             "--direction", "higher", "--core", "Alpha,Bravo", "--k-extra", "1",
             "--render-patterns", str(results_csv)],
            capsys,
        )
        assert code == 1 and str(results_csv) in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("fmt", ["svg", "html", "json"])
    def test_grid_without_off_diagonal_cell_is_data_error(self, results_csv, capsys, fmt):
        code, out, err = run(
            ["mcm", "--input", str(results_csv), "--direction", "higher",
             "--rows", "Alpha", "--cols", "Alpha", "--format", fmt],
            capsys,
        )
        assert code == 2 and out == ""
        assert "report contains no comparisons" in err

    def test_malformed_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("comparate,t1\nA,fast\nB,1\n")
        code, _, err = run(
            ["mcm", "--input", str(bad), "--direction", "higher"], capsys
        )
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("suffix, data, message", MALFORMED_TABLES.values(),
                             ids=MALFORMED_TABLES.keys())
    def test_malformed_table_is_located_data_error(self, tmp_path, capsys,
                                                   suffix, data, message):
        path = tmp_path / f"table{suffix}"
        path.write_bytes(data)
        code, out, err = run(["mcm", "--input", str(path), "--direction", "higher"], capsys)
        assert code == 2 and out == ""
        assert err.startswith(message) and "Traceback" not in err

    def test_stdin_read_in_the_named_format(self, capsys, monkeypatch):
        # Read as CSV, the same bytes are a header without rows.
        monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": io.BytesIO(b"[1, 2]")})())
        code, out, err = run(
            ["mcm", "--input", "-", "--input-format", "json", "--direction", "higher"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == "error: JSON input must be an object\n"

    @pytest.mark.parametrize("argv, message", MALFORMED_FLAGS.values(),
                             ids=MALFORMED_FLAGS.keys())
    def test_malformed_flag_is_usage_error(self, results_csv, capsys, argv, message):
        code, out, err = run(
            [*argv, "--input", str(results_csv), "--direction", "higher"], capsys
        )
        assert code == 1 and out == ""
        assert err == message + "\n"

    def test_non_array_json_names_are_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"comparates": "AB", "tasks": ["t1"], "scores": [[1], [2]]}')
        code, out, err = run(
            ["mcm", "--input", str(bad), "--direction", "higher"], capsys
        )
        assert code == 2 and "'comparates'" in err and out == ""

    def test_unknown_comparate_is_data_error(self, results_csv, capsys):
        code, _, _ = run(
            [
                "mcm", "--input", str(results_csv), "--direction", "higher",
                "--rows", "Nobody",
            ],
            capsys,
        )
        assert code == 2

    def test_direction_is_required(self, results_csv, capsys):
        code, _, _ = run(["mcm", "--input", str(results_csv)], capsys)
        assert code == 1

    @pytest.mark.parametrize("alpha", ["2", "0", "-1", "nan"])
    def test_stats_alpha_outside_unit_interval_is_data_error(self, results_csv, capsys,
                                                             alpha):
        code, out, err = run(
            ["stats", "--input", str(results_csv), "--direction", "higher",
             f"--alpha={alpha}"],
            capsys,
        )
        assert code == 2 and "alpha must lie in (0, 1)" in err and out == ""

    @pytest.mark.parametrize("command", ["mcm", "stats"])
    @pytest.mark.parametrize("flag, message", [
        ("--rope=-1", "rope must be finite and >= 0"),
        ("--rope=nan", "rope must be finite and >= 0"),
        ("--mc-samples=0", "mc_samples must be at least 1"),
        ("--seed=-1", "seed must be a 64-bit unsigned integer"),
    ])
    @pytest.mark.parametrize("include_bayes", [[], ["--include-bayes"]])
    def test_bayes_flags_validated_with_or_without_include_bayes(
            self, results_csv, capsys, command, flag, message, include_bayes):
        # The flags are echoed into the output metadata either way.
        code, out, err = run(
            [command, "--input", str(results_csv), "--direction", "higher", flag,
             *include_bayes],
            capsys,
        )
        assert code == 2 and message in err and out == ""

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_enumerate_sample_below_one_is_data_error(self, results_csv, capsys, count):
        code, out, err = run(
            ["stability", "enumerate", "--input", str(results_csv), "--direction",
             "higher", "--core", "Alpha,Bravo", "--k-extra", "1", "--sample", count],
            capsys,
        )
        assert code == 2 and "sample count must be >= 1" in err and out == ""

    def test_enumerate_sample_space_beyond_int64_is_data_error(self, tmp_path, capsys):
        # C(70, 35) > 2**63: numpy cannot draw a subset rank from that range.
        rows = [f"c{i}," + ",".join(str((i * 7 + j) % 10) for j in range(5))
                for i in range(72)]
        table = tmp_path / "wide.csv"
        table.write_text("comparate,t1,t2,t3,t4,t5\n" + "\n".join(rows) + "\n")
        code, out, err = run(
            ["stability", "enumerate", "--input", str(table), "--direction", "higher",
             "--core", "c0,c1", "--k-extra", "35", "--sample", "5"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "k_extra=35 over a pool of 70" in err and "2**63" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sample", [(), ("--sample", "2")])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_enumerate_seed_outside_uint64_is_data_error(self, results_csv, capsys,
                                                          tested_pairs, seed, sample):
        code, out, err = run(
            ["stability", "enumerate", "--input", str(results_csv), "--direction",
             "higher", "--core", "Alpha,Bravo", "--k-extra", "1", "--seed", seed,
             *sample],
            capsys,
        )
        assert code == 2 and out == ""
        assert "seed must be a 64-bit unsigned integer" in err
        assert tested_pairs == []

    @pytest.mark.parametrize("argv, unreached", [
        (("mcm", "--format", "html", "--output", "/nonexistent/x.html"), "build_mcm"),
        (("stability", "enumerate", "--core", "Alpha,Bravo", "--k-extra", "1",
          "--output", "/nonexistent/x.json"), "enumerate_patterns"),
        (("stability", "enumerate", "--core", "Alpha,Bravo", "--k-extra", "1",
          "--render-patterns", "{csv}"), "enumerate_patterns"),
        (("cd", "--output", "{csv}/x"), "_read_input"),
    ])
    def test_bad_output_path_fails_before_the_work(self, results_csv, capsys,
                                                   monkeypatch, argv, unreached):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{unreached} ran before the output path was checked")

        monkeypatch.setattr(f"mcmatrix.cli.{unreached}", unreachable)
        argv = [arg.format(csv=results_csv) for arg in argv]
        code, out, err = run(
            [*argv, "--input", str(results_csv), "--direction", "higher"], capsys
        )
        path = argv[-1]
        assert code == 1 and out == ""
        assert path in err and "Traceback" not in err

    def test_rank_swap_pair_of_one_comparate_is_data_error(self, results_csv, capsys):
        code, out, err = run(
            ["stability", "rank-swap", "--input", str(results_csv), "--direction",
             "higher", "--pair", "Alpha,Alpha", "--set-a", "Alpha,Bravo",
             "--set-b", "Alpha,Charlie"],
            capsys,
        )
        assert code == 2 and out == "" and "'Alpha' twice" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("experiment", [
        ("weaken", "--target", "Alpha", "--reference", "Delta", "--weights", "0.5",
         "--context", "Alpha,Bravo,Charlie"),
        ("rank-swap", "--pair", "Alpha,Bravo", "--set-a", "Alpha,Bravo,Charlie",
         "--set-b", "Alpha,Bravo,Delta"),
    ])
    def test_stability_alpha_refused_before_any_test(self, results_csv, capsys,
                                                     tested_pairs, experiment):
        code, out, err = run(
            ["stability", *experiment, "--input", str(results_csv),
             "--direction", "higher", "--alpha", "0"],
            capsys,
        )
        assert code == 2 and out == "" and "alpha must lie in (0, 1)" in err
        assert tested_pairs == []

    def test_mcm_cell_mismatch_is_internal_error(self, tmp_path, capsys, monkeypatch):
        # Five comparates: ten pairs, enough to be evaluated as a block.
        table = tmp_path / "five.csv"
        table.write_text(CSV + "Echo,0.6,0.62,0.58,0.64,0.6,0.61,0.59,0.63,0.58,0.62\n")
        evaluate = mcmatrix.mcm.pairwise_comparison
        monkeypatch.setattr(
            "mcmatrix.mcm.pairwise_comparison",
            lambda *args, **kwargs: dataclasses.replace(evaluate(*args, **kwargs), wins=-1),
        )
        code, out, err = run(
            ["mcm", "--input", str(table), "--direction", "higher"], capsys
        )
        assert code == 3 and "batched pair statistics" in err and out == ""

    @pytest.mark.parametrize("command", [
        ["mcm"],
        ["stats"],
        ["cd", "--pairwise", "wilcoxon-holm"],
        ["stability", "enumerate", "--core", "Alpha,Bravo", "--k-extra", "1"],
    ])
    def test_overflowing_difference_is_located_data_error(self, tmp_path, capsys, command):
        table = tmp_path / "overflow.csv"
        table.write_text("comparate,t1,t2,t3\nAlpha,0.5,1e308,-1e308\n"
                         "Bravo,0.4,-1e308,1e308\nCharlie,0.1,0.2,0.3\n")
        code, out, err = run(
            [*command, "--input", str(table), "--direction", "higher"], capsys
        )
        assert code == 2 and out == ""
        assert "difference of 'Alpha' and 'Bravo' overflows on task 't2'" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("fmt", ["json", "svg", "html"])
    def test_overflowing_mean_score_names_the_comparate(self, tmp_path, capsys, fmt):
        # Every score and pair mean is finite; A's scores sum past the float range.
        table = tmp_path / "overflow.csv"
        table.write_text("comparate,t1,t2\nA,1.5e308,1.5e308\nB,1e308,1e308\n")
        code, out, err = run(
            ["mcm", "--format", fmt, "--input", str(table), "--direction", "higher"], capsys
        )
        assert code == 2 and out == ""
        assert "the scores of 'A' sum past the float range" in err
        assert "Traceback" not in err and "Warning" not in err

    def test_enumerate_sample_above_exhaustive_limit_is_refused_at_once(self, tmp_path,
                                                                       capsys):
        # C(40, 20) subsets: drawing 2,000,000 distinct ranks would first fill
        # a set of that many Python ints.
        rows = [f"c{i}," + ",".join(str((i * 7 + j) % 10) for j in range(5))
                for i in range(42)]
        table = tmp_path / "wide.csv"
        table.write_text("comparate,t1,t2,t3,t4,t5\n" + "\n".join(rows) + "\n")
        start = time.perf_counter()
        code, out, err = run(
            ["stability", "enumerate", "--input", str(table), "--direction", "higher",
             "--core", "c0,c1", "--k-extra", "20", "--sample", "2000000"],
            capsys,
        )
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert "sample count 2000000 exceeds the limit of 1000000 subsets" in err

    def test_stats_command_does_not_load_scipy_stats(self, results_csv, tmp_path):
        # scipy.stats takes about a second to import, and no command needs it:
        # the Friedman p-value comes from scipy.special.
        src = Path(mcmatrix.__file__).resolve().parent.parent
        argv = ["stats", "--input", str(results_csv), "--direction", "higher",
                "--output", str(tmp_path / "stats.json")]
        probe = (f"import sys; from mcmatrix.cli import main; code = main({argv!r}); "
                 "print(code, 'scipy.stats' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "0 False"


class TestMcmCommand:
    def test_json_output_schema_and_metadata(self, results_csv, tmp_path, capsys):
        out = tmp_path / "mcm.json"
        code, _, _ = run(
            [
                "mcm", "--input", str(results_csv), "--direction", "higher",
                "--format", "json", "--output", str(out),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["tool"] == "mcmatrix"
        assert len(doc["metadata"]["input_sha256"]) == 64
        assert doc["metadata"]["config"]["alpha"] == 0.05
        assert doc["metadata"]["config"]["seed"] == 0
        assert doc["comparison_count"] == 6
        assert doc["ordering"][0] == "Alpha"

    def test_focused_layout_comparison_count(self, results_csv, tmp_path, capsys):
        out = tmp_path / "mcm.json"
        code, _, _ = run(
            [
                "mcm", "--input", str(results_csv), "--direction", "higher",
                "--rows", "Alpha,Bravo", "--cols", "Charlie,Delta",
                "--format", "json", "--output", str(out),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["comparison_count"] == 4
        assert len(doc["cells"]) == 4

    def test_html_to_stdout(self, results_csv, capsys):
        code, out, _ = run(
            ["mcm", "--input", str(results_csv), "--direction", "higher",
             "--format", "html"],
            capsys,
        )
        assert code == 0
        assert out.startswith("<!DOCTYPE html>")
        assert "run-metadata" in out

    def test_comparate_name_stays_inside_the_metadata_script(self, tmp_path, capsysbinary):
        # A script element decodes no entities, so the metadata writes "<",
        # ">" and "&" as JSON \\u escapes: a raw "</script>" in a name would
        # end the element and put the name's markup in the page, and a raw
        # "<" alone can start an end tag or a comment.  The SVG's metadata
        # element holds the same JSON for its own format.
        name = "</script><b>x</b>&"
        table = tmp_path / "results.csv"
        table.write_text(CSV + f"{name},0.6,0.6,0.6,0.6,0.6,0.6,0.6,0.6,0.6,0.6\n")
        argv = ["mcm", "--input", str(table), "--direction", "higher", "--rows", f"Alpha,{name}"]
        assert main([*argv, "--format", "html"]) == 0
        page = capsysbinary.readouterr().out.decode()
        _, _, rest = page.partition('<script type="application/json" id="run-metadata">')
        blob, _, _ = rest.partition("</script>")
        assert json.loads(blob)["config"]["rows"] == ["Alpha", name]
        assert not set("<>&") & set(blob) and "<b>" not in page
        assert main([*argv, "--format", "svg"]) == 0
        svg = ET.fromstring(capsysbinary.readouterr().out)
        metadata = svg.find("{http://www.w3.org/2000/svg}metadata").text
        assert metadata == blob.replace('"format":"html"', '"format":"svg"')

    def test_byte_identical_reruns(self, results_csv, tmp_path, capsys):
        paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for path in paths:
            code, _, _ = run(
                [
                    "mcm", "--input", str(results_csv), "--direction", "higher",
                    "--format", "svg", "--output", str(path),
                ],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_worker_env_does_not_change_bytes(self, results_csv, tmp_path, capsys,
                                              monkeypatch):
        # MCMATRIX_WORKERS is no longer read; stale settings change nothing.
        argvs = [
            ["mcm", "--format", "svg"],
            ["mcm", "--format", "json"],
            ["mcm", "--format", "html"],
            ["stability", "enumerate", "--core", "Alpha,Bravo", "--k-extra", "1"],
        ]
        outputs = []
        for value in (None, "1", "4", "abc"):
            if value is None:
                monkeypatch.delenv("MCMATRIX_WORKERS", raising=False)
            else:
                monkeypatch.setenv("MCMATRIX_WORKERS", value)
            files = []
            for i, argv in enumerate(argvs):
                path = tmp_path / f"{value}-{i}.out"
                code, _, _ = run(argv + ["--input", str(results_csv), "--direction",
                                         "higher", "--output", str(path)], capsys)
                assert code == 0
                files.append(path.read_bytes())
            outputs.append(files)
        assert all(files == outputs[0] for files in outputs)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin",
            type("S", (), {"buffer": io.BytesIO(CSV.encode())})(),
        )
        code, out, _ = run(
            ["mcm", "--input", "-", "--direction", "higher", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["comparison_count"] == 6


class TestOtherCommands:
    def test_cd_svg(self, results_csv, tmp_path, capsys):
        out = tmp_path / "cd.svg"
        code, _, _ = run(
            [
                "cd", "--input", str(results_csv), "--direction", "higher",
                "--pairwise", "wilcoxon-holm", "--output", str(out),
            ],
            capsys,
        )
        assert code == 0
        data = out.read_text()
        assert data.startswith("<?xml") and "critical-difference" in data

    def test_stats_dump(self, results_csv, capsys):
        code, out, _ = run(
            ["stats", "--input", str(results_csv), "--direction", "higher"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["average_ranks"]["Alpha"] == pytest.approx(1.2)
        assert "statistic" in doc["friedman"]
        assert len(doc["pairwise"]) == 6
        assert {c["p_method"] for c in doc["pairwise"]} == {"exact"}

    def test_stats_and_mcm_agree_on_every_pair(self, tmp_path, capsys):
        # Zulu comes before Echo in the table but after it in the grid (equal
        # means order by name), and their mean difference underflows to zero.
        path = tmp_path / "results.csv"
        path.write_text(CSV + "Zulu," + ",".join(["0"] * 10) + "\n"
                        + "Echo,5e-324," + ",".join(["0"] * 9) + "\n")
        common = ["--input", str(path), "--direction", "higher", "--include-bayes",
                  "--mc-samples", "2000", "--seed", "3"]
        code, out, _ = run(["stats"] + common, capsys)
        assert code == 0
        pairwise = json.loads(out)["pairwise"]
        code, out, _ = run(["mcm", "--format", "json"] + common, capsys)
        assert code == 0
        grid = {(c["row"], c["col"]): c for c in json.loads(out)["cells"]}
        assert len(pairwise) == 15 and len(grid) == 30

        def text(entry):  # JSON text keeps the sign of a zero
            return json.dumps(entry, sort_keys=True)

        for entry in pairwise:
            a, b = entry["row"], entry["col"]
            bayes = entry["bayes"]
            mirrored = dict(
                entry, row=b, col=a, mean_diff=0.0 - entry["mean_diff"],
                wins=entry["losses"], losses=entry["wins"],
                bayes=dict(bayes, theta_left=bayes["theta_right"],
                           theta_right=bayes["theta_left"]),
            )
            assert text(grid[(a, b)]) == text(entry)
            assert text(grid[(b, a)]) == text(mirrored)

    def test_stability_enumerate(self, results_csv, capsys):
        code, out, _ = run(
            [
                "stability", "enumerate", "--input", str(results_csv),
                "--direction", "higher", "--core", "Alpha,Bravo", "--k-extra", "1",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_subsets"] == 2
        assert sum(p["count"] for p in doc["patterns"]) == 2
        assert doc["metadata"]["config"]["core"] == ["Alpha", "Bravo"]

    def test_stability_rank_swap(self, results_csv, capsys):
        code, out, _ = run(
            [
                "stability", "rank-swap", "--input", str(results_csv),
                "--direction", "higher", "--pair", "Alpha,Bravo",
                "--set-a", "Alpha,Bravo,Charlie", "--set-b", "Alpha,Bravo,Delta",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["pair"]) == {"Alpha", "Bravo"}
        assert "swapped" in doc

    def test_stability_weaken(self, results_csv, capsys):
        code, out, _ = run(
            [
                "stability", "weaken", "--input", str(results_csv),
                "--direction", "higher", "--target", "Alpha",
                "--reference", "Delta", "--weights", "0.5,1.0",
                "--context", "Alpha,Bravo,Charlie",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["outcomes"]) == 2
        assert doc["outcomes"][0]["weight"] == 0.5

    def test_weaken_weights_sharing_a_variant_name(self, tmp_path, capsys):
        # Both weights print as 0.123456 with ``:g``, but the blends differ:
        # R's blend at the first weight ties C on t1, at the second it does not.
        table = tmp_path / "blend.csv"
        table.write_text(
            "comparate,t1,t2,t3,t4,t5,t6\n"
            "T,0.7,0.4,0.6,0.8,1.0,0.0\n"
            "C,0.34938244,0.1,0.2,0.4,0.1,0.2\n"
            "D,0.9,0.5,0.8,0.8,0.8,0.8\n"
            "R,0.3,0.1,0.5,0.4,0.3,0.3\n"
        )

        def outcomes(weights):
            code, out, _ = run(
                ["stability", "weaken", "--input", str(table), "--direction", "higher",
                 "--target", "T", "--reference", "R", "--weights", weights,
                 "--context", "T,C,D", "--alpha", "0.2"],
                capsys,
            )
            assert code == 0
            return json.loads(out)["outcomes"]

        both = outcomes("0.1234561,0.1234562")
        assert [o["variant"] for o in both] == ["T~0.1234561", "T~0.1234562"]
        assert both[0]["pattern_bitmask"] != both[1]["pattern_bitmask"]
        assert both == outcomes("0.1234561") + outcomes("0.1234562")

    def test_weaken_variant_name_taken_gets_a_suffix(self, tmp_path, capsys):
        table = tmp_path / "taken.csv"
        table.write_text(CSV + "Alpha~0.5,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0\n")
        code, out, _ = run(
            ["stability", "weaken", "--input", str(table), "--direction", "higher",
             "--target", "Alpha", "--reference", "Delta", "--weights", "0.5",
             "--context", "Alpha,Bravo,Charlie"],
            capsys,
        )
        assert code == 0
        assert [o["variant"] for o in json.loads(out)["outcomes"]] == ["Alpha~0.5#2"]

    @pytest.mark.parametrize("stem, fixture, experiment", STABILITY_GOLDEN_CASES)
    def test_stability_json_matches_golden(self, tmp_path, stem, fixture, experiment):
        golden = (GOLDEN / f"stability_{stem}.json").read_bytes()
        assert stability_json(fixture, experiment, tmp_path) == golden

    @pytest.mark.parametrize("name, argv, result, matrix", CLI_GOLDEN_CASES)
    def test_output_matches_golden(self, tmp_path, name, argv, result, matrix):
        golden = (GOLDEN / name).read_bytes()
        assert golden_cli_output(argv, result, tmp_path, matrix) == golden

    def test_selftest(self, capsys):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_selftest_does_not_load_scipy(self):
        src = Path(mcmatrix.__file__).resolve().parent.parent
        probe = ("import sys; from mcmatrix.cli import main; code = main(['selftest']); "
                 "print(code, 'scipy' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_cold_import_loads_neither_scipy_nor_a_thread_pool(self):
        # A cold ``import mcmatrix.cli`` is what every command pays first;
        # scipy and the thread pool are loaded only by the code that uses them,
        # and the XML escaping needs neither ``xml.sax`` nor the
        # ``urllib.request`` it imports.  ``urllib`` itself is not checked:
        # the interpreter's ``site`` may load ``urllib.parse``.
        src = Path(mcmatrix.__file__).resolve().parent.parent
        unwanted = ("scipy", "concurrent.futures", "xml.sax", "urllib.request")
        probe = ("import sys, mcmatrix.cli; "
                 f"print([m for m in {unwanted!r} if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "[]"

    def test_enumerate_render_patterns(self, results_csv, tmp_path, capsys):
        outdir = tmp_path / "patterns"
        code, out, _ = run(
            [
                "stability", "enumerate", "--input", str(results_csv),
                "--direction", "higher", "--core", "Alpha,Bravo", "--k-extra", "1",
                "--render-patterns", str(outdir),
            ],
            capsys,
        )
        assert code == 0
        svgs = sorted(outdir.glob("pattern-*.svg"))
        assert len(svgs) == len(json.loads(out)["patterns"])
        assert svgs[0].read_bytes().startswith(b"<?xml")

    def test_cd_unsupported_alpha_is_data_error(self, results_csv, capsys):
        code, _, err = run(
            ["cd", "--input", str(results_csv), "--direction", "higher",
             "--alpha", "0.01"],
            capsys,
        )
        assert code == 2 and "alpha" in err

    def test_json_input_format(self, tmp_path, capsys):
        doc = {
            "direction": "higher",
            "comparates": ["A", "B"],
            "tasks": ["t1", "t2", "t3"],
            "scores": [[0.9, 0.8, 0.7], [0.5, 0.6, 0.4]],
        }
        path = tmp_path / "results.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            ["stats", "--input", str(path), "--direction", "higher"], capsys
        )
        assert code == 0
        assert json.loads(out)["average_ranks"]["A"] == 1.0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _json_bytes(obj: dict) -> bytes:
    return b"".join(_json_chunks(obj))


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), _JSON, min_size=1, max_size=4))
    def test_document_equals_json_dumps(self, obj):
        assert _json_bytes(obj) == (json.dumps(obj, indent=2) + "\n").encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_FINITE, min_size=1, max_size=4), min_size=1, max_size=4))
    def test_float_rows_spliced_at_their_key(self, rows):
        obj = {"before": 1, "rows": rows, "after": [2]}
        spliced = {**obj, "rows": _float_rows(rows)}
        assert _json_bytes(spliced) == (json.dumps(obj, indent=2) + "\n").encode("utf-8")

    def test_text_chunks_go_in_as_they_are(self):
        assert _json_bytes({"a": iter(["[1", ", 2]"]), "b": 3}) == (
            b'{\n  "a": [1, 2],\n  "b": 3\n}\n')

    @pytest.mark.parametrize("argv", [
        ["mcm", "--format", "json", "--include-bayes", "--mc-samples", "1000"],
        ["stats", "--include-bayes", "--mc-samples", "1000"],
        ["stability", "enumerate", "--core", "A&B,Bravo", "--k-extra", "1"],
        ["stability", "rank-swap", "--pair", "A&B,Bravo", "--set-a", "A&B,Bravo,Charlie",
         "--set-b", "A&B,Bravo,<Delta>"],
        ["stability", "weaken", "--target", "A&B", "--reference", "<Delta>",
         "--weights", "0.5,1.0", "--context", "A&B,Bravo,Charlie"],
    ], ids=["mcm", "stats", "enumerate", "rank-swap", "weaken"])
    def test_stdout_and_output_file_get_the_same_bytes(self, tmp_path, capsysbinary, argv):
        table = tmp_path / "results.csv"
        table.write_text(CSV.replace("Alpha", "A&B").replace("Delta", "<Delta>"))
        argv = [*argv, "--input", str(table), "--direction", "higher"]
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        path = tmp_path / "out.json"
        assert main([*argv, "--output", str(path)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert path.read_bytes() == stdout
        assert json.loads(stdout)["metadata"]["tool"] == "mcmatrix"


# Runs the rest of its argv as a Python command line with one descriptor
# closed, as a shell's ``>&-`` or ``<&-`` would.
_CLOSE_FD_THEN_EXEC = ("import os, sys; os.close(int(sys.argv[1])); "
                       "os.execv(sys.executable, [sys.executable, *sys.argv[2:]])")


class TestStandardStreams:
    """A read or write that fails on ``-`` ends like one on a file: exit 1
    and one ``usage error: cannot ...`` line, with no traceback and no
    second error from the flush at exit.  These run in a child, since a
    broken pipe needs a real pipe."""

    @pytest.fixture
    def table(self, tmp_path):
        # stats writes about 190 KB and the html page about 1 MB, well past
        # a pipe's buffer, so the writer is still writing when the reader goes.
        path = tmp_path / "t40.csv"
        path.write_bytes(dump_results(random_matrix(np.random.default_rng(40), m=40, n=20)))
        return path

    @staticmethod
    def _env(unbuffered=False):
        env = dict(os.environ, PYTHONPATH=str(Path(mcmatrix.__file__).resolve().parent.parent))
        env.pop("PYTHONUNBUFFERED", None)
        return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env

    @staticmethod
    def _assert_one_line(code, err):
        assert code == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err, err
        assert len(err.splitlines()) == 1 and err.startswith("usage error: cannot"), err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", [["stats"], ["mcm", "--format", "html"]],
                             ids=["stats", "mcm-html"])
    def test_reader_that_closes_early(self, table, command, unbuffered):
        child = subprocess.Popen(
            [sys.executable, "-m", "mcmatrix.cli", *command, "--input", str(table),
             "--direction", "higher"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self._env(unbuffered))
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        self._assert_one_line(child.wait(timeout=120), err)
        assert err == "usage error: cannot write '-': Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", [["stats", "--direction", "higher"], ["selftest"]],
                             ids=["stats", "selftest"])
    def test_full_disk_on_stdout(self, table, command):
        if command[0] == "stats":
            command = [*command, "--input", str(table)]
        with open("/dev/full", "wb") as full:
            done = subprocess.run([sys.executable, "-m", "mcmatrix.cli", *command],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=self._env(), timeout=120)
        self._assert_one_line(done.returncode, done.stderr)
        assert "No space left on device" in done.stderr

    @pytest.mark.parametrize("fd, input_flag, verb", [
        (1, None, "write"),
        (0, "-", "read"),
    ], ids=["stdout", "stdin"])
    def test_closed_descriptor(self, table, fd, input_flag, verb):
        done = subprocess.run(
            [sys.executable, "-c", _CLOSE_FD_THEN_EXEC, str(fd), "-m", "mcmatrix.cli",
             "stats", "--input", input_flag or str(table), "--direction", "higher"],
            stdout=subprocess.DEVNULL if fd == 0 else None, stderr=subprocess.PIPE,
            text=True, env=self._env(), timeout=120)
        self._assert_one_line(done.returncode, done.stderr)
        assert done.stderr == f"usage error: cannot {verb} '-': Bad file descriptor\n"

    def test_failed_selftest_suite_reports_and_exits_3(self, capsys, monkeypatch):
        def failing_suite():
            raise AssertionError("worked example off")

        monkeypatch.setattr("mcmatrix.selftest._suite_holm", failing_suite)
        code, out, err = run(["selftest"], capsys)
        assert code == 3
        assert "FAIL holm-examples: worked example off\n" in out and out.count("PASS") == 2
        assert err == "internal error (bug): a selftest suite failed\n"


@pytest.mark.parametrize("command", [
    [], ["mcm"], ["cd"], ["stats"], ["stability"], ["stability", "enumerate"],
    ["stability", "rank-swap"], ["stability", "weaken"], ["selftest"],
], ids=lambda command: "-".join(command) or "top")
def test_help_shows_no_none_default_and_each_default_once(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert "--help" in out
    for line in out.splitlines():
        assert "default: None" not in line and line.count("default") <= 1, line
