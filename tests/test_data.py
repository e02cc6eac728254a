import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcmatrix import (
    ResultsMatrix,
    dump_results,
    load_results,
    restrict_to_complete_tasks,
    weaken_comparate,
)
from mcmatrix.cli import main
from mcmatrix.errors import McmatrixError, ParseError, ValidationError

from conftest import random_matrix

CSV_2X3 = b"comparate,t1,t2,t3\nA,0.9,0.8,0.7\nB,0.5,0.6,0.4\n"


class TestLoadCsv:
    def test_minimal_well_formed(self):
        matrix = load_results(CSV_2X3, "csv", "higher")
        assert matrix.m == 2 and matrix.n == 3
        assert matrix.comparates == ("A", "B")
        assert matrix.tasks == ("t1", "t2", "t3")
        assert matrix.scores[1, 2] == 0.4

    def test_accepts_file_object(self):
        matrix = load_results(io.BytesIO(CSV_2X3), "csv", "higher")
        assert matrix.m == 2

    def test_duplicate_comparate(self):
        data = b"comparate,t1\nA,0.9\nA,0.8\n"
        with pytest.raises(ValidationError, match="duplicate comparate name 'A'"):
            load_results(data, "csv", "higher")

    def test_empty_cell_carries_coordinates(self):
        data = b"comparate,t1,t2\nA,0.9,\nB,0.5,0.6\n"
        with pytest.raises(ValidationError) as err:
            load_results(data, "csv", "higher")
        assert err.value.row == 2 and err.value.column == 3

    def test_non_numeric_cell_is_parse_error(self):
        data = b"comparate,t1\nA,fast\nB,0.5\n"
        with pytest.raises(ParseError) as err:
            load_results(data, "csv", "higher")
        assert err.value.row == 2 and err.value.column == 2

    def test_nan_cell_is_validation_error(self):
        data = b"comparate,t1\nA,nan\nB,0.5\n"
        with pytest.raises(ValidationError) as err:
            load_results(data, "csv", "higher")
        assert (err.value.row, err.value.column) == (2, 2)

    def test_row_and_column_order_preserved(self):
        data = b"comparate,z,a\nZed,1,2\nAce,3,4\n"
        matrix = load_results(data, "csv", "lower")
        assert matrix.tasks == ("z", "a")
        assert matrix.comparates == ("Zed", "Ace")


class TestLoadJson:
    def test_round_trip_object(self):
        data = (
            b'{"direction": "higher", "comparates": ["A", "B"],'
            b' "tasks": ["t1"], "scores": [[0.25], [0.5]]}'
        )
        matrix = load_results(data, "json", "higher")
        assert matrix.scores[0, 0] == 0.25

    def test_direction_mismatch_rejected(self):
        data = (
            b'{"direction": "lower", "comparates": ["A", "B"],'
            b' "tasks": ["t1"], "scores": [[1], [2]]}'
        )
        with pytest.raises(ValidationError, match="direction"):
            load_results(data, "json", "higher")

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_results(b"{nope", "json", "higher")

    @pytest.mark.parametrize("key, names", [("comparates", ["A", " B"]),
                                            ("tasks", ["t1\t"])])
    def test_names_with_surrounding_whitespace_rejected(self, key, names):
        # CSV strips names, so such a name would not survive a CSV round trip.
        obj = {"comparates": ["A", "B"], "tasks": ["t1"], "scores": [[1], [2]]}
        obj[key] = names
        with pytest.raises(ValidationError, match="leading or trailing whitespace"):
            load_results(json.dumps(obj).encode(), "json", "higher")

    def test_numbers_are_read_as_floats(self):
        data = b'{"comparates": ["A", "B"], "tasks": ["t1"], "scores": [[-0], [3]]}'
        matrix = load_results(data, "json", "higher")
        assert math.copysign(1.0, matrix.scores[0, 0]) == -1.0
        assert matrix.scores[1, 0] == 3.0

    @pytest.mark.parametrize("key", ["comparates", "tasks"])
    @pytest.mark.parametrize("value", ["AB", 5, None, {"A": 1}])
    def test_names_must_be_arrays(self, key, value):
        obj = {"comparates": ["A", "B"], "tasks": ["t1", "t2"], "scores": [[1, 2], [3, 4]]}
        obj[key] = value
        with pytest.raises(ValidationError, match=repr(key)):
            load_results(json.dumps(obj).encode(), "json", "higher")

    def test_ragged_scores(self):
        data = (
            b'{"comparates": ["A", "B"], "tasks": ["t1", "t2"],'
            b' "scores": [[1, 2], [3]]}'
        )
        with pytest.raises(ValidationError, match="missing cell"):
            load_results(data, "json", "higher")


# Any JSON value, with integers beyond the float range and non-finite floats
# (written as NaN and Infinity, which the JSON reader accepts).
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.integers() | st.integers(10**300, 10**400),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)
# Objects shaped like a table whose names, rows and cells may be anything.
_TABLE = st.fixed_dictionaries(
    {
        "comparates": st.lists(st.text(max_size=2) | _JSON, max_size=4) | _JSON,
        "tasks": st.lists(st.text(max_size=2) | _JSON, max_size=3) | _JSON,
        "scores": st.lists(st.lists(st.floats() | _JSON, max_size=4), max_size=4) | _JSON,
    },
    optional={"direction": st.sampled_from(["higher", "lower"]) | _JSON},
)
_JSON_INPUTS = st.one_of(_JSON, _TABLE).map(lambda value: ("json", json.dumps(value).encode()))
_CSV_INPUTS = st.one_of(
    st.binary(max_size=48),
    st.text(st.sampled_from(',\n\r"01.5e-+AB t\x00\ufeff_\u0661\uff11'),
            max_size=48).map(str.encode),
).map(lambda data: ("csv", data))
_BIG = json.dumps({"comparates": ["A", "B"], "tasks": ["t1"], "scores": [[1], [10**400]]})
_FUZZ_EXAMPLES = (("json", _BIG.encode()), ("csv", b"comparate,t1\r\nA,1\rB\n"))


class TestFuzzedInput:
    """Whatever the bytes, loading ends in a value or a package error, and
    the CLI in exit code 0, 1 or 2 without a traceback."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_INPUTS | _CSV_INPUTS)
    @example(_FUZZ_EXAMPLES[0])
    @example(_FUZZ_EXAMPLES[1])
    def test_only_package_errors_escape_the_loader(self, source):
        fmt, data = source
        try:
            load_results(data, fmt, "higher")
        except McmatrixError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(_JSON_INPUTS | _CSV_INPUTS)
    @example(_FUZZ_EXAMPLES[0])
    @example(_FUZZ_EXAMPLES[1])
    def test_stats_exits_with_a_message_not_a_traceback(self, tmp_path_factory, source):
        fmt, data = source
        folder = tmp_path_factory.mktemp("fuzz")
        table = folder / f"table.{fmt}"
        table.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["stats", "--input", str(table), "--direction", "higher",
                         "--output", str(folder / "out.json")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (err.getvalue() == "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_load_dump_load_identity(fmt):
    rng = np.random.default_rng(7)
    for _ in range(25):
        matrix = random_matrix(rng, tie_prob=0.5)
        again = load_results(dump_results(matrix, fmt), fmt, matrix.direction)
        assert again.comparates == matrix.comparates
        assert again.tasks == matrix.tasks
        assert again.direction is matrix.direction
        assert (again.scores == matrix.scores).all()


def test_dump_preserves_awkward_floats():
    matrix = ResultsMatrix(
        ("A", "B"), ("t",), np.array([[0.1], [1e-17]]), "higher"
    )
    again = load_results(dump_results(matrix, "csv"), "csv", "higher")
    assert again.scores[0, 0] == 0.1 and again.scores[1, 0] == 1e-17


class TestValidation:
    def test_single_comparate_rejected(self):
        with pytest.raises(ValidationError):
            ResultsMatrix(("A",), ("t",), np.array([[1.0]]), "higher")

    def test_no_tasks_rejected(self):
        with pytest.raises(ValidationError):
            ResultsMatrix(("A", "B"), (), np.empty((2, 0)), "higher")

    def test_infinite_score_rejected(self):
        with pytest.raises(ValidationError):
            ResultsMatrix(
                ("A", "B"), ("t",), np.array([[1.0], [np.inf]]), "higher"
            )

    def test_scores_frozen(self):
        matrix = ResultsMatrix(("A", "B"), ("t",), np.array([[1.0], [2.0]]), "higher")
        with pytest.raises(ValueError):
            matrix.scores[0, 0] = 5.0


def _fragment(comparates, tasks, scores):
    return ResultsMatrix(comparates, tasks, np.array(scores, dtype=float), "higher")


class TestRestrictToCompleteTasks:
    def test_shared_subset(self):
        a = _fragment(("A", "B"), ("x", "y", "z"), [[1, 2, 3], [4, 5, 6]])
        b = _fragment(("C", "D"), ("x", "y"), [[7, 8], [9, 10]])
        merged = restrict_to_complete_tasks([a, b])
        assert merged.tasks == ("x", "y")
        assert merged.comparates == ("A", "B", "C", "D")
        assert merged.scores[3, 1] == 10

    def test_disjoint_tasks(self):
        a = _fragment(("A", "B"), ("x",), [[1], [2]])
        b = _fragment(("C", "D"), ("y",), [[3], [4]])
        with pytest.raises(ValidationError, match="no task has a score for every comparate"):
            restrict_to_complete_tasks([a, b])

    def test_single_fragment_identity(self):
        a = _fragment(("A", "B"), ("x", "y"), [[1, 2], [3, 4]])
        merged = restrict_to_complete_tasks([a])
        assert merged.comparates == a.comparates
        assert merged.tasks == a.tasks
        assert (merged.scores == a.scores).all()

    def test_no_foreign_tasks_appear(self):
        a = _fragment(("A", "B"), ("x", "y"), [[1, 2], [3, 4]])
        b = _fragment(("B", "C"), ("y", "z"), [[4, 5], [6, 7]])
        merged = restrict_to_complete_tasks([a, b])
        assert merged.tasks == ("y",)  # only task every comparate covers

    def test_conflicting_duplicate_rejected(self):
        a = _fragment(("A", "B"), ("x",), [[1], [2]])
        b = _fragment(("A", "B"), ("x",), [[1], [3]])
        with pytest.raises(ValidationError, match="conflicting"):
            restrict_to_complete_tasks([a, b])


class TestWeakenComparate:
    @pytest.fixture
    def matrix(self):
        return _fragment(("T", "R"), ("t1", "t2"), [[0.9, 0.7], [0.5, 0.5]])

    def test_weight_one_copies_target(self, matrix):
        out = weaken_comparate(matrix, "T", "R", 1.0, "V")
        assert (out.row("V") == matrix.row("T")).all()

    def test_weight_zero_copies_reference(self, matrix):
        out = weaken_comparate(matrix, "T", "R", 0.0, "V")
        assert (out.row("V") == matrix.row("R")).all()

    def test_midpoint_blend(self, matrix):
        out = weaken_comparate(matrix, "T", "R", 0.5, "V")
        assert out.row("V").tolist() == [0.7, 0.6]

    def test_originals_untouched(self, matrix):
        out = weaken_comparate(matrix, "T", "R", 0.25, "V")
        assert (out.scores[:2] == matrix.scores).all()
        assert out.comparates == ("T", "R", "V")

    def test_name_collision(self, matrix):
        with pytest.raises(ValidationError, match="comparate name 'R' already exists"):
            weaken_comparate(matrix, "T", "R", 0.5, "R")

    def test_unknown_comparate(self, matrix):
        with pytest.raises(ValidationError, match="unknown comparate 'Nope'"):
            weaken_comparate(matrix, "T", "Nope", 0.5, "V")

    def test_same_comparate(self, matrix):
        with pytest.raises(ValidationError, match="target and reference must differ"):
            weaken_comparate(matrix, "T", "T", 0.5, "V")

    @given(
        weight=st.floats(min_value=0.0, max_value=1.0),
        target=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=8
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_blend_stays_in_envelope(self, weight, target, data):
        reference = data.draw(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6),
                min_size=len(target),
                max_size=len(target),
            )
        )
        matrix = _fragment(
            ("T", "R"),
            tuple(f"t{i}" for i in range(len(target))),
            [target, reference],
        )
        out = weaken_comparate(matrix, "T", "R", weight, "V")
        lo = np.minimum(matrix.row("T"), matrix.row("R"))
        hi = np.maximum(matrix.row("T"), matrix.row("R"))
        assert (out.row("V") >= lo).all() and (out.row("V") <= hi).all()
