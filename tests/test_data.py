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
from mcmatrix.errors import McmatrixError, ValidationError

from conftest import random_matrix
from oracles import restrict_to_complete_tasks_loop

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

    def test_non_numeric_cell_carries_coordinates(self):
        data = b"comparate,t1\nA,fast\nB,0.5\n"
        with pytest.raises(ValidationError, match="cell 'fast' is not a number") as err:
            load_results(data, "csv", "higher")
        assert err.value.row == 2 and err.value.column == 2

    def test_nan_cell_is_validation_error(self):
        data = b"comparate,t1\nA,nan\nB,0.5\n"
        with pytest.raises(ValidationError) as err:
            load_results(data, "csv", "higher")
        assert (err.value.row, err.value.column) == (2, 2)

    # Row 2 is read whole; row 3 fails the whole-row parse and is read cell
    # by cell, which names the first cell at fault.  A non-ASCII or "_" cell
    # is found before any other fault of its row, as float() reads both.
    @pytest.mark.parametrize("row, message", [
        ("B,0.5,,0.4", "missing cell (row=3, column=3)"),
        ("B,0.5", "missing cell (row=3, column=3)"),
        ("B,0.5, ,0.4", "missing cell (row=3, column=3)"),
        ("B,0.5,nan,0.4", "non-finite score 'nan' (row=3, column=3)"),
        ("B,inf,0.5,0.4", "non-finite score 'inf' (row=3, column=2)"),
        ("B,0.5,0.6, -Infinity ", "non-finite score '-Infinity' (row=3, column=4)"),
        ("B,nan,,x", "non-finite score 'nan' (row=3, column=2)"),
        ("B,0.5,fast,0.4", "cell 'fast' is not a number (row=3, column=3)"),
        ("B,0.5,1_0,0.4", "cell '1_0' is not a number (row=3, column=3)"),
        ("B,,1_0,0.4", "cell '1_0' is not a number (row=3, column=3)"),
        ("B,0.5,0.6,\u0661", "cell '\u0661' is not a number (row=3, column=4)"),
        ("B,0.5,0.6,0.4,0.3", "expected 4 cells, found 5 (row=3, column=None)"),
        ("B,0.5,0.6,nan\nC,,0.1,0.2", "non-finite score 'nan' (row=3, column=4)"),
    ])
    def test_a_bad_row_after_a_good_one_names_its_first_bad_cell(self, row, message):
        data = f"comparate,t1,t2,t3\nA,0.9,0.8,0.7\n{row}\nD,0.1,0.2,0.3\n"
        with pytest.raises(ValidationError) as err:
            load_results(data, "csv", "higher")
        assert str(err.value) == message

    @pytest.mark.parametrize("row, scores", [
        ("B, 0.5 ,\t0.6\t,0.4 ", [0.5, 0.6, 0.4]),
        ("B,1e-3 ,+.5, -2E2", [0.001, 0.5, -200.0]),
        # float() keeps the information separators that str.strip() removes,
        # so this row is read again cell by cell, to the same values.
        ("B,\x1c0.5\x1c,0.6,0.4", [0.5, 0.6, 0.4]),
    ])
    def test_padded_numbers_read_as_their_stripped_text(self, row, scores):
        data = f"comparate,t1,t2,t3\nA,0.9,0.8,0.7\n{row}\n"
        matrix = load_results(data, "csv", "higher")
        assert matrix.scores.tolist() == [[0.9, 0.8, 0.7], scores]

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
        with pytest.raises(ValidationError, match="invalid JSON"):
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


@pytest.mark.parametrize("fmt", ["xml", "CSV", " csv", "Json", "JSON"])
def test_each_format_has_one_spelling(fmt):
    with pytest.raises(ValidationError, match=f"unknown input format {fmt!r}"):
        load_results(CSV_2X3, fmt, "higher")
    with pytest.raises(ValidationError, match=f"unknown output format {fmt!r}"):
        dump_results(load_results(CSV_2X3, "csv", "higher"), fmt)


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

    @pytest.mark.parametrize("scores", [
        [["1.5"], ["2"]],
        [[True], [False]],
        [[True], [2.0]],
        [[1.5 + 0j], [2.0]],
        [[None], [2.0]],
        np.array([[1.5], [2.0]], dtype=object),
        [[1.5, 2.0], [2.0]],
    ], ids=["strings", "bools", "mixed-bool", "complex", "none", "object", "ragged"])
    def test_non_numbers_refused(self, scores):
        with pytest.raises(ValidationError, match="scores must be numbers"):
            ResultsMatrix(("A", "B"), ("t",), scores, "higher")

    def test_integer_scores_accepted(self):
        matrix = ResultsMatrix(("A", "B"), ("t",), [[1], [np.int8(2)]], "higher")
        assert matrix.scores.dtype == np.float64 and matrix.scores.tolist() == [[1.0], [2.0]]

    def test_scores_frozen(self):
        matrix = ResultsMatrix(("A", "B"), ("t",), np.array([[1.0], [2.0]]), "higher")
        with pytest.raises(ValueError):
            matrix.scores[0, 0] = 5.0


def _fragment(comparates, tasks, scores):
    return ResultsMatrix(comparates, tasks, np.array(scores, dtype=float), "higher")


@st.composite
def _fragment_lists(draw):
    """One to four fragments of one table, each a shuffled subset of its
    comparates and of its tasks.  A zero is sometimes written as -0.0, a
    cell is sometimes changed, and a fragment is sometimes in the other
    direction."""
    truth = draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, -2.0]),
                                   min_size=8, max_size=8), min_size=5, max_size=5))
    fragments = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.permutations(range(5)))[:draw(st.integers(2, 5))]
        cols = draw(st.permutations(range(8)))[:draw(st.integers(1, 8))]
        scores = np.array([[truth[i][j] for j in cols] for i in rows])
        scores[scores == 0.0] *= draw(st.sampled_from([1.0, -1.0]))
        if draw(st.integers(0, 3)) == 0:
            scores[draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(cols) - 1))] += 3
        fragments.append(ResultsMatrix([f"c{i}" for i in rows], [f"t{j}" for j in cols], scores,
                                       "lower" if draw(st.integers(0, 9)) == 0 else "higher"))
    return fragments


def _merged(merge, fragments):
    """What ``merge`` makes of the fragments: the table, bit for bit, or the
    refusal's message."""
    try:
        out = merge(fragments)
    except ValidationError as exc:
        return str(exc)
    return out.comparates, out.tasks, out.scores.tobytes(), out.direction


class TestRestrictToCompleteTasks:
    @settings(max_examples=300, deadline=None)
    @given(_fragment_lists())
    def test_equals_the_list_merge(self, fragments):
        assert (_merged(restrict_to_complete_tasks, fragments)
                == _merged(restrict_to_complete_tasks_loop, fragments))

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

    @pytest.mark.parametrize("weight", [True, "0.5", None])
    def test_weight_that_is_not_a_real_number_refused(self, matrix, weight):
        with pytest.raises(ValidationError, match="weight must be a real number"):
            weaken_comparate(matrix, "T", "R", weight, "V")

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
