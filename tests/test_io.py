"""CSV round trips, ingest validation, and deterministic JSON emission."""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoffbounds import Economy, EconomyTruth
from cutoffbounds import io as cio
from cutoffbounds.io import (
    IngestError,
    dump_json,
    file_checksum,
    infer_score_groups,
    jsonable,
    load_economy,
    read_config_file,
    read_cutoffs,
    read_matching,
    read_outcomes,
    read_rols,
    read_students,
    read_truth,
    write_cutoffs,
    write_economy,
    write_matching,
)
from cutoffbounds.pipeline import RunConfig, resolve_source, run_pipeline


# ---------------------------------------------------------------------------
# economy round trip


def test_economy_round_trip(golden, tmp_path):
    eco = golden.economy
    write_economy(tmp_path, eco)
    back, ids = load_economy(tmp_path, list_cap=eco.list_cap,
                             capacities=eco.capacities)
    assert ids == list(range(eco.n_students))
    assert back.n_schools == eco.n_schools
    assert back.score_groups == eco.score_groups
    assert np.array_equal(back.score_cols, eco.score_cols)
    assert back.reports == eco.reports
    assert np.array_equal(back.y_observed, eco.y_observed)
    assert np.array_equal(back.truth.pref_orders, eco.truth.pref_orders)
    assert np.array_equal(back.truth.potential, eco.truth.potential)


def test_round_trip_without_optional_files(golden, tmp_path):
    eco = golden.economy
    write_economy(tmp_path, eco)
    (tmp_path / "outcomes.csv").unlink()
    (tmp_path / "truth.csv").unlink()
    back, _ = load_economy(tmp_path, list_cap=eco.list_cap,
                           capacities=eco.capacities)
    assert back.y_observed is None and back.truth is None


def test_shared_score_columns_collapse(golden, tmp_path):
    # the on-disk format has one column per school; identical columns are
    # folded back into a shared group on load
    write_economy(tmp_path, golden.economy)
    ids, per_school = read_students(tmp_path / "students.csv")
    assert per_school.shape == (28, 4)
    groups, cols = infer_score_groups(per_school)
    assert groups == (0, 0, 0, 0)
    assert cols.shape == (28, 1)


def test_infer_groups_mixed():
    m = np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 3.0]])
    groups, cols = infer_score_groups(m)
    assert groups == (0, 1, 0)
    assert np.array_equal(cols, m[:, :2])


def test_capacity_count_must_match(golden, tmp_path):
    write_economy(tmp_path, golden.economy)
    with pytest.raises(IngestError, match="capacities"):
        load_economy(tmp_path, list_cap=3, capacities=(5, 5, 5))


def test_ids_beyond_64_bits_are_read_row_by_row(tmp_path):
    big = 2**70
    (tmp_path / "students.csv").write_text(
        f"id,s_1,s_2\n{big},100.0,1.0\n5,300.0,3.0\n{-big},200.0,2.0\n")
    (tmp_path / "rols.csv").write_text(
        f"id,rank,school_id\n5,1,2\n{big},1,1\n{-big},1,2\n{-big},2,1\n")
    (tmp_path / "outcomes.csv").write_text(
        f"id,y_observed\n5,1.0\n{-big},2.0\n{big},3.0\n")
    eco, ids = load_economy(tmp_path, list_cap=2, capacities=(1, 1))
    assert ids == [-big, 5, big]
    assert eco.score_cols.tolist() == [[200.0, 2.0], [300.0, 3.0],
                                       [100.0, 1.0]]
    assert eco.reports == ((2, 1), (2,), (1,))
    assert eco.y_observed.tolist() == [2.0, 1.0, 3.0]


def test_unsorted_ids_are_reordered(tmp_path):
    (tmp_path / "students.csv").write_text(
        "id,s_1\n7,100.0\n2,300.0\n5,200.0\n")
    (tmp_path / "rols.csv").write_text(
        "id,rank,school_id\n7,1,1\n2,1,1\n5,1,1\n")
    eco, ids = load_economy(tmp_path, list_cap=1, capacities=(2,))
    assert ids == [2, 5, 7]
    assert eco.score_cols[:, 0].tolist() == [300.0, 200.0, 100.0]


@st.composite
def small_economies(draw):
    """Economies of up to 8 students and 4 schools with lists and outcomes.

    Score groups are numbered in order of first use, and each group's
    column sits in its own range, so reading them back can only find the
    grouping drawn.
    """
    J = draw(st.integers(1, 4))
    groups = [0]
    for _ in range(J - 1):
        groups.append(draw(st.integers(0, max(groups) + 1)))
    n = draw(st.integers(1, 8))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    base = np.array(draw(st.lists(st.lists(finite, min_size=max(groups) + 1,
                                           max_size=max(groups) + 1),
                                  min_size=n, max_size=n)))
    cols = base + 1e7 * np.arange(base.shape[1])
    cap = draw(st.integers(1, 3))
    reports = tuple(tuple(draw(st.lists(st.integers(1, J), min_size=1,
                                        max_size=cap, unique=True)))
                    for _ in range(n))
    y = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    return Economy(n_schools=J, list_cap=cap, capacities=(1,) * J,
                   score_groups=tuple(groups), score_cols=cols,
                   reports=reports, y_observed=y)


def _shuffle_rows(path, rnd):
    head, *rows = path.read_text().splitlines()
    rnd.shuffle(rows)
    path.write_text("\n".join([head] + rows) + "\n")


@settings(max_examples=60, deadline=None)
@given(eco=small_economies(), rnd=st.randoms(use_true_random=False))
def test_round_trip_with_rows_in_any_order(eco, rnd):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_economy(d, eco)
        _shuffle_rows(d / "students.csv", rnd)
        _shuffle_rows(d / "rols.csv", rnd)
        back, _ = load_economy(d, list_cap=eco.list_cap,
                               capacities=eco.capacities)
    assert back.reports == eco.reports
    assert np.array_equal(back.score_cols, eco.score_cols)
    assert back.score_groups == eco.score_groups
    assert np.array_equal(back.y_observed, eco.y_observed)


# ---------------------------------------------------------------------------
# students.csv


def test_students_rejects_bad_headers(tmp_path):
    p = tmp_path / "students.csv"
    p.write_text("")
    with pytest.raises(IngestError, match="empty"):
        read_students(p)
    p.write_text("id,score\n0,1.0\n")
    with pytest.raises(IngestError, match="s_1"):
        read_students(p)
    p.write_text("student,s_1\n0,1.0\n")
    with pytest.raises(IngestError, match="header"):
        read_students(p)


def test_students_rejects_bad_rows(tmp_path):
    p = tmp_path / "students.csv"
    p.write_text("id,s_1\n0,1.0\n0,2.0\n")
    with pytest.raises(IngestError, match="duplicate"):
        read_students(p)
    p.write_text("id,s_1\n0,abc\n")
    with pytest.raises(IngestError, match="row 2.*not a number"):
        read_students(p)
    p.write_text("id,s_1\n0\n")
    with pytest.raises(IngestError, match="row 2.*fields"):
        read_students(p)
    p.write_text("id,s_1\n")
    with pytest.raises(IngestError, match="no students"):
        read_students(p)


def test_students_blank_line_is_a_row(tmp_path):
    # numpy's reader skips blank lines; in students.csv each line after the
    # header must be a student, so the row path reads this file and names
    # the blank line
    p = tmp_path / "students.csv"
    p.write_text("id,s_1\n0,1.0\n\n1,2.0\n")
    with pytest.raises(IngestError,
                       match=r"^students\.csv row 3: expected 2 fields$"):
        read_students(p)


# ---------------------------------------------------------------------------
# rols.csv


def _rols(tmp_path, text):
    p = tmp_path / "rols.csv"
    p.write_text("id,rank,school_id\n" + text)
    return p


def test_rols_round_trip(tmp_path):
    p = _rols(tmp_path, "0,1,2\n0,2,1\n1,1,3\n")
    got = read_rols(p, ids=[0, 1], n_schools=3, list_cap=2)
    assert got == ((2, 1), (3,))


def test_rols_duplicate_rank_cites_both_rows(tmp_path):
    p = _rols(tmp_path, "0,1,2\n0,1,3\n")
    with pytest.raises(IngestError, match=r"row 3.*duplicate rank 1.*row 2"):
        read_rols(p, ids=[0], n_schools=3, list_cap=2)


def test_rols_rank_gap(tmp_path):
    p = _rols(tmp_path, "0,1,2\n0,3,1\n")
    with pytest.raises(IngestError, match="contiguous"):
        read_rols(p, ids=[0], n_schools=3, list_cap=3)


def test_rols_unknown_student(tmp_path):
    p = _rols(tmp_path, "0,1,2\n9,1,1\n")
    with pytest.raises(IngestError, match="unknown student id 9"):
        read_rols(p, ids=[0], n_schools=3, list_cap=2)


def test_rols_missing_student(tmp_path):
    p = _rols(tmp_path, "0,1,2\n")
    with pytest.raises(IngestError, match="student 1 has no list"):
        read_rols(p, ids=[0, 1], n_schools=3, list_cap=2)


def test_rols_enforce_cap_and_school_range(tmp_path):
    p = _rols(tmp_path, "0,1,1\n0,2,2\n0,3,3\n")
    with pytest.raises(IngestError, match="student 0"):
        read_rols(p, ids=[0], n_schools=3, list_cap=2)
    p = _rols(tmp_path, "0,1,4\n")
    with pytest.raises(IngestError):
        read_rols(p, ids=[0], n_schools=3, list_cap=2)
    p = _rols(tmp_path, "0,1,1\n0,2,1\n")
    with pytest.raises(IngestError):
        read_rols(p, ids=[0], n_schools=3, list_cap=2)


def test_rols_duplicate_rank_out_of_order_cites_rows_in_file_order(tmp_path):
    # sorted by (id, rank) the repeated rank would come first; blank lines
    # are not rows
    p = _rols(tmp_path, "1,1,3\n0,2,1\n\n0,1,2\n1,2,1\n0,1,3\n")
    with pytest.raises(IngestError, match=r"^rols\.csv row 6: duplicate rank"
                       r" 1 for student 0 \(first at row 4\)$"):
        read_rols(p, ids=[0, 1], n_schools=3, list_cap=2)


@pytest.mark.parametrize("bad, text", [("x,2,1", "'x'"), ("0,two,1", "'two'"),
                                       ("0,2,1.0", "'1.0'")])
def test_rols_non_integer_fields_name_the_row(tmp_path, bad, text):
    p = _rols(tmp_path, f"0,1,2\n{bad}\n")
    with pytest.raises(IngestError,
                       match=rf"^rols\.csv row 3: not an integer: {text}$"):
        read_rols(p, ids=[0], n_schools=3, list_cap=2)


@pytest.mark.parametrize("rows, message", [
    ("0,1,1\n0,2,2\n0,3,3\n", "student 0: list length 3 outside 1..2"),
    ("0,1,4\n", "student 0: school id 4 out of range"),
    ("0,1,1\n0,2,1\n", "student 0: duplicate school in list"),
])
def test_rols_list_checks_name_the_student(tmp_path, rows, message):
    p = _rols(tmp_path, rows)
    with pytest.raises(IngestError, match=f"^{re.escape('rols.csv: ' + message)}$"):
        read_rols(p, ids=[0], n_schools=3, list_cap=2)


# ---------------------------------------------------------------------------
# outcomes / matching / cutoffs


def test_outcomes_validation(tmp_path):
    p = tmp_path / "outcomes.csv"
    p.write_text("id,y_observed\n0,1.5\n1,0.0\n")
    assert read_outcomes(p, ids=[0, 1]).tolist() == [1.5, 0.0]
    p.write_text("id,y_observed\n0,1.0\n0,2.0\n")
    with pytest.raises(IngestError, match="duplicate"):
        read_outcomes(p, ids=[0])
    p.write_text("id,y_observed\n0,1.0\n")
    with pytest.raises(IngestError, match=r"no outcome.*\[1\]"):
        read_outcomes(p, ids=[0, 1])


def test_outcome_not_a_number_names_the_row(tmp_path):
    p = tmp_path / "outcomes.csv"
    p.write_text("id,y_observed\n0,1.0\n1,abc\n")
    with pytest.raises(IngestError,
                       match=r"^outcomes\.csv row 3: not a number: 'abc'$"):
        read_outcomes(p, ids=[0, 1])


FIELD_COUNT_CASES = {
    "rols.csv": ("id,rank,school_id", "0,1,1",
                 lambda p: read_rols(p, ids=[0], n_schools=3, list_cap=2)),
    "outcomes.csv": ("id,y_observed", "0,1.0",
                     lambda p: read_outcomes(p, ids=[0])),
    "truth.csv": ("id,q_1,q_2,y_0,y_1", "0,1,0,0.5,1.0",
                  lambda p: read_truth(p, ids=[0], n_schools=1)),
    "matching.csv": ("id,assigned_school", "0,1",
                     lambda p: read_matching(p, ids=[0])),
    "cutoffs.csv": ("school_id,cutoff", "1,2.0", read_cutoffs),
}


@pytest.mark.parametrize("name", sorted(FIELD_COUNT_CASES))
def test_wrong_field_count_names_the_row(tmp_path, name):
    head, good, read = FIELD_COUNT_CASES[name]
    n_fields = head.count(",") + 1
    fields = good.split(",")
    p = tmp_path / name
    for bad in (fields[:-1], fields + ["9"]):         # too few, too many
        p.write_text(f"{head}\n{good}\n\n{','.join(bad)}\n")
        with pytest.raises(IngestError, match=f"^{re.escape(name)} row 3:"
                           f" expected {n_fields} fields$"):
            read(p)


def test_matching_round_trip(tmp_path):
    p = tmp_path / "matching.csv"
    write_matching(p, [2, 0, 1], [4, 9, 6])
    assert read_matching(p, ids=[4, 6, 9]).tolist() == [2, 1, 0]
    p.write_text("id,assigned_school\n0,1\n")
    with pytest.raises(IngestError, match="no assignment"):
        read_matching(p, ids=[0, 1])


def test_cutoffs_round_trip_with_inf(tmp_path):
    p = tmp_path / "cutoffs.csv"
    write_cutoffs(p, {2: 300.0, 1: float("inf"), 3: -1.0})
    got = read_cutoffs(p)
    assert got == {1: float("inf"), 2: 300.0, 3: -1.0}
    assert p.read_text().splitlines()[1] == "1,inf"
    p.write_text("school_id,cutoff\n1,2.0\n1,3.0\n")
    with pytest.raises(IngestError, match="duplicate school 1"):
        read_cutoffs(p)


def test_truth_rejects_non_permutation(golden, tmp_path):
    write_economy(tmp_path, golden.economy)
    lines = (tmp_path / "truth.csv").read_text().splitlines()
    head, first = lines[0], lines[1].split(",")
    first[1:6] = ["0", "0", "1", "2", "3"]
    (tmp_path / "truth.csv").write_text("\n".join([head, ",".join(first)]) + "\n")
    with pytest.raises(IngestError, match="permute"):
        load_economy(tmp_path, list_cap=3, capacities=golden.economy.capacities)


# ---------------------------------------------------------------------------
# numpy's reader against the row path


IDS = [3, 7, 10]            # "1_0" and "+3" name students too
N_SCHOOLS = 3
LIST_CAP = 2

READERS = {
    "students.csv": ("id,s_1,s_2,s_3", read_students),
    "rols.csv": ("id,rank,school_id",
                 lambda p: read_rols(p, IDS, N_SCHOOLS, LIST_CAP)),
    "outcomes.csv": ("id,y_observed", lambda p: read_outcomes(p, IDS)),
    "matching.csv": ("id,assigned_school", lambda p: read_matching(p, IDS)),
    "cutoffs.csv": ("school_id,cutoff", read_cutoffs),
    "truth.csv": ("id,q_1,q_2,q_3,q_4,y_0,y_1,y_2,y_3",
                  lambda p: read_truth(p, IDS, N_SCHOOLS)),
}

FIELDS = ["0", "1", "2", "3", "7", "10", "-1", "+3", " 7", "7 ", "\t1",
          "3.0", "1.0", "1_0", "\u0661", "99999999999999999999",
          "-99999999999999999999", "9223372036854775807", "nan", "inf",
          "-inf", "1e3", "0.5", "x", ""]


@st.composite
def edited_input_files(draw):
    """``(name, text)``: a valid input file for students ``IDS``, its rows
    shuffled, then edited up to three times (a field replaced or quoted; a
    row dropped, repeated, cut short or extended; every row cut short,
    extended or dropped; a blank or whitespace line inserted) and written
    with LF or CRLF, with or without a final newline."""
    name = draw(st.sampled_from(sorted(READERS)))
    num = st.one_of(st.floats(-1e3, 1e3, allow_nan=False).map(repr),
                    st.sampled_from(["inf", "-inf", "nan", "-0.0", "1e3"]))
    school = st.integers(1, N_SCHOOLS).map(str)
    if name == "students.csv":
        rows = [[str(i)] + [draw(num) for _ in range(N_SCHOOLS)] for i in IDS]
    elif name == "rols.csv":
        rows = [[str(i), str(rank), str(j)] for i in IDS
                for rank, j in enumerate(draw(st.lists(
                    st.integers(1, N_SCHOOLS), min_size=1, max_size=LIST_CAP,
                    unique=True)), 1)]
    elif name == "outcomes.csv":
        rows = [[str(i), draw(num)] for i in IDS]
    elif name == "matching.csv":
        rows = [[str(i), str(draw(st.integers(0, N_SCHOOLS)))] for i in IDS]
    elif name == "cutoffs.csv":
        rows = [[str(j), draw(num)] for j in range(1, N_SCHOOLS + 1)]
    else:
        rows = [[str(i)] + list(map(str, draw(st.permutations(
            range(N_SCHOOLS + 1))))) + [draw(num)
                                        for _ in range(N_SCHOOLS + 1)]
                for i in IDS]
    lines = list(draw(st.permutations(rows)))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["set", "quote", "drop", "repeat", "cut",
                                     "extend", "blank", "space", "narrow",
                                     "widen", "clear"]))
        if edit in ("narrow", "widen", "clear"):
            rows = [line for line in lines if isinstance(line, list)]
            lines = [line for line in lines if isinstance(line, str)] + (
                [] if edit == "clear" else [
                    row[:-1] if edit == "narrow" else row + ["1"]
                    for row in rows])
            if not lines:
                lines = [""]
        elif edit == "blank":
            lines.insert(k, "")
        elif edit == "space":
            lines.insert(k, draw(st.sampled_from([" ", "\t", "  "])))
        elif isinstance(lines[k], str) or not lines[k]:
            continue
        elif edit in ("set", "quote"):
            row = list(lines[k])
            f = draw(st.integers(0, len(row) - 1))
            row[f] = (draw(st.sampled_from(FIELDS)) if edit == "set"
                      else f'"{row[f]}"')
            lines[k] = row
        elif edit == "drop" and len(lines) > 1:
            del lines[k]
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[k])
        elif edit == "cut":
            lines[k] = lines[k][:-1]
        elif edit == "extend":
            lines[k] = lines[k] + [draw(school)]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([READERS[name][0]] + [
        line if isinstance(line, str) else ",".join(line) for line in lines])
    return name, text + (eol if draw(st.booleans()) else "")


def _canon(value):
    """A comparable form of a reader's result, exact to the bit and type."""
    if isinstance(value, np.ndarray):
        data = (_canon(value.tolist()) if value.dtype == object
                else value.tobytes())   # integers beyond 64 bits: by value
        return "array", value.dtype.str, value.shape, data
    if isinstance(value, EconomyTruth):
        return "truth", _canon(value.pref_orders), _canon(value.potential)
    if isinstance(value, dict):
        return "dict", [(_canon(k), _canon(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [_canon(v) for v in value]
    if isinstance(value, float):
        return "float", np.float64(value).tobytes()
    return type(value).__name__, value


def _outcome(read, path):
    try:
        return "value", _canon(read(path))
    except Exception as exc:            # any failure must match too
        return type(exc).__name__, str(exc)


@settings(max_examples=1800, deadline=None)     # about 300 per file
@given(case=edited_input_files())
def test_numpy_reader_agrees_with_reading_row_by_row(case):
    # every file reads to the same value, or fails with the same message,
    # whether numpy's reader parses it or the rows are read one by one; and
    # once numpy's reader has parsed a file, the checks on its columns
    # decline it (falling back to the rows) only when the file is invalid
    name, text = case
    read = READERS[name][1]
    parsed, fell_back = [], []
    load_body, body_rows = cio._load_body, cio._body_rows

    def spy_load(*args, **kwargs):
        out = load_body(*args, **kwargs)
        parsed.append(out is not None)
        return out

    def spy_rows(*args, **kwargs):
        fell_back.append(True)
        return body_rows(*args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / name
        p.write_bytes(text.encode())
        with mock.patch.object(cio, "_load_body", spy_load), \
                mock.patch.object(cio, "_body_rows", spy_rows):
            fast = _outcome(read, p)
        with mock.patch.object(cio, "_load_body", lambda *a, **k: None):
            by_rows = _outcome(read, p)
    assert fast == by_rows
    if by_rows[0] == "value" and parsed == [True]:
        assert not fell_back


def test_valid_files_take_the_numpy_reader(tmp_path, monkeypatch):
    # a well-formed economy never reaches the row path, which the fast
    # reader would silently fall back to if numpy began to decline it
    cfg = RunConfig(dgp={"n_students": 1000, "n_schools": 4,
                         "score_mode": "independent"},
                    seed=3, out_dir=str(tmp_path))
    run_pipeline(cfg, stage="match")
    want = resolve_source(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("read row by row")

    for name in ("_body_rows", "_numbered", "_rols_by_rows"):
        monkeypatch.setattr(cio, name, refuse)
    eco, ids = load_economy(tmp_path, list_cap=cfg.list_cap,
                            capacities=want.economy.capacities)
    assert ids == list(range(1000))
    assert eco.score_groups == want.economy.score_groups == (0, 1, 2, 3)
    assert np.array_equal(eco.score_cols, want.economy.score_cols)
    assert eco.reports == want.economy.reports
    assert np.array_equal(eco.y_observed, want.economy.y_observed)
    assert np.array_equal(eco.truth.pref_orders,
                          want.economy.truth.pref_orders)
    assert np.array_equal(eco.truth.potential, want.economy.truth.potential)
    assert np.array_equal(read_matching(tmp_path / "matching.csv", ids),
                          want.assignment)
    assert read_cutoffs(tmp_path / "cutoffs.csv") == {
        j: want.cutoffs.cutoff(j) for j in range(1, 5)}


# ---------------------------------------------------------------------------
# JSON artifacts


def test_jsonable_normalization():
    out = jsonable({
        "neg_zero": -0.0,
        "inf": float("inf"),
        "ninf": float("-inf"),
        "nan": float("nan"),
        "np_int": np.int64(4),
        "np_float": np.float64(0.1),
        "np_bool": np.bool_(True),
        "fs": frozenset([(4, 2), (1, 0)]),
        3: "int key",
    })
    assert repr(out["neg_zero"]) == "0.0"
    assert out["inf"] == "inf" and out["ninf"] == "-inf" and out["nan"] == "nan"
    assert out["np_int"] == 4 and isinstance(out["np_int"], int)
    assert out["np_float"] == 0.1 and isinstance(out["np_float"], float)
    assert out["np_bool"] is True
    assert out["fs"] == [[1, 0], [4, 2]]
    assert out["3"] == "int key"


def test_jsonable_keeps_full_precision():
    x = 0.1 + 0.2                           # 0.30000000000000004
    assert jsonable(x) == x
    assert json.loads(json.dumps(jsonable(x))) == x


def test_dump_json_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"z": [1, 2.5], "a": {"k": -0.0}}
    dump_json(a, payload)
    dump_json(b, {"a": {"k": -0.0}, "z": [1, 2.5]})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")
    assert json.loads(a.read_text()) == {"z": [1, 2.5], "a": {"k": 0.0}}


def test_file_checksum(tmp_path):
    p = tmp_path / "blob.bin"
    p.write_bytes(b"hello cutoffs")
    assert file_checksum(p) == hashlib.sha256(b"hello cutoffs").hexdigest()


def test_read_config_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text('{"seed": 3}')
    assert read_config_file(p) == {"seed": 3}
    p.write_text("[1, 2]")
    with pytest.raises(IngestError, match="object"):
        read_config_file(p)
    p.write_text("{nope")
    with pytest.raises(IngestError, match="invalid JSON"):
        read_config_file(p)
