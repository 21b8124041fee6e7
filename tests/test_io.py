"""CSV round trips, ingest validation, and deterministic JSON emission."""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoffbounds import Economy
from cutoffbounds.io import (
    IngestError,
    _rols_by_columns,
    _rols_by_rows,
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


# ---------------------------------------------------------------------------
# economy round trip


def test_economy_round_trip(golden, tmp_path):
    eco = golden.economy
    write_economy(tmp_path, eco)
    back = load_economy(tmp_path, list_cap=eco.list_cap,
                        capacities=eco.capacities)
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
    back = load_economy(tmp_path, list_cap=eco.list_cap,
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


def test_unsorted_ids_are_reordered(tmp_path):
    (tmp_path / "students.csv").write_text(
        "id,s_1\n7,100.0\n2,300.0\n5,200.0\n")
    (tmp_path / "rols.csv").write_text(
        "id,rank,school_id\n7,1,1\n2,1,1\n5,1,1\n")
    eco = load_economy(tmp_path, list_cap=1, capacities=(2,))
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
        back = load_economy(d, list_cap=eco.list_cap,
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


@st.composite
def edited_rols_rows(draw):
    """Rows of valid lists of students 0..2 (3 schools, cap 2), shuffled,
    then edited up to twice: a value replaced, a row dropped, repeated,
    cut short or extended."""
    rows = [[str(sid), str(rank), str(j)]
            for sid in range(3)
            for rank, j in enumerate(draw(st.lists(
                st.integers(1, 3), min_size=1, max_size=2, unique=True)), 1)]
    rows = list(draw(st.permutations(rows)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(rows) - 1))
        row = list(rows[k])
        edit = draw(st.sampled_from(["set", "drop", "repeat", "cut", "extend"]))
        if edit == "set":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(
                ["0", "1", "2", "3", "-1", "x", "1.0", " 2"]))
            rows[k] = row
        elif edit == "drop" and len(rows) > 1:
            del rows[k]
        elif edit == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), row)
        elif edit == "cut":
            rows[k] = row[:-1]
        elif edit == "extend":
            rows[k] = row + ["1"]
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=edited_rols_rows())
def test_rols_column_checks_agree_with_reading_row_by_row(rows):
    # the column-wise path returns exactly the lists reading row by row
    # returns, and declines (None) exactly when reading row by row fails
    try:
        expected = _rols_by_rows(Path("rols.csv"), rows, [0, 1, 2], 3, 2)
    except IngestError:
        expected = None
    assert _rols_by_columns(rows, [0, 1, 2], 3, 2) == expected


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
    write_matching(p, [2, 0, 1])
    assert read_matching(p, ids=[0, 1, 2]).tolist() == [2, 0, 1]
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
