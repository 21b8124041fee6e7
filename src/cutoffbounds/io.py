"""CSV and JSON plumbing: economies, matchings, cutoffs, run artifacts.

Every input file is read the same way.  The header is parsed with the
``csv`` module and checked.  The rest of the file goes to numpy's C reader
(``np.loadtxt``), which parses the integer columns as int64 and, when the
file has float columns, every column once more as float64; the columns
are then checked as arrays.  The C reader declines some valid input that
``csv`` with Python's ``int`` and ``float`` reads (quoted fields, ids
beyond 64 bits, ``1_0``, non-ASCII digits), and any file where it would
read something else: a row of the wrong width, a blank line in
``students.csv``.  Then, and whenever a check on the arrays fails, the file
is read again row by row.  That path accepts every valid file and names
the first bad row of an invalid one, so both paths return the same values
and raise the same errors.

Scores travel as one column per school even when schools share a column
internally; reading infers the sharing structure back from exact column
equality.  All floats are written with round-trip precision, and JSON
artifacts are normalized (sorted keys, numpy scalars as Python numbers,
negative zero as zero, non-finite floats as strings, frozensets as sorted
lists) so reruns with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from io import StringIO
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .economy import Economy, EconomyError, EconomyTruth, validate_report


class IngestError(ValueError):
    """Malformed input file; message carries file and row context."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise IngestError(f"{where}: not a number: {text!r}") from None


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise IngestError(f"{where}: not an integer: {text!r}") from None


_CHECKED = {int: _parse_int, float: _parse_float}


def _split_header(path: Path) -> tuple[list[str] | None, str]:
    """The header's fields (None for an empty file) and the text after it."""
    with open(path, newline="") as fh:
        head = next(csv.reader(fh), None)
        return head, fh.read()


def _table_body(path: Path, expected: Sequence[str]) -> str:
    """The text after the header of a CSV file whose header must be
    ``expected``."""
    head, body = _split_header(path)
    if (head or []) != list(expected):
        raise IngestError(
            f"{path.name}: header {head or []} != expected {list(expected)}")
    return body


def _body_rows(body: str, keep_blank: bool = False) -> list[list[str]]:
    """The rows of ``body`` as ``csv`` reads them; a blank line is skipped,
    or with ``keep_blank`` kept as ``[]``."""
    rows = csv.reader(StringIO(body, newline=""))
    return list(rows) if keep_blank else [row for row in rows if row]


_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": None,
            "ndmin": 2}


def _load_body(body: str, n_fields: int, n_int: int, every_line: bool = False
               ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``(ints, floats)``: the first ``n_int`` columns of ``body`` as int64
    and, when there are more columns, all ``n_fields`` as float64 (else
    None), parsed by numpy's C reader.

    None when that reader declines the text or a warning is raised, when a
    row is not ``n_fields`` wide, and with ``every_line`` when a line is
    blank (numpy skips blank lines).  The caller then reads the rows one by
    one.
    """
    def load(dtype, **kw):
        return np.loadtxt(StringIO(body), dtype=dtype, **_LOADTXT, **kw)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if n_int == n_fields:
                ints, floats = load(np.int64), None
            else:
                floats = load(np.float64)
                ints = load(np.int64, usecols=range(n_int))
    except (ValueError, Warning):
        return None
    if (floats if floats is not None else ints).shape[1] != n_fields:
        return None
    if every_line and len(ints) != (body.count("\n")
                                    + (not body.endswith("\n"))):
        return None
    return ints, floats


def _numbered(path: Path, rows: Sequence[list[str]], n_fields: int):
    """``(where, row)`` per row, ``where`` naming the file and the row,
    once the row is known to have ``n_fields`` fields."""
    for ln, row in enumerate(rows, start=2):
        where = f"{path.name} row {ln}"
        if len(row) != n_fields:
            raise IngestError(f"{where}: expected {n_fields} fields")
        yield where, row


def _positions(keys: np.ndarray, ids: Sequence[int]) -> np.ndarray | None:
    """The index in ``ids`` of each of ``keys``; None when a key is not
    among ``ids`` or an id does not fit in int64."""
    try:
        ids = np.asarray(ids, dtype=np.int64)
    except OverflowError:
        return None
    if not len(ids):
        return None
    order = np.argsort(ids, kind="stable")
    at = order[np.minimum(np.searchsorted(ids[order], keys), len(ids) - 1)]
    return at if np.array_equal(ids[at], keys) else None


def _read_keyed(path: Path, header: Sequence[str], kind: type,
                duplicate: str) -> dict[int, Any]:
    """``{key: value}`` from a file of integer keys and ``kind`` values,
    in file order.

    ``duplicate`` is the message for a repeated key, formatted with it.
    """
    body = _table_body(path, header)
    cols = _load_body(body, 2, 2 if kind is int else 1)
    if cols is not None:
        ints, floats = cols
        values = ints[:, 1] if floats is None else floats[:, 1]
        out = dict(zip(ints[:, 0].tolist(), values.tolist()))
        if len(out) == len(ints):
            return out
    out = {}
    for where, row in _numbered(path, _body_rows(body), 2):
        key = _parse_int(row[0], where)
        if key in out:
            raise IngestError(f"{where}: {duplicate.format(key)}")
        out[key] = _CHECKED[kind](row[1], where)
    return out


def _check_students(path: Path, found: Mapping[int, Any],
                    ids: Sequence[int], missing: str) -> None:
    """Every student of ``ids`` is a key of ``found`` and every key is a
    student.  ``found`` holds one key per data row, in file order, so an
    unknown key is named with its row; ``missing`` starts the message for
    absent students."""
    known = set(ids)
    if len(found) != len(known) or not known.issuperset(found):
        for ln, sid in enumerate(found, start=2):
            if sid not in known:
                raise IngestError(
                    f"{path.name} row {ln}: unknown student id {sid}")
        absent = [sid for sid in ids if sid not in found]
        raise IngestError(f"{path.name}: {missing} {absent[:5]}")


# ---------------------------------------------------------------------------
# students / scores


def write_students(path: Path, eco: Economy) -> None:
    cols = [f"s_{j}" for j in range(1, eco.n_schools + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + cols)
        for i in range(eco.n_students):
            writer.writerow([i] + [_fmt(eco.score(i, j))
                                   for j in range(1, eco.n_schools + 1)])


def read_students(path: Path) -> tuple[list[int], np.ndarray]:
    """Student ids plus per-school score matrix (n, J)."""
    head, body = _split_header(path)
    if head is None:
        raise IngestError(f"{path.name}: empty file")
    if not head or head[0] != "id" or len(head) < 2:
        raise IngestError(f"{path.name}: header must be id,s_1..s_J")
    want = [f"s_{j}" for j in range(1, len(head))]
    if head[1:] != want:
        raise IngestError(f"{path.name}: score columns must be {want}")
    cols = _load_body(body, len(head), 1, every_line=True)
    if cols is not None:
        ids = cols[0][:, 0].tolist()
        scores = np.ascontiguousarray(cols[1][:, 1:])
    else:
        types = (int,) + (float,) * (len(head) - 1)
        columns = [[] for _ in types]
        for where, row in _numbered(path, _body_rows(body, keep_blank=True),
                                    len(head)):
            for col, t, text in zip(columns, types, row):
                col.append(_CHECKED[t](text, where))
        ids = columns[0]
        scores = np.array(columns[1:]).T.copy()
    if not ids:
        raise IngestError(f"{path.name}: no students")
    if len(set(ids)) != len(ids):
        raise IngestError(f"{path.name}: duplicate student ids")
    return ids, scores


def infer_score_groups(per_school: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Collapse identical score columns into shared groups.

    Returns the per-school group index plus the deduplicated column matrix.
    """
    groups: list[int] = []
    kept: list[int] = []
    for j in range(per_school.shape[1]):
        for g, ref in enumerate(kept):
            if np.array_equal(per_school[:, j], per_school[:, ref]):
                groups.append(g)
                break
        else:
            groups.append(len(kept))
            kept.append(j)
    return tuple(groups), per_school[:, kept]


# ---------------------------------------------------------------------------
# reported lists


def write_rols(path: Path, eco: Economy) -> None:
    if eco.reports is None:
        raise EconomyError("economy has no submitted lists")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "rank", "school_id"])
        for i, rol in enumerate(eco.reports):
            for rank, j in enumerate(rol, start=1):
                writer.writerow([i, rank, j])


def read_rols(path: Path, ids: Sequence[int],
              n_schools: int, list_cap: int) -> tuple[tuple[int, ...], ...]:
    """Each student's list, in the order of ``ids``.

    Rows may come in any order.  The columns are parsed and checked at
    once; only when a check fails are the rows read one by one, which
    finds the failing row or student and names it.
    """
    body = _table_body(path, ["id", "rank", "school_id"])
    cols = _load_body(body, 3, 3)
    reports = None if cols is None else _rols_by_columns(
        cols[0], ids, n_schools, list_cap)
    if reports is None:
        reports = _rols_by_rows(path, _body_rows(body), ids, n_schools,
                                list_cap)
    return reports


def _rols_by_columns(table, ids, n_schools, list_cap):
    """The lists from the (rows, 3) int array of ``rols.csv``, or None when
    any row or list fails a check."""
    owner = _positions(table[:, 0], ids)
    if owner is None:
        return None                            # unknown student id
    rank, school = table[:, 1], table[:, 2]
    if (rank.min() < 1 or rank.max() > list_cap
            or school.min() < 1 or school.max() > n_schools):
        return None
    order = np.lexsort((rank, owner))
    owner, rank, school = owner[order], rank[order], school[order]
    counts = np.bincount(owner, minlength=len(ids))
    if not counts.all():
        return None                            # a student without rows
    first = np.repeat(np.cumsum(counts) - counts, counts)
    if not np.array_equal(rank - 1, np.arange(len(rank)) - first):
        return None                            # ranks not 1..length
    listed = np.sort(owner * (n_schools + 1) + school)
    if (listed[1:] == listed[:-1]).any():
        return None                            # a school listed twice
    flat = school.tolist()
    ends = np.cumsum(counts).tolist()
    return tuple([tuple(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)])


def _rols_by_rows(path, rows, ids, n_schools, list_cap):
    """The lists read row by row: every check in file order, then in the
    order of ``ids``, so the first failure is the one reported."""
    known = set(ids)
    by_student: dict[int, dict[int, int]] = {}
    row_of: dict[tuple[int, int], int] = {}
    for ln, (where, row) in enumerate(_numbered(path, rows, 3), start=2):
        sid = _parse_int(row[0], where)
        rank = _parse_int(row[1], where)
        school = _parse_int(row[2], where)
        if sid not in known:
            raise IngestError(f"{where}: unknown student id {sid}")
        ranks = by_student.setdefault(sid, {})
        if rank in ranks:
            first = row_of[(sid, rank)]
            raise IngestError(
                f"{where}: duplicate rank {rank} for student {sid}"
                f" (first at row {first})")
        ranks[rank] = school
        row_of[(sid, rank)] = ln
    reports = []
    for sid in ids:
        ranks = by_student.get(sid)
        if not ranks:
            raise IngestError(f"{path.name}: student {sid} has no list rows")
        want = list(range(1, len(ranks) + 1))
        if sorted(ranks) != want:
            raise IngestError(
                f"{path.name}: student {sid} ranks {sorted(ranks)} must be"
                f" contiguous from 1")
        rol = tuple(ranks[r] for r in want)
        try:
            validate_report(rol, n_schools, list_cap, who=f"student {sid}")
        except EconomyError as exc:
            raise IngestError(f"{path.name}: {exc}") from None
        reports.append(rol)
    return tuple(reports)


# ---------------------------------------------------------------------------
# outcomes, truth, matching, cutoffs


def write_outcomes(path: Path, eco: Economy) -> None:
    if eco.y_observed is None:
        raise EconomyError("economy has no observed outcomes")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "y_observed"])
        for i in range(eco.n_students):
            writer.writerow([i, _fmt(eco.y_observed[i])])


def read_outcomes(path: Path, ids: Sequence[int]) -> np.ndarray:
    seen = _read_keyed(path, ["id", "y_observed"], float,
                       "duplicate outcome for student {}")
    _check_students(path, seen, ids, "no outcome for students")
    return np.array([seen[sid] for sid in ids])


def write_truth(path: Path, eco: Economy) -> None:
    if eco.truth is None:
        raise EconomyError("economy has no ground truth")
    J = eco.n_schools
    head = (["id"] + [f"q_{r}" for r in range(1, J + 2)]
            + [f"y_{d}" for d in range(J + 1)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(head)
        for i in range(eco.n_students):
            order = [int(d) for d in eco.truth.pref_orders[i]]
            pot = [_fmt(v) for v in eco.truth.potential[i]]
            writer.writerow([i] + order + pot)


def read_truth(path: Path, ids: Sequence[int], n_schools: int) -> EconomyTruth:
    J = n_schools
    head = (["id"] + [f"q_{r}" for r in range(1, J + 2)]
            + [f"y_{d}" for d in range(J + 1)])
    body = _table_body(path, head)
    cols = _load_body(body, len(head), J + 2)
    if cols is not None:
        ints, floats = cols
        row_of = dict(zip(ints[:, 0].tolist(), range(len(ints))))
        if (len(row_of) == len(ints)
                and (np.sort(ints[:, 1:], axis=1) == np.arange(J + 1)).all()):
            _check_students(path, row_of, ids, "no truth row for students")
            rows = [row_of[s] for s in ids]
            return EconomyTruth(pref_orders=ints[rows, 1:],
                                potential=floats[rows, J + 2:])
    orders: dict[int, list[int]] = {}
    pots: dict[int, list[float]] = {}
    for where, row in _numbered(path, _body_rows(body), len(head)):
        sid = _parse_int(row[0], where)
        if sid in orders:
            raise IngestError(
                f"{where}: duplicate truth row for student {sid}")
        order = [_parse_int(v, where) for v in row[1:J + 2]]
        if sorted(order) != list(range(J + 1)):
            raise IngestError(f"{where}: order must permute 0..{J}")
        orders[sid] = order
        pots[sid] = [_parse_float(v, where) for v in row[J + 2:]]
    _check_students(path, orders, ids, "no truth row for students")
    return EconomyTruth(pref_orders=np.array([orders[s] for s in ids]),
                        potential=np.array([pots[s] for s in ids]))


def write_matching(path: Path, assignment: Sequence[int],
                   ids: Sequence[int]) -> None:
    """One row per student: its id, from ``ids``, and its assigned school."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "assigned_school"])
        for i, j in zip(ids, assignment):
            writer.writerow([i, int(j)])


def read_matching(path: Path, ids: Sequence[int]) -> np.ndarray:
    seen = _read_keyed(path, ["id", "assigned_school"], int,
                       "duplicate assignment for {}")
    _check_students(path, seen, ids, "no assignment for students")
    return np.array([seen[sid] for sid in ids])


def write_cutoffs(path: Path, values: Mapping[int, float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["school_id", "cutoff"])
        for j in sorted(values):
            writer.writerow([j, _fmt(values[j])])


def read_cutoffs(path: Path) -> dict[int, float]:
    return _read_keyed(path, ["school_id", "cutoff"], float,
                       "duplicate school {}")


# ---------------------------------------------------------------------------
# economy round trip


def write_economy(out_dir: Path, eco: Economy) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_students(out_dir / "students.csv", eco)
    write_rols(out_dir / "rols.csv", eco)
    if eco.y_observed is not None:
        write_outcomes(out_dir / "outcomes.csv", eco)
    if eco.truth is not None:
        write_truth(out_dir / "truth.csv", eco)


def load_economy(in_dir: Path, list_cap: int,
                 capacities: Sequence[int]) -> tuple[Economy, list[int]]:
    """Assemble an economy from CSV files in ``in_dir``.

    Returns the economy and the sorted ``students.csv`` ids: ``ids[i]`` is
    the id of the economy's student ``i``.  ``truth.csv`` and
    ``outcomes.csv`` are optional; capacities and the list cap come from
    run configuration since the files do not carry them.
    """
    in_dir = Path(in_dir)
    ids, per_school = read_students(in_dir / "students.csv")
    if ids != sorted(ids):
        order = np.argsort(ids, kind="stable")
        ids = [ids[i] for i in order]
        per_school = per_school[order]
    n_schools = per_school.shape[1]
    if len(capacities) != n_schools:
        raise IngestError(
            f"config lists {len(capacities)} capacities for {n_schools} schools")
    groups, cols = infer_score_groups(per_school)
    reports = read_rols(in_dir / "rols.csv", ids, n_schools, list_cap)
    y = None
    if (in_dir / "outcomes.csv").exists():
        y = read_outcomes(in_dir / "outcomes.csv", ids)
    truth = None
    if (in_dir / "truth.csv").exists():
        truth = read_truth(in_dir / "truth.csv", ids, n_schools)
    try:
        eco = Economy(n_schools=n_schools, list_cap=list_cap,
                      capacities=tuple(int(q) for q in capacities),
                      score_groups=groups, score_cols=cols,
                      reports=reports, y_observed=y, truth=truth)
    except EconomyError as exc:
        raise IngestError(str(exc)) from None
    return eco, ids


# ---------------------------------------------------------------------------
# JSON artifacts


def jsonable(obj: Any) -> Any:
    """Normalize a value tree for deterministic JSON emission."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return repr(x)
        return x + 0.0
    if isinstance(obj, frozenset):
        return [jsonable(v) for v in sorted(obj)]
    return obj


def dump_json(path: Path, obj: Any) -> None:
    text = json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def file_checksum(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_config_file(path: Path) -> dict[str, Any]:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{Path(path).name}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise IngestError(f"{Path(path).name}: top level must be an object")
    return data
