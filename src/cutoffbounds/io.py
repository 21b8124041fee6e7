"""CSV and JSON plumbing: economies, matchings, cutoffs, run artifacts.

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
from operator import itemgetter
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


def _read_table(path: Path, expected: Sequence[str]) -> list[list[str]]:
    """Data rows of a CSV file whose header must be ``expected``.

    Blank lines are skipped, so the row numbers in messages count the rows
    that carry data, the header being row 1.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, [])
        if head != list(expected):
            raise IngestError(
                f"{path.name}: header {head} != expected {list(expected)}")
        return [row for row in reader if row]


def _numbered(path: Path, rows: Sequence[list[str]], n_fields: int):
    """``(where, row)`` per row, ``where`` naming the file and the row,
    once the row is known to have ``n_fields`` fields."""
    for ln, row in enumerate(rows, start=2):
        where = f"{path.name} row {ln}"
        if len(row) != n_fields:
            raise IngestError(f"{where}: expected {n_fields} fields")
        yield where, row


def _columns(rows: Sequence[list[str]],
             types: Sequence[type]) -> list[list] | None:
    """Each column converted by its type (``int`` or ``float``) in one pass.

    None when a row has the wrong number of fields or a value does not
    convert: the caller then reads the rows one by one, which finds the
    first bad row and names it.
    """
    if not rows:
        return [[] for _ in types]
    if set(map(len, rows)) != {len(types)}:
        return None
    try:
        return [list(map(t, map(itemgetter(k), rows)))
                for k, t in enumerate(types)]
    except ValueError:
        return None


def _read_keyed(path: Path, header: Sequence[str], kind: type,
                duplicate: str) -> dict[int, Any]:
    """``{key: value}`` from a file of integer keys and ``kind`` values.

    ``duplicate`` is the message for a repeated key, formatted with it.
    """
    rows = _read_table(path, header)
    cols = _columns(rows, (int, kind))
    if cols is not None:
        out = dict(zip(*cols))
        if len(out) == len(rows):
            return out
    out = {}
    for where, row in _numbered(path, rows, 2):
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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            head = next(reader)
        except StopIteration:
            raise IngestError(f"{path.name}: empty file") from None
        if not head or head[0] != "id" or len(head) < 2:
            raise IngestError(f"{path.name}: header must be id,s_1..s_J")
        want = [f"s_{j}" for j in range(1, len(head))]
        if head[1:] != want:
            raise IngestError(f"{path.name}: score columns must be {want}")
        rows = list(reader)
    types = (int,) + (float,) * (len(head) - 1)
    cols = _columns(rows, types)
    if cols is None:
        cols = [[] for _ in types]
        for where, row in _numbered(path, rows, len(head)):
            for col, t, text in zip(cols, types, row):
                col.append(_CHECKED[t](text, where))
    ids = cols[0]
    if not ids:
        raise IngestError(f"{path.name}: no students")
    if len(set(ids)) != len(ids):
        raise IngestError(f"{path.name}: duplicate student ids")
    return ids, np.array(cols[1:]).T.copy()


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
    rows = _read_table(path, ["id", "rank", "school_id"])
    reports = _rols_by_columns(rows, ids, n_schools, list_cap)
    if reports is None:
        reports = _rols_by_rows(path, rows, ids, n_schools, list_cap)
    return reports


def _rols_by_columns(rows, ids, n_schools, list_cap):
    """The lists, or None when any row or list fails a check."""
    cols = _columns(rows, (int, int, int))
    if cols is None or not rows:
        return None
    sid, rank, school = cols
    position = {s: k for k, s in enumerate(ids)}
    owner = list(map(position.get, sid))
    if None in owner:
        return None                            # unknown student id
    if (min(rank) < 1 or max(rank) > list_cap
            or min(school) < 1 or max(school) > n_schools):
        return None
    owner, rank, school = np.array(owner), np.array(rank), np.array(school)
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
    return tuple(map(tuple, map(flat.__getitem__,
                                map(slice, [0] + ends[:-1], ends))))


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
    rows = _read_table(path, head)
    orders: dict[int, list[int]] = {}
    pots: dict[int, list[float]] = {}
    for where, row in _numbered(path, rows, len(head)):
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


def write_matching(path: Path, assignment: Sequence[int]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "assigned_school"])
        for i, j in enumerate(assignment):
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
                 capacities: Sequence[int]) -> Economy:
    """Assemble an economy from CSV files in ``in_dir``.

    ``truth.csv`` and ``outcomes.csv`` are optional; capacities and the
    list cap come from run configuration since the files do not carry them.
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
        return Economy(n_schools=n_schools, list_cap=list_cap,
                       capacities=tuple(int(q) for q in capacities),
                       score_groups=groups, score_cols=cols,
                       reports=reports, y_observed=y, truth=truth)
    except EconomyError as exc:
        raise IngestError(str(exc)) from None


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
