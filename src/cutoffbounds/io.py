"""CSV and JSON plumbing: economies, matchings, cutoffs, run artifacts.

Every input file is read the same way.  The file is opened once; its
header is parsed with the ``csv`` module and checked, and the same open
file then goes line by line to numpy's C reader (``np.loadtxt``) in one
pass, whose structured dtype parses the integer columns as int64 and the
others as float64.  The file's text is never held whole.  The columns are
then checked as arrays, and rows are matched to students by sorting ids
(``_positions``) rather than through dicts.  The C reader declines some
valid input that ``csv`` with Python's ``int`` and ``float`` reads (quoted
fields, ids beyond 64 bits, ``1_0``, non-ASCII digits), and any file where
it would read something else: a row of the wrong width, a blank line in
``students.csv`` (numpy skips it, so it takes more lines than it returns
rows).  Then, and whenever a check on the arrays fails, the file is read
again row by row.  That path accepts every valid file and names the first
bad row of an invalid one, so both paths return the same values and raise
the same errors.

Scores travel as one column per school even when schools share a column
internally; reading infers the sharing structure back from exact column
equality.  Each input file's header is stated once, for its reader and
its writer.  Every CSV is written by ``write_csv``: rows carry Python
floats (``.tolist()``), which ``csv`` writes as their ``repr``, with
round-trip precision, and None as an empty field; ``students.csv`` and
``truth.csv`` arrive as that text already, each distinct value formatted
once (in ``truth.csv``, once per chunk of rows).  JSON artifacts are
normalized (sorted keys, numpy scalars as Python numbers, negative zero as
zero, non-finite floats as strings, frozensets as sorted lists) so reruns
with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .economy import Economy, EconomyError, EconomyTruth, validate_report


class IngestError(ValueError):
    """Malformed input file; message carries file and row context."""


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


def _parse_finite(text: str, where: str) -> float:
    value = _parse_float(text, where)
    if not math.isfinite(value):
        raise IngestError(f"{where}: not a finite number: {text!r}")
    return value

_ROLS_HEADER = ("id", "rank", "school_id")
_OUTCOMES_HEADER = ("id", "y_observed")
_MATCHING_HEADER = ("id", "assigned_school")
_CUTOFFS_HEADER = ("school_id", "cutoff")


def _students_header(n_schools: int) -> list[str]:
    return ["id"] + [f"s_{j}" for j in range(1, n_schools + 1)]


def _truth_header(n_schools: int) -> list[str]:
    J = n_schools
    return (["id"] + [f"q_{r}" for r in range(1, J + 2)]
            + [f"y_{d}" for d in range(J + 1)])


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    """Write ``header`` and then ``rows``, as they come, to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _text_rows(*blocks: np.ndarray):
    """The rows of ``blocks`` side by side, each a column or a 2-d array
    with one row per CSV row, as the text ``csv`` writes for each cell:
    its ``repr``.  Rows go in chunks of 512, and within a chunk each
    distinct value of a block is formatted once; values are told apart by
    their bits, so ``-0.0`` keeps its sign."""
    n = len(blocks[0])
    blocks = [np.ascontiguousarray(b.reshape(n, -1)) for b in blocks]

    def text(block: np.ndarray) -> np.ndarray:
        bits, at = np.unique(block.view(f"i{block.itemsize}"),
                             return_inverse=True)
        words = list(map(repr, bits.view(block.dtype).tolist()))
        return np.array(words, dtype=object)[at.reshape(block.shape)]

    return chain.from_iterable(
        np.hstack([text(b[lo:lo + 512]) for b in blocks]).tolist()
        for lo in range(0, n, 512))


def _load_table(path: Path, expected: Sequence[str], n_int: int
                ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``_load_body`` on a CSV file whose header must be ``expected``."""
    with open(path, newline="") as fh:
        head = next(csv.reader(fh), None)
        if (head or []) != list(expected):
            raise IngestError(f"{path.name}: header {head or []} != expected"
                              f" {list(expected)}")
        return _load_body(fh, len(expected), n_int)


def _load_body(lines: Iterable[str], n_fields: int, n_int: int,
               every_line: bool = False
               ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``(ints, floats)``: ``lines`` parsed in one pass by numpy's C reader,
    the first ``n_int`` of ``n_fields`` columns as int64 and the others as
    float64 (None when there are none).

    None when that reader declines the text or a warning is raised, when a
    row is not ``n_fields`` wide, and with ``every_line`` when a line is
    blank (numpy skips blank lines, so it then takes more lines than it
    returns rows).  The caller then reads the rows one by one.
    """
    fields = [("ints", np.int64, (n_int,))]
    if n_fields > n_int:
        fields.append(("floats", np.float64, (n_fields - n_int,)))
    taken = [0]

    def counted():
        for taken[0], line in enumerate(lines, start=1):
            yield line

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(counted() if every_line else lines,
                               dtype=fields, delimiter=",", comments=None,
                               quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if every_line and len(table) != taken[0]:
        return None
    return table["ints"], (table["floats"] if n_fields > n_int else None)


def _body_rows(path: Path, keep_blank: bool = False) -> Iterator[list[str]]:
    """The rows after the header of ``path``, read anew as ``csv`` reads
    them; a blank line is skipped, or with ``keep_blank`` kept as ``[]``."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        yield from (row for row in rows if row or keep_blank)


def _numbered(path: Path, rows: Iterable[list[str]], n_fields: int):
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
    ranked = ids[order]
    at = np.searchsorted(ranked, keys)
    if not np.array_equal(ranked.take(at, mode="clip"), keys):
        return None
    return order.take(at, mode="clip")


def _rows_of(keys: np.ndarray, ids: Sequence[int]) -> np.ndarray | None:
    """The row of each of ``ids`` in a file whose key column is ``keys``;
    None unless every key is one of ``ids`` and names a different one."""
    at = _positions(keys, ids)
    if at is None or len(at) != len(ids):
        return None
    rows = np.full(len(ids), -1)
    rows[at] = np.arange(len(at))
    return None if (rows < 0).any() else rows


def _keyed_rows(path: Path, parse: Callable[[str, str], Any],
                duplicate: str) -> dict[int, Any]:
    """``{key: value}`` read row by row from a file of integer keys and
    values that ``parse`` reads, in file order.

    ``duplicate`` is the message for a repeated key, formatted with it.
    """
    out = {}
    for where, row in _numbered(path, _body_rows(path), 2):
        key = _parse_int(row[0], where)
        if key in out:
            raise IngestError(f"{where}: {duplicate.format(key)}")
        out[key] = parse(row[1], where)
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
    """One score column per school; a column that several schools share
    is formatted once, as ``csv`` writes a float: its ``repr``."""
    text = {g: list(map(repr, eco.score_cols[:, g].tolist()))
            for g in set(eco.score_groups)}
    write_csv(path, _students_header(eco.n_schools),
              zip(range(eco.n_students), *(text[g] for g in eco.score_groups)))


def read_students(path: Path) -> tuple[list[int], np.ndarray]:
    """Student ids plus per-school score matrix (n, J).

    The matrix may be a view into the parsed table rather than a copy: at
    one column per school, a copy would double the reader's memory.
    """
    with open(path, newline="") as fh:
        head = next(csv.reader(fh), None)
        if head is None:
            raise IngestError(f"{path.name}: empty file")
        if not head or head[0] != "id" or len(head) < 2:
            raise IngestError(f"{path.name}: header must be id,s_1..s_J")
        want = _students_header(len(head) - 1)[1:]
        if head[1:] != want:
            raise IngestError(f"{path.name}: score columns must be {want}")
        cols = _load_body(fh, len(head), 1, every_line=True)
    if cols is not None:
        ids, scores = cols[0][:, 0], cols[1]
        ranked = np.sort(ids)
        if np.isfinite(scores).all() and (ranked[1:] != ranked[:-1]).all():
            return ids.tolist(), scores
    return _students_by_rows(path, len(head))


def _students_by_rows(path: Path, n_fields: int
                      ) -> tuple[list[int], np.ndarray]:
    """``read_students`` row by row: the first bad row is the one named."""
    first: dict[int, int] = {}
    scores = []
    rows = _numbered(path, _body_rows(path, keep_blank=True), n_fields)
    for ln, (where, row) in enumerate(rows, start=2):
        sid = _parse_int(row[0], where)
        if sid in first:
            raise IngestError(f"{where}: duplicate student id {sid}"
                              f" (first at row {first[sid]})")
        first[sid] = ln
        scores.append([_parse_finite(text, where) for text in row[1:]])
    if not first:
        raise IngestError(f"{path.name}: no students")
    return list(first), np.array(scores)


def infer_score_groups(per_school: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Collapse identical score columns into shared groups.

    Returns the per-school group index plus the deduplicated column matrix.
    A column is compared only with kept columns of its digest, taken after
    adding 0.0, which turns -0.0 into 0.0 as ``np.array_equal`` sees it.
    """
    groups: list[int] = []
    kept: list[int] = []
    by_digest: dict[bytes, list[int]] = {}
    for j, col in enumerate(per_school.T):
        same = by_digest.setdefault(hashlib.sha256(col + 0.0).digest(), [])
        g = next((g for g in same
                  if np.array_equal(col, per_school[:, kept[g]])), len(kept))
        if g == len(kept):
            kept.append(j)
            same.append(g)
        groups.append(g)
    return tuple(groups), per_school[:, kept]


# ---------------------------------------------------------------------------
# reported lists


def write_rols(path: Path, eco: Economy) -> None:
    if eco.reports is None:
        raise EconomyError("economy has no submitted lists")
    write_csv(path, _ROLS_HEADER,
              ((i, rank, j) for i, rol in enumerate(eco.reports)
               for rank, j in enumerate(rol, start=1)))


def read_rols(path: Path, ids: Sequence[int],
              n_schools: int, list_cap: int) -> tuple[tuple[int, ...], ...]:
    """Each student's list, in the order of ``ids``.

    Rows may come in any order.  The columns are parsed and checked at
    once; only when a check fails are the rows read one by one, which
    finds the failing row or student and names it.
    """
    reports = _rols_by_columns(path, ids, n_schools, list_cap)
    if reports is None:
        reports = _rols_by_rows(path, _body_rows(path), ids, n_schools,
                                list_cap)
    return reports


def _rols_by_columns(path, ids, n_schools, list_cap):
    """The lists from numpy's parse of ``rols.csv``, or None when numpy
    declines the file or any row or list fails a check.

    Each row becomes one int64 key, (position of the student, rank, school)
    in mixed radix, and the parsed table is dropped once the keys are made.
    Sorting the keys in place orders the rows by student and rank, and the
    checks and the lists are read off the sorted keys, so about two
    row-length arrays are alive at once.
    """
    cols = _load_table(path, _ROLS_HEADER, 3)
    if cols is None:
        return None
    table = cols[0]
    rank, school = table[:, 1], table[:, 2]
    # a rank above the row count cannot be in a list 1..length; so bounded,
    # a key is below students x (rows + 1) x (schools + 1), within int64 for
    # any files that fit in memory
    width = min(list_cap, len(table)) + 1
    if (rank.min() < 1 or rank.max() >= width
            or school.min() < 1 or school.max() > n_schools):
        return None
    key = _positions(table[:, 0], ids)
    if key is None:
        return None                            # unknown student id
    key *= width
    key += rank
    key *= n_schools + 1
    key += school
    del cols, table, rank, school
    key.sort()
    counts = np.bincount(key // (width * (n_schools + 1)),
                         minlength=len(ids))
    if not counts.all():
        return None                            # a student without rows
    school = key % (n_schools + 1)
    key //= n_schools + 1                      # student, then rank
    # sorted row k, student i's (k - starts[i])-th, has rank k - starts[i] + 1
    starts = np.cumsum(counts) - counts
    expect = np.repeat(np.arange(len(ids)) * width + 1 - starts, counts)
    expect += np.arange(len(key))
    if not np.array_equal(key, expect):
        return None                            # ranks not 1..length
    del expect, starts
    key //= width                              # the student
    key *= n_schools + 1
    key += school
    key.sort()
    if (key[1:] == key[:-1]).any():
        return None                            # a school listed twice
    del key
    flat = iter(school.tolist())
    return tuple([tuple(islice(flat, c)) for c in counts.tolist()])


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
    write_csv(path, _OUTCOMES_HEADER, enumerate(eco.y_observed.tolist()))


def read_outcomes(path: Path, ids: Sequence[int]) -> np.ndarray:
    cols = _load_table(path, _OUTCOMES_HEADER, 1)
    if cols is not None:
        rows = _rows_of(cols[0][:, 0], ids)
        if rows is not None and np.isfinite(cols[1]).all():
            return cols[1][rows, 0]
    seen = _keyed_rows(path, _parse_finite,
                       "duplicate outcome for student {}")
    _check_students(path, seen, ids, "no outcome for students")
    return np.array([seen[sid] for sid in ids])


def write_truth(path: Path, eco: Economy) -> None:
    if eco.truth is None:
        raise EconomyError("economy has no ground truth")
    write_csv(path, _truth_header(eco.n_schools),
              _text_rows(np.arange(eco.n_students), eco.truth.pref_orders,
                         eco.truth.potential))


def read_truth(path: Path, ids: Sequence[int], n_schools: int) -> EconomyTruth:
    J = n_schools
    head = _truth_header(J)
    cols = _load_table(path, head, J + 2)
    if cols is not None:
        ints, potential = cols
        rows = _rows_of(ints[:, 0], ids)
        if (rows is not None
                and (np.sort(ints[:, 1:], axis=1) == np.arange(J + 1)).all()):
            return EconomyTruth(pref_orders=ints[rows, 1:],
                                potential=potential[rows])
    orders: dict[int, list[int]] = {}
    pots: dict[int, list[float]] = {}
    for where, row in _numbered(path, _body_rows(path), len(head)):
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
    write_csv(path, _MATCHING_HEADER,
              zip(ids, np.asarray(assignment).tolist()))


def read_matching(path: Path, ids: Sequence[int]) -> np.ndarray:
    cols = _load_table(path, _MATCHING_HEADER, 2)
    if cols is not None:
        rows = _rows_of(cols[0][:, 0], ids)
        if rows is not None:
            return cols[0][rows, 1]
    seen = _keyed_rows(path, _parse_int, "duplicate assignment for {}")
    _check_students(path, seen, ids, "no assignment for students")
    return np.array([seen[sid] for sid in ids])


def write_cutoffs(path: Path, values: Mapping[int, float]) -> None:
    write_csv(path, _CUTOFFS_HEADER,
              ((j, float(values[j])) for j in sorted(values)))


def read_cutoffs(path: Path) -> dict[int, float]:
    cols = _load_table(path, _CUTOFFS_HEADER, 1)
    if cols is not None:
        out = dict(zip(cols[0][:, 0].tolist(), cols[1][:, 0].tolist()))
        if len(out) == len(cols[0]):
            return out
    return _keyed_rows(path, _parse_float, "duplicate school {}")


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
