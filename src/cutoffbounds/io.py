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


def _read_rows(path: Path, expected: Sequence[str]) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        head = reader.fieldnames or []
        if list(head) != list(expected):
            raise IngestError(
                f"{path.name}: header {head} != expected {list(expected)}")
        return [dict(row) for row in reader]


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
        ids, rows = [], []
        for ln, row in enumerate(reader, start=2):
            where = f"{path.name} row {ln}"
            if len(row) != len(head):
                raise IngestError(f"{where}: expected {len(head)} fields")
            ids.append(_parse_int(row[0], where))
            rows.append([_parse_float(v, where) for v in row[1:]])
    if not ids:
        raise IngestError(f"{path.name}: no students")
    if len(set(ids)) != len(ids):
        raise IngestError(f"{path.name}: duplicate student ids")
    return ids, np.array(rows)


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
    rows = _read_rows(path, ["id", "rank", "school_id"])
    known = set(ids)
    by_student: dict[int, dict[int, int]] = {}
    row_of: dict[tuple[int, int], int] = {}
    for ln, row in enumerate(rows, start=2):
        where = f"{path.name} row {ln}"
        sid = _parse_int(row["id"], where)
        rank = _parse_int(row["rank"], where)
        school = _parse_int(row["school_id"], where)
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
    rows = _read_rows(path, ["id", "y_observed"])
    seen: dict[int, float] = {}
    for ln, row in enumerate(rows, start=2):
        where = f"{path.name} row {ln}"
        sid = _parse_int(row["id"], where)
        if sid in seen:
            raise IngestError(f"{where}: duplicate outcome for student {sid}")
        seen[sid] = _parse_float(row["y_observed"], where)
    missing = [sid for sid in ids if sid not in seen]
    if missing:
        raise IngestError(f"{path.name}: no outcome for students {missing[:5]}")
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
    rows = _read_rows(path, head)
    orders: dict[int, list[int]] = {}
    pots: dict[int, list[float]] = {}
    for ln, row in enumerate(rows, start=2):
        where = f"{path.name} row {ln}"
        sid = _parse_int(row["id"], where)
        order = [_parse_int(row[f"q_{r}"], where) for r in range(1, J + 2)]
        if sorted(order) != list(range(J + 1)):
            raise IngestError(f"{where}: order must permute 0..{J}")
        orders[sid] = order
        pots[sid] = [_parse_float(row[f"y_{d}"], where) for d in range(J + 1)]
    missing = [sid for sid in ids if sid not in orders]
    if missing:
        raise IngestError(f"{path.name}: no truth row for students {missing[:5]}")
    return EconomyTruth(pref_orders=np.array([orders[s] for s in ids]),
                        potential=np.array([pots[s] for s in ids]))


def write_matching(path: Path, assignment: Sequence[int]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "assigned_school"])
        for i, j in enumerate(assignment):
            writer.writerow([i, int(j)])


def read_matching(path: Path, ids: Sequence[int]) -> np.ndarray:
    rows = _read_rows(path, ["id", "assigned_school"])
    seen: dict[int, int] = {}
    for ln, row in enumerate(rows, start=2):
        where = f"{path.name} row {ln}"
        sid = _parse_int(row["id"], where)
        if sid in seen:
            raise IngestError(f"{where}: duplicate assignment for {sid}")
        seen[sid] = _parse_int(row["assigned_school"], where)
    missing = [sid for sid in ids if sid not in seen]
    if missing:
        raise IngestError(f"{path.name}: no assignment for students {missing[:5]}")
    return np.array([seen[sid] for sid in ids])


def write_cutoffs(path: Path, values: Mapping[int, float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["school_id", "cutoff"])
        for j in sorted(values):
            writer.writerow([j, _fmt(values[j])])


def read_cutoffs(path: Path) -> dict[int, float]:
    rows = _read_rows(path, ["school_id", "cutoff"])
    out: dict[int, float] = {}
    for ln, row in enumerate(rows, start=2):
        where = f"{path.name} row {ln}"
        j = _parse_int(row["school_id"], where)
        if j in out:
            raise IngestError(f"{where}: duplicate school {j}")
        out[j] = _parse_float(row["cutoff"], where)
    return out


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
