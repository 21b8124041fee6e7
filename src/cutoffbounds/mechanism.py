"""Matching mechanisms and their audits.

``run_da`` is student-proposing deferred acceptance on the submitted lists
with score priorities; ``run_sd`` is the serial-dictatorship fast path that
applies when every school ranks students by one shared score.  Both return
the student-optimal matching that is stable with respect to the submitted
lists, and ``extract_cutoffs`` reads the admission cutoffs off the result.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .economy import OUTSIDE, Economy, EconomyError


class MechanismError(ValueError):
    pass


@dataclass(frozen=True)
class Matching:
    """Assignment per student (0 = unassigned/outside) plus seat fills."""

    assignment: tuple[int, ...]
    fills: tuple[int, ...]

    def assigned_to(self, j: int) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.assignment) if a == j)


@dataclass(frozen=True)
class CutoffProfile:
    """Admission cutoffs, one per school, plus the support floor used."""

    values: tuple[float, ...]
    floor: float

    def cutoff(self, j: int) -> float:
        return self.values[j - 1]

    def fingerprint(self) -> tuple[float, ...]:
        return self.values


def _require_reports(eco: Economy) -> tuple[tuple[int, ...], ...]:
    if eco.reports is None:
        raise MechanismError("economy has no submitted lists; run a reporting model first")
    return eco.reports


def run_da(eco: Economy) -> Matching:
    """Student-proposing deferred acceptance on the submitted lists.

    Students propose in id order; a full school keeps the proposers with the
    highest scores at that school. Scores are assumed tie-free. The outcome
    is independent of proposal order, so no randomness enters here.
    """
    reports = _require_reports(eco)
    n, J = eco.n_students, eco.n_schools
    qs = eco.capacities
    # one list of Python floats per score column, shared by its schools
    cols = {g: eco.score_cols[:, g].tolist() for g in set(eco.score_groups)}
    scores = [None] + [cols[g] for g in eco.score_groups]

    # per-school min-heap of (score, student) among currently held students
    held: list[list[tuple[float, int]]] = [[] for _ in range(J + 1)]
    next_choice = [0] * n
    assignment = [OUTSIDE] * n
    free = deque(range(n))
    while free:
        i = free.popleft()
        placed = False
        while next_choice[i] < len(reports[i]):
            j = reports[i][next_choice[i]]
            next_choice[i] += 1
            q = qs[j - 1]
            if q == 0:
                continue
            s = scores[j][i]
            heap = held[j]
            if len(heap) < q:
                heapq.heappush(heap, (s, i))
                assignment[i] = j
                placed = True
                break
            worst_s, worst_i = heap[0]
            if s > worst_s:
                heapq.heapreplace(heap, (s, i))
                assignment[i] = j
                assignment[worst_i] = OUTSIDE
                free.append(worst_i)
                placed = True
                break
        if not placed:
            assignment[i] = OUTSIDE
    fills = [0] * J
    for a in assignment:
        if a != OUTSIDE:
            fills[a - 1] += 1
    return Matching(assignment=tuple(assignment), fills=tuple(fills))


def run_sd(eco: Economy) -> Matching:
    """Serial dictatorship under a single shared score column.

    Highest score first, each student takes the first school on their list
    with a seat left. Equivalent to deferred acceptance when priorities
    coincide; refuses to run when they do not.
    """
    reports = _require_reports(eco)
    if len(set(eco.score_groups)) != 1:
        raise MechanismError("serial dictatorship needs one shared score column")
    scores = eco.score_cols[:, eco.score_groups[0]]
    order = np.argsort(-scores, kind="stable")
    seats = list(eco.capacities)
    assignment = [OUTSIDE] * eco.n_students
    for i in map(int, order):
        for j in reports[i]:
            if seats[j - 1] > 0:
                seats[j - 1] -= 1
                assignment[i] = j
                break
    fills = [0] * eco.n_schools
    for a in assignment:
        if a != OUTSIDE:
            fills[a - 1] += 1
    return Matching(assignment=tuple(assignment), fills=tuple(fills))


def extract_cutoffs(matching: Matching, eco: Economy) -> CutoffProfile:
    """Cutoffs implied by a matching.

    A school that fills its capacity has cutoff equal to the lowest admitted
    score. An under-filled school turns nobody away, so its cutoff is the
    score-support floor. A zero-capacity school admits nobody: +inf.
    """
    floor = eco.score_floor()
    values = []
    for j in range(1, eco.n_schools + 1):
        q = eco.capacities[j - 1]
        fill = matching.fills[j - 1]
        if q == 0:
            values.append(float("inf"))
        elif fill < q:
            values.append(floor)
        else:
            admitted = list(matching.assigned_to(j))
            values.append(float(eco.school_scores(j)[admitted].min()))
    return CutoffProfile(values=tuple(values), floor=floor)


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class Violation:
    kind: str
    student: int
    school: int
    detail: str = ""


def _report_rank(rol: tuple[int, ...], option: int) -> int:
    """Position of an option in a list; outside sits after all listed schools."""
    if option == OUTSIDE:
        return len(rol)
    try:
        return rol.index(option)
    except ValueError:
        return len(rol) + 1         # unlisted school: worse than outside


def audit_stability_wrt_reports(matching: Matching, eco: Economy) -> list[Violation]:
    """Check the matching is stable with respect to the submitted lists.

    Individual rationality: nobody holds an unlisted school.  No waste: no
    student prefers a school with an empty seat to their assignment.  No
    justified envy: no student loses a seat to a lower-scored student.
    """
    reports = _require_reports(eco)
    out: list[Violation] = []
    J = eco.n_schools
    min_admitted: list[float | None] = [None] * (J + 1)
    for j in range(1, J + 1):
        admitted = matching.assigned_to(j)
        if admitted:
            min_admitted[j] = min(eco.score(i, j) for i in admitted)
    for i in range(eco.n_students):
        a = matching.assignment[i]
        rol = reports[i]
        if a != OUTSIDE and a not in rol:
            out.append(Violation("individual_rationality", i, a, "assigned unlisted school"))
            continue
        my_rank = _report_rank(rol, a)
        for pos, j in enumerate(rol):
            if pos >= my_rank:
                break
            if matching.fills[j - 1] < eco.capacities[j - 1]:
                out.append(Violation("waste", i, j, "empty seat at preferred school"))
            elif min_admitted[j] is not None and eco.score(i, j) > min_admitted[j]:
                out.append(Violation("justified_envy", i, j,
                                     "higher score than an admitted student"))
    return out


def audit_cutoff_characterization(matching: Matching, eco: Economy,
                                  cutoffs: CutoffProfile,
                                  wrt: str = "reports") -> list[Violation]:
    """Check every student holds their best option among affordable schools.

    ``wrt="reports"`` uses submitted lists (exact for deferred acceptance on
    tie-free scores); ``wrt="truth"`` uses true preferences and flags the
    assignments that strategic or mistaken lists distorted.
    """
    # local import to avoid a cycle
    from .localpref import best_reported, best_true, budget_set

    if wrt not in ("reports", "truth"):
        raise MechanismError("wrt must be 'reports' or 'truth'")
    if wrt == "truth" and eco.truth is None:
        raise MechanismError("no ground truth available for a truth audit")
    reports = _require_reports(eco) if wrt == "reports" else None
    out: list[Violation] = []
    for i in range(eco.n_students):
        budget = budget_set(eco, cutoffs, i)
        if wrt == "reports":
            best = best_reported(reports[i], budget)
        else:
            best = best_true(eco.truth.pref_orders[i], budget)
        a = matching.assignment[i]
        if a != best:
            out.append(Violation("cutoff_characterization", i, best,
                                 f"assigned {a}, best affordable is {best}"))
    return out
