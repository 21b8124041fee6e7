"""Matching mechanisms and their audits.

``run_da`` is student-proposing deferred acceptance on the submitted lists
with score priorities, run in simultaneous Gale-Shapley rounds over arrays:
each round every rejected student proposes to their next school, and one
sort of an integer key per list entry (school, score rank, student
position) settles the pools of all schools.  ``run_sd`` is an independent
serial dictatorship for economies where every school ranks students by one
shared score: it matches the packaged presets and checks ``run_da`` there.
Both return the student-optimal matching that is stable with respect to the
submitted lists, and ``extract_cutoffs`` reads the admission cutoffs off
the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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

    Runs in Gale-Shapley rounds over arrays: every free student proposes to
    the next school on their list, and each school that received proposals
    keeps the best ``q`` of its proposers and the students it holds, sorted
    by score descending; the rest are free for the next round.  A
    zero-capacity school rejects everyone.  At equal scores the lower
    student position wins (for an ingested economy, the lower
    ``students.csv`` id), so ties have one fixed outcome; on tie-free scores
    this is the student-optimal stable matching, whatever the proposal
    order.
    """
    reports = _require_reports(eco)
    n, J = eco.n_students, eco.n_schools
    seats = np.array((0,) + eco.capacities)     # indexed by school id
    lengths = np.fromiter(map(len, reports), dtype=np.int64, count=n)
    flat = np.fromiter(chain.from_iterable(reports), dtype=np.int64,
                       count=int(lengths.sum()))
    start = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(n), lengths)
    # one integer key per list entry orders a school's applicants: score
    # descending (as a dense rank), then student position ascending
    score = eco.score_cols[owner, np.array(eco.score_groups)[flat - 1]]
    levels, dense = np.unique(-score, return_inverse=True)
    stride = len(levels) * n                    # keys of one school
    if (J + 1) * stride > np.iinfo(np.int64).max:
        raise MechanismError("too many students and scores for 64-bit keys")
    key = flat * stride + dense * n + owner
    proposed = np.zeros(n, dtype=np.int64)      # schools proposed to so far
    held = np.full(n, OUTSIDE, dtype=np.int64)
    held_key = np.zeros(n, dtype=np.int64)
    # a proposal with a key above its school's bar is rejected outright:
    # the bar is the worst held key once the school is full, -1 without seats
    bar = np.where(seats > 0, np.iinfo(np.int64).max, -1)
    free = np.arange(n)
    while True:
        free = free[proposed[free] < lengths[free]]
        if not free.size:
            break
        entry = start[free] + proposed[free]
        proposed[free] += 1
        school = flat[entry]
        fresh = key[entry] < bar[school]
        turned_away = free[~fresh]
        free, entry, school = free[fresh], entry[fresh], school[fresh]
        courted = np.zeros(J + 1, dtype=bool)
        courted[school] = True
        holders = np.flatnonzero(courted[held])
        pool_key = np.concatenate((held_key[holders], key[entry]))
        order = np.argsort(pool_key)
        pool = np.concatenate((holders, free))[order]
        pool_key = pool_key[order]
        at = pool_key // stride
        # rank within each school's run of the sorted pool
        counts = np.bincount(at, minlength=J + 1)
        rank = np.arange(len(at)) - (np.cumsum(counts) - counts)[at]
        keep = rank < seats[at]
        last = rank == seats[at] - 1
        bar[at[last]] = pool_key[last]
        held[pool[keep]] = at[keep]
        held_key[pool[keep]] = pool_key[keep]
        free = pool[~keep]
        held[free] = OUTSIDE
        free = np.concatenate((free, turned_away))
    fills = np.bincount(held, minlength=J + 1)[1:]
    return Matching(assignment=tuple(held.tolist()),
                    fills=tuple(fills.tolist()))


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
    assignment = np.asarray(matching.assignment)
    values = []
    for j in range(1, eco.n_schools + 1):
        q = eco.capacities[j - 1]
        fill = matching.fills[j - 1]
        if q == 0:
            values.append(float("inf"))
        elif fill < q:
            values.append(floor)
        else:
            admitted = assignment == j
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
