"""Sets of true local preference pairs consistent with a submitted list.

A submitted list pins down the reported local pair (a, b) at a cutoff, but
several *true* local pairs can rationalize it.  Under the weak truthful-order
discipline (listed schools are acceptable and in true relative order) the
set of candidates has a closed form built from the unlisted-but-affordable
schools on each side of the cutoff; the strong discipline (lists are also
maximal) collapses it to a singleton whenever the list is short of the cap.
An access-containment relation between schools ("every student who clears d
also clears e") removes further candidates.

Every regime assumes that the option a student is assigned, the best
reported school in the realised budget set, is also the student's true best
option in that set: the candidate sets vary only the counterfactual side.
Truncated lists can break this (a student above a cutoff who lists only
schools out of reach is unassigned although the school at the cutoff is
acceptable), and such a student's true pair is not in their candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .economy import OUTSIDE, Economy
from .localpref import LocalSample, best_reported, counterfactual_sets
from .mechanism import CutoffProfile

Pair = tuple[int, int]
PairSet = frozenset[Pair]
# the candidate sets of a window's students: plus side, minus side
WindowQsets = tuple[list[PairSet], list[PairSet]]


class QsetError(ValueError):
    pass


class StaleUmasError(QsetError):
    """The access relation was computed from different cutoffs."""


@dataclass(frozen=True)
class Regime:
    """Which reporting discipline is assumed, and whether access-containment
    deductions are applied.

    ``order`` is "weak" (subset of acceptable schools in true order) or
    "strong" (additionally maximal up to the list cap).
    """

    order: str = "weak"
    umas: bool = False

    def __post_init__(self) -> None:
        if self.order not in ("weak", "strong"):
            raise QsetError("order must be 'weak' or 'strong'")

    @property
    def label(self) -> str:
        tag = "spo" if self.order == "strong" else "wpo"
        return tag + ("+umas" if self.umas else "")


REGIMES = (
    Regime("weak", False),
    Regime("weak", True),
    Regime("strong", False),
    Regime("strong", True),
)


def regime_from_label(label: str) -> Regime:
    for r in REGIMES:
        if r.label == label:
            return r
    raise QsetError(f"unknown regime label {label!r}")


# ---------------------------------------------------------------------------
# the access-containment relation


@dataclass(frozen=True)
class UmasRelation:
    """Ordered pairs (d, e): access to d implies access to e, sample-wide.

    ``fingerprint`` records the cutoffs the relation was derived from so a
    stale relation cannot silently refine sets computed from newer cutoffs.
    """

    pairs: PairSet
    fingerprint: tuple[float, ...]

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs


EMPTY_UMAS = UmasRelation(pairs=frozenset(), fingerprint=())


def detect_umas(eco: Economy, cutoffs: CutoffProfile,
                min_witnesses: int = 1) -> UmasRelation:
    """Scan the economy for uniformly-more-accessible school pairs.

    (d, e) qualifies when every student who clears d's cutoff also clears
    e's, and at least ``min_witnesses`` students clear e but not d.  The
    witness requirement is a finite-sample stand-in for the relation being
    non-trivial; it also rules out mutual containment (equal access sets
    have no witnesses in either direction).
    """
    if min_witnesses < 1:
        raise QsetError("min_witnesses must be >= 1")
    J = eco.n_schools
    access = np.empty((eco.n_students, J), dtype=bool)
    for j in range(1, J + 1):
        access[:, j - 1] = eco.school_scores(j) >= cutoffs.cutoff(j)
    pairs = set()
    for d in range(1, J + 1):
        for e in range(1, J + 1):
            if d == e:
                continue
            ad, ae = access[:, d - 1], access[:, e - 1]
            if (ad & ~ae).any():
                continue                      # containment fails
            if int((ae & ~ad).sum()) >= min_witnesses:
                pairs.add((d, e))
    return UmasRelation(pairs=frozenset(pairs),
                        fingerprint=cutoffs.fingerprint())


# ---------------------------------------------------------------------------
# candidate-set construction


def unlisted_feasible(report: Sequence[int], budget: Iterable[int]) -> frozenset[int]:
    """Schools in the budget that the list omits (outside option excluded)."""
    listed = set(report)
    return frozenset(m for m in budget if m != OUTSIDE and m not in listed)


def _report_rank(report: Sequence[int], option: int) -> int:
    """Position under the reported weak order; 0 sits after all listed."""
    if option == OUTSIDE:
        return len(report)
    try:
        return list(report).index(option)
    except ValueError:
        raise QsetError(f"option {option} is not listed") from None


def _umas_filter(cands: Iterable[int], pivot: int, report: Sequence[int],
                 umas: UmasRelation) -> frozenset[int]:
    """Drop candidates e proven impossible by an access-containment pair.

    A candidate dies when some listed d with (d, e) in the relation sits
    weakly below the pivot in the reported order: the deduction "d is truly
    preferred to e" would then force a preference cycle.
    """
    rp = _report_rank(report, pivot)
    out = set()
    for e in cands:
        dead = any((d, e) in umas and rp <= _report_rank(report, d)
                   for d in report)
        if not dead:
            out.add(e)
    return frozenset(out)


def build_qset(report: Sequence[int], below_budget: frozenset[int],
               above_budget: frozenset[int], above: bool, list_cap: int,
               regime: Regime, umas: UmasRelation | None = None) -> PairSet:
    """All true local pairs consistent with the submitted list.

    ``below_budget`` / ``above_budget`` are the two counterfactual budget
    sets at the cutoff in question and ``above`` says which side the student
    is on.  The reported pair itself is always a member.
    """
    if regime.umas and umas is None:
        raise QsetError("regime applies access deductions but no relation given")
    a = best_reported(tuple(report), above_budget)
    b = best_reported(tuple(report), below_budget)
    anchor = (a, b)
    if regime.order == "strong" and len(report) < list_cap:
        # a maximal short list reveals the whole acceptable set
        return frozenset({anchor})
    if above:
        if a == b:
            return frozenset({anchor})
        cands = unlisted_feasible(report, below_budget)
        if regime.umas:
            cands = _umas_filter(cands, b, report, umas)
        return frozenset({anchor} | {(a, e) for e in cands})
    n_above = unlisted_feasible(report, above_budget)
    n_below = unlisted_feasible(report, below_budget)
    cands = n_above - n_below
    if regime.umas:
        cands = _umas_filter(cands, a, report, umas)
    return frozenset({anchor} | {(e, b) for e in cands})


# ---------------------------------------------------------------------------
# economy-level wrapper


def check_inputs(eco: Economy, cutoffs: CutoffProfile, regime: Regime,
                 umas: UmasRelation | None = None) -> None:
    """Raise unless the economy has lists and, when the regime applies
    access deductions, a relation computed from these cutoffs."""
    if eco.reports is None:
        raise QsetError("economy has no submitted lists")
    if regime.umas:
        if umas is None:
            raise QsetError("regime applies access deductions but no relation given")
        if umas.fingerprint != cutoffs.fingerprint():
            raise StaleUmasError("access relation was computed from other cutoffs")


def window_qsets(eco: Economy, cutoffs: CutoffProfile, sample: LocalSample,
                 regime: Regime,
                 umas: UmasRelation | None = None) -> WindowQsets:
    """Candidate sets of a window's students, plus side then minus side.

    The budget sets come with the sample; ``cutoffs`` must be the ones it
    was drawn at, and the ones ``umas`` was derived from.  Students with
    the same list, budget sets and side share one set, built once.
    """
    check_inputs(eco, cutoffs, regime, umas)
    n_plus = sample.n_plus
    profiles = [(eco.reports[i], below, above, pos < n_plus)
                for pos, (i, (below, above)) in enumerate(zip(sample.ids,
                                                              sample.budgets))]
    built = {p: build_qset(*p, eco.list_cap, regime, umas)
             for p in set(profiles)}
    sets = [built[p] for p in profiles]
    return sets[:n_plus], sets[n_plus:]


def qset_for_student(eco: Economy, cutoffs: CutoffProfile, i: int, j: int,
                     regime: Regime,
                     umas: UmasRelation | None = None) -> PairSet:
    """Candidate set of true local pairs for student ``i`` at school ``j``."""
    check_inputs(eco, cutoffs, regime, umas)
    below, above_b = counterfactual_sets(eco, cutoffs, i, j)
    above = eco.score(i, j) >= cutoffs.cutoff(j)
    return build_qset(eco.reports[i], below, above_b, above,
                      eco.list_cap, regime, umas)
