"""Budget sets and local preference pairs around admission cutoffs.

A student's budget set is the outside option plus every school whose cutoff
their score clears.  The two counterfactual sets at school ``j`` answer
"what could I afford if my score at j's column sat just above (below) j's
cutoff": they differ from the budget set exactly by the schools that share
j's score column *and* j's cutoff value.  The local pair at ``j`` is the
best option in each counterfactual set, evaluated under either the true
order or the submitted list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .economy import OUTSIDE, Economy
from .mechanism import CutoffProfile


class LocalPrefError(ValueError):
    pass


def budget_set(eco: Economy, cutoffs: CutoffProfile, i: int) -> frozenset[int]:
    """Affordable options for student ``i``: {0} plus cleared schools."""
    out = {OUTSIDE}
    for j in range(1, eco.n_schools + 1):
        if eco.score(i, j) >= cutoffs.cutoff(j):
            out.add(j)
    return frozenset(out)


def twin_schools(eco: Economy, cutoffs: CutoffProfile, j: int) -> frozenset[int]:
    """Schools that move in and out of the budget set together with ``j``.

    Sharing is structural (same score column) plus an identical cutoff
    value; ``j`` itself always belongs.
    """
    out = {j}
    cj = cutoffs.cutoff(j)
    for m in range(1, eco.n_schools + 1):
        if m != j and eco.shares_score(j, m) and cutoffs.cutoff(m) == cj:
            out.add(m)
    return frozenset(out)


def counterfactual_sets(eco: Economy, cutoffs: CutoffProfile, i: int,
                        j: int) -> tuple[frozenset[int], frozenset[int]]:
    """(just-below, just-above) budget sets for student ``i`` at school ``j``."""
    b = budget_set(eco, cutoffs, i)
    twins = twin_schools(eco, cutoffs, j)
    below = frozenset(b - twins)
    above = frozenset(b | twins)
    return below, above


def best_true(order: np.ndarray, budget: frozenset[int]) -> int:
    """Most preferred affordable option under a full strict order."""
    for d in order:
        d = int(d)
        if d == OUTSIDE:
            return OUTSIDE
        if d in budget:
            return d
    return OUTSIDE


def best_reported(rol: tuple[int, ...], budget: frozenset[int]) -> int:
    """First listed affordable school, or the outside option if none is."""
    for j in rol:
        if j in budget:
            return j
    return OUTSIDE


def local_pair(eco: Economy, cutoffs: CutoffProfile, i: int, j: int,
               use: str = "reported") -> tuple[int, int]:
    """(best just-above, best just-below) pair at school ``j``.

    ``use="reported"`` evaluates the submitted list, ``use="true"`` the
    ground-truth order.
    """
    below, above = counterfactual_sets(eco, cutoffs, i, j)
    if use == "reported":
        if eco.reports is None:
            raise LocalPrefError("economy has no submitted lists")
        rol = eco.reports[i]
        return best_reported(rol, above), best_reported(rol, below)
    if use == "true":
        if eco.truth is None:
            raise LocalPrefError("economy has no ground truth")
        order = eco.truth.pref_orders[i]
        return best_true(order, above), best_true(order, below)
    raise LocalPrefError("use must be 'reported' or 'true'")


# ---------------------------------------------------------------------------
# local samples and comparable pairs


@dataclass(frozen=True)
class LocalSample:
    """Students inside a (possibly trimmed) score window around one cutoff.

    Each window student's two counterfactual budget sets at the school
    (``budgets``, just-below then just-above) and reported local pair
    (``reported``, None when the economy has no submitted lists) are
    derived once, with the sample, in the order of ``ids``.
    """

    school: int
    cutoff: float
    h_minus: float
    h_plus: float
    plus_ids: tuple[int, ...]
    minus_ids: tuple[int, ...]
    budgets: tuple[tuple[frozenset[int], frozenset[int]], ...]
    reported: tuple[tuple[int, int], ...] | None

    @property
    def ids(self) -> tuple[int, ...]:
        """Window students, plus side first."""
        return self.plus_ids + self.minus_ids

    @property
    def n_plus(self) -> int:
        return len(self.plus_ids)

    @property
    def n_minus(self) -> int:
        return len(self.minus_ids)


def window_budgets(eco: Economy, cutoffs: CutoffProfile, j: int,
                   ids: Sequence[int]) -> list[tuple[frozenset[int], frozenset[int]]]:
    """``counterfactual_sets`` at school ``j`` for each of ``ids`` at once.

    Students who clear the same schools share one pair of sets.
    """
    if not ids:
        return []
    scores = eco.score_cols[np.asarray(ids)][:, list(eco.score_groups)]
    clears = scores >= np.asarray(cutoffs.values)
    rows, which = np.unique(clears, axis=0, return_inverse=True)
    twins = twin_schools(eco, cutoffs, j)
    sets = []
    for row in rows:
        budget = frozenset([OUTSIDE, *(np.flatnonzero(row) + 1).tolist()])
        sets.append((budget - twins, budget | twins))
    return [sets[k] for k in which.reshape(-1).tolist()]


def _trimmed_halfwidths(eco: Economy, cutoffs: CutoffProfile, j: int,
                        bandwidth: float) -> tuple[float, float]:
    """Shrink each half-window so no same-column cutoff sits inside it."""
    cj = cutoffs.cutoff(j)
    h_minus = h_plus = bandwidth
    for m in range(1, eco.n_schools + 1):
        if m == j or not eco.shares_score(j, m):
            continue
        cm = cutoffs.cutoff(m)
        if not np.isfinite(cm) or cm == cj:
            continue
        if cj - h_minus < cm < cj:
            h_minus = cj - cm
        elif cj < cm < cj + h_plus:
            h_plus = cm - cj
    return h_minus, h_plus


def select_local_sample(eco: Economy, cutoffs: CutoffProfile, j: int,
                        bandwidth: float) -> LocalSample:
    """Students with a score at ``j`` within the trimmed window of its cutoff.

    The window is open at both ends; a student exactly at the cutoff clears
    it and lands on the plus side.
    """
    if bandwidth <= 0:
        raise LocalPrefError("bandwidth must be positive")
    cj = cutoffs.cutoff(j)
    if not np.isfinite(cj):
        raise LocalPrefError(f"school {j} admits nobody; no window exists")
    h_minus, h_plus = _trimmed_halfwidths(eco, cutoffs, j, bandwidth)
    scores = eco.school_scores(j)
    inside = np.flatnonzero((cj - h_minus < scores) & (scores < cj + h_plus))
    above = scores[inside] >= cj
    plus, minus = tuple(inside[above].tolist()), tuple(inside[~above].tolist())
    budgets = tuple(window_budgets(eco, cutoffs, j, plus + minus))
    reported = None
    if eco.reports is not None:
        reported = tuple(
            (best_reported(eco.reports[i], a), best_reported(eco.reports[i], b))
            for i, (b, a) in zip(plus + minus, budgets))
    return LocalSample(school=j, cutoff=cj, h_minus=h_minus, h_plus=h_plus,
                       plus_ids=plus, minus_ids=minus, budgets=budgets,
                       reported=reported)


def local_samples(eco: Economy, cutoffs: CutoffProfile,
                  bandwidth: float) -> dict[int, LocalSample]:
    """The local sample of every school whose cutoff is interior.

    Schools whose cutoff sits at the support floor (or at +inf) have no
    discontinuity to study and get none.
    """
    out = {}
    for j in range(1, eco.n_schools + 1):
        cj = cutoffs.cutoff(j)
        if np.isfinite(cj) and cj > cutoffs.floor:
            out[j] = select_local_sample(eco, cutoffs, j, bandwidth)
    return out


@dataclass(frozen=True)
class ComparablePair:
    """A (j, k) pair with enough nearby students reporting j just above k."""

    school: int
    fallback: int
    n_local: int
    n_plus: int
    n_minus: int


def find_comparable_pairs(eco: Economy, cutoffs: CutoffProfile,
                          bandwidth: float = 30.0,
                          min_local_n: int = 50) -> list[ComparablePair]:
    """Pairs (j, k), k != 0, with >= ``min_local_n`` students near j's cutoff
    whose reported local pair at j is exactly (j, k).

    Pairs whose first coordinate is some other school are redundant with
    that school's own cutoff and are not emitted here.  Only schools with
    an interior cutoff are scanned (see ``local_samples``).
    """
    if eco.reports is None:
        raise LocalPrefError("economy has no submitted lists")
    return comparable_pairs(local_samples(eco, cutoffs, bandwidth).values(),
                            min_local_n)


def comparable_pairs(samples: Iterable[LocalSample],
                     min_local_n: int) -> list[ComparablePair]:
    """``find_comparable_pairs`` on local samples already drawn."""
    out: list[ComparablePair] = []
    for sample in samples:
        j = sample.school
        if sample.reported is None:
            raise LocalPrefError("economy has no submitted lists")
        counts: dict[int, list[int]] = {}
        for pos, (a, b) in enumerate(sample.reported):
            if a != j or b == OUTSIDE or b == j:
                continue
            counts.setdefault(b, [0, 0])[pos >= sample.n_plus] += 1
        for k in sorted(counts):
            n_plus, n_minus = counts[k]
            if n_plus + n_minus >= min_local_n:
                out.append(ComparablePair(school=j, fallback=k,
                                          n_local=n_plus + n_minus,
                                          n_plus=n_plus, n_minus=n_minus))
    return out
