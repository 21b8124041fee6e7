"""Partial identification of the local-pair distribution at a cutoff.

Each student near a cutoff contributes a candidate set of true local pairs.
The distribution of the *true* pair at the cutoff must put at least as much
mass on any union of observed candidate sets as the frequency of candidate
sets contained in that union, on either side.  Those containment
inequalities plus the simplex constraint carve out a polytope; linear
programs over it give sharp bounds on the probability of any pair event,
and an infeasible polytope or a partition whose lower bounds sum above one
falsifies the assumed reporting discipline.

Only unions of connected families of candidate sets need a row, a family
being connected when it cannot be split into two groups that share no
pair: any other union splits into disjoint connected parts whose rows sum
to its row.  ``containment_rows`` states the rows of both programs, the
event LP here over pair masses and the joint LP in ``bounds`` over
(outcome value, pair) masses, which takes the same rows once per outcome
value.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .localpref import LocalSample
from .qsets import (Pair, PairSet, Regime, UmasRelation, WindowQsets,
                    window_qsets)
from .simplex import FEAS_TOL, SimplexError, solve_lp


class IdentifyError(ValueError):
    pass


class ClosureCapError(IdentifyError):
    """A side's connected unions outgrew ``CLOSURE_CAP``."""


class FalsificationSignal(RuntimeError):
    """Raised when observed behavior contradicts the assumed discipline."""


class InfeasiblePolytopeError(FalsificationSignal):
    """No pair distribution satisfies all containment inequalities."""


# ---------------------------------------------------------------------------
# local observations


@dataclass(frozen=True)
class LocalObs:
    """One distinct (candidate set, outcome, reported pair) near a cutoff,
    weighted by the students (1 each) or exact population mass sharing it.

    ``distinct_obs`` builds the records of cohorts and of populations alike.
    The reported pair feeds the naive contrast.
    """

    qset: PairSet
    y: float
    weight: float = 1.0
    reported_pair: Pair | None = None


def distinct_obs(records: Iterable[tuple[PairSet, float, float, Pair | None]]
                 ) -> list[LocalObs]:
    """One record per distinct (qset, y, reported_pair) of ``(qset, y,
    weight, reported_pair)`` tuples, weights summed, in first-seen order;
    a record of zero weight is left out."""
    weights: Counter[tuple[PairSet, float, Pair | None]] = Counter()
    for q, y, w, rep in records:
        weights[q, y, rep] += w
    return [LocalObs(qset=q, y=y, weight=w, reported_pair=rep)
            for (q, y, rep), w in weights.items() if w > 0.0]


def total_weight(obs: Sequence[LocalObs]) -> float:
    return float(sum(o.weight for o in obs))


def event_prob(obs: Sequence[LocalObs], pair: Pair) -> float:
    """Share of local mass whose candidate set can contain ``pair``."""
    tot = total_weight(obs)
    if tot <= 0:
        raise IdentifyError("empty side")
    hit = sum(o.weight for o in obs if pair in o.qset)
    return float(hit / tot)


def collect_local_obs(eco, cutoffs, sample: LocalSample, regime: Regime,
                      umas: UmasRelation | None = None,
                      ) -> tuple[list[LocalObs], list[LocalObs]]:
    """Window students as local records, one list per side of the cutoff."""
    return local_obs(eco, sample,
                     window_qsets(eco, cutoffs, sample, regime, umas))


def local_obs(eco, sample: LocalSample,
              qsets: WindowQsets) -> tuple[list[LocalObs], list[LocalObs]]:
    """Window students as records of weight 1, one list per side, given
    their candidate sets as ``qsets.window_qsets`` returns them."""
    if eco.y_observed is None:
        raise IdentifyError("economy has no observed outcomes")
    ys = eco.y_observed[list(sample.ids)].astype(float).tolist()
    n, reps, one = sample.n_plus, sample.reported, itertools.repeat(1.0)
    return (distinct_obs(zip(qsets[0], ys[:n], one, reps[:n])),
            distinct_obs(zip(qsets[1], ys[n:], one, reps[n:])))


# ---------------------------------------------------------------------------
# support families


def _canon(sets: Iterable[PairSet]) -> tuple[PairSet, ...]:
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))


# the most connected unions one side of a window may have
CLOSURE_CAP = 4096


def connected_unions(members: Iterable[PairSet],
                     cap: int = CLOSURE_CAP) -> tuple[PairSet, ...]:
    """The unions of connected subfamilies of ``members``.

    Starting from the distinct members, a kept union grows by a member that
    meets it but does not lie inside it, until nothing new appears.  These
    are the containment rows a side needs: when the members inside a union
    split into groups that share no pair, the group unions are disjoint and
    the union's row is the sum of the group rows, so dropping it leaves the
    polytope of the full union closure unchanged (the core-determining
    classes of Galichon & Henry 2011, reduced by connectivity as in Luo &
    Wang 2017).  A star of sets sharing one pair still has 2^n connected
    unions, so growth past ``cap`` raises rather than silently truncating,
    since a truncated family would drop binding inequalities.
    """
    distinct = set(members)
    atoms = sorted(set().union(*distinct))
    bit = {p: 1 << k for k, p in enumerate(atoms)}
    masks = [sum(bit[p] for p in m) for m in distinct]
    kept = set(masks)
    queue = list(kept)
    while queue and len(kept) <= cap:
        u = queue.pop()
        for m in masks:
            v = u | m
            if m & u and v != u and v not in kept:
                kept.add(v)
                queue.append(v)
    if len(kept) > cap:
        raise ClosureCapError(f"connected unions exceed cap {cap}")
    return _canon(frozenset(p for p in atoms if bit[p] & u) for u in kept)


@dataclass(frozen=True)
class SupportFamily:
    """Distinct candidate sets seen on one side, and in ``closure`` their
    connected unions: the sets that carry the side's containment rows."""

    members: tuple[PairSet, ...]
    closure: tuple[PairSet, ...]


def support_family(obs: Sequence[LocalObs], side: str) -> SupportFamily:
    if not obs:
        raise IdentifyError("empty side")
    members = _canon({o.qset for o in obs})
    for s in members:
        if not s:
            raise IdentifyError("empty candidate set in support")
    try:
        closure = connected_unions(members, cap=CLOSURE_CAP)
    except ClosureCapError as exc:
        raise ClosureCapError(f"{side} side: {exc}") from None
    return SupportFamily(members=members, closure=closure)


def set_weights(obs: Iterable[LocalObs]) -> dict[PairSet, float]:
    """Summed weight per distinct candidate set, in first-seen order."""
    weights: dict[PairSet, float] = {}
    for o in obs:
        weights[o.qset] = weights.get(o.qset, 0.0) + o.weight
    return weights


def containment_rows(weights: Mapping[PairSet, float], total: float,
                     sets: Iterable[PairSet]) -> dict[PairSet, float]:
    """Right-hand sides of containment rows: for each set, the weight of
    candidate sets lying inside it, as a share of ``total``.

    The one row builder of both programs.  The event LP passes a side's
    whole weight; the joint outcome-and-pair LP passes, per outcome value,
    the weight of the observations with that value, since each observation
    has one value and a row over several values is the sum of single-value
    rows.
    """
    return {a: float(sum(w for q, w in weights.items() if q <= a) / total)
            for a in sets}


@dataclass(frozen=True)
class ContainmentStats:
    """Containment frequencies of candidate sets within the connected
    unions, and the weights they come from."""

    total: float
    family: SupportFamily
    containment: Mapping[PairSet, float]
    weights: Mapping[PairSet, float]

    def prob(self, a: PairSet) -> float:
        return self.containment[a]

    def union_share(self, cell: PairSet) -> float | None:
        """Share of candidate sets inside ``cell`` when ``cell`` is a union
        of candidate sets, else None."""
        if cell in self.containment:
            return self.containment[cell]
        inside = [q for q in self.weights if q <= cell]
        if frozenset().union(*inside) != cell:
            return None
        return containment_rows(self.weights, self.total, [cell])[cell]


def containment_stats(obs: Sequence[LocalObs], side: str) -> ContainmentStats:
    """Empirical (or exact, if weighted) containment probabilities."""
    fam = support_family(obs, side)
    tot = total_weight(obs)
    if tot <= 0:
        raise IdentifyError("empty side")
    weights = set_weights(obs)
    return ContainmentStats(total=tot, family=fam,
                            containment=containment_rows(weights, tot,
                                                         fam.closure),
                            weights=weights)


def largest_share(cell: PairSet,
                  *sides: ContainmentStats | None) -> float | None:
    """The largest share of candidate sets inside ``cell`` across the
    sides on which ``cell`` is a union of candidate sets; None on no
    side."""
    shares = [s.union_share(cell) for s in sides if s is not None]
    return max((p for p in shares if p is not None), default=None)


def support_atoms(*sides: ContainmentStats | None) -> tuple[Pair, ...]:
    """The pairs in some candidate set of the sides given, sorted."""
    return tuple(sorted(set().union(*(a for s in sides if s is not None
                                      for a in s.family.members))))


# ---------------------------------------------------------------------------
# the distribution polytope


@dataclass(frozen=True)
class DistPolytope:
    """Mass-per-pair variables, one residual for off-support mass, and
    lower-bound rows ``sum of masses over A >= bound``."""

    atoms: tuple[Pair, ...]
    rows: tuple[tuple[PairSet, float], ...]

    @property
    def n_vars(self) -> int:
        return len(self.atoms) + 1          # + residual


def build_polytope(stats_plus: ContainmentStats | None,
                   stats_minus: ContainmentStats | None) -> DistPolytope:
    """Combine both sides' containment rows over a shared atom list.

    Each side's connected unions are rows.  A row's lower bound is the
    larger share across the sides on which the set is a union of candidate
    sets, connected there or not.  Either side may be absent (one-sided
    designs), not both.
    """
    sides = [s for s in (stats_plus, stats_minus) if s is not None]
    if not sides:
        raise IdentifyError("no side data at all")
    rows = tuple((a, largest_share(a, *sides))
                 for a in _canon(set().union(*(s.containment for s in sides))))
    return DistPolytope(atoms=support_atoms(*sides), rows=rows)


def cover_matrix(sets: Sequence[PairSet], column: Mapping[Pair, int],
                 n_vars: int) -> np.ndarray:
    """Containment rows as ``A_ub`` rows: -1 at the column of every pair of
    the set that has one, so ``A_ub x <= -share`` reads mass >= share."""
    A = np.zeros((len(sets), n_vars))
    for r, a in enumerate(sets):
        A[r, [column[p] for p in a if p in column]] = -1.0
    return A


def _polytope_constraints(poly: DistPolytope):
    n = poly.n_vars
    idx = {p: k for k, p in enumerate(poly.atoms)}
    A_ub = cover_matrix([a for a, _ in poly.rows], idx, n)
    b_ub = np.array([-bound for _, bound in poly.rows])
    return A_ub, b_ub, np.ones((1, n)), np.array([1.0])


def solve_bounds_on_event(poly: DistPolytope,
                          event: Iterable[Pair]) -> tuple[float, float]:
    """Sharp [min, max] probability of a pair event over the polytope.

    The event is read over the support atoms; residual off-support mass
    never counts toward it.  An infeasible polytope is a falsification
    signal and raises.
    """
    event = set(event)
    n = poly.n_vars
    c = np.zeros(n)
    for k, p in enumerate(poly.atoms):
        if p in event:
            c[k] = 1.0
    return _lp_interval(c, *_polytope_constraints(poly),
                        what="containment inequalities")


def _lp_interval(c, A_ub, b_ub, A_eq, b_eq, what: str) -> tuple[float, float]:
    """[min, max] of ``c.x`` over a polytope, from one solve per end, the
    max re-solved from the min's final tableau.

    An infeasible polytope raises ``InfeasiblePolytopeError`` naming
    ``what``.  Two solves of a point-identified value can leave the max a
    rounding error below the min; up to ``FEAS_TOL`` that is the point at
    the min, beyond it a solver fault.
    """
    lo = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    if lo.status == "infeasible":
        raise InfeasiblePolytopeError(f"{what} admit no distribution")
    hi = solve_lp(c, A_ub, b_ub, A_eq, b_eq, maximize=True, start=lo)
    if not (lo.ok and hi.ok):
        raise SimplexError(f"unexpected LP status {lo.status}/{hi.status}")
    lower, upper = float(lo.value), float(hi.value)
    if lower - upper > FEAS_TOL:
        raise SimplexError(f"LP max {upper!r} lies below LP min {lower!r}")
    return lower, max(lower, upper)


# ---------------------------------------------------------------------------
# trimming shares


@dataclass(frozen=True)
class DeltaBounds:
    """Worst-case share of the pair subgroup on each side.

    ``p_lower`` is the sharp lower bound on the pair's mass at the cutoff;
    dividing by the side share of students whose candidate set allows the
    pair gives the least possible subgroup fraction, which drives the
    outcome trimming.  A side with no allowing students has no ratio.
    """

    pair: Pair
    p_lower: float
    p_upper: float
    denom_plus: float | None
    denom_minus: float | None
    delta_plus: float | None
    delta_minus: float | None


def delta_bounds(poly: DistPolytope, pair: Pair,
                 obs_plus: Sequence[LocalObs] | None,
                 obs_minus: Sequence[LocalObs] | None) -> DeltaBounds:
    p_lo, p_hi = solve_bounds_on_event(poly, [pair])

    def side_ratio(obs):
        if not obs:
            return None, None
        denom = event_prob(obs, pair)
        if denom <= 0.0:
            return 0.0, None
        return denom, min(1.0, p_lo / denom)

    denom_p, delta_p = side_ratio(obs_plus)
    denom_m, delta_m = side_ratio(obs_minus)
    return DeltaBounds(pair=pair, p_lower=p_lo, p_upper=p_hi,
                       denom_plus=denom_p, denom_minus=denom_m,
                       delta_plus=delta_p, delta_minus=delta_m)


# ---------------------------------------------------------------------------
# falsification


# a partition's summed lower bounds may exceed one by rounding only
FALSIFICATION_LIMIT = 1.0 + 1e-9


@dataclass(frozen=True)
class PartitionCheck:
    name: str
    statistic: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class FalsificationReport:
    checks: tuple[PartitionCheck, ...]
    passed: bool


def all_pairs(n_schools: int) -> tuple[Pair, ...]:
    opts = range(n_schools + 1)
    return tuple((x, z) for x in opts for z in opts)


def default_partitions(stats_plus: ContainmentStats | None,
                       stats_minus: ContainmentStats | None,
                       n_schools: int,
                       pair: Pair | None = None) -> list[tuple[str, tuple[PairSet, ...]]]:
    """The stock partitions: support atoms plus remainder, and (optionally)
    the queried pair against everything else."""
    universe = frozenset(all_pairs(n_schools))
    atoms = support_atoms(stats_plus, stats_minus)
    cells = [frozenset({p}) for p in atoms]
    rest = universe.difference(atoms)
    if rest:
        cells.append(frozenset(rest))
    out = [("support-atoms", tuple(cells))]
    if pair is not None:
        two = (frozenset({pair}), frozenset(universe - {pair}))
        out.append((f"pair-{pair[0]}-{pair[1]}", two))
    return out


def falsification_test(stats_plus: ContainmentStats | None,
                       stats_minus: ContainmentStats | None,
                       n_schools: int,
                       pair: Pair | None = None) -> FalsificationReport:
    """Sum, over each of ``default_partitions``, the implied lower bounds.

    A sum above ``FALSIFICATION_LIMIT`` (one, up to rounding) means no
    distribution satisfies every containment inequality: the assumed
    discipline is falsified.  The limit makes no allowance for sampling
    noise, and a looser one would change no status: the cells are disjoint
    and the rows imply each cell's bound, so the event LP is then
    infeasible too.  The check names the failing partition before any LP.
    """
    checks = []
    for name, cells in default_partitions(stats_plus, stats_minus, n_schools,
                                           pair):
        stat = sum(largest_share(cell, stats_plus, stats_minus) or 0.0
                   for cell in cells)
        checks.append(PartitionCheck(name=name, statistic=float(stat),
                                     limit=FALSIFICATION_LIMIT,
                                     passed=stat <= FALSIFICATION_LIMIT))
    return FalsificationReport(checks=tuple(checks),
                               passed=all(c.passed for c in checks))
