"""Outcome bounds for the marginal-admission contrast.

The parameter of interest is the jump in expected outcomes for students
whose true local pair at the cutoff is (j, k): admitted they attend j, just
rejected they attend k.  The pair is only partially observed, so outcome
means are bounded by trimming the widest possible contamination share out
of each tail (continuous outcomes), by mass-shifting arguments (binary
outcomes), or sharply through a joint linear program over outcome-and-pair
masses (finite outcome support).  The naive contrast conditions on the
*reported* pair and is the benchmark all of these correct.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .identify import (ContainmentStats, LocalObs, _lp_interval,
                       containment_rows, cover_matrix, set_weights,
                       support_atoms)
from .qsets import Pair


class BoundsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# outcome transforms


@dataclass(frozen=True)
class OutcomeTransform:
    """A measurable function of the observed outcome.

    kinds: "identity", "indicator" (1{y >= threshold}), "table" (finite
    relabeling; unlisted values are an error).
    """

    name: str = "y"
    kind: str = "identity"
    threshold: float | None = None
    table: Mapping[float, float] | None = None

    def __call__(self, y: float) -> float:
        if self.kind == "identity":
            return float(y)
        if self.kind == "indicator":
            if self.threshold is None:
                raise BoundsError("indicator transform needs a threshold")
            return 1.0 if y >= self.threshold else 0.0
        if self.kind == "table":
            if self.table is None or y not in self.table:
                raise BoundsError(f"outcome value {y!r} not in transform table")
            return float(self.table[y])
        raise BoundsError(f"unknown transform kind {self.kind!r}")


IDENTITY = OutcomeTransform()


def pair_subpop(obs: Sequence[LocalObs], pair: Pair) -> list[LocalObs]:
    """Observations whose candidate set allows the pair."""
    return [o for o in obs if pair in o.qset]


def _values_weights(obs: Sequence[LocalObs],
                    g: OutcomeTransform) -> tuple[np.ndarray, np.ndarray]:
    """Distinct transformed outcomes and their summed weights, so that
    records split or merged at one value read the same."""
    if not obs:
        raise BoundsError("empty subgroup")
    weights: Counter[float] = Counter()
    for o in obs:
        weights[g(o.y)] += o.weight
    v = np.array(list(weights), dtype=float)
    w = np.array(list(weights.values()), dtype=float)
    if any(o.weight < 0 for o in obs) or w.sum() <= 0:
        raise BoundsError("weights must be non-negative with positive total")
    return v, w


# ---------------------------------------------------------------------------
# side bounds


@dataclass(frozen=True)
class SideBounds:
    """Bounds on one side's conditional outcome mean for the pair subgroup."""

    lower: float
    upper: float
    delta_bar: float
    method: str


def _tail_mean(values: np.ndarray, weights: np.ndarray, mass: float,
               lowest: bool) -> float:
    """Mean of the lowest (or highest) ``mass`` fraction of a weighted sample.

    Observations at the boundary quantile enter fractionally so the tail
    holds exactly the requested mass, mirroring the population object where
    the outcome distribution is continuous.
    """
    w = weights / weights.sum()
    order = np.argsort(values, kind="stable")
    if not lowest:
        order = order[::-1]
    target = float(mass)
    acc = 0.0
    got = 0.0
    for idx in order:
        take = min(float(w[idx]), target - got)
        if take <= 0.0:
            break
        acc += take * float(values[idx])
        got += take
        if got >= target - 1e-15:
            break
    if got <= 0.0:
        raise BoundsError("trimming share leaves an empty tail")
    return acc / got


def trimming_bounds_continuous(obs: Sequence[LocalObs], delta_bar: float,
                               g: OutcomeTransform = IDENTITY) -> SideBounds:
    """Worst-case subgroup means when only a ``delta_bar`` share of the
    conditioning population is known to belong to the subgroup.

    The subgroup mean can be no smaller than the mean of the lowest
    ``delta_bar`` tail and no larger than the mean of the highest.
    """
    if not 0.0 < delta_bar <= 1.0:
        raise BoundsError("trimming share must lie in (0, 1]")
    v, w = _values_weights(obs, g)
    lo = _tail_mean(v, w, delta_bar, lowest=True)
    hi = _tail_mean(v, w, delta_bar, lowest=False)
    return SideBounds(lower=float(lo), upper=float(hi),
                      delta_bar=float(delta_bar), method="trim")


def binary_bounds(obs: Sequence[LocalObs], delta_bar: float,
                  g: OutcomeTransform = IDENTITY) -> SideBounds:
    """Sharp subgroup-mean bounds for a binary outcome.

    With success share p in the conditioning population and subgroup share
    at least ``delta_bar``, the subgroup mean lies in
    [max{1 - (1-p)/delta_bar, 0}, min{p/delta_bar, 1}].
    """
    if not 0.0 < delta_bar <= 1.0:
        raise BoundsError("trimming share must lie in (0, 1]")
    v, w = _values_weights(obs, g)
    if not np.isin(v, (0.0, 1.0)).all():
        raise BoundsError("binary bounds need outcomes in {0, 1}")
    p1 = float((v * w).sum() / w.sum())
    lower = max(1.0 - (1.0 - p1) / delta_bar, 0.0)
    upper = min(p1 / delta_bar, 1.0)
    return SideBounds(lower=float(lower), upper=float(upper),
                      delta_bar=float(delta_bar), method="binary")


def hm_side_bounds(obs: Sequence[LocalObs], delta_bar: float,
                   g: OutcomeTransform = IDENTITY) -> SideBounds:
    """Binary formulas when the transformed outcome is {0,1}, else trimming."""
    if all(g(o.y) in (0.0, 1.0) for o in obs):
        return binary_bounds(obs, delta_bar, g)
    return trimming_bounds_continuous(obs, delta_bar, g)


# ---------------------------------------------------------------------------
# effect intervals


@dataclass(frozen=True)
class EffectBounds:
    lower: float
    upper: float
    method: str

    @property
    def sign_identified(self) -> bool:
        return self.lower > 0.0 or self.upper < 0.0

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lower - tol <= x <= self.upper + tol


def effect_bounds(plus: SideBounds, minus: SideBounds) -> EffectBounds:
    """Interval difference: jump = plus-side mean minus minus-side mean."""
    return EffectBounds(lower=plus.lower - minus.upper,
                        upper=plus.upper - minus.lower, method="hm")


def naive_rd(obs_plus: Sequence[LocalObs], obs_minus: Sequence[LocalObs],
             pair: Pair, g: OutcomeTransform = IDENTITY) -> float:
    """Difference of mean outcomes across the cutoff for students whose
    *reported* pair is (j, k).  Valid under unconstrained truthful lists,
    biased in general."""
    sides = []
    for obs in (obs_plus, obs_minus):
        sel = [o for o in obs if o.reported_pair == pair]
        if not sel:
            raise BoundsError("no reported-pair students on one side")
        v, w = _values_weights(sel, g)
        sides.append(float((v * w).sum() / w.sum()))
    return sides[0] - sides[1]


# ---------------------------------------------------------------------------
# sharp bounds for finite outcome support


def finite_support(obs_plus: Sequence[LocalObs], obs_minus: Sequence[LocalObs],
                   g: OutcomeTransform, cap: int = 8) -> tuple[float, ...]:
    vals = sorted({g(o.y) for o in list(obs_plus) + list(obs_minus)})
    if len(vals) > cap:
        raise BoundsError(
            f"outcome support has {len(vals)} points, above the cap {cap}")
    return tuple(vals)


def sharp_bounds_finite(obs_plus: Sequence[LocalObs] | None,
                        obs_minus: Sequence[LocalObs] | None,
                        stats_plus: ContainmentStats | None,
                        stats_minus: ContainmentStats | None,
                        pair: Pair,
                        g: OutcomeTransform = IDENTITY) -> EffectBounds:
    """Sharp bounds on the (j, k) outcome jump via a joint mass program.

    Variables are masses of (outcome value, true pair) at the cutoff, one
    block for the outcome if admitted and one for the outcome if rejected.
    Each side's containment rows, taken once per outcome value, bound the
    corresponding block: a row over several outcome values would be the sum
    of single-value rows, since each observation has one value.  The jump
    objective is a ratio of linear forms in these masses; scaling all
    variables by the reciprocal of the pair mass makes it linear.
    """
    if stats_plus is None and stats_minus is None:
        raise BoundsError("no side data at all")
    support = finite_support(obs_plus or (), obs_minus or (), g)
    a_idx = {p: k for k, p in enumerate(support_atoms(stats_plus,
                                                      stats_minus))}
    if pair not in a_idx:
        raise BoundsError(f"pair {pair} has no support mass")
    n_a, n_y = len(a_idx), len(support)
    y_idx = {y: k for k, y in enumerate(support)}

    # variable layout: u[atom, y] | v[atom, y] | residual | t
    def ui(a: int, y: int) -> int:
        return a * n_y + y

    def vi(a: int, y: int) -> int:
        return n_a * n_y + a * n_y + y

    ri = 2 * n_a * n_y
    ti = ri + 1
    n_vars = ti + 1

    blocks = []
    for stats, obs, block in ((stats_plus, obs_plus, ui),
                              (stats_minus, obs_minus, vi)):
        if stats is None:
            continue
        by_value: dict[float, list[LocalObs]] = {}
        for o in obs:
            by_value.setdefault(g(o.y), []).append(o)
        for y, sel in by_value.items():
            shares = containment_rows(set_weights(sel), stats.total,
                                      stats.family.closure)
            sets = [b for b, s in shares.items() if s > 0.0]
            column = {p: block(k, y_idx[y]) for p, k in a_idx.items()}
            rows = cover_matrix(sets, column, n_vars)
            rows[:, ti] = [shares[b] for b in sets]     # share * t <= mass
            blocks.append(rows)
    A_ub = np.vstack(blocks)
    b_ub = np.zeros(len(A_ub))

    A_eq, b_eq = [], []
    for a in range(n_a):            # same pair mass in both blocks
        row = np.zeros(n_vars)
        for y in range(n_y):
            row[ui(a, y)] = 1.0
            row[vi(a, y)] = -1.0
        A_eq.append(row)
        b_eq.append(0.0)
    row = np.zeros(n_vars)          # total mass is one, scaled: sum + r = t
    for a in range(n_a):
        for y in range(n_y):
            row[ui(a, y)] = 1.0
    row[ri] = 1.0
    row[ti] = -1.0
    A_eq.append(row)
    b_eq.append(0.0)
    row = np.zeros(n_vars)          # normalization pins the pair block
    for y in range(n_y):
        row[ui(a_idx[pair], y)] = 1.0
    A_eq.append(row)
    b_eq.append(1.0)

    c = np.zeros(n_vars)
    for y in support:
        c[ui(a_idx[pair], y_idx[y])] = y
        c[vi(a_idx[pair], y_idx[y])] = -y

    lower, upper = _lp_interval(c, A_ub, b_ub, A_eq, b_eq,
                                what="joint outcome-and-pair inequalities")
    return EffectBounds(lower=lower, upper=upper, method="sharp-lp")
