"""Exact local mixtures stated as mass points at a cutoff.

Desk-scale designs are easiest to write down directly: a handful of types,
each a mass share of the at-the-cutoff population with a known submitted
list, true preference order, and outcome mean per attended school.  This
module turns such a design into the same weighted records produced by
sampling a cohort, so identification and bounds run unchanged on exact
populations, and it computes the population truths those objects must
cover.  Everything here assumes one shared admission score, the natural
setting for a limit construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .economy import OUTSIDE
from .identify import LocalObs
from .localpref import best_reported, best_true
from .qsets import Pair, Regime, UmasRelation, build_qset


class PopulationError(ValueError):
    pass


@dataclass(frozen=True)
class LocalType:
    """One mass point of the local population on one side of a cutoff.

    ``outcomes`` maps every school the type can end up attending to the
    outcome mean there.  With ``binary=True`` in the builders the mean is a
    success probability and the type splits into exact 0/1 atoms.
    """

    mass: float
    report: tuple[int, ...]
    order: tuple[int, ...]
    outcomes: Mapping[int, float] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise PopulationError("type mass must be positive")
        if OUTSIDE not in self.order:
            raise PopulationError("true order must include the outside option")
        if len(set(self.report)) != len(self.report):
            raise PopulationError("submitted list repeats a school")


def side_budgets(cutoff_values: Mapping[int, float],
                 school: int) -> tuple[frozenset[int], frozenset[int]]:
    """Counterfactual budget sets just below and just above one cutoff.

    With a single shared score, a student at the margin of ``school`` can
    afford every school with a strictly lower cutoff on both sides, and
    the at-cutoff schools only on the admitted side.
    """
    if school not in cutoff_values:
        raise PopulationError(f"no cutoff on record for school {school}")
    cj = cutoff_values[school]
    if not math.isfinite(cj):
        raise PopulationError("cannot localize at a non-finite cutoff")
    below = frozenset({OUTSIDE} | {m for m, c in cutoff_values.items() if c < cj})
    above = frozenset({OUTSIDE} | {m for m, c in cutoff_values.items() if c <= cj})
    return below, above


def umas_from_cutoffs(cutoff_values: Mapping[int, float]) -> UmasRelation:
    """Access containments implied by one shared score: clearing a higher
    cutoff implies clearing every strictly lower one."""
    pairs = frozenset(
        (d, e)
        for d, cd in cutoff_values.items()
        for e, ce in cutoff_values.items()
        if d != e and cd > ce)
    fp = tuple(sorted((int(m), float(c)) for m, c in cutoff_values.items()))
    return UmasRelation(pairs=pairs, fingerprint=fp)


def _attended(t: LocalType, budget: frozenset[int]) -> int:
    school = best_reported(t.report, budget)
    if school not in t.outcomes and school != OUTSIDE:
        raise PopulationError(
            f"type {t.label or t.report} lacks an outcome for school {school}")
    return school


def _mean_outcome(t: LocalType, school: int) -> float:
    if school == OUTSIDE and school not in t.outcomes:
        return 0.0
    return float(t.outcomes[school])


def build_local_obs(types: Sequence[LocalType], side: str,
                    cutoff_values: Mapping[int, float], school: int,
                    list_cap: int, regime: Regime,
                    umas: UmasRelation | None = None,
                    binary: bool = True) -> list[LocalObs]:
    """Weighted local records for one side of the cutoff."""
    if side not in ("plus", "minus"):
        raise PopulationError(f"side must be 'plus' or 'minus', got {side!r}")
    above = side == "plus"
    below_b, above_b = side_budgets(cutoff_values, school)
    realized = above_b if above else below_b
    if regime.umas and umas is None:
        umas = umas_from_cutoffs(cutoff_values)
    out: list[LocalObs] = []
    for t in types:
        qset = build_qset(t.report, below_b, above_b, above, list_cap,
                          regime, umas)
        rep_pair = (best_reported(t.report, above_b),
                    best_reported(t.report, below_b))
        mean = _mean_outcome(t, _attended(t, realized))
        if binary:
            if not 0.0 <= mean <= 1.0:
                raise PopulationError("success probability outside [0, 1]")
            for y, w in ((1.0, t.mass * mean), (0.0, t.mass * (1.0 - mean))):
                if w > 0.0:
                    out.append(LocalObs(qset=qset, y=y, weight=w,
                                        reported_pair=rep_pair))
        else:
            out.append(LocalObs(qset=qset, y=mean, weight=t.mass,
                                reported_pair=rep_pair))
    return out


def _pair_types(types: Sequence[LocalType], pair: Pair,
                below_b: frozenset[int],
                above_b: frozenset[int]) -> list[LocalType]:
    keep = []
    for t in types:
        tp = (best_true(t.order, above_b), best_true(t.order, below_b))
        if tp == pair:
            keep.append(t)
    return keep


def population_truth(types_plus: Sequence[LocalType],
                     types_minus: Sequence[LocalType],
                     cutoff_values: Mapping[int, float], school: int,
                     pair: Pair) -> float:
    """Exact outcome jump at the cutoff for the true-``pair`` subgroup.

    Each side averages the attended-school outcome means of the types whose
    true local pair matches, weighted by mass.
    """
    below_b, above_b = side_budgets(cutoff_values, school)

    def side_mean(types: Sequence[LocalType], budget: frozenset[int]) -> float:
        sel = _pair_types(types, pair, below_b, above_b)
        if not sel:
            raise PopulationError(f"no mass with true pair {pair}")
        tot = sum(t.mass for t in sel)
        acc = sum(t.mass * _mean_outcome(t, _attended(t, budget)) for t in sel)
        return acc / tot

    return side_mean(types_plus, above_b) - side_mean(types_minus, below_b)


def population_pair_share(types: Sequence[LocalType],
                          cutoff_values: Mapping[int, float], school: int,
                          pair: Pair) -> float:
    """Mass share of one side whose true local pair is ``pair``."""
    below_b, above_b = side_budgets(cutoff_values, school)
    tot = sum(t.mass for t in types)
    if tot <= 0.0:
        raise PopulationError("design has no mass")
    sel = _pair_types(types, pair, below_b, above_b)
    return sum(t.mass for t in sel) / tot
