"""Exact mass-point populations and their identified objects."""

from __future__ import annotations

import pytest

from cutoffbounds import (
    REGIMES,
    build_polytope,
    containment_stats,
    delta_bounds,
)
from cutoffbounds.bounds import (
    effect_bounds,
    hm_side_bounds,
    naive_rd,
    pair_subpop,
    sharp_bounds_finite,
)
from cutoffbounds.population import (
    LocalType,
    PopulationError,
    build_local_obs,
    population_pair_share,
    population_truth,
    side_budgets,
    umas_from_cutoffs,
)

CUTS = {1: -1.0, 2: 300.0, 3: -1.0, 4: 800.0}
PAIR = (4, 2)


def test_side_budgets():
    below, above = side_budgets(CUTS, 4)
    assert below == frozenset({0, 1, 2, 3})
    assert above == frozenset({0, 1, 2, 3, 4})
    below2, above2 = side_budgets(CUTS, 2)
    assert below2 == frozenset({0, 1, 3})
    assert above2 == frozenset({0, 1, 2, 3})
    with pytest.raises(PopulationError):
        side_budgets(CUTS, 9)
    with pytest.raises(PopulationError):
        side_budgets({1: float("inf")}, 1)


def test_umas_from_cutoffs():
    rel = umas_from_cutoffs(CUTS)
    assert sorted(rel.pairs) == [(2, 1), (2, 3), (4, 1), (4, 2), (4, 3)]
    # equal cutoffs (schools 1 and 3) generate no pair either way
    assert (1, 3) not in rel.pairs and (3, 1) not in rel.pairs


def test_local_type_validation():
    with pytest.raises(PopulationError):
        LocalType(mass=0.0, report=(1,), order=(1, 0))
    with pytest.raises(PopulationError):
        LocalType(mass=0.5, report=(1,), order=(1, 2))    # outside missing
    with pytest.raises(PopulationError):
        LocalType(mass=0.5, report=(1, 1), order=(1, 0))


def test_binary_types_split_into_atoms():
    t = LocalType(mass=0.5, report=(2,), order=(2, 0, 1, 3, 4),
                  outcomes={2: 0.8}, label="t")
    obs = build_local_obs([t], "plus", CUTS, 2, 3, REGIMES[0])
    assert {(o.y, round(o.weight, 12)) for o in obs} == {(1.0, 0.4), (0.0, 0.1)}
    # a certain outcome drops its zero-mass atom
    sure = LocalType(mass=0.5, report=(2,), order=(2, 0, 1, 3, 4),
                     outcomes={2: 1.0})
    obs = build_local_obs([sure], "plus", CUTS, 2, 3, REGIMES[0])
    assert [(o.y, o.weight) for o in obs] == [(1.0, 0.5)]


def test_missing_outcome_is_an_error():
    t = LocalType(mass=1.0, report=(4, 2), order=(4, 2, 0, 1, 3),
                  outcomes={4: 0.5})
    with pytest.raises(PopulationError):
        build_local_obs([t], "minus", CUTS, 4, 3, REGIMES[0])  # attends 2


def test_probability_range_checked():
    t = LocalType(mass=1.0, report=(2,), order=(2, 0, 1, 3, 4),
                  outcomes={2: 1.2})
    with pytest.raises(PopulationError):
        build_local_obs([t], "plus", CUTS, 2, 3, REGIMES[0])


def test_showcase_qset_masses(showcase):
    cv = showcase.population_cutoffs()
    assert cv == CUTS
    tp = showcase.population_types("plus")
    tm = showcase.population_types("minus")

    def masses(types, side, regime):
        obs = build_local_obs(types, side, cv, showcase.school,
                              showcase.list_cap, regime)
        acc = {}
        for o in obs:
            acc[o.qset] = acc.get(o.qset, 0.0) + o.weight
        return {tuple(sorted(k)): round(v, 12) for k, v in acc.items()}

    wpo, wpo_u = REGIMES[0], REGIMES[1]
    assert masses(tp, "plus", wpo) == {((2, 2),): 0.2,
                                       ((4, 2), (4, 3)): 0.8}
    assert masses(tp, "plus", wpo_u) == {((2, 2),): 0.2, ((4, 2),): 0.8}
    assert masses(tm, "minus", wpo) == {((2, 2), (4, 2)): 0.6,
                                        ((4, 2),): 0.4}
    assert masses(tm, "minus", wpo_u) == masses(tm, "minus", wpo)


def test_showcase_truth_and_shares(showcase):
    cv = showcase.population_cutoffs()
    tp = showcase.population_types("plus")
    tm = showcase.population_types("minus")
    assert population_truth(tp, tm, cv, showcase.school, PAIR) == \
        pytest.approx(0.375)
    assert population_pair_share(tp, cv, showcase.school, PAIR) == \
        pytest.approx(0.8)
    assert population_pair_share(tm, cv, showcase.school, PAIR) == \
        pytest.approx(0.8)
    with pytest.raises(PopulationError):
        population_truth(tp, tm, cv, showcase.school, (1, 1))


def test_showcase_bounds_cover_under_every_regime(showcase):
    cv = showcase.population_cutoffs()
    tp = showcase.population_types("plus")
    tm = showcase.population_types("minus")
    truth = population_truth(tp, tm, cv, showcase.school, PAIR)
    for regime in REGIMES:
        op = build_local_obs(tp, "plus", cv, showcase.school,
                             showcase.list_cap, regime)
        om = build_local_obs(tm, "minus", cv, showcase.school,
                             showcase.list_cap, regime)
        sp = containment_stats(op, "plus")
        sm = containment_stats(om, "minus")
        db = delta_bounds(build_polytope(sp, sm), PAIR, op, om)
        assert db.p_lower == pytest.approx(0.8)
        assert db.p_upper == pytest.approx(0.8)
        assert db.delta_plus == pytest.approx(1.0)
        assert db.delta_minus == pytest.approx(0.8)
        hm = effect_bounds(
            hm_side_bounds(pair_subpop(op, PAIR), db.delta_plus),
            hm_side_bounds(pair_subpop(om, PAIR), db.delta_minus))
        assert (hm.lower, hm.upper) == pytest.approx((0.175, 0.425))
        sharp = sharp_bounds_finite(op, om, sp, sm, PAIR)
        assert (sharp.lower, sharp.upper) == pytest.approx((0.175, 0.4))
        assert hm.contains(truth) and sharp.contains(truth)
        assert hm.lower - 1e-12 <= sharp.lower
        assert sharp.upper <= hm.upper + 1e-12


def test_showcase_naive_contrast_is_biased_low(showcase):
    cv = showcase.population_cutoffs()
    op = build_local_obs(showcase.population_types("plus"), "plus", cv,
                         showcase.school, showcase.list_cap, REGIMES[0])
    om = build_local_obs(showcase.population_types("minus"), "minus", cv,
                         showcase.school, showcase.list_cap, REGIMES[0])
    naive = naive_rd(op, om, PAIR)
    assert naive == pytest.approx(0.1)
    assert naive < 0.175                 # strictly outside every bound above
