"""Packaged instances, mixture designs, and cohort sampling."""

from __future__ import annotations

import numpy as np
import pytest

from cutoffbounds import run_da, run_sd
from cutoffbounds.economy import is_strong_truthful_order, is_weak_truthful_order
from cutoffbounds.mechanism import extract_cutoffs
from cutoffbounds.presets import (
    MixtureDesign,
    MixtureType,
    PresetError,
    _hundredths,
    _type_consistent,
    anchored_mixture_design,
    random_mixture_design,
    sample_economy,
    strategic_showcase_design,
)


def test_golden_instance_shape(golden):
    eco = golden.economy
    assert golden.name == "golden-sd"
    assert eco.n_students == 28
    assert eco.capacities == (5, 5, 5, 10)
    assert eco.list_cap == 3
    assert golden.cutoffs.values == (200.0, 400.0, 600.0, 800.0)
    assert (golden.school, golden.fallback) == (4, 2)
    assert golden.bandwidth == 30.0 and golden.min_local_n == 5
    # the matching stored on the instance is the mechanism's own output
    assert run_sd(eco).assignment == golden.matching.assignment
    assert run_da(eco).assignment == golden.matching.assignment
    assert extract_cutoffs(golden.matching, eco).values == \
        golden.cutoffs.values


def test_golden_outcomes_are_top_choice_indicators(golden):
    eco = golden.economy
    for i in range(eco.n_students):
        top = int(eco.truth.pref_orders[i][0])
        want = 1.0 if golden.matching.assignment[i] == top else 0.0
        assert eco.y_observed[i] == want


def test_rigged_instance_shape(rigged):
    eco = rigged.economy
    assert rigged.name == "rigged-wpo"
    assert eco.n_students == 25
    assert eco.capacities == (0, 14, 0, 6)
    assert rigged.cutoffs.values == (float("inf"), 300.0, float("inf"), 800.0)
    # the rig places truthful-looking lists around school 4 only
    assert (rigged.school, rigged.fallback) == (4, 2)


def test_rigged_lists_cannot_all_be_truthful(rigged):
    # students at 780..784 rank school 3 above 2 while their neighbors at
    # 800..805 do the reverse: under one shared score both sides of the
    # cutoff cannot be weak-truthful selections from orders that also
    # match their assignments; the construction plants the contradiction
    eco = rigged.economy
    reports = {eco.reports[i] for i in range(eco.n_students)}
    assert (4, 3) in reports and (4, 2) in reports


def test_showcase_design_shape(showcase):
    assert showcase.n_schools == 4
    assert showcase.list_cap == 3
    assert showcase.cutoff_targets == (None, 300.0, None, 800.0)
    assert (showcase.school, showcase.fallback) == (4, 2)
    assert sum(t.mass for t in showcase.types) == pytest.approx(1.0)
    labels = [t.label for t in showcase.types]
    assert labels == ["A1", "A2", "B"]


def test_mixture_type_side_dependent_report(showcase):
    a1, a2, _ = showcase.types
    assert a1.report_for(True) == a1.report_for(False) == (4, 2, 1)
    assert a2.report_for(True) == (4, 2, 1)
    assert a2.report_for(False) == (2, 1, 3)


def test_design_validation():
    t = MixtureType(mass=1.0, order=(1, 2, 0, 3), report=(1, 2),
                    probs=(0.1, 0.5, 0.5, 0.5))
    MixtureDesign(name="ok", n_schools=3, list_cap=2,
                  cutoff_targets=(500.0, None, None), types=(t,),
                  school=1, fallback=2)
    with pytest.raises(PresetError):
        MixtureDesign(name="bad-mass", n_schools=3, list_cap=2,
                      cutoff_targets=(500.0, None, None),
                      types=(MixtureType(mass=0.5, order=(1, 2, 0, 3),
                                         report=(1, 2),
                                         probs=(0.1, 0.5, 0.5, 0.5)),),
                      school=1, fallback=2)
    with pytest.raises(PresetError):
        MixtureDesign(name="bad-target", n_schools=3, list_cap=2,
                      cutoff_targets=(None, None, None), types=(t,),
                      school=1, fallback=2)


def test_type_listing_a_harder_school_over_a_preferred_easier_one_is_rejected():
    # school 1 (cutoff 500) is harder to enter than school 2 (cutoff 300):
    # listing 1 but not 2 reveals 1 is preferred, so an order putting 2
    # first is inconsistent even though the list is strong-truthful
    def design(order):
        t = MixtureType(mass=1.0, order=order, report=(1,),
                        probs=(0.1, 0.5, 0.5, 0.5))
        return t, MixtureDesign(name="umas", n_schools=3, list_cap=1,
                                cutoff_targets=(500.0, 300.0, None),
                                types=(t,), school=1, fallback=2)

    t, prefers_easier = design((2, 1, 0, 3))
    assert is_strong_truthful_order(t.report, t.order, 1)
    assert not _type_consistent(t, prefers_easier)
    t, prefers_listed = design((1, 2, 0, 3))
    assert _type_consistent(t, prefers_listed)


def test_population_cutoffs_floor_for_untargeted(showcase):
    cv = showcase.population_cutoffs()
    assert cv[2] == 300.0 and cv[4] == 800.0
    assert cv[1] == cv[3] == showcase.floor_value()
    assert cv[1] < 0.0                      # below the score support


def test_sampling_reproduces_intentions():
    design = strategic_showcase_design()
    inst = sample_economy(design, n=3000, seed=11)
    eco = inst.economy
    assert eco.n_students == 3000
    assert run_sd(eco).assignment == inst.matching.assignment
    # targeted cutoffs land just above their targets
    assert 300.0 <= inst.cutoffs.cutoff(2) <= 302.0
    assert 800.0 <= inst.cutoffs.cutoff(4) <= 803.0
    # untargeted schools never fill
    assert inst.cutoffs.cutoff(1) == inst.cutoffs.floor
    assert inst.cutoffs.cutoff(3) == inst.cutoffs.floor
    # everyone ends up at their intended school: nobody is displaced
    for i in range(eco.n_students):
        a = inst.matching.assignment[i]
        if a != 0:
            assert a in eco.reports[i]


def test_sampling_is_deterministic():
    design = strategic_showcase_design()
    a = sample_economy(design, n=500, seed=3)
    b = sample_economy(design, n=500, seed=3)
    assert np.array_equal(a.economy.score_cols, b.economy.score_cols)
    assert a.economy.reports == b.economy.reports
    assert a.matching.assignment == b.matching.assignment
    c = sample_economy(design, n=500, seed=4)
    assert not np.array_equal(a.economy.score_cols, c.economy.score_cols)


def test_random_designs_are_internally_consistent():
    for seed in range(40):
        design = random_mixture_design(seed)
        assert sum(t.mass for t in design.types) == pytest.approx(1.0)
        targets = [t for t in design.cutoff_targets if t is not None]
        assert design.cutoff_targets[design.school - 1] == max(targets)
        for t in design.types:
            k = design.list_cap
            assert is_weak_truthful_order(t.report, t.order, k)
            assert is_strong_truthful_order(t.report, t.order, k)
            if t.report_below is not None:
                assert is_strong_truthful_order(t.report_below, t.order, k)
                assert design.school not in t.report_below
                assert design.school in t.report


def test_random_design_determinism():
    a = random_mixture_design(7)
    b = random_mixture_design(7)
    assert a.types == b.types and a.cutoff_targets == b.cutoff_targets


def test_anchored_designs_put_studied_school_first_everywhere():
    for seed in range(30):
        design = anchored_mixture_design(seed)
        assert sum(t.mass for t in design.types) == pytest.approx(1.0)
        assert design.cutoff_targets[design.school - 1] is not None
        untargeted = [c for m, c in enumerate(design.cutoff_targets, start=1)
                      if m != design.school]
        assert untargeted == [None] * (design.n_schools - 1)
        assert design.fallback == design.types[0].report[1]
        for t in design.types:
            assert t.report[0] == design.school
            assert t.report_below is None
            assert is_weak_truthful_order(t.report, t.order, design.list_cap)
            assert is_strong_truthful_order(t.report, t.order, design.list_cap)
        two_listed = {t.report[1] for t in design.types if len(t.report) == 2}
        assert len(two_listed) == 3          # three distinct fallback schools


def test_anchored_design_determinism_and_variation():
    assert anchored_mixture_design(3) == anchored_mixture_design(3)
    schools = {anchored_mixture_design(s).school for s in range(12)}
    assert len(schools) > 1


def test_hundredths_rounding():
    got = _hundredths(np.array([1.0, 1.0, 1.0]))
    assert sum(got) == pytest.approx(1.0)
    assert all(round(v * 100) == pytest.approx(v * 100) for v in got)
    assert min(got) > 0.0
    exact = _hundredths(np.array([0.25, 0.75]))
    assert exact == [0.25, 0.75]
    tiny = _hundredths(np.array([1000.0, 1.0]))
    assert min(tiny) >= 0.01                # nothing rounds away to zero
    assert sum(tiny) == pytest.approx(1.0)
