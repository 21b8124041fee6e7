"""Generator, validators, and reporting models."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from cutoffbounds import (
    DGPConfig,
    Economy,
    EconomyError,
    EconomyTruth,
    OutcomeModel,
    ReportingModel,
    generate_economy,
    generate_reports,
    observe_outcomes,
)
from cutoffbounds.economy import (
    is_strong_truthful_order,
    is_weak_truthful_order,
    validate_report,
)
from cutoffbounds.io import write_economy
from cutoffbounds.mechanism import run_da
from oracles import reference_economy, reference_write_economy
from strategies import dgp_dicts


def test_generation_is_deterministic():
    cfg = DGPConfig(n_students=200, n_schools=4, seed=11)
    a = generate_economy(cfg)
    b = generate_economy(cfg)
    assert np.array_equal(a.score_cols, b.score_cols)
    assert a.reports == b.reports
    assert np.array_equal(a.truth.potential, b.truth.potential)
    assert np.array_equal(a.truth.pref_orders, b.truth.pref_orders)


def test_seed_changes_the_draw():
    a = generate_economy(DGPConfig(n_students=50, seed=1))
    b = generate_economy(DGPConfig(n_students=50, seed=2))
    assert not np.array_equal(a.score_cols, b.score_cols)


def test_validate_report_rejects_bad_lists():
    with pytest.raises(EconomyError):
        validate_report((), 4, 3)
    with pytest.raises(EconomyError):
        validate_report((1, 2, 3, 4), 4, 3)     # over the cap
    with pytest.raises(EconomyError):
        validate_report((2, 2), 4, 3)           # duplicate
    with pytest.raises(EconomyError):
        validate_report((5,), 4, 3)             # unknown school
    validate_report((3, 1), 4, 3)


def test_truthful_order_checks_on_fixed_order():
    # true order: 3 best, then 1, then outside; 2 is unacceptable
    order = (3, 1, 0, 2)
    assert is_weak_truthful_order((3,), order, 2)
    assert is_weak_truthful_order((1,), order, 2)
    assert is_weak_truthful_order((3, 1), order, 2)
    assert not is_weak_truthful_order((1, 3), order, 2)   # order broken
    assert not is_weak_truthful_order((2,), order, 2)     # unacceptable listed
    assert not is_weak_truthful_order((3, 1), order, 1)   # over the cap

    assert is_strong_truthful_order((3, 1), order, 2)
    assert not is_strong_truthful_order((3,), order, 2)   # short of the cap
    assert is_strong_truthful_order((3,), order, 1)


def test_truth_topk_reports_are_strong_truthful():
    eco = generate_economy(DGPConfig(n_students=150, n_schools=5, seed=3))
    for i, rol in enumerate(eco.reports):
        order = tuple(int(d) for d in eco.truth.pref_orders[i])
        assert is_strong_truthful_order(rol, order, eco.list_cap)


def test_belief_skip_reports_are_weak_truthful():
    cfg = DGPConfig(
        n_students=300, n_schools=5, seed=4,
        reporting=ReportingModel(model="belief_skip", noise_sd=30.0))
    eco = generate_economy(cfg)
    assert eco.beliefs is not None
    n_short = 0
    for i, rol in enumerate(eco.reports):
        order = tuple(int(d) for d in eco.truth.pref_orders[i])
        assert is_weak_truthful_order(rol, order, eco.list_cap)
        if not is_strong_truthful_order(rol, order, eco.list_cap):
            n_short += 1
    assert n_short > 0          # skipping must actually bite somewhere


def test_adversarial_reports_break_truthful_order_somewhere():
    cfg = DGPConfig(
        n_students=300, n_schools=4, seed=5,
        reporting=ReportingModel(model="adversarial", adversarial_school=4))
    eco = generate_economy(cfg)
    broken = 0
    for i, rol in enumerate(eco.reports):
        order = tuple(int(d) for d in eco.truth.pref_orders[i])
        if not is_weak_truthful_order(rol, order, eco.list_cap):
            broken += 1
    assert broken > 0


def test_everyone_has_an_acceptable_school():
    for seed in range(8):
        eco = generate_economy(DGPConfig(
            n_students=60, n_schools=3, seed=seed, outside_strength=5.0))
        for i in range(eco.n_students):
            assert len(eco.truth.acceptable(i)) >= 1


def test_acceptability_rewrites():
    eco = generate_economy(DGPConfig(n_students=40, n_schools=4, seed=6,
                                     all_acceptable=True))
    assert all(len(eco.truth.acceptable(i)) == 4 for i in range(40))
    eco = generate_economy(DGPConfig(n_students=40, n_schools=4, seed=6,
                                     max_acceptable=1))
    assert all(len(eco.truth.acceptable(i)) == 1 for i in range(40))


def test_score_modes_shape_and_grouping():
    sd = generate_economy(DGPConfig(n_students=30, n_schools=3, seed=7,
                                    score_mode="sd"))
    assert sd.score_cols.shape == (30, 1)
    assert sd.score_groups == (0, 0, 0)
    ind = generate_economy(DGPConfig(n_students=30, n_schools=3, seed=7,
                                     score_mode="independent"))
    assert ind.score_cols.shape == (30, 3)
    assert ind.score_groups == (0, 1, 2)
    cor = generate_economy(DGPConfig(n_students=400, n_schools=3, seed=7,
                                     score_mode="correlated", score_corr=0.9))
    r = np.corrcoef(cor.score_cols[:, 0], cor.score_cols[:, 1])[0, 1]
    assert r > 0.6


def test_binary_outcomes_are_zero_one():
    eco = generate_economy(DGPConfig(
        n_students=80, n_schools=3, seed=8,
        outcome=OutcomeModel(kind="binary", noise_sd=1.0)))
    assert set(np.unique(eco.truth.potential)) <= {0.0, 1.0}


def test_observe_outcomes_picks_the_assigned_column():
    orders = np.array([[1, 2, 0], [2, 1, 0]])
    potential = np.array([[0.1, 0.5, 0.9], [0.2, 0.6, 1.0]])
    eco = Economy(
        n_schools=2, list_cap=2, capacities=(1, 1), score_groups=(0, 0),
        score_cols=np.array([[10.0], [20.0]]),
        reports=((1,), (2,)),
        truth=EconomyTruth(pref_orders=orders, potential=potential))
    got = observe_outcomes(eco, [1, 0])
    assert got.y_observed.tolist() == [0.5, 0.2]
    with pytest.raises(EconomyError):
        observe_outcomes(eco, [1])


def test_generate_reports_requires_truth(build_sd_economy):
    eco = build_sd_economy([1.0, 2.0], [(1,), (1,)], [2])
    with pytest.raises(EconomyError):
        generate_reports(eco, ReportingModel())


def test_economy_validation():
    cols = np.array([[1.0], [2.0]])
    with pytest.raises(EconomyError):
        Economy(n_schools=0, list_cap=1, capacities=(),
                score_groups=(), score_cols=cols)
    with pytest.raises(EconomyError):
        Economy(n_schools=2, list_cap=1, capacities=(1,),
                score_groups=(0, 0), score_cols=cols)
    with pytest.raises(EconomyError):
        Economy(n_schools=1, list_cap=1, capacities=(-1,),
                score_groups=(0,), score_cols=cols)
    with pytest.raises(EconomyError):
        Economy(n_schools=1, list_cap=1, capacities=(1,),
                score_groups=(2,), score_cols=cols)
    with pytest.raises(EconomyError):
        Economy(n_schools=1, list_cap=1, capacities=(1,),
                score_groups=(0,), score_cols=cols,
                reports=((1, 1), (1,)))


def test_smallest_economy_works():
    eco = generate_economy(DGPConfig(n_students=1, n_schools=1, list_cap=1,
                                     capacities=(1,), seed=9))
    assert eco.n_students == 1
    assert eco.reports[0] == (1,)


def test_config_round_trip():
    raw = {"n_students": 123, "n_schools": 3, "capacities": [5, 6, 7],
           "score_mode": "correlated", "score_corr": 0.3,
           "outcome": {"kind": "binary", "school_effects": [0.0, 0.1, 0.2]},
           "reporting": {"model": "belief_skip", "noise_sd": 12.0},
           "seed": 77}
    assert DGPConfig.from_dict(raw) == DGPConfig(
        n_students=123, n_schools=3, capacities=(5, 6, 7),
        score_mode="correlated", score_corr=0.3,
        outcome=OutcomeModel(kind="binary", school_effects=(0.0, 0.1, 0.2)),
        reporting=ReportingModel(model="belief_skip", noise_sd=12.0),
        seed=77)


@settings(max_examples=100, deadline=None)
@given(dgp_dicts(max_students=400, max_schools=8))
# a full list that must make room for the best feasible school
@example({"n_students": 292, "n_schools": 3, "list_cap": 1, "seed": 460,
          "reporting": {"model": "belief_skip", "noise_sd": 12.75,
                        "margin": -0.37}})
def test_generated_cohorts_match_the_reference(raw):
    cfg = DGPConfig.from_dict(raw)
    got, want = generate_economy(cfg), reference_economy(cfg)
    assert got.reports == want.reports
    assert (got.beliefs is None) == (want.beliefs is None)
    if got.beliefs is not None:
        assert np.array_equal(got.beliefs, want.beliefs)
    with tempfile.TemporaryDirectory() as tmp:
        for eco, write, name in ((got, write_economy, "got"),
                                 (want, reference_write_economy, "want")):
            eco = observe_outcomes(eco, run_da(eco).assignment)
            write(Path(tmp) / name, eco)
        for f in ("students.csv", "rols.csv", "outcomes.csv", "truth.csv"):
            assert ((Path(tmp) / "got" / f).read_bytes()
                    == (Path(tmp) / "want" / f).read_bytes()), f
