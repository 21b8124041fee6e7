"""Deferred acceptance, the serial-dictatorship fast path, and the audits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoffbounds import (
    DGPConfig,
    Economy,
    EconomyTruth,
    audit_cutoff_characterization,
    audit_stability_wrt_reports,
    extract_cutoffs,
    generate_economy,
    run_da,
    run_sd,
)
from cutoffbounds.mechanism import MechanismError

from oracles import all_stable_matchings, sequential_da, student_optimal
from strategies import dgp_dicts


def test_da_fixed_example(build_sd_economy):
    # two seats at school 1, one at school 2; scores force the ordering
    eco = build_sd_economy(
        scores=[90.0, 80.0, 70.0, 60.0],
        reports=[(1, 2), (1, 2), (1, 2), (2, 1)],
        capacities=[2, 1])
    m = run_da(eco)
    assert m.assignment == (1, 1, 2, 0)
    assert m.fills == (2, 1)
    assert m.assigned_to(1) == (0, 1)


def test_da_displacement_chain(build_sd_economy):
    # a late high scorer bumps an early one, who cascades down the list
    eco = build_sd_economy(
        scores=[50.0, 60.0, 70.0],
        reports=[(1, 2), (1, 2), (1,)],
        capacities=[1, 1])
    m = run_da(eco)
    assert m.assignment == (0, 2, 1)


def test_da_breaks_score_ties_by_student_position(build_sd_economy):
    # students 0 and 1 tie at school 1; 1 holds the seat until 0, bumped
    # from school 2 by student 2, arrives: the lower position wins, not
    # the student who came first
    eco = build_sd_economy(
        scores=[80.0, 80.0, 90.0],
        reports=[(2, 1), (1,), (2,)],
        capacities=[1, 1])
    m = run_da(eco)
    assert m.assignment == (1, 0, 2)
    assert audit_stability_wrt_reports(m, eco) == []
    # the rejected student clears the lowest admitted score: at a tie the
    # cutoff no longer separates admitted from rejected students
    cuts = extract_cutoffs(m, eco)
    assert cuts.cutoff(1) == 80.0
    assert [(v.student, v.school)
            for v in audit_cutoff_characterization(m, eco, cuts)] == [(1, 1)]


def test_da_requires_reports():
    eco = generate_economy(DGPConfig(n_students=5, seed=0))
    bare = Economy(
        n_schools=eco.n_schools, list_cap=eco.list_cap,
        capacities=eco.capacities, score_groups=eco.score_groups,
        score_cols=eco.score_cols)
    with pytest.raises(MechanismError):
        run_da(bare)


def test_da_is_student_optimal_by_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        n_schools = int(rng.integers(1, 4))
        cfg = DGPConfig(
            n_students=n, n_schools=n_schools,
            list_cap=min(2, n_schools),
            capacities=tuple(int(q) for q in rng.integers(0, 3, n_schools)),
            score_mode="independent", seed=1000 + trial)
        eco = generate_economy(cfg)
        m = run_da(eco)
        assert audit_stability_wrt_reports(m, eco) == []
        opt = student_optimal(eco)
        assert opt is not None
        assert m.assignment == opt


def test_da_matches_one_proposal_at_a_time():
    for seed in range(20):
        eco = generate_economy(DGPConfig(
            n_students=40, n_schools=5, score_mode="correlated",
            seed=200 + seed))
        assert run_da(eco).assignment == sequential_da(eco)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_da_is_one_proposal_at_a_time_stable_and_cutoff_characterized(data):
    raw = data.draw(dgp_dicts(max_students=200, max_schools=6))
    raw["capacities"] = data.draw(st.lists(
        st.integers(0, raw["n_students"] + 1),
        min_size=raw["n_schools"], max_size=raw["n_schools"]))
    eco = generate_economy(DGPConfig.from_dict(raw))
    m = run_da(eco)
    assert m.assignment == sequential_da(eco)
    assert audit_stability_wrt_reports(m, eco) == []
    assert audit_cutoff_characterization(m, eco, extract_cutoffs(m, eco)) == []


def test_sd_equals_da_on_shared_score():
    for seed in range(25):
        eco = generate_economy(DGPConfig(
            n_students=80, n_schools=4, score_mode="sd", seed=300 + seed))
        assert run_sd(eco).assignment == run_da(eco).assignment


def test_sd_refuses_distinct_score_columns():
    eco = generate_economy(DGPConfig(
        n_students=10, n_schools=3, score_mode="independent", seed=1))
    with pytest.raises(MechanismError):
        run_sd(eco)


def test_cutoff_extraction_cases(build_sd_economy):
    eco = build_sd_economy(
        scores=[90.0, 80.0, 70.0],
        reports=[(1,), (1,), (2,)],
        capacities=[2, 5, 0])
    m = run_da(eco)
    cuts = extract_cutoffs(m, eco)
    assert cuts.cutoff(1) == 80.0               # full: lowest admitted score
    assert cuts.cutoff(2) == eco.score_floor()  # seats left over
    assert cuts.cutoff(2) == 69.0
    assert cuts.cutoff(3) == float("inf")       # no seats at all
    assert cuts.floor == 69.0


def test_audits_pass_on_generated_economies():
    for seed in range(10):
        eco = generate_economy(DGPConfig(
            n_students=120, n_schools=4, score_mode="correlated",
            seed=400 + seed))
        m = run_da(eco)
        cuts = extract_cutoffs(m, eco)
        assert audit_stability_wrt_reports(m, eco) == []
        assert audit_cutoff_characterization(m, eco, cuts) == []


def test_audits_flag_a_corrupted_matching(build_sd_economy):
    eco = build_sd_economy(
        scores=[90.0, 80.0, 70.0, 60.0],
        reports=[(1, 2), (1, 2), (1, 2), (2, 1)],
        capacities=[2, 1])
    m = run_da(eco)
    # swap the school-1 losers: the displaced student now has justified envy
    bad = type(m)(assignment=(1, 2, 1, 0), fills=m.fills)
    kinds = {v.kind for v in audit_stability_wrt_reports(bad, eco)}
    assert "justified_envy" in kinds
    cuts = extract_cutoffs(m, eco)
    assert audit_cutoff_characterization(bad, eco, cuts) != []


def test_truth_audit_flags_strategic_distortion():
    # student 0 prefers school 1 but only lists 2; the reports audit is
    # clean while the truth audit catches the self-inflicted mismatch
    truth = EconomyTruth(
        pref_orders=np.array([[1, 2, 0], [1, 0, 2]]),
        potential=np.zeros((2, 3)))
    eco = Economy(
        n_schools=2, list_cap=2, capacities=(1, 1), score_groups=(0, 0),
        score_cols=np.array([[90.0], [80.0]]),
        reports=((2,), (1,)), truth=truth)
    m = run_da(eco)
    assert m.assignment == (2, 1)
    cuts = extract_cutoffs(m, eco)
    assert audit_cutoff_characterization(m, eco, cuts, wrt="reports") == []
    distorted = audit_cutoff_characterization(m, eco, cuts, wrt="truth")
    assert [(v.student, v.school) for v in distorted] == [(0, 1)]


def test_zero_capacity_school_admits_nobody(build_sd_economy):
    eco = build_sd_economy(
        scores=[90.0, 80.0],
        reports=[(1, 2), (1, 2)],
        capacities=[0, 2])
    m = run_da(eco)
    assert m.assignment == (2, 2)
    assert m.fills == (0, 2)
