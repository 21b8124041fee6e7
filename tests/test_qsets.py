"""Candidate-set construction, regimes, and access-containment deductions."""

from __future__ import annotations

import numpy as np
import pytest

from cutoffbounds import (
    EMPTY_UMAS,
    REGIMES,
    Regime,
    StaleUmasError,
    UmasRelation,
    build_qset,
    collect_local_obs,
    detect_umas,
    qset_for_student,
    regime_from_label,
    select_local_sample,
)
from cutoffbounds.qsets import QsetError

from oracles import brute_force_qset

WPO = regime_from_label("wpo")
SPO = regime_from_label("spo")
WPO_U = regime_from_label("wpo+umas")
SPO_U = regime_from_label("spo+umas")

# showcase geometry: schools 1..4, school 4 studied, everything else
# (including the floor schools 1 and 3) stays affordable on both sides
B_MINUS = frozenset({0, 1, 2, 3})
B_PLUS = frozenset({0, 1, 2, 3, 4})


def test_regime_labels_round_trip():
    assert [r.label for r in REGIMES] == ["wpo", "wpo+umas", "spo", "spo+umas"]
    for r in REGIMES:
        assert regime_from_label(r.label) == r
    with pytest.raises(QsetError):
        regime_from_label("tpo")


def test_reported_pair_is_always_a_member():
    for report in [(4, 2, 1), (2, 1, 3), (4,), (2,)]:
        for above in (True, False):
            for regime in REGIMES:
                q = build_qset(report, B_MINUS, B_PLUS, above, 3, regime,
                               umas=EMPTY_UMAS if regime.umas else None)
                a = next((j for j in report if j in B_PLUS), 0)
                b = next((j for j in report if j in B_MINUS), 0)
                assert (a, b) in q


def test_above_side_adds_unlisted_fallbacks():
    q = build_qset((4, 2, 1), B_MINUS, B_PLUS, True, 3, WPO)
    assert q == frozenset({(4, 2), (4, 3)})


def test_below_side_adds_unlisted_reaches():
    # the list never mentions school 4, so the above-side coordinate is free
    q = build_qset((2, 1, 3), B_MINUS, B_PLUS, False, 3, WPO)
    assert q == frozenset({(2, 2), (4, 2)})


def test_below_side_with_the_school_listed():
    q = build_qset((4, 2, 1), B_MINUS, B_PLUS, False, 3, WPO)
    assert q == frozenset({(4, 2)})       # both coordinates already pinned


def test_short_list_is_exhaustive_under_strong_orders():
    report = (4, 2)
    assert build_qset(report, B_MINUS, B_PLUS, True, 3, SPO) == \
        frozenset({(4, 2)})
    assert build_qset(report, B_MINUS, B_PLUS, True, 3, WPO) == \
        frozenset({(4, 2), (4, 1), (4, 3)})


def test_access_deductions_prune_candidates():
    rel = UmasRelation(frozenset({(2, 3), (2, 1)}), fingerprint="t")
    q = build_qset((4, 2, 1), B_MINUS, B_PLUS, True, 3, WPO_U, umas=rel)
    assert q == frozenset({(4, 2)})       # listing 2 rules out truly-wanting 3
    # a deduction anchored strictly above the pivot does not bite
    rel2 = UmasRelation(frozenset({(4, 3)}), fingerprint="t")
    q2 = build_qset((4, 2, 1), B_MINUS, B_PLUS, True, 3, WPO_U, umas=rel2)
    assert q2 == frozenset({(4, 2), (4, 3)})


def test_anchor_survives_any_relation():
    # every school pair related: each unlisted candidate dies, the anchor stays
    heavy = UmasRelation(
        frozenset({(d, e) for d in range(1, 5) for e in range(1, 5) if d != e}),
        fingerprint="t")
    for report, above, anchor in (((4, 2, 1), True, (4, 2)),
                                  ((2, 1, 3), False, (2, 2))):
        for regime in (WPO_U, SPO_U):
            q = build_qset(report, B_MINUS, B_PLUS, above, 3, regime,
                           umas=heavy)
            assert q == frozenset({anchor})


def test_detect_umas_golden(golden):
    rel = detect_umas(golden.economy, golden.cutoffs)
    assert sorted(rel.pairs) == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    assert rel.fingerprint == golden.cutoffs.fingerprint()


def test_stale_relation_is_rejected(golden):
    eco, cuts = golden.economy, golden.cutoffs
    stale = UmasRelation(frozenset({(4, 2)}), fingerprint=("other",))
    with pytest.raises(StaleUmasError):
        qset_for_student(eco, cuts, 0, 4, SPO_U, umas=stale)
    with pytest.raises(QsetError):
        qset_for_student(eco, cuts, 0, 4, SPO_U, umas=None)
    window = select_local_sample(eco, cuts, 4, golden.bandwidth)
    with pytest.raises(StaleUmasError):
        collect_local_obs(eco, cuts, window, SPO_U, umas=stale)
    with pytest.raises(QsetError):
        collect_local_obs(eco, cuts, window, SPO_U, umas=None)


def test_qsets_for_golden_window_students(golden):
    eco, cuts = golden.economy, golden.cutoffs
    rel = detect_umas(eco, cuts)
    scores = eco.score_cols[:, 0]

    def at(score, regime):
        i = int(np.nonzero(scores == score)[0][0])
        return qset_for_student(eco, cuts, i, 4, regime,
                                umas=rel if regime.umas else None)

    assert at(809.0, WPO) == frozenset({(4, 2), (4, 1)})
    assert at(809.0, SPO_U) == frozenset({(4, 2)})
    assert at(806.0, WPO) == frozenset({(4, 3), (4, 1)})
    assert at(806.0, SPO_U) == frozenset({(4, 3)})
    # listing every cheaper school leaves genuine two-way ambiguity
    assert at(800.0, WPO) == frozenset({(4, 2), (4, 3)})
    assert at(800.0, SPO_U) == frozenset({(4, 2), (4, 3)})


def test_single_school_margin():
    q = build_qset((1,), frozenset({0}), frozenset({0, 1}), True, 1, SPO)
    assert q == frozenset({(1, 0)})
    q = build_qset((1,), frozenset({0}), frozenset({0, 1}), False, 1, WPO)
    assert q == frozenset({(1, 0)})


def test_regime_nesting_and_refinement_random_configs():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        n_schools = int(rng.integers(2, 6))
        cap = int(rng.integers(1, min(3, n_schools) + 1))
        length = int(rng.integers(1, cap + 1))
        report = tuple(int(j) for j in
                       rng.choice(np.arange(1, n_schools + 1), size=length,
                                  replace=False))
        lo = {0} | {int(j) for j in np.arange(1, n_schools + 1)
                    if rng.random() < 0.5}
        hi = lo | {int(j) for j in np.arange(1, n_schools + 1)
                   if rng.random() < 0.5}
        below, above_b = frozenset(lo), frozenset(hi)
        cutvals = rng.integers(0, 4, n_schools)
        rel = UmasRelation(
            frozenset((d, e) for d in range(1, n_schools + 1)
                      for e in range(1, n_schools + 1)
                      if cutvals[d - 1] > cutvals[e - 1]),
            fingerprint="t")
        for above in (True, False):
            wpo = build_qset(report, below, above_b, above, cap, WPO)
            spo = build_qset(report, below, above_b, above, cap, SPO)
            wpo_u = build_qset(report, below, above_b, above, cap, WPO_U,
                               umas=rel)
            spo_u = build_qset(report, below, above_b, above, cap, SPO_U,
                               umas=rel)
            assert spo <= wpo and wpo_u <= wpo and spo_u <= spo


def test_matches_order_enumeration_with_twin_gaps():
    # budget sets here can differ by several schools at once, the geometry
    # that twin cutoffs produce; the enumeration oracle covers it directly
    rng = np.random.default_rng(9090)
    for _ in range(120):
        n_schools = int(rng.integers(2, 5))
        cap = int(rng.integers(1, min(3, n_schools) + 1))
        length = int(rng.integers(1, cap + 1))
        report = tuple(int(j) for j in
                       rng.choice(np.arange(1, n_schools + 1), size=length,
                                  replace=False))
        lo = {0} | {int(j) for j in np.arange(1, n_schools + 1)
                    if rng.random() < 0.4}
        hi = lo | {int(j) for j in np.arange(1, n_schools + 1)
                   if rng.random() < 0.6}
        below, above_b = frozenset(lo), frozenset(hi)
        cutvals = rng.integers(0, 3, n_schools)
        pairs = frozenset((d, e) for d in range(1, n_schools + 1)
                          for e in range(1, n_schools + 1)
                          if cutvals[d - 1] > cutvals[e - 1])
        rel = UmasRelation(pairs, fingerprint="t")
        for above in (True, False):
            for regime in REGIMES:
                got = build_qset(report, below, above_b, above, cap, regime,
                                 umas=rel if regime.umas else None)
                want = brute_force_qset(
                    report, below, above_b, above, cap, n_schools, regime,
                    pairs if regime.umas else frozenset())
                assert got == want, (report, below, above_b, above,
                                     regime.label)
