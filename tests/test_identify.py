"""Connected-union rows, the distribution polytope, and falsification
checks."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutoffbounds import (
    ClosureCapError,
    FalsificationSignal,
    InfeasiblePolytopeError,
    LocalObs,
    build_polytope,
    collect_local_obs,
    connected_unions,
    containment_stats,
    delta_bounds,
    detect_umas,
    falsification_test,
    regime_from_label,
    select_local_sample,
    solve_bounds_on_event,
)
from cutoffbounds import identify
from cutoffbounds.bounds import sharp_bounds_finite
from cutoffbounds.identify import (
    DistPolytope,
    IdentifyError,
    default_partitions,
    event_prob,
    support_family,
)
from cutoffbounds.localpref import local_pair
from cutoffbounds.qsets import qset_for_student
from cutoffbounds.simplex import FEAS_TOL, LPResult, SimplexError

from oracles import (closure_event_rows, connected_subfamily_unions,
                     highs_event_bounds, union_closure)

SPO_U = regime_from_label("spo+umas")
WPO = regime_from_label("wpo")


def _obs(qset, y=0.0, w=1.0):
    return LocalObs(qset=frozenset(qset), y=y, weight=w)


def golden_stats(golden, regime=SPO_U):
    eco, cuts = golden.economy, golden.cutoffs
    loc = select_local_sample(eco, cuts, 4, golden.bandwidth)
    rel = detect_umas(eco, cuts)
    plus, minus = collect_local_obs(eco, cuts, loc, regime,
                                    umas=rel if regime.umas else None)
    return plus, minus


def test_connected_unions_skip_disjoint_unions_and_cap_a_star():
    singletons = [frozenset({(j, 0)}) for j in range(13)]
    assert set(connected_unions(singletons)) == set(singletons)
    # every set shares (0, 0): each of the 2^13 - 1 subfamilies is connected
    star = [frozenset({(0, 0), (j, 1)}) for j in range(13)]
    with pytest.raises(ClosureCapError, match="connected unions exceed cap"):
        connected_unions(star, cap=4096)
    assert len(connected_unions(star[:12], cap=4096)) == 4095


_PAIRS = st.tuples(st.integers(0, 3), st.integers(0, 3))
_MEMBERS = st.lists(st.frozensets(_PAIRS, min_size=1, max_size=5),
                    max_size=10)


@settings(max_examples=200, deadline=None)
@given(members=_MEMBERS, cap=st.integers(0, 80))
def test_connected_unions_are_the_connected_subfamily_unions(members, cap):
    unions = connected_subfamily_unions(members)
    if len(unions) > cap:
        with pytest.raises(ClosureCapError):
            connected_unions(members, cap=cap)
    else:
        rows = connected_unions(members, cap=cap)
        assert len(rows) == len(unions)
        assert set(rows) == unions


_SIDE = st.lists(st.tuples(st.frozensets(_PAIRS, min_size=1, max_size=4),
                           st.integers(1, 4)), max_size=7)


@settings(max_examples=100, deadline=None)
@given(plus=_SIDE, minus=_SIDE, event=st.frozensets(_PAIRS, min_size=1))
# a minus row that is a union of plus candidate sets, and a plus row that
# is a disconnected union of minus ones: each takes the other side's share
@example(plus=[({(0, 0)}, 1), ({(0, 1)}, 1)],
         minus=[({(1, 0)}, 1), ({(0, 0), (0, 1)}, 1)], event={(0, 0)})
@example(plus=[({(1, 0)}, 1), ({(0, 0), (0, 1), (0, 2), (1, 2)}, 1)],
         minus=[({(1, 2)}, 1), ({(0, 0), (0, 1), (0, 2)}, 1)],
         event={(0, 0)})
# sides pinned to different pairs: the support-atoms statistic reads 1.75
@example(plus=[({(1, 0)}, 3), ({(1, 0), (1, 1)}, 1)],
         minus=[({(1, 1)}, 1)], event={(1, 0)})
def test_connected_rows_keep_the_closure_polytope(plus, minus, event):
    plus = [_obs(q, w=float(w)) for q, w in plus]
    minus = [_obs(q, w=float(w)) for q, w in minus]
    if not (plus or minus):
        return
    sp = containment_stats(plus, "plus") if plus else None
    sm = containment_stats(minus, "minus") if minus else None
    poly = build_polytope(sp, sm)
    closure_rows = closure_event_rows([plus, minus])
    assert {a for a, _ in poly.rows} <= set(closure_rows)
    for a, bound in poly.rows:
        assert bound == pytest.approx(closure_rows[a], abs=1e-12)
    want = highs_event_bounds(closure_rows, event)
    got = highs_event_bounds(dict(poly.rows), event)
    assert (got is None) == (want is None)
    if want is not None:
        assert got == pytest.approx(want, abs=1e-9)
        assert solve_bounds_on_event(poly, event) == \
            pytest.approx(want, abs=1e-9)
    # the falsification statistics read the same cells off the closure
    rep = falsification_test(sp, sm, 3, pair=min(event))
    for (name, cells), check in zip(default_partitions(sp, sm, 3, min(event)),
                                    rep.checks):
        assert check.statistic == pytest.approx(
            sum(closure_rows.get(c, 0.0) for c in cells), abs=1e-12), name
        # a statistic above one already empties the polytope, so no
        # allowance on the statistic could change a status
        if check.statistic > 1 + 1e-6:
            assert want is None
            with pytest.raises(InfeasiblePolytopeError):
                solve_bounds_on_event(poly, event)


def test_falsification_counts_a_disconnected_union_cell():
    # the cell {(0,0), (0,1), (1,1)} is the union of two disjoint candidate
    # sets: it carries no connected row, yet holds every student
    plus = [_obs({(0, 0)}), _obs({(0, 1), (1, 1)}, w=3.0)]
    stats = containment_stats(plus, "plus")
    cell = frozenset({(0, 0), (0, 1), (1, 1)})
    assert cell not in stats.family.closure
    assert cell in union_closure(stats.family.members)
    rep = falsification_test(stats, None, 1, pair=(1, 0))
    by_name = {c.name: c.statistic for c in rep.checks}
    assert by_name == {"support-atoms": 0.25, "pair-1-0": 1.0}


def test_support_family_rejects_degenerate_input():
    with pytest.raises(IdentifyError):
        support_family([], "plus")
    with pytest.raises(IdentifyError):
        support_family([_obs(frozenset())], "plus")


def test_event_prob_weighted():
    obs = [_obs({(4, 2)}, w=1.0), _obs({(4, 3)}, w=3.0)]
    assert event_prob(obs, (4, 2)) == pytest.approx(0.25)
    assert event_prob(obs, (9, 9)) == 0.0
    with pytest.raises(IdentifyError):
        event_prob([], (4, 2))


def test_golden_containment_rows(golden):
    plus, minus = golden_stats(golden)
    assert minus == []
    stats = containment_stats(plus, "plus")
    assert stats.total == 10
    atom_a = frozenset({(4, 2)})
    atom_b = frozenset({(4, 3)})
    assert stats.prob(atom_a) == pytest.approx(0.1)
    assert stats.prob(atom_b) == pytest.approx(0.3)
    assert stats.prob(atom_a | atom_b) == pytest.approx(1.0)


def test_golden_event_bounds(golden):
    plus, _ = golden_stats(golden)
    poly = build_polytope(containment_stats(plus, "plus"), None)
    assert poly.atoms == ((4, 2), (4, 3))
    assert solve_bounds_on_event(poly, [(4, 2)]) == \
        pytest.approx((0.1, 0.7), abs=1e-12)
    assert solve_bounds_on_event(poly, [(4, 3)]) == \
        pytest.approx((0.3, 0.9), abs=1e-12)
    assert solve_bounds_on_event(poly, [(4, 2), (4, 3)]) == \
        pytest.approx((1.0, 1.0), abs=1e-12)
    # events outside the support draw only residual mass: never counted
    assert solve_bounds_on_event(poly, [(1, 1)]) == \
        pytest.approx((0.0, 0.0), abs=1e-12)


def test_golden_trimming_shares(golden):
    plus, _ = golden_stats(golden)
    poly = build_polytope(containment_stats(plus, "plus"), None)
    db = delta_bounds(poly, (4, 2), plus, None)
    assert db.p_lower == pytest.approx(0.1, abs=1e-12)
    assert db.p_upper == pytest.approx(0.7, abs=1e-12)
    assert db.denom_plus == pytest.approx(0.7, abs=1e-12)
    assert db.delta_plus == pytest.approx(1.0 / 7.0, abs=1e-12)
    assert db.denom_minus is None and db.delta_minus is None


def test_singleton_support_point_identifies():
    obs = [_obs({(4, 2)}) for _ in range(5)]
    poly = build_polytope(containment_stats(obs, "plus"), None)
    db = delta_bounds(poly, (4, 2), obs, None)
    assert (db.p_lower, db.p_upper) == (1.0, 1.0)
    assert db.delta_plus == 1.0


def test_zero_denominator_reported_as_zero():
    obs = [_obs({(4, 2)})]
    poly = build_polytope(containment_stats(obs, "plus"), None)
    db = delta_bounds(poly, (4, 2), obs, [_obs({(2, 2)})])
    assert db.denom_minus == 0.0
    assert db.delta_minus is None


def test_two_sided_rows_take_the_larger_bound():
    plus = containment_stats([_obs({(4, 2)}, w=3.0), _obs({(4, 2), (4, 3)})],
                             "plus")
    minus = containment_stats([_obs({(4, 2)})], "minus")
    poly = build_polytope(plus, minus)
    bound = dict(poly.rows)[frozenset({(4, 2)})]
    assert bound == pytest.approx(1.0)        # minus side is the sharper one


def test_contradictory_sides_are_infeasible():
    plus = containment_stats([_obs({(4, 2)})], "plus")
    minus = containment_stats([_obs({(4, 3)})], "minus")
    poly = build_polytope(plus, minus)
    with pytest.raises(InfeasiblePolytopeError):
        solve_bounds_on_event(poly, [(4, 2)])
    with pytest.raises(FalsificationSignal):
        solve_bounds_on_event(poly, [(4, 2)])


def test_falsification_consistent_side_passes(golden):
    plus, _ = golden_stats(golden)
    stats = containment_stats(plus, "plus")
    rep = falsification_test(stats, None, 4, (4, 2))
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["support-atoms"].statistic == pytest.approx(0.4)
    assert by_name["pair-4-2"].statistic == pytest.approx(0.1)


def test_falsification_catches_the_rigged_instance(rigged):
    eco, cuts = rigged.economy, rigged.cutoffs
    loc = select_local_sample(eco, cuts, 4, rigged.bandwidth)
    for label, want in (("wpo", 1.5), ("spo", 1.6)):
        regime = regime_from_label(label)
        plus, minus = collect_local_obs(eco, cuts, loc, regime)
        rep = falsification_test(containment_stats(plus, "plus"),
                                 containment_stats(minus, "minus"),
                                 eco.n_schools, (4, 2))
        assert not rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert by_name["support-atoms"].statistic == pytest.approx(want)
        assert by_name["pair-4-2"].passed        # the pair cut alone is fine


def test_default_partitions_cover_and_name(golden):
    plus, _ = golden_stats(golden)
    stats = containment_stats(plus, "plus")
    parts = default_partitions(stats, None, 4, (4, 2))
    assert [name for name, _ in parts] == ["support-atoms", "pair-4-2"]
    for _, cells in parts:
        seen = set()
        for cell in cells:
            assert not (seen & cell)
            seen |= cell
        assert len(seen) == 25


def test_local_obs_match_the_per_student_helpers(golden):
    eco, cuts = golden.economy, golden.cutoffs
    rel = detect_umas(eco, cuts)
    loc = select_local_sample(eco, cuts, 4, golden.bandwidth)
    for regime in (WPO, SPO_U):
        umas = rel if regime.umas else None
        plus, minus = collect_local_obs(eco, cuts, loc, regime, umas)
        for obs, ids in ((plus, loc.plus_ids), (minus, loc.minus_ids)):
            weights = Counter()
            for o in obs:
                weights[o.qset, o.reported_pair, o.y] += o.weight
            assert weights == Counter(
                (qset_for_student(eco, cuts, i, 4, regime, umas),
                 local_pair(eco, cuts, i, 4, use="reported"),
                 float(eco.y_observed[i])) for i in ids)


def _crossed_solver(gap):
    """An LP solver whose max comes back ``gap`` below its min of 0.25."""

    def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
              tol=FEAS_TOL, maximize=False, start=None):
        return LPResult("optimal", value=0.25 - gap if maximize else 0.25)

    return solve


def test_crossed_lp_ends_read_as_a_point_or_raise(monkeypatch):
    poly = DistPolytope(atoms=((4, 2),), rows=((frozenset({(4, 2)}), 0.25),))
    side = [_obs({(4, 2)}, 1.0)]
    stats = containment_stats(side, "plus")

    def both():
        lo_hi = solve_bounds_on_event(poly, [(4, 2)])
        sharp = sharp_bounds_finite(side, None, stats, None, (4, 2))
        return lo_hi, (sharp.lower, sharp.upper)

    monkeypatch.setattr(identify, "solve_lp", _crossed_solver(6e-16))
    assert both() == ((0.25, 0.25), (0.25, 0.25))
    monkeypatch.setattr(identify, "solve_lp", _crossed_solver(10 * FEAS_TOL))
    with pytest.raises(SimplexError, match="below"):
        solve_bounds_on_event(poly, [(4, 2)])
    with pytest.raises(SimplexError, match="below"):
        sharp_bounds_finite(side, None, stats, None, (4, 2))
