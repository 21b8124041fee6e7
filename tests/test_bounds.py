"""Outcome transforms, trimming and binary bounds, and the joint program."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoffbounds import LocalObs, containment_stats, delta_bounds
from cutoffbounds.bounds import (
    IDENTITY,
    BoundsError,
    EffectBounds,
    OutcomeTransform,
    binary_bounds,
    effect_bounds,
    finite_support,
    hm_side_bounds,
    naive_rd,
    pair_subpop,
    sharp_bounds_finite,
    trimming_bounds_continuous,
)
from cutoffbounds.identify import (FalsificationSignal,
                                   InfeasiblePolytopeError, build_polytope,
                                   distinct_obs, event_prob)

from oracles import (grid_sharp_ate_binary, highs_sharp_bounds, joint_rows,
                     union_closure)

A, B = (4, 2), (4, 3)


def _obs(qset, y, w=1.0, reported=None):
    return LocalObs(qset=frozenset(qset), y=float(y), weight=w,
                    reported_pair=reported)


def _plain(values, weights=None):
    weights = weights or [1.0] * len(values)
    return [_obs({A}, y, w) for y, w in zip(values, weights)]


def test_outcome_transforms():
    assert IDENTITY(2.5) == 2.5
    ind = OutcomeTransform(name="pass", kind="indicator", threshold=1.0)
    assert (ind(0.5), ind(1.0), ind(3.0)) == (0.0, 1.0, 1.0)
    tab = OutcomeTransform(name="relabel", kind="table",
                           table={0.0: 1.0, 1.0: 0.0})
    assert tab(0.0) == 1.0 and tab(1.0) == 0.0
    with pytest.raises(BoundsError):
        tab(2.0)
    with pytest.raises(BoundsError):
        OutcomeTransform(kind="indicator")(1.0)
    with pytest.raises(BoundsError):
        OutcomeTransform(kind="median")(1.0)


def test_trimming_equal_weights():
    obs = _plain([1.0, 2.0, 3.0, 4.0])
    half = trimming_bounds_continuous(obs, 0.5)
    assert (half.lower, half.upper) == (1.5, 3.5)
    quarter = trimming_bounds_continuous(obs, 0.25)
    assert (quarter.lower, quarter.upper) == (1.0, 4.0)
    full = trimming_bounds_continuous(obs, 1.0)
    assert full.lower == full.upper == 2.5


def test_trimming_fractional_boundary():
    obs = _plain([1.0, 2.0, 3.0, 4.0])
    got = trimming_bounds_continuous(obs, 0.375)
    # lowest 0.375: all of the 1 (0.25) plus half of the 2 (0.125)
    assert got.lower == pytest.approx((0.25 * 1 + 0.125 * 2) / 0.375)
    assert got.upper == pytest.approx((0.25 * 4 + 0.125 * 3) / 0.375)


def test_trimming_respects_weights():
    obs = _plain([0.0, 10.0], weights=[1.0, 3.0])
    got = trimming_bounds_continuous(obs, 0.5)
    assert got.lower == pytest.approx((0.25 * 0 + 0.25 * 10) / 0.5)
    assert got.upper == pytest.approx(10.0)


def test_trimming_share_validation():
    obs = _plain([1.0, 2.0])
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(BoundsError):
            trimming_bounds_continuous(obs, bad)


def test_binary_formulas():
    obs = _plain([1.0] * 6 + [0.0] * 4)
    got = binary_bounds(obs, 0.5)
    assert got.lower == pytest.approx(0.2)
    assert got.upper == 1.0
    point = binary_bounds(obs, 1.0)
    assert point.lower == point.upper == pytest.approx(0.6)
    vacuous = binary_bounds(obs, 0.3)
    assert (vacuous.lower, vacuous.upper) == (0.0, 1.0)
    with pytest.raises(BoundsError):
        binary_bounds(_plain([0.5, 1.0]), 0.5)


def test_binary_equals_trimming_on_binary_data():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        obs = _plain(rng.integers(0, 2, n).astype(float).tolist())
        delta = float(rng.integers(1, n + 1)) / n
        bb = binary_bounds(obs, delta)
        tt = trimming_bounds_continuous(obs, delta)
        assert bb.lower == pytest.approx(tt.lower, abs=1e-12)
        assert bb.upper == pytest.approx(tt.upper, abs=1e-12)


def test_dispatcher_picks_the_method():
    assert hm_side_bounds(_plain([0.0, 1.0]), 0.5).method == "binary"
    assert hm_side_bounds(_plain([1.0, 2.0]), 0.5).method == "trim"
    ind = OutcomeTransform(kind="indicator", threshold=1.5)
    assert hm_side_bounds(_plain([1.0, 2.0]), 0.5, ind).method == "binary"


def test_effect_interval_arithmetic():
    plus = hm_side_bounds(_plain([0.0, 1.0, 1.0, 1.0]), 1.0)
    minus = hm_side_bounds(_plain([0.0, 0.0, 1.0, 0.0]), 1.0)
    eff = effect_bounds(plus, minus)
    assert eff.lower == pytest.approx(0.5)
    assert eff.upper == pytest.approx(0.5)
    assert eff.sign_identified
    wide = effect_bounds(hm_side_bounds(_plain([0.0, 1.0]), 0.5),
                         hm_side_bounds(_plain([0.0, 1.0]), 0.5))
    assert (wide.lower, wide.upper) == (-1.0, 1.0)
    assert not wide.sign_identified
    assert wide.contains(0.3) and not wide.contains(1.2)
    assert wide.contains(1.2, tol=0.5)


def test_naive_contrast():
    plus = [_obs({A}, 1.0, reported=A), _obs({A}, 0.0, reported=A),
            _obs({B}, 1.0, reported=B)]
    minus = [_obs({A}, 0.0, reported=A)]
    assert naive_rd(plus, minus, A) == pytest.approx(0.5)
    with pytest.raises(BoundsError):
        naive_rd(plus, minus, B)        # no reported (4,3) below the cutoff


def test_finite_support_cap():
    obs = _plain(list(range(9)))
    with pytest.raises(BoundsError):
        finite_support(obs, [], IDENTITY, cap=8)
    assert finite_support(obs[:8], [], IDENTITY, cap=8) == \
        tuple(float(v) for v in range(8))


def test_sharp_point_identified_case():
    plus = [_obs({A}, 1.0)]
    minus = [_obs({A}, 0.0)]
    got = sharp_bounds_finite(plus, minus,
                              containment_stats(plus, "plus"),
                              containment_stats(minus, "minus"), A)
    assert got.lower == pytest.approx(1.0, abs=1e-9)
    assert got.upper == pytest.approx(1.0, abs=1e-9)
    assert got.method == "sharp-lp"


def test_sharp_requires_pair_support():
    plus = [_obs({A}, 1.0)]
    with pytest.raises(BoundsError):
        sharp_bounds_finite(plus, None, containment_stats(plus, "plus"),
                            None, B)


def test_sharp_three_valued_support_matches_the_full_program():
    """Single-value rows over connected unions against every outcome subset
    crossed with the full union closure, over three outcome values."""
    rng = np.random.default_rng(303)
    atoms = [(4, 2), (4, 3), (4, 0), (3, 0)]
    menu = [frozenset(s) for s in ({0}, {1}, {0, 1}, {1, 2}, {2, 3},
                                   {0, 3}, {0, 1, 2})]
    menu = [frozenset(atoms[k] for k in s) for s in menu]
    compared = infeasible = 0
    for _ in range(40):
        def draw_side():
            return [_obs(menu[int(rng.integers(len(menu)))],
                         float(rng.integers(0, 3)),
                         w=float(rng.integers(1, 5)))
                    for _ in range(int(rng.integers(3, 9)))]

        plus, minus = draw_side(), draw_side()
        pair = sorted(set().union(*(o.qset for o in plus + minus)))[0]
        want = highs_sharp_bounds(plus, minus, pair, IDENTITY)
        sp = containment_stats(plus, "plus")
        sm = containment_stats(minus, "minus")
        if want is None:
            with pytest.raises(InfeasiblePolytopeError):
                sharp_bounds_finite(plus, minus, sp, sm, pair)
            infeasible += 1
            continue
        got = sharp_bounds_finite(plus, minus, sp, sm, pair)
        assert (got.lower, got.upper) == pytest.approx(want, abs=1e-9)
        compared += 1
    assert compared >= 10 and infeasible >= 5


def test_sharp_flags_contradictory_sides():
    plus = [_obs({A}, 1.0)]
    minus = [_obs({B}, 0.0)]
    with pytest.raises(InfeasiblePolytopeError):
        sharp_bounds_finite(plus, minus, containment_stats(plus, "plus"),
                            containment_stats(minus, "minus"), A)


def test_sharp_matches_the_joint_grid():
    plus = [_obs({A}, 1.0, 0.2), _obs({A}, 0.0, 0.1),
            _obs({A, B}, 1.0, 0.4), _obs({A, B}, 0.0, 0.3)]
    minus = [_obs({A}, 0.0, 0.4), _obs({A, B}, 1.0, 0.6)]
    sp = containment_stats(plus, "plus")
    sm = containment_stats(minus, "minus")
    got = sharp_bounds_finite(plus, minus, sp, sm, A)
    grid_lo, grid_hi = grid_sharp_ate_binary(
        (A, B), A,
        joint_rows(plus, union_closure(sp.family.members), IDENTITY),
        joint_rows(minus, union_closure(sm.family.members), IDENTITY))
    assert got.lower == pytest.approx(grid_lo, abs=0.01)
    assert got.upper == pytest.approx(grid_hi, abs=0.01)


def test_sharp_nested_in_hm_seeded():
    rng = np.random.default_rng(88)
    done = 0
    for _ in range(60):
        def draw_side():
            out = []
            for _ in range(int(rng.integers(2, 7))):
                qset = {A} if rng.random() < 0.5 else {A, B}
                if rng.random() < 0.2:
                    qset = {B}
                out.append(_obs(qset, float(rng.integers(0, 2)),
                                w=float(rng.integers(1, 4))))
            return out

        plus, minus = draw_side(), draw_side()
        sp = containment_stats(plus, "plus")
        sm = containment_stats(minus, "minus")
        try:
            poly = build_polytope(sp, sm)
            db = delta_bounds(poly, A, plus, minus)
            if not (db.delta_plus and db.delta_minus):
                continue
            # trimming conditions on the students whose candidate set
            # allows the pair, exactly as the pipeline applies it
            hm = effect_bounds(
                hm_side_bounds(pair_subpop(plus, A), db.delta_plus),
                hm_side_bounds(pair_subpop(minus, A), db.delta_minus))
            sharp = sharp_bounds_finite(plus, minus, sp, sm, A)
        except InfeasiblePolytopeError:
            continue
        assert sharp.lower >= hm.lower - 1e-9
        assert sharp.upper <= hm.upper + 1e-9
        done += 1
    assert done >= 20


def test_effect_bounds_dataclass_basics():
    eff = EffectBounds(lower=-0.25, upper=0.5, method="hm")
    assert not eff.sign_identified
    assert eff.contains(-0.25) and eff.contains(0.5)


# ---------------------------------------------------------------------------
# distinct records


_SMALL_PAIRS = st.tuples(st.integers(0, 2), st.integers(0, 2))
_REPORTED = ((1, 0), (1, 1), (2, 1))


@st.composite
def _side_records(draw, values, unit):
    """A side drawn from a few keys, so that keys repeat, each record with
    weight 1 or a fractional weight."""
    keys = draw(st.lists(st.tuples(
        st.frozensets(_SMALL_PAIRS, min_size=1, max_size=3),
        st.sampled_from(values), st.sampled_from(_REPORTED)),
        min_size=1, max_size=4))
    weight = st.just(1.0) if unit else st.floats(0.05, 3.0)
    return [LocalObs(qset=q, y=y, weight=draw(weight), reported_pair=rep)
            for q, y, rep in draw(st.lists(st.sampled_from(keys),
                                           min_size=1, max_size=12))]


def _estimates(plus, minus, pair, delta):
    """Every per-record estimate, or the error it raises, as plain values."""
    def run(f, *args):
        try:
            out = f(*args)
        except (BoundsError, FalsificationSignal) as exc:
            return type(exc).__name__
        return dataclasses.astuple(out) if dataclasses.is_dataclass(out) \
            else out

    sp, sm = containment_stats(plus, "plus"), containment_stats(minus, "minus")
    return {
        "rows": [(s.total, s.family, dict(s.containment), s.weights)
                 for s in (sp, sm)],
        "event": [event_prob(side, pair) for side in (plus, minus)],
        "delta": run(delta_bounds, build_polytope(sp, sm), pair, plus, minus),
        "hm": [run(hm_side_bounds, pair_subpop(side, pair), delta)
               for side in (plus, minus)],
        "naive": run(naive_rd, plus, minus, plus[0].reported_pair),
        "sharp": run(sharp_bounds_finite, plus, minus, sp, sm, pair),
    }


def _flat(x):
    if isinstance(x, dict):
        return [[k, _flat(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_flat(v) for v in x]
    return x


def _close(a, b, tol):
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= tol
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(u, v, tol)
                                        for u, v in zip(a, b))
    return a == b


@settings(max_examples=150, deadline=None)
@given(data=st.data(), unit=st.booleans(), binary=st.booleans(),
       delta=st.sampled_from([0.25, 0.6, 1.0]))
def test_distinct_records_leave_every_estimate_unchanged(data, unit, binary,
                                                         delta):
    values = (0.0, 1.0) if binary else (0.0, 0.1, 1.0, 1 / 3, -1.7)
    plus = data.draw(_side_records(values, unit))
    minus = data.draw(_side_records(values, unit))
    pair = min(plus[0].qset)
    collapse = [distinct_obs((o.qset, o.y, o.weight, o.reported_pair)
                             for o in side) for side in (plus, minus)]
    assert all(len(c) == len({(o.qset, o.y, o.reported_pair) for o in side})
               for c, side in zip(collapse, (plus, minus)))
    raw = _estimates(plus, minus, pair, delta)
    merged = _estimates(*collapse, pair, delta)
    if unit:
        assert merged == raw
    else:
        assert _close(_flat(merged), _flat(raw), 1e-12), (merged, raw)
