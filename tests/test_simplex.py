"""The dense tableau solver against scipy and hand-solved programs."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from cutoffbounds import simplex
from cutoffbounds.simplex import FEAS_TOL, LPResult, SimplexError, solve_lp


def test_hand_solved_program():
    # min -x - y  s.t.  x + y <= 1  ->  any vertex of the face, value -1
    res = solve_lp([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert res.ok
    assert res.value == pytest.approx(-1.0, abs=1e-9)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_equality_and_bounds():
    # probability vector minimizing the first coordinate with a floor on it
    res = solve_lp([1.0, 0.0, 0.0],
                   A_ub=[[-1.0, 0.0, 0.0]], b_ub=[-0.25],
                   A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    assert res.ok
    assert res.value == pytest.approx(0.25, abs=1e-9)


def test_maximize_flag():
    res = solve_lp([1.0, 2.0], A_ub=[[1.0, 1.0]], b_ub=[3.0], maximize=True)
    assert res.ok
    assert res.value == pytest.approx(6.0, abs=1e-9)
    assert res.x.tolist() == pytest.approx([0.0, 3.0], abs=1e-9)


def test_infeasible_detected():
    res = solve_lp([1.0], A_ub=[[1.0]], b_ub=[1.0],
                   A_eq=[[1.0]], b_eq=[2.0])
    assert res.status == "infeasible"
    assert not res.ok


def test_unbounded_detected():
    res = solve_lp([-1.0, 0.0], A_ub=[[0.0, 1.0]], b_ub=[1.0])
    assert res.status == "unbounded"


def test_unconstrained_orthant():
    assert solve_lp([1.0, 1.0]).value == 0.0
    assert solve_lp([-1.0]).status == "unbounded"


def test_degenerate_cycling_guard():
    # classic degenerate tableau; Bland's rule must terminate
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [[0.25, -60.0, -0.04, 9.0],
         [0.5, -90.0, -0.02, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    res = solve_lp(c, A_ub=A, b_ub=b)
    assert res.ok
    assert res.value == pytest.approx(-0.05, abs=1e-9)


def test_bland_fallback_stops_dantzig_cycling(monkeypatch):
    # Beale's tableau, on which Dantzig's rule alone cycles forever
    def beale():
        T = np.zeros((4, 8))
        T[:3, :4] = [[0.25, -60.0, -0.04, 9.0],
                     [0.5, -90.0, -0.02, 3.0],
                     [0.0, 0.0, 1.0, 0.0]]
        T[:3, 4:7] = np.eye(3)
        T[:3, -1] = [0.0, 0.0, 1.0]
        T[-1, :4] = [-0.75, 150.0, -0.02, 6.0]
        return T, np.array([4, 5, 6])

    T, basis = beale()
    assert simplex._optimize(T, basis, 7, FEAS_TOL, 500) == "optimal"
    assert -T[-1, -1] == pytest.approx(-0.05, abs=1e-9)
    monkeypatch.setattr(simplex, "DEGENERATE_RUN", 10**9)
    T, basis = beale()
    with pytest.raises(SimplexError, match="converge"):
        simplex._optimize(T, basis, 7, FEAS_TOL, 500)


def test_matches_scipy_on_random_programs():
    rng = np.random.default_rng(777)
    agree = 0
    for trial in range(120):
        n = int(rng.integers(2, 7))
        m_ub = int(rng.integers(1, 5))
        m_eq = int(rng.integers(0, 3))
        c = rng.normal(size=n)
        A_ub = rng.normal(size=(m_ub, n))
        b_ub = rng.uniform(0.5, 2.0, size=m_ub)   # x = 0 stays feasible
        A_eq = rng.uniform(0.2, 1.0, size=(m_eq, n)) if m_eq else None
        b_eq = rng.uniform(0.5, 1.5, size=m_eq) if m_eq else None
        mine = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if ref.status == 0:
            assert mine.ok, f"trial {trial}: scipy optimal, tableau {mine.status}"
            assert mine.value == pytest.approx(ref.fun, abs=1e-7)
            agree += 1
        elif ref.status == 2:
            assert mine.status == "infeasible", f"trial {trial}"
        elif ref.status == 3:
            assert mine.status == "unbounded", f"trial {trial}"
    assert agree >= 40          # a healthy share must be genuinely solvable


def test_result_flags():
    assert not LPResult("infeasible").ok
    assert LPResult("optimal", np.zeros(1), 0.0).ok


def _tall_event_program(rng, n_rows, n_atoms, feasible):
    """A containment polytope shaped like ``identify._polytope_constraints``:
    one ``-(mass over A) <= -bound`` row per subset A of the atoms, a
    residual variable in no row, and total mass one.

    Bounds are a distribution's subset masses, shrunk for a feasible
    program; an infeasible one takes the larger mass under two
    distributions, as two sides of a cutoff do.
    """
    n = n_atoms + 1
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    sizes = np.minimum(rng.geometric(0.3, size=n_rows), n_atoms)
    members = np.zeros((n_rows, n), dtype=bool)
    for r, size in enumerate(sizes):
        members[r, rng.choice(n_atoms, size=size, replace=False)] = True
    if feasible:
        bound = members @ p * rng.uniform(0.5, 1.0, size=n_rows)
    else:
        bound = np.maximum(members @ p, members @ q)
    A_ub = -members.astype(float)
    return A_ub, -bound, np.ones((1, n)), np.ones(1)


@pytest.mark.parametrize("feasible", [True, False])
def test_tall_narrow_programs_match_scipy(feasible):
    rng = np.random.default_rng(2024 if feasible else 2025)
    statuses = []
    for trial in range(6):
        n_rows = int(rng.integers(200, 2001))
        n_atoms = int(rng.integers(8, 40))
        A_ub, b_ub, A_eq, b_eq = _tall_event_program(rng, n_rows, n_atoms,
                                                     feasible)
        c = np.zeros(n_atoms + 1)
        c[rng.choice(n_atoms, size=int(rng.integers(1, 4)), replace=False)] = 1.0
        for sense in (1.0, -1.0):
            mine = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                            maximize=sense < 0)
            ref = linprog(sense * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                          b_eq=b_eq, bounds=(0, None), method="highs")
            assert ref.status in (0, 2), ref.message
            expected = "optimal" if ref.status == 0 else "infeasible"
            assert mine.status == expected, f"trial {trial}"
            statuses.append(mine.status)
            if not mine.ok:
                continue
            assert mine.value == pytest.approx(sense * ref.fun, abs=1e-9)
            assert mine.x.min() >= 0.0
            assert (A_ub @ mine.x - b_ub).max() <= 1e-9
            assert abs(A_eq @ mine.x - b_eq).max() <= 1e-9
            assert c @ mine.x == pytest.approx(mine.value, abs=1e-12)
    assert set(statuses) == {"optimal" if feasible else "infeasible"}


def _general_program(rng):
    """Random rows with x = 0 feasible: the max is often unbounded."""
    n = int(rng.integers(2, 7))
    m_ub, m_eq = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    A_eq = rng.uniform(0.2, 1.0, size=(m_eq, n)) if m_eq else None
    b_eq = rng.uniform(0.5, 1.5, size=m_eq) if m_eq else None
    return (rng.normal(size=n), rng.normal(size=(m_ub, n)),
            rng.uniform(0.5, 2.0, size=m_ub), A_eq, b_eq)


def _degenerate_program(rng):
    """A probability vector under rows that all bind at one vertex: the
    first unit vector, where every ``x_k - x_0 <= 0`` row is tight."""
    n = int(rng.integers(3, 7))
    A_ub = np.zeros((2 * (n - 1), n))
    for k in range(1, n):
        A_ub[k - 1, [0, k]] = [-1.0, 1.0]              # x_k <= x_0
        A_ub[n + k - 2, [0, k]] = [-2.0, rng.uniform(0.5, 2.0)]
    return (rng.normal(size=n), A_ub, np.zeros(2 * (n - 1)),
            np.ones((1, n)), np.ones(1))


def _event_program(rng):
    n_atoms = int(rng.integers(4, 30))
    A_ub, b_ub, A_eq, b_eq = _tall_event_program(
        rng, int(rng.integers(20, 400)), n_atoms, feasible=True)
    c = np.zeros(n_atoms + 1)
    c[rng.choice(n_atoms, size=int(rng.integers(1, 4)), replace=False)] = 1.0
    return c, A_ub, b_ub, A_eq, b_eq


def _check_end(res, ref, sense, c, A_ub, b_ub, A_eq, b_eq):
    """One end of a feasible program against HiGHS, whose presolve may
    report an unbounded program as infeasible-or-unbounded (status 2)."""
    assert ref.status in (0, 2, 3), ref.message
    assert res.status == ("optimal" if ref.status == 0 else "unbounded")
    if not res.ok:
        return
    assert res.value == pytest.approx(sense * ref.fun, abs=1e-9)
    assert res.x.min() >= 0.0
    assert (A_ub @ res.x - b_ub).max() <= 1e-9
    if A_eq is not None:
        assert abs(A_eq @ res.x - b_eq).max() <= 1e-9
    assert c @ res.x == pytest.approx(res.value, abs=1e-9)


@pytest.mark.parametrize("degenerate_run", [simplex.DEGENERATE_RUN, 0])
def test_warm_started_max_matches_cold_solves_and_highs(monkeypatch,
                                                        degenerate_run):
    # degenerate_run 0 runs Bland's rule in both loops from the first pivot
    monkeypatch.setattr(simplex, "DEGENERATE_RUN", degenerate_run)
    rng = np.random.default_rng(4242)
    seen = set()
    for make in (_general_program, _degenerate_program, _event_program):
        for trial in range(40):
            c, A_ub, b_ub, A_eq, b_eq = make(rng)
            lo = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
            if not lo.ok:
                continue
            hi = solve_lp(c, A_ub, b_ub, A_eq, b_eq, maximize=True, start=lo)
            cold = solve_lp(c, A_ub, b_ub, A_eq, b_eq, maximize=True)
            assert hi.status == cold.status, (make.__name__, trial)
            if hi.ok:
                assert hi.value == pytest.approx(cold.value, abs=1e-9)
            for res, sense in ((lo, 1.0), (hi, -1.0)):
                ref = linprog(sense * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                              b_eq=b_eq, bounds=(0, None), method="highs")
                _check_end(res, ref, sense, c, A_ub, b_ub, A_eq, b_eq)
            seen.add((make.__name__, hi.status))
    assert seen >= {("_general_program", "optimal"),
                    ("_general_program", "unbounded"),
                    ("_degenerate_program", "optimal"),
                    ("_event_program", "optimal")}


def test_warm_start_repr_and_equality_leave_out_the_tableau():
    res = solve_lp([1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.tableau is not None
    assert "tableau" not in repr(res)
    plain = LPResult(res.status, res.x, res.value)
    assert plain == res
    assert solve_lp([1.0], A_ub=[[1.0]], b_ub=[-1.0]).tableau is None


def test_dual_simplex_raises_when_it_runs_out_of_pivots(monkeypatch):
    rng = np.random.default_rng(99)
    c, A_ub, b_ub, A_eq, b_eq = _event_program(rng)
    lo = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    pivots = []
    real_pivot = simplex._pivot

    def counting_pivot(*args):
        pivots.append(args[2:])
        real_pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counting_pivot)
    hi = solve_lp(c, A_ub, b_ub, A_eq, b_eq, maximize=True, start=lo)
    assert hi.ok and len(pivots) >= 2
    monkeypatch.setattr(simplex, "_max_iter", lambda T: len(pivots) - 1)
    with pytest.raises(SimplexError, match="dual simplex failed to converge"):
        solve_lp(c, A_ub, b_ub, A_eq, b_eq, maximize=True, start=lo)
    # the start is left as it was
    again = solve_lp(c, A_ub, b_ub, A_eq, b_eq, maximize=True, start=lo)
    assert again.ok


def _bland_dual_pivot(real_pivot, seen):
    """A ``_pivot`` that first checks the dual simplex step under Bland's
    rule: the row leaving is the infeasible one with the lowest basic
    index, the column entering the lowest one of least ratio.  ``seen``
    counts the steps, and the steps where another infeasible row (the
    most negative, the first, the last) would have been chosen."""
    def pivot(T, basis, row, col):
        m = T.shape[0] - 1
        rhs = T[:m, -1]
        short = np.flatnonzero(rhs < -FEAS_TOL)
        assert row == short[basis[short].argmin()]
        entries = T[row, :-1]
        ratios = np.full(entries.size, np.inf)
        np.divide(T[-1, :-1], -entries, out=ratios, where=entries < -FEAS_TOL)
        assert col == np.flatnonzero(ratios <= ratios.min()
                                     + simplex.RATIO_TIE)[0]
        seen["steps"] += 1
        seen["other"] += row not in {short[0], short[-1], rhs.argmin()}
        real_pivot(T, basis, row, col)
    return pivot


def test_dual_simplex_bland_rule_takes_the_lowest_basic_index(monkeypatch):
    # every row is infeasible; the most negative is row 0, the last row 2,
    # and the lowest basic index (2) is in row 1
    T = np.array([[-1.0, 1.0, 0.0, -1.0, 0.0, 1.0, -3.0],
                  [-1.0, -1.0, 1.0, 0.0, 0.0, 0.0, -1.0],
                  [0.0, -1.0, 0.0, -1.0, 1.0, 0.0, -2.0],
                  [1.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0]])
    basis = np.array([5, 2, 4])
    pivots = []
    real_pivot = simplex._pivot

    def recording_pivot(T, basis, row, col):
        pivots.append((int(row), int(col)))
        real_pivot(T, basis, row, col)

    monkeypatch.setattr(simplex, "DEGENERATE_RUN", 0)
    monkeypatch.setattr(simplex, "_pivot", recording_pivot)
    assert simplex._dual_optimize(T, basis, 6, FEAS_TOL, 50) == "optimal"
    assert pivots[0] == (1, 0)
    assert T[:3, -1].min() >= -FEAS_TOL and T[-1, :6].min() >= -FEAS_TOL


def test_warm_started_max_follows_bland_rule(monkeypatch):
    # the dual loop under Bland's rule from its first pivot, on the warm
    # starts of the general and tall programs above
    rng = np.random.default_rng(5150)
    seen = {"steps": 0, "other": 0}
    checked = _bland_dual_pivot(simplex._pivot, seen)
    for make in (_general_program, _degenerate_program, _event_program):
        for _ in range(30):
            c, A_ub, b_ub, A_eq, b_eq = make(rng)
            lo = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
            if not lo.ok:
                continue
            cold = solve_lp(c, A_ub, b_ub, A_eq, b_eq, maximize=True)
            with monkeypatch.context() as m:
                m.setattr(simplex, "DEGENERATE_RUN", 0)
                m.setattr(simplex, "_pivot", checked)
                hi = solve_lp(c, A_ub, b_ub, A_eq, b_eq, maximize=True,
                              start=lo)
            assert hi.status == cold.status
            if hi.ok:
                assert hi.value == pytest.approx(cold.value, abs=1e-9)
    assert seen["steps"] >= 300 and seen["other"] >= 50
