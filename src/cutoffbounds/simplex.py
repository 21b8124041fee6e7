"""Small dense linear-program solver.

Problems are stated as  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,
x >= 0.  Status is one of "optimal", "infeasible", "unbounded".

The programs this package builds are tall and narrow: one row per connected
union of candidate sets (up to several hundred) over at most a few dozen
variables.
``solve_lp`` therefore runs the simplex method on the dual, whose tableau
has one row per primal variable, and reads the primal solution back from
the dual's reduced costs.  The tableau method is two-phase on a dense numpy
array: Dantzig's entering rule, switching to Bland's rule after a run of
degenerate pivots so that it cannot cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
RATIO_TIE = 1e-12
DEGENERATE_RUN = 20     # degenerate pivots in a row before Bland's rule


class SimplexError(RuntimeError):
    pass


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    hit = np.flatnonzero(factors)
    if hit.size:
        T[hit] -= np.outer(factors[hit], T[row])
        T[hit, col] = 0.0
    basis[row] = col


def _optimize(T: np.ndarray, basis: np.ndarray, n_cols: int, tol: float,
              max_iter: int) -> str:
    """Run simplex to optimality on a tableau whose last row is the
    (priced-out) objective and last column the RHS; only the first
    ``n_cols`` columns may enter."""
    m = T.shape[0] - 1
    degenerate = 0
    for _ in range(max_iter):
        cost = T[-1, :n_cols]
        if degenerate < DEGENERATE_RUN:
            enter = int(np.argmin(cost))
            if cost[enter] >= -tol:
                return "optimal"
        else:
            candidates = np.flatnonzero(cost < -tol)
            if candidates.size == 0:
                return "optimal"
            enter = int(candidates[0])
        column = T[:m, enter]
        rows = np.flatnonzero(column > tol)
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / column[rows]
        step = ratios.min()
        ties = rows[ratios <= step + RATIO_TIE]
        leave = int(ties[np.argmin(basis[ties])])
        degenerate = degenerate + 1 if step <= RATIO_TIE else 0
        _pivot(T, basis, leave, enter)
    raise SimplexError("simplex failed to converge")


def _simplex(cost: np.ndarray, A: np.ndarray, b: np.ndarray, n_ub: int,
             tol: float, phase1_only: bool = False):
    """min cost.v  s.t.  the first ``n_ub`` rows of  A v <= b,  the rest
    A v = b,  v >= 0.

    Returns ``(status, T)`` with ``T`` the final tableau: columns
    are the variables, then one slack per ``<=`` row in row order, then
    the RHS; its last row holds the reduced costs and minus the value.
    With ``phase1_only`` it stops after phase 1, reporting "optimal" for a
    feasible program.
    """
    m, n = A.shape
    width = n + n_ub
    sign = np.where(b < 0, -1.0, 1.0)
    # a <= row with b >= 0 starts on its slack; every other row on an
    # artificial
    need_art = np.ones(m, dtype=bool)
    need_art[:n_ub] = b[:n_ub] < 0
    art_rows = np.flatnonzero(need_art)
    n_art = art_rows.size
    T = np.zeros((m + 1, width + n_art + 1))
    T[:m, :n] = A * sign[:, None]
    T[np.arange(n_ub), n + np.arange(n_ub)] = sign[:n_ub]
    T[art_rows, width + np.arange(n_art)] = 1.0
    T[:m, -1] = b * sign
    basis = n + np.arange(m)
    basis[art_rows] = width + np.arange(n_art)
    max_iter = 200 * (m + width + n_art + 10)

    if n_art:
        T[-1] = -T[art_rows].sum(axis=0)
        T[-1, width:-1] = 0.0
        if _optimize(T, basis, width + n_art, tol, max_iter) != "optimal":
            raise SimplexError("phase 1 failed")    # cannot be unbounded
        if -T[-1, -1] > tol:      # priced-out objective stores -value
            return "infeasible", T
        if phase1_only:
            return "optimal", T
        # drive any degenerate artificial out of the basis
        keep = np.ones(m + 1, dtype=bool)
        for r in np.flatnonzero(basis >= width):
            j = int(np.argmax(np.abs(T[r, :width])))
            if abs(T[r, j]) > tol:
                _pivot(T, basis, r, j)
            else:
                keep[r] = False              # redundant constraint
        T = np.hstack([T[keep, :width], T[keep, -1:]])
        basis = basis[keep[:m]]
    elif phase1_only:
        return "optimal", T

    full_cost = np.zeros(width)
    full_cost[:n] = cost
    T[-1, :-1] = full_cost
    T[-1, -1] = 0.0
    T[-1] -= full_cost[basis] @ T[:-1]
    return _optimize(T, basis, width, tol, max_iter), T


def _block(A, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    if A is None:
        return np.zeros((0, n)), np.zeros(0)
    return (np.asarray(A, dtype=float).reshape(-1, n),
            np.asarray(b, dtype=float).ravel())


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             tol: float = FEAS_TOL, maximize: bool = False) -> LPResult:
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    if maximize:
        c = -c
    A_ub, b_ub = _block(A_ub, b_ub, n)
    A_eq, b_eq = _block(A_eq, b_eq, n)

    # dual, one row per primal variable:
    #   min b_ub.u - b_eq.z+ + b_eq.z-
    #   s.t. -A_ub^T u + A_eq^T z+ - A_eq^T z- <= c,   u, z+, z- >= 0
    G = np.hstack([-A_ub.T, A_eq.T, -A_eq.T])
    d = np.concatenate([b_ub, -b_eq, b_eq])
    status, T = _simplex(d, G, c, n, tol)
    if status == "optimal":
        # x is the reduced cost of the dual row's slack; the primal value
        # is minus the dual's, which the tableau stores negated
        x = np.maximum(T[-1, G.shape[1]:G.shape[1] + n], 0.0)
        value = float(T[-1, -1])
        return LPResult("optimal", x, -value if maximize else value)
    if status == "unbounded":
        return LPResult("infeasible")
    # dual infeasible: the primal is unbounded if it is feasible at all
    A = np.vstack([A_ub, A_eq])
    b = np.concatenate([b_ub, b_eq])
    status, _ = _simplex(c, A, b, A_ub.shape[0], tol, phase1_only=True)
    return LPResult("infeasible" if status == "infeasible" else "unbounded")
