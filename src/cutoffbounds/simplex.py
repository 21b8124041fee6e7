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

An interval is the min and the max of one objective over one program, and
the two differ only in the primal objective, which is the dual's
right-hand side.  Passing the min's result as ``start`` re-solves the max
from the min's final tableau: the new right-hand side is the basis inverse
(the slack columns) times the new objective, the reduced costs stay
non-negative, and the dual simplex method pivots the right-hand side back
to feasibility, usually in a few pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # an optimal solve's final dual tableau and basis: the start of a
    # re-solve with another objective over the same constraints
    tableau: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    basis[row] = col


def _optimize(T: np.ndarray, basis: np.ndarray, n_cols: int, tol: float,
              max_iter: int) -> str:
    """Run simplex to optimality on a tableau whose last row is the
    (priced-out) objective and last column the RHS; only the first
    ``n_cols`` columns may enter."""
    m = T.shape[0] - 1
    cost = T[-1, :n_cols]           # views: pivots update T in place
    rhs = T[:m, -1]
    ratios = np.empty(m)
    degenerate = 0
    for _ in range(max_iter):
        if degenerate < DEGENERATE_RUN:
            enter = cost.argmin()
        else:
            enter = (cost < -tol).argmax()
        if cost[enter] >= -tol:
            return "optimal"
        column = T[:m, enter]
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > tol)
        step = ratios.min()
        if step == np.inf:
            return "unbounded"
        ties = (ratios <= step + RATIO_TIE).nonzero()[0]
        leave = ties[basis[ties].argmin()]
        degenerate = degenerate + 1 if step <= RATIO_TIE else 0
        _pivot(T, basis, leave, enter)
    raise SimplexError("simplex failed to converge")


def _dual_optimize(T: np.ndarray, basis: np.ndarray, n_cols: int,
                   tol: float, max_iter: int) -> str:
    """Run the dual simplex method on a tableau laid out as for
    ``_optimize`` whose reduced costs are non-negative, until its RHS is.

    The leaving row has the most negative RHS, or under Bland's rule the
    lowest basic index among the negative ones; the entering column has
    the least ratio of reduced cost to minus its entry in that row, ties
    going to the lowest column.  "infeasible" when the leaving row has no
    negative entry.
    """
    m = T.shape[0] - 1
    cost = T[-1, :n_cols]
    rhs = T[:m, -1]
    ratios = np.empty(n_cols)
    degenerate = 0
    for _ in range(max_iter):
        if degenerate < DEGENERATE_RUN:
            leave = rhs.argmin()
        else:
            short = (rhs < -tol).nonzero()[0]
            leave = short[basis[short].argmin()] if short.size else 0
        if rhs[leave] >= -tol:
            return "optimal"
        row = T[leave, :n_cols]
        ratios.fill(np.inf)
        np.divide(cost, -row, out=ratios, where=row < -tol)
        step = ratios.min()
        if step == np.inf:
            return "infeasible"
        enter = (ratios <= step + RATIO_TIE).argmax()
        degenerate = degenerate + 1 if step <= RATIO_TIE else 0
        _pivot(T, basis, leave, enter)
    raise SimplexError("dual simplex failed to converge")


def _max_iter(T: np.ndarray) -> int:
    return 200 * (sum(T.shape) + 8)


def _simplex(cost: np.ndarray, A: np.ndarray, b: np.ndarray, n_ub: int,
             tol: float, phase1_only: bool = False):
    """min cost.v  s.t.  the first ``n_ub`` rows of  A v <= b,  the rest
    A v = b,  v >= 0.

    Returns ``(status, T, basis)`` with ``T`` the final tableau: columns
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
    max_iter = _max_iter(T)

    if n_art:
        T[-1] = -T[art_rows].sum(axis=0)
        T[-1, width:-1] = 0.0
        if _optimize(T, basis, width + n_art, tol, max_iter) != "optimal":
            raise SimplexError("phase 1 failed")    # cannot be unbounded
        if -T[-1, -1] > tol:      # priced-out objective stores -value
            return "infeasible", T, basis
        if phase1_only:
            return "optimal", T, basis
        # drive any degenerate artificial out of the basis; every row
        # left here has a slack column (the dual's rows are all <=), so
        # none is redundant and the basis keeps one column per row
        for r in np.flatnonzero(basis >= width):
            j = int(np.argmax(np.abs(T[r, :width])))
            assert abs(T[r, j]) > tol, "a row with a slack lost its pivot"
            _pivot(T, basis, r, j)
        T = np.delete(T, np.s_[width:-1], axis=1)
    elif phase1_only:
        return "optimal", T, basis

    full_cost = np.zeros(width)
    full_cost[:n] = cost
    T[-1, :-1] = full_cost
    T[-1, -1] = 0.0
    T[-1] -= full_cost[basis] @ T[:-1]
    return _optimize(T, basis, width, tol, max_iter), T, basis


def _resolve(start: tuple[np.ndarray, np.ndarray], cost: np.ndarray,
             b: np.ndarray, tol: float):
    """Re-solve the program whose final ``_simplex`` tableau and basis
    are ``start``, with its RHS replaced by ``b``.

    The slack columns of a final tableau hold the inverse of the basis in
    the unscaled rows (the sign flips of rows with a negative RHS cancel),
    so the new RHS is those columns times ``b`` and the reduced costs do
    not change.  Returns ``(status, T, basis)``; "infeasible" when no
    ``v >= 0`` meets the new rows.
    """
    T, basis = start[0].copy(), start[1].copy()
    m = T.shape[0] - 1
    width = T.shape[1] - 1
    T[:m, -1] = T[:m, width - m:width] @ b
    full_cost = np.zeros(width)
    full_cost[:width - m] = cost
    T[-1, -1] = -full_cost[basis] @ T[:m, -1]
    return _dual_optimize(T, basis, width, tol, _max_iter(T)), T, basis


def _block(A, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    if A is None:
        return np.zeros((0, n)), np.zeros(0)
    return (np.asarray(A, dtype=float).reshape(-1, n),
            np.asarray(b, dtype=float).ravel())


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             tol: float = FEAS_TOL, maximize: bool = False,
             start: LPResult | None = None) -> LPResult:
    """Solve the program; ``start``, an optimal result over the same
    constraints with any objective, makes this a re-solve from its final
    tableau (see the module docstring)."""
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    if maximize:
        c = -c
    A_ub, b_ub = _block(A_ub, b_ub, n)
    A_eq, b_eq = _block(A_eq, b_eq, n)

    # dual, one row per primal variable:
    #   min b_ub.u - b_eq.z+ + b_eq.z-
    #   s.t. -A_ub^T u + A_eq^T z+ - A_eq^T z- <= c,   u, z+, z- >= 0
    d = np.concatenate([b_ub, -b_eq, b_eq])
    if start is not None and start.tableau is not None:
        status, T, basis = _resolve(start.tableau, d, c, tol)
        if status == "infeasible":
            # dual infeasible, and the start showed the primal feasible
            return LPResult("unbounded")
    else:
        G = np.hstack([-A_ub.T, A_eq.T, -A_eq.T])
        status, T, basis = _simplex(d, G, c, n, tol)
    if status == "optimal":
        # x is the reduced cost of the dual row's slack; the primal value
        # is minus the dual's, which the tableau stores negated
        x = np.maximum(T[-1, d.size:d.size + n], 0.0)
        value = float(T[-1, -1])
        return LPResult("optimal", x, -value if maximize else value,
                        tableau=(T, basis))
    if status == "unbounded":
        return LPResult("infeasible")
    # dual infeasible: the primal is unbounded if it is feasible at all
    A = np.vstack([A_ub, A_eq])
    b = np.concatenate([b_ub, b_eq])
    status, _, _ = _simplex(c, A, b, A_ub.shape[0], tol, phase1_only=True)
    return LPResult("infeasible" if status == "infeasible" else "unbounded")
