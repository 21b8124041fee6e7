"""Independent reference implementations used only by the tests.

Everything here is deliberately written in the most literal way possible:
exhaustive enumeration over preference orders, assignments, or probability
grids.  The production code must agree with these on every configuration
they can reach.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

from cutoffbounds import Economy, OUTSIDE
from cutoffbounds.qsets import Regime


# ---------------------------------------------------------------------------
# candidate-set oracle: enumerate true orders directly


def _best_in(order: tuple[int, ...], budget: frozenset[int]) -> int:
    for d in order:
        if d in budget or d == OUTSIDE:
            return d
    return OUTSIDE


def _order_admissible(order: tuple[int, ...], report: tuple[int, ...],
                      realized: frozenset[int], realized_best: int,
                      list_cap: int, regime: Regime,
                      umas_pairs: frozenset[tuple[int, int]]) -> bool:
    pos = {d: r for r, d in enumerate(order)}
    out_pos = pos[OUTSIDE]
    if any(pos[d] > out_pos for d in report):
        return False                      # a listed school must be acceptable
    if any(pos[a] > pos[b] for a, b in zip(report, report[1:])):
        return False                      # listed relative order must agree
    if regime.order == "strong":
        n_acc = out_pos                   # options before 0 are the acceptable ones
        if len(report) != min(list_cap, n_acc):
            return False
    if regime.umas:
        listed = set(report)
        for d, e in umas_pairs:
            if d in listed and e not in listed and pos[d] > pos[e]:
                return False
    return _best_in(order, realized) == realized_best


def brute_force_qset(report: tuple[int, ...], below_budget: frozenset[int],
                     above_budget: frozenset[int], above: bool, list_cap: int,
                     n_schools: int, regime: Regime,
                     umas_pairs: frozenset[tuple[int, int]] = frozenset(),
                     ) -> frozenset[tuple[int, int]]:
    """Candidate local pairs by direct enumeration of strict orders.

    A true order is admissible when the submitted list is a (weak or
    strong) truthful selection from it, every access-containment deduction
    holds, and the student's best option in the realized budget set equals
    the best reported one (matched students attend their best reported
    feasible school).
    """
    realized = above_budget if above else below_budget
    realized_best = _best_in_reported(report, realized)
    out = set()
    for order in permutations(range(n_schools + 1)):
        if _order_admissible(order, report, realized, realized_best,
                             list_cap, regime, umas_pairs):
            out.add((_best_in(order, above_budget),
                     _best_in(order, below_budget)))
    return frozenset(out)


def _best_in_reported(report: tuple[int, ...], budget: frozenset[int]) -> int:
    for d in report:
        if d in budget:
            return d
    return OUTSIDE


# vectorized variant for the exhaustive sweep


class OrderTables:
    """Precomputed position tables for all strict orders over 0..J."""

    def __init__(self, n_schools: int):
        self.n_schools = n_schools
        perms = np.array(list(permutations(range(n_schools + 1))),
                         dtype=np.int8)
        self.perms = perms
        self.pos = np.argsort(perms, axis=1).astype(np.int8)
        self.n = perms.shape[0]

    def best_in(self, budget: frozenset[int]) -> np.ndarray:
        opts = np.array(sorted(budget | {OUTSIDE}))
        sub = self.pos[:, opts]
        return opts[np.argmin(sub, axis=1)]

    def wpo_mask(self, report: tuple[int, ...]) -> np.ndarray:
        ok = np.ones(self.n, dtype=bool)
        out_pos = self.pos[:, OUTSIDE]
        for d in report:
            ok &= self.pos[:, d] < out_pos
        for a, b in zip(report, report[1:]):
            ok &= self.pos[:, a] < self.pos[:, b]
        return ok

    def spo_mask(self, report: tuple[int, ...], list_cap: int) -> np.ndarray:
        n_acc = self.pos[:, OUTSIDE].astype(int)
        return np.minimum(list_cap, n_acc) == len(report)

    def umas_mask(self, report: tuple[int, ...],
                  umas_pairs) -> np.ndarray:
        ok = np.ones(self.n, dtype=bool)
        listed = set(report)
        for d, e in umas_pairs:
            if d in listed and e not in listed:
                ok &= self.pos[:, d] < self.pos[:, e]
        return ok


def fast_qset(tables: OrderTables, report: tuple[int, ...],
              below_budget: frozenset[int], above_budget: frozenset[int],
              above: bool, list_cap: int, regime: Regime,
              umas_pairs) -> frozenset[tuple[int, int]]:
    best_above = tables.best_in(above_budget)
    best_below = tables.best_in(below_budget)
    realized = best_above if above else best_below
    target = _best_in_reported(report, above_budget if above else below_budget)
    mask = tables.wpo_mask(report) & (realized == target)
    if regime.order == "strong":
        mask &= tables.spo_mask(report, list_cap)
    if regime.umas:
        mask &= tables.umas_mask(report, umas_pairs)
    pairs = set(zip(best_above[mask].tolist(), best_below[mask].tolist()))
    return frozenset(pairs)


def exhaustive_qset_audit(max_schools: int = 5, max_cap: int = 3,
                          ) -> tuple[int, int, list]:
    """Compare production candidate sets with the enumeration oracle.

    Sweeps every configuration up to the size caps: number of schools,
    strict cutoff ordering, studied school, submitted list, list cap, side
    of the cutoff, and inference regime.  Budget sets follow the one-score
    geometry (everything strictly below the studied cutoff, plus the studied
    school itself on the high side); the access relation contains exactly
    the pairs ordered by the cutoffs.  Returns (configurations checked,
    distinct configurations evaluated, mismatches).
    """
    from cutoffbounds.qsets import REGIMES, UmasRelation, build_qset

    checked = evaluated = 0
    mismatches = []
    for n_schools in range(1, max_schools + 1):
        tables = OrderTables(n_schools)
        schools = tuple(range(1, n_schools + 1))
        reports = [r for k in range(1, min(max_cap, n_schools) + 1)
                   for r in permutations(schools, k)]
        cache: set = set()
        for cutoff_order in permutations(schools):   # lowest cutoff first
            crank = {d: r for r, d in enumerate(cutoff_order)}
            umas_pairs = frozenset((d, e) for d in schools for e in schools
                                   if crank[d] > crank[e])
            relation = UmasRelation(umas_pairs, fingerprint="audit")
            for split, school in enumerate(cutoff_order):
                below = frozenset(cutoff_order[:split])
                b_minus = below | {OUTSIDE}
                b_plus = b_minus | {school}
                for report in reports:
                    # deductions visible to either implementation: listed
                    # school against any unlisted one it out-ranks
                    listed = set(report)
                    visible = frozenset(
                        (d, e) for d, e in umas_pairs
                        if d in listed and e not in listed)
                    for list_cap in range(len(report),
                                          min(max_cap, n_schools) + 1):
                        for above in (True, False):
                            for regime in REGIMES:
                                checked += 1
                                key = (report, below, school, list_cap, above,
                                       regime.label,
                                       visible if regime.umas else None)
                                if key in cache:
                                    continue
                                cache.add(key)
                                evaluated += 1
                                got = build_qset(
                                    report, b_minus, b_plus, above, list_cap,
                                    regime,
                                    umas=relation if regime.umas else None)
                                want = fast_qset(
                                    tables, report, b_minus, b_plus, above,
                                    list_cap, regime,
                                    umas_pairs if regime.umas else frozenset())
                                if got != want:
                                    mismatches.append((key, got, want))
    return checked, evaluated, mismatches


# ---------------------------------------------------------------------------
# matching oracles


def all_stable_matchings(eco: Economy) -> list[tuple[int, ...]]:
    """Every capacity-feasible assignment that is stable wrt submitted lists.

    Pure brute force over (J+1)^n assignments; usable for a handful of
    students only.
    """
    assert eco.reports is not None
    n, J = eco.n_students, eco.n_schools
    ranks = []
    for rol in eco.reports:
        ranks.append({j: r for r, j in enumerate(rol)})
    out = []
    for combo in np.ndindex(*((J + 1,) * n)):
        fills = [0] * (J + 1)
        ok = True
        for i, j in enumerate(combo):
            if j != OUTSIDE:
                if j not in ranks[i]:       # must be listed (rationality)
                    ok = False
                    break
                fills[j] += 1
        if not ok:
            continue
        if any(fills[j] > eco.capacities[j - 1] for j in range(1, J + 1)):
            continue
        if _has_blocking(eco, combo, ranks, fills):
            continue
        out.append(tuple(int(j) for j in combo))
    return out


def _has_blocking(eco, assignment, ranks, fills) -> bool:
    def pref(i: int, j: int) -> bool:
        mine = assignment[i]
        rj = ranks[i].get(j)
        if rj is None:
            return False
        if mine == OUTSIDE:
            return True
        return rj < ranks[i][mine]

    for i in range(eco.n_students):
        for j in ranks[i]:
            if not pref(i, j):
                continue
            if fills[j] < eco.capacities[j - 1]:
                return True                  # empty seat, justified claim
            for i2 in range(eco.n_students):
                if assignment[i2] == j and eco.score(i2, j) < eco.score(i, j):
                    return True              # weaker admitted student
    return False


def student_optimal(eco: Economy) -> tuple[int, ...] | None:
    """Pointwise-best stable assignment, when any stable assignment exists."""
    stable = all_stable_matchings(eco)
    if not stable:
        return None
    ranks = []
    for rol in eco.reports:
        ranks.append({j: r for r, j in enumerate(rol)})

    def rank_of(i: int, j: int) -> int:
        return ranks[i].get(j, len(ranks[i]))

    best = [min(rank_of(i, mu[i]) for mu in stable)
            for i in range(eco.n_students)]
    for mu in stable:
        if all(rank_of(i, mu[i]) == best[i] for i in range(eco.n_students)):
            return mu
    return None                              # no pointwise optimum (should not happen)


def sequential_da(eco: Economy) -> tuple[int, ...]:
    """One-proposal-at-a-time deferred acceptance.

    Processes a single free student per step instead of rounds; by the
    lattice structure of stable matchings the result must coincide with
    the round-based implementation.
    """
    assert eco.reports is not None
    n = eco.n_students
    next_choice = [0] * n
    held: dict[int, list[int]] = {j: [] for j in range(1, eco.n_schools + 1)}
    assigned = [OUTSIDE] * n
    free = list(range(n - 1, -1, -1))
    while free:
        i = free.pop()
        rol = eco.reports[i]
        while next_choice[i] < len(rol):
            j = rol[next_choice[i]]
            next_choice[i] += 1
            q = eco.capacities[j - 1]
            if q == 0:
                continue
            pool = held[j] + [i]
            pool.sort(key=lambda s: -eco.score(s, j))
            keep, drop = pool[:q], pool[q:]
            held[j] = keep
            if i in keep:
                assigned[i] = j
                for s in drop:
                    assigned[s] = OUTSIDE
                    free.append(s)
                break
        else:
            assigned[i] = OUTSIDE
    return tuple(assigned)


# ---------------------------------------------------------------------------
# containment-row oracles: the full union closure and connected subfamilies


def union_closure(members) -> set[frozenset]:
    """Every nonempty union of members: the rows the package kept before
    reducing them to connected unions, and the reference for that
    reduction."""
    closed: set[frozenset] = set()
    for m in set(members):
        closed |= {m | c for c in closed}
        closed.add(m)
    return closed


def _connected(family) -> bool:
    reached, todo = {0}, [0]
    while todo:
        a = family[todo.pop()]
        for k, b in enumerate(family):
            if k not in reached and a & b:
                reached.add(k)
                todo.append(k)
    return len(reached) == len(family)


def connected_subfamily_unions(members) -> set[frozenset]:
    """The union of every nonempty subfamily of distinct members whose
    overlap graph is connected, by enumerating all subfamilies."""
    distinct = list(set(members))
    return {frozenset().union(*chosen)
            for k in range(1, len(distinct) + 1)
            for chosen in combinations(distinct, k) if _connected(chosen)}


def closure_event_rows(sides) -> dict[frozenset, float]:
    """Event-LP rows over the full union closure: per set, the largest
    side's weight share of candidate sets inside it."""
    rows: dict[frozenset, float] = {}
    for obs in sides:
        if not obs:
            continue
        tot = sum(o.weight for o in obs)
        for a in union_closure(o.qset for o in obs):
            share = sum(o.weight for o in obs if o.qset <= a) / tot
            rows[a] = max(rows.get(a, 0.0), share)
    return rows


def highs_event_bounds(rows, event) -> tuple[float, float] | None:
    """[min, max] mass on ``event`` over the polytope of ``rows`` (set ->
    lower bound) plus an off-support residual, solved with scipy's HiGHS;
    None when the polytope is empty."""
    atoms = sorted(set().union(*rows))
    n = len(atoms) + 1
    A_ub = np.array([[-1.0 if p in a else 0.0 for p in atoms] + [0.0]
                     for a in rows])
    b_ub = -np.array(list(rows.values()))
    c = np.array([1.0 if p in event else 0.0 for p in atoms] + [0.0])
    return _highs_interval(c, A_ub, b_ub, np.ones((1, n)), np.ones(1))


def _highs_interval(c, A_ub, b_ub, A_eq, b_eq) -> tuple[float, float] | None:
    from scipy.optimize import linprog

    out = []
    for sign in (1.0, -1.0):
        res = linprog(sign * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS ended with status {res.status}: "
                               f"{res.message}")
        out.append(sign * res.fun)
    return out[0], out[1]


def highs_sharp_bounds(obs_plus, obs_minus, pair,
                       g) -> tuple[float, float] | None:
    """Sharp bounds on the outcome jump from the joint program with every
    outcome subset crossed with every set of the full union closure, solved
    with scipy's HiGHS; None when the program is infeasible.

    Variables are u[atom, y] (admitted), v[atom, y] (rejected), an
    off-support residual and the Charnes-Cooper scale t; the pair's mass in
    the admitted block is normalised to one.
    """
    atoms = sorted(set().union(*(o.qset for o in list(obs_plus)
                                 + list(obs_minus))))
    support = sorted({g(o.y) for o in list(obs_plus) + list(obs_minus)})
    n_a, n_y = len(atoms), len(support)
    n = 2 * n_a * n_y + 2
    t = n - 1

    def var(block, atom, y):
        return block * n_a * n_y + atoms.index(atom) * n_y + support.index(y)

    A_ub = []
    for block, obs in ((0, obs_plus), (1, obs_minus)):
        tot = sum(o.weight for o in obs)
        for b_set in union_closure(o.qset for o in obs):
            for k in range(1, n_y + 1):
                for y_set in combinations(support, k):
                    share = sum(o.weight for o in obs
                                if g(o.y) in y_set and o.qset <= b_set) / tot
                    row = np.zeros(n)
                    row[t] = share
                    for atom in b_set:
                        for y in y_set:
                            row[var(block, atom, y)] = -1.0
                    A_ub.append(row)
    A_eq, b_eq = [], []
    for atom in atoms:
        row = np.zeros(n)
        for y in support:
            row[var(0, atom, y)] = 1.0
            row[var(1, atom, y)] = -1.0
        A_eq.append(row)
        b_eq.append(0.0)
    row = np.zeros(n)
    for atom in atoms:
        for y in support:
            row[var(0, atom, y)] = 1.0
    row[n - 2], row[t] = 1.0, -1.0
    A_eq.append(row)
    b_eq.append(0.0)
    row = np.zeros(n)
    for y in support:
        row[var(0, pair, y)] = 1.0
    A_eq.append(row)
    b_eq.append(1.0)
    c = np.zeros(n)
    for y in support:
        c[var(0, pair, y)] = y
        c[var(1, pair, y)] = -y
    return _highs_interval(c, np.array(A_ub), np.zeros(len(A_ub)),
                           np.array(A_eq), np.array(b_eq))


# ---------------------------------------------------------------------------
# probability-grid oracles


def grid_event_bounds(atoms: tuple, rows, event, step: int = 100
                      ) -> tuple[float, float]:
    """[min, max] of an event probability over the row polytope, by grid.

    ``rows`` are (subset-of-atoms, lower-bound) pairs; masses live on the
    atoms plus one off-support residual, in multiples of 1/step.  The first
    atom's mass is looped over so four atoms never materialize the full
    mesh at once.
    """
    k = len(atoms)
    if k > 4:
        raise ValueError("grid oracle handles at most 4 atoms")
    atom_idx = {p: i for i, p in enumerate(atoms)}
    row_sel = [(frozenset(atom_idx[p] for p in subset if p in atom_idx),
                float(bound)) for subset, bound in rows]
    ev_sel = frozenset(atom_idx[p] for p in event if p in atom_idx)
    if k == 0:
        if any(bound > 1e-9 for _, bound in row_sel):
            raise ValueError("grid found no feasible point")
        return 0.0, 0.0

    if k > 1:
        axes = np.meshgrid(*([np.arange(step + 1)] * (k - 1)), indexing="ij")
        rest = np.stack([a.ravel() for a in axes]).astype(np.int32)
        rest = rest[:, rest.sum(axis=0) <= step]   # room left for atom 0
    else:
        rest = np.zeros((0, 1), dtype=np.int32)
    rest_sum = rest.sum(axis=0)
    # per-row mass over the non-looped atoms, whether atom 0 counts, and the
    # least integer mass meeting the bound
    row_rest = [(rest[sorted(i - 1 for i in sel if i > 0)].sum(axis=0)
                 if any(i > 0 for i in sel) else np.zeros_like(rest_sum),
                 0 in sel, math.ceil(bound * step - 1e-7))
                for sel, bound in row_sel]
    ev_rest = (rest[sorted(i - 1 for i in ev_sel if i > 0)].sum(axis=0)
               if any(i > 0 for i in ev_sel) else np.zeros_like(rest_sum))
    ev_has0 = 0 in ev_sel

    lo, hi = np.inf, -np.inf
    for m0 in range(step + 1):
        feasible = rest_sum + m0 <= step
        for part, has0, need in row_rest:
            feasible &= part + (m0 if has0 else 0) >= need
        if not feasible.any():
            continue
        vals = ev_rest[feasible] + (m0 if ev_has0 else 0)
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    if not np.isfinite(lo):
        raise ValueError("grid found no feasible point")
    return lo / step, hi / step


def joint_rows(obs, closure, g) -> list:
    """((outcome set, candidate-set union), joint frequency) triples."""
    tot = sum(o.weight for o in obs)
    out = []
    for b_set in closure:
        for y_set in (frozenset({0.0}), frozenset({1.0}),
                      frozenset({0.0, 1.0})):
            hit = sum(o.weight for o in obs
                      if g(o.y) in y_set and o.qset <= b_set)
            if hit > 0:
                out.append(((y_set, b_set), hit / tot))
    return out


def grid_sharp_ate_binary(atoms, pair, rows_plus, rows_minus,
                          step: int = 100) -> tuple[float, float]:
    """Sharp bounds on the binary outcome jump for the pair, by grid.

    Enumerates the shared true-pair masses in 1/step increments over two
    atoms plus a residual, and within each mass vector every split of each
    atom between outcome one and outcome zero, separately for the admitted
    block and the rejected block.  ``rows_*`` are
    ((outcome set, candidate-set union), joint frequency) pairs; a split is
    feasible when every row's frequency is covered by the matching masses.
    The jump for a configuration is the difference of the pair atom's
    outcome-one shares; the oracle returns the extremes over everything
    feasible with positive pair mass.
    """
    if len(atoms) != 2:
        raise ValueError("joint grid oracle handles exactly 2 atoms")
    pair_i = atoms.index(pair)
    lo, hi = np.inf, -np.inf
    for m1 in range(step + 1):
        n2 = step - m1 + 1
        m2 = np.arange(n2)[:, None, None]           # axes: m2, u1, u2
        u1 = np.arange(m1 + 1)[None, :, None]
        u2 = np.arange(n2)[None, None, :]
        valid = u2 <= m2

        def side_extremes(rows):
            feas = valid.copy()
            for (y_set, subset), bound in rows:
                acc = np.zeros(np.broadcast_shapes(m2.shape, u1.shape,
                                                   u2.shape))
                for i, atom in enumerate(atoms):
                    if atom not in subset:
                        continue
                    mi = m1 if i == 0 else m2
                    usplit = u1 if i == 0 else u2
                    if 1.0 in y_set:
                        acc = acc + usplit
                    if 0.0 in y_set:
                        acc = acc + (mi - usplit)
                feas = feas & (acc >= (bound - 1e-9) * step)
            upair = np.broadcast_to(u1 if pair_i == 0 else u2, feas.shape)
            mx = np.where(feas, upair, -1).max(axis=(1, 2))
            mn = np.where(feas, upair, step + 1).min(axis=(1, 2))
            return mn, mx                            # mx < 0 marks infeasible

        umin, umax = side_extremes(rows_plus)
        vmin, vmax = side_extremes(rows_minus)
        m_pair = np.full(n2, m1) if pair_i == 0 else np.arange(n2)
        ok = (umax >= 0) & (vmax >= 0) & (m_pair > 0)
        if not ok.any():
            continue
        hi = max(hi, float(((umax - vmin) / np.where(ok, m_pair, 1))[ok].max()))
        lo = min(lo, float(((umin - vmax) / np.where(ok, m_pair, 1))[ok].min()))
    if not np.isfinite(lo):
        raise ValueError("joint grid found no feasible configuration")
    return float(lo), float(hi)
