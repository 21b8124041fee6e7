"""Packaged instances with known answers.

Three hand-built economies anchor the test surface: a one-sided serial
dictatorship whose plus-side window realizes candidate-set masses exactly
0.1 / 0.3 / 0.6, a rigged cohort whose reports break truthful ordering and
must be caught by the falsification test, and a strategic mixture where
students stop listing an out-of-reach school just below its cutoff, biasing
the naive contrast below the identified interval.  A seeded generator of
random consistent mixture designs backs the coverage sweeps; each design
doubles as an exact population (via mass points) and as a finite sampled
cohort with capacities chosen so the realized cutoffs land on the design
targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .economy import (OUTSIDE, Economy, EconomyTruth,
                      is_strong_truthful_order, observe_outcomes)
from .localpref import best_reported
from .mechanism import CutoffProfile, Matching, extract_cutoffs, run_sd
from .population import LocalType, umas_from_cutoffs


class PresetError(ValueError):
    pass


@dataclass(frozen=True)
class PresetInstance:
    """A ready-to-analyze economy plus the window settings tests expect."""

    name: str
    economy: Economy
    matching: Matching
    cutoffs: CutoffProfile
    school: int
    fallback: int
    bandwidth: float
    min_local_n: int


def _full_order(prefix: Sequence[int], n_schools: int) -> tuple[int, ...]:
    """Complete a preference prefix into a strict order over 0..J.

    Schools missing from the prefix are appended after the outside option
    (unacceptable) in id order.
    """
    head = list(prefix)
    if OUTSIDE not in head:
        head.append(OUTSIDE)
    tail = [j for j in range(1, n_schools + 1) if j not in head]
    return tuple(head + tail)


def _finish(name: str, eco: Economy, school: int, fallback: int,
            bandwidth: float, min_local_n: int) -> PresetInstance:
    matching = run_sd(eco)
    cutoffs = extract_cutoffs(matching, eco)
    eco = observe_outcomes(eco, matching.assignment)
    return PresetInstance(name=name, economy=eco, matching=matching,
                          cutoffs=cutoffs, school=school, fallback=fallback,
                          bandwidth=bandwidth, min_local_n=min_local_n)


def _top_choice_potential(orders: Sequence[tuple[int, ...]],
                          n_schools: int) -> np.ndarray:
    """Binary potential outcomes: success iff assigned the true first choice."""
    pot = np.zeros((len(orders), n_schools + 1))
    for i, order in enumerate(orders):
        pot[i, order[0]] = 1.0
    return pot


# ---------------------------------------------------------------------------
# golden one-sided serial dictatorship


def golden_sd() -> PresetInstance:
    """Serial dictatorship whose plus-side window at the top school carries
    candidate-set masses exactly 0.1 / 0.3 / 0.6.

    Ten students sit just above the top cutoff: one lists (4,2,3), three
    list (4,3,2), six list (4,2,1).  Ladder students pin the four cutoffs
    at 200 < 400 < 600 < 800 and nobody scores inside the window below the
    top cutoff, so the minus side is empty by construction.  The mass
    pattern itself forces that: a nonempty minus side would add containment
    rows those three masses cannot satisfy.
    """
    window = [(809.0, (4, 2, 3))]
    window += [(s, (4, 3, 2)) for s in (806.0, 807.0, 808.0)]
    window += [(float(s), (4, 2, 1)) for s in range(800, 806)]
    ladder = [(float(s), (3,)) for s in range(600, 605)]
    ladder += [(float(s), (2,)) for s in range(400, 405)]
    ladder += [(float(s), (1,)) for s in range(200, 205)]
    rest = [(float(s), (1,)) for s in (101, 102, 103)]

    rows = window + ladder + rest
    scores = np.array([s for s, _ in rows])[:, None]
    reports = tuple(rol for _, rol in rows)
    orders = tuple(_full_order(rol, 4) for _, rol in rows)
    truth = EconomyTruth(pref_orders=np.array(orders),
                         potential=_top_choice_potential(orders, 4))
    eco = Economy(n_schools=4, list_cap=3, capacities=(5, 5, 5, 10),
                  score_groups=(0, 0, 0, 0), score_cols=scores,
                  reports=reports, truth=truth)
    return _finish("golden-sd", eco, school=4, fallback=2,
                   bandwidth=30.0, min_local_n=5)


# ---------------------------------------------------------------------------
# rigged reports that falsify truthful ordering


def rigged_wpo() -> PresetInstance:
    """Reports that no truthfully ordered list could produce.

    Schools 1 and 3 have zero seats.  Students who want school 4 and would
    settle for 2 report (4,2) above the anticipated cutoff but (4,3) below
    it, listing an unacceptable dead school instead of their fallback.  The
    two sides then pin conflicting singleton candidate sets whose implied
    masses sum above one, so the partition statistic exceeds one and the
    distribution polytope is empty under every regime.
    """
    rows = []
    rows += [(float(s), (4, 2), (4, 2, 0, 1, 3)) for s in range(800, 806)]
    rows += [(float(s), (2,), (2, 0, 1, 3, 4)) for s in range(810, 814)]
    rows += [(float(s), (4, 3), (4, 2, 0, 1, 3)) for s in range(780, 785)]
    rows += [(float(s), (2,), (2, 0, 1, 3, 4)) for s in range(785, 790)]
    rows += [(float(s), (2,), (2, 0, 1, 3, 4)) for s in range(300, 305)]

    scores = np.array([s for s, _, _ in rows])[:, None]
    reports = tuple(rol for _, rol, _ in rows)
    orders = tuple(order for _, _, order in rows)
    truth = EconomyTruth(pref_orders=np.array(orders),
                         potential=_top_choice_potential(orders, 4))
    eco = Economy(n_schools=4, list_cap=3, capacities=(0, 14, 0, 6),
                  score_groups=(0, 0, 0, 0), score_cols=scores,
                  reports=reports, truth=truth)
    return _finish("rigged-wpo", eco, school=4, fallback=2,
                   bandwidth=30.0, min_local_n=5)


# ---------------------------------------------------------------------------
# mixture designs: exact populations that can also be sampled


@dataclass(frozen=True)
class MixtureType:
    """One behavioral type in a mixture design.

    ``report`` is the list submitted by members scoring at or above the
    studied school's target cutoff; ``report_below`` (if set) replaces it
    below the target, the give-up-on-the-reach pattern.  ``probs`` holds
    the success probability per option, index = option id.
    """

    mass: float
    order: tuple[int, ...]
    report: tuple[int, ...]
    probs: tuple[float, ...]
    report_below: tuple[int, ...] | None = None
    label: str = ""

    def report_for(self, above_target: bool) -> tuple[int, ...]:
        if not above_target and self.report_below is not None:
            return self.report_below
        return self.report


@dataclass(frozen=True)
class MixtureDesign:
    """A finite type mixture over one shared score.

    ``cutoff_targets`` gives the intended cutoff per school, ``None`` for a
    school with ample seats (cutoff at the support floor).  The studied
    ``(school, fallback)`` pair is the contrast of interest.
    """

    name: str
    n_schools: int
    list_cap: int
    cutoff_targets: tuple[float | None, ...]
    types: tuple[MixtureType, ...]
    school: int
    fallback: int
    score_lo: float = 0.0
    score_hi: float = 1000.0

    def __post_init__(self) -> None:
        total = sum(t.mass for t in self.types)
        if abs(total - 1.0) > 1e-9:
            raise PresetError(f"type masses sum to {total}, not 1")
        if self.cutoff_targets[self.school - 1] is None:
            raise PresetError("studied school must have a binding cutoff")

    def split_at(self) -> float:
        c = self.cutoff_targets[self.school - 1]
        assert c is not None
        return c

    def floor_value(self) -> float:
        return self.score_lo - 1.0

    def population_cutoffs(self) -> dict[int, float]:
        out = {}
        for m, c in enumerate(self.cutoff_targets, start=1):
            out[m] = self.floor_value() if c is None else float(c)
        return out

    def population_types(self, side: str) -> list[LocalType]:
        above = side == "plus"
        out = []
        for t in self.types:
            outcomes = {d: t.probs[d] for d in range(self.n_schools + 1)}
            out.append(LocalType(mass=t.mass, report=t.report_for(above),
                                 order=t.order, outcomes=outcomes,
                                 label=t.label))
        return out


def strategic_showcase_design() -> MixtureDesign:
    """Mixture where the naive contrast falls strictly below the bounds.

    Two type-A variants prize school 4 and fall back on school 2; the A2
    variant drops school 4 from its list when scoring below the cutoff and
    has a much worse fallback outcome.  Type B never finds 4 acceptable.
    Conditioning on the reported pair (4,2) below the cutoff then keeps
    only the high-outcome A1 students, so the naive contrast understates
    the jump for the true (4,2) subgroup.
    """
    a_order = (4, 2, 1, 3, 0)
    b_order = (2, 1, 3, 0, 4)
    types = (
        MixtureType(mass=0.4, order=a_order, report=(4, 2, 1),
                    probs=(0.1, 0.3, 0.6, 0.4, 0.7), label="A1"),
        MixtureType(mass=0.4, order=a_order, report=(4, 2, 1),
                    report_below=(2, 1, 3),
                    probs=(0.1, 0.3, 0.05, 0.4, 0.7), label="A2"),
        MixtureType(mass=0.2, order=b_order, report=(2, 1, 3),
                    probs=(0.1, 0.3, 0.8, 0.4, 0.0), label="B"),
    )
    return MixtureDesign(name="strategic-showcase", n_schools=4, list_cap=3,
                         cutoff_targets=(None, 300.0, None, 800.0),
                         types=types, school=4, fallback=2)


def sample_economy(design: MixtureDesign, n: int,
                   seed: int) -> PresetInstance:
    """Draw a finite cohort from a mixture design.

    Capacities are set to the realized head counts intending each full
    school, so the serial dictatorship reproduces every student's intended
    assignment and each realized cutoff lands at the lowest intending score
    above its target.
    """
    rng = np.random.default_rng((seed, 0xD16E57))
    scores = rng.uniform(design.score_lo, design.score_hi, size=n)
    while np.unique(scores).size < n:    # ties have probability ~0
        scores = rng.uniform(design.score_lo, design.score_hi, size=n)
    masses = np.array([t.mass for t in design.types])
    kinds = rng.choice(len(design.types), size=n, p=masses)
    split = design.split_at()

    reports = []
    intended = []
    targets = design.cutoff_targets
    for i in range(n):
        t = design.types[kinds[i]]
        rol = t.report_for(scores[i] >= split)
        reports.append(rol)
        budget = frozenset(
            {OUTSIDE} | {m for m in range(1, design.n_schools + 1)
                         if targets[m - 1] is None or scores[i] >= targets[m - 1]})
        intended.append(best_reported(rol, budget))
    intended_arr = np.array(intended)

    capacities = []
    for m in range(1, design.n_schools + 1):
        if targets[m - 1] is None:
            capacities.append(n)
        else:
            count = int((intended_arr == m).sum())
            if count == 0:
                raise PresetError(
                    f"no student intends school {m}; design targets unrealizable")
            capacities.append(count)

    probs = np.array([t.probs for t in design.types])
    potential = (rng.random((n, design.n_schools + 1))
                 < probs[kinds]).astype(float)
    orders = np.array([design.types[k].order for k in kinds])
    truth = EconomyTruth(pref_orders=orders, potential=potential)
    eco = Economy(n_schools=design.n_schools, list_cap=design.list_cap,
                  capacities=tuple(capacities),
                  score_groups=(0,) * design.n_schools,
                  score_cols=scores[:, None], reports=tuple(reports),
                  truth=truth)
    inst = _finish(design.name, eco, school=design.school,
                   fallback=design.fallback, bandwidth=30.0,
                   min_local_n=50)
    for m in range(1, design.n_schools + 1):
        if targets[m - 1] is not None and inst.cutoffs.cutoff(m) < targets[m - 1]:
            raise PresetError(f"realized cutoff for school {m} undershoots target")
    return inst


# ---------------------------------------------------------------------------
# random consistent designs for the coverage sweeps


def _umas_ok(report: Sequence[int], order: Sequence[int],
             cutoffs: dict[int, float]) -> bool:
    """No listed school may silently dominate an unlisted easier one.

    Listing ``d`` but not ``e`` when access to ``d`` implies access to
    ``e`` is read downstream as a true preference for ``d``; the type is
    only consistent if its order agrees.
    """
    listed = set(report)
    pos = {j: r for r, j in enumerate(order)}
    return not any(d in listed and e not in listed
                   and pos.get(e, len(pos)) < pos[d]
                   for d, e in umas_from_cutoffs(cutoffs).pairs)


def _type_consistent(t: MixtureType, design: MixtureDesign) -> bool:
    cutoffs = design.population_cutoffs()
    for rol in (t.report, t.report_below):
        if rol is None:
            continue
        if not (is_strong_truthful_order(rol, t.order, design.list_cap)
                and _umas_ok(rol, t.order, cutoffs)):
            return False
    if t.report_below is not None and design.school in t.report_below:
        return False                       # below-side list must drop the school
    return True


def random_mixture_design(seed: int) -> MixtureDesign:
    """A random mixture design that is consistent under every regime.

    Anchors guarantee mass on the studied pair on both sides; every type's
    lists are truthfully ordered, fill the cap whenever more schools are
    acceptable, and never skip a school that is easier to enter than a
    listed one unless it is truly less preferred.  These properties are
    re-checked programmatically before the design is returned.
    """
    rng = np.random.default_rng((seed, 0x5D351))
    for attempt in range(32):
        design = _draw_design(rng)
        if design is not None and all(
                _type_consistent(t, design) for t in design.types):
            return design
    raise PresetError(f"no consistent design found for seed {seed}")


def _draw_design(rng: np.random.Generator) -> MixtureDesign | None:
    J = int(rng.integers(3, 6))
    K = int(rng.integers(2, min(3, J - 1) + 1))
    n_full = int(rng.integers(2, min(3, J) + 1))
    levels = [200.0, 350.0, 500.0, 650.0, 800.0]
    picks = sorted(rng.choice(len(levels), size=n_full, replace=False))
    full_schools = [int(m) for m in
                    rng.permutation(np.arange(1, J + 1))[:n_full]]
    targets: list[float | None] = [None] * J
    for m, lev in zip(full_schools, picks):
        targets[m - 1] = levels[lev]
    by_cut = sorted((c, m) for m, c in enumerate(targets, start=1)
                    if c is not None)
    school = by_cut[-1][1]
    fallback = by_cut[-2][1]
    others = [m for m in range(1, J + 1) if m not in (school, fallback)]
    types: list[MixtureType] = []
    weights: list[int] = []

    def prefix_report(order: tuple[int, ...]) -> tuple[int, ...]:
        acc = []
        for d in order:
            if d == OUTSIDE:
                break
            acc.append(d)
        return tuple(acc[:K])

    def rand_probs() -> tuple[float, ...]:
        return tuple(float(v) / 100.0
                     for v in rng.integers(5, 96, size=J + 1))

    def add(t: MixtureType, lo: int, hi: int) -> None:
        types.append(t)
        weights.append(int(rng.integers(lo, hi)))

    # anchor with exactly {school, fallback} acceptable: both windows pin
    # its candidate set to the studied pair alone under the strong order
    # or access-deduction regimes, keeping the trimming share positive
    order = _full_order((school, fallback), J)
    add(MixtureType(mass=0.0, order=order, report=(school, fallback),
                    probs=rand_probs(), label="anchor-tight"), 20, 35)

    # anchor listing a cap-length truthful prefix through the pair
    shuffled = [int(m) for m in rng.permutation(np.array(others))]
    order = tuple([school, fallback] + shuffled[:K - 2] + [OUTSIDE]
                  + shuffled[K - 2:])
    add(MixtureType(mass=0.0, order=order, report=prefix_report(order),
                    probs=rand_probs(), label="anchor-prefix"), 15, 30)

    # generic truthful-prefix types
    for idx in range(int(rng.integers(2, 4))):
        perm = [int(m) for m in rng.permutation(np.arange(1, J + 1))]
        n_acc = int(rng.integers(1, J + 1))
        order = tuple(perm[:n_acc] + [OUTSIDE] + perm[n_acc:])
        add(MixtureType(mass=0.0, order=order, report=prefix_report(order),
                        probs=rand_probs(), label=f"prefix-{idx}"), 8, 25)

    # sometimes a type that stops listing the studied school below its
    # cutoff; the below list refills the cap from deeper true choices, so
    # both lists stay truthfully ordered and cap-saturated
    if rng.random() < 0.6 and J >= K + 1:
        deeper = [int(m) for m in rng.permutation(np.array(others))]
        acc = [school, fallback] + deeper[:K - 1]
        order = tuple(acc + [OUTSIDE] + deeper[K - 1:])
        below = tuple(acc[1:K + 1])
        add(MixtureType(mass=0.0, order=order, report=prefix_report(order),
                        report_below=below, probs=rand_probs(),
                        label="drop-below"), 8, 20)

    # one single-minded type per full school so every targeted capacity
    # attracts takers when the design is sampled
    for m in full_schools:
        order = _full_order((m,), J)
        add(MixtureType(mass=0.0, order=order, report=(m,),
                        probs=rand_probs(), label=f"loyal-{m}"), 4, 10)

    masses = _hundredths(np.array(weights, dtype=float))
    types = [MixtureType(mass=w, order=t.order, report=t.report,
                         probs=t.probs, report_below=t.report_below,
                         label=t.label)
             for w, t in zip(masses, types)]
    try:
        return MixtureDesign(name="mixture", n_schools=J, list_cap=K,
                             cutoff_targets=tuple(targets),
                             types=tuple(types), school=school,
                             fallback=fallback)
    except PresetError:
        return None


def anchored_mixture_design(seed: int) -> MixtureDesign:
    """A random mixture in which every type ranks the studied school first.

    Below the cutoff each student then attends the first school on their
    list after the studied one, so the below-side candidate sets are all
    singletons, while the above-side sets stay ambiguous for the types
    listing two fallbacks.  Partner schools are arranged in a ring, which
    keeps every cross-side containment inequality strictly slack at
    population scale.  Finite-cohort analyses of these designs therefore
    remain feasible with high probability, making the family suitable for
    repeated-sampling coverage experiments; contrast the unrestricted
    :func:`random_mixture_design`, whose mixtures sit on the boundary of
    the containment constraints and trip falsification in roughly half of
    all finite draws.
    """
    rng = np.random.default_rng((seed, 0xA2C402))
    J = 5
    school = int(rng.integers(1, J + 1))
    target = float(rng.choice([500.0, 650.0, 800.0]))
    pool = [m for m in range(1, J + 1) if m != school]
    a, b, c = (int(m) for m in rng.permutation(pool)[:3])

    reports = [(school, a), (school, b), (school, c),
               (school, a, b), (school, b, c), (school, c, a)]
    if rng.random() < 0.5:
        reports.append((school, a, c))

    weights = rng.uniform(8.0, 25.0, size=len(reports))
    masses = _hundredths(weights)
    types = []
    for rep, mass in zip(reports, masses):
        probs = tuple(float(p) for p in rng.uniform(0.15, 0.85, size=J + 1))
        types.append(MixtureType(mass=mass, order=_full_order(rep, J),
                                 report=rep, probs=probs,
                                 label="-".join(map(str, rep))))
    targets: list[float | None] = [None] * J
    targets[school - 1] = target
    design = MixtureDesign(name=f"anchored-{seed}", n_schools=J, list_cap=3,
                           cutoff_targets=tuple(targets),
                           types=tuple(types), school=school, fallback=a)
    if not all(_type_consistent(t, design) for t in design.types):
        raise PresetError(f"anchored design for seed {seed} is inconsistent")
    return design


def _hundredths(weights: np.ndarray) -> list[float]:
    """Scale positive weights to exact hundredths summing to one."""
    shares = weights * 100.0 / weights.sum()
    base = np.floor(shares).astype(int)
    frac = shares - base
    for idx in np.argsort(-frac, kind="stable")[: 100 - base.sum()]:
        base[idx] += 1
    if base.min() <= 0:
        base[base.argmax()] -= base.size
        base = base + 1
    return [v / 100.0 for v in base]
