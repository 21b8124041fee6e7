"""Synthetic school-choice economies.

An economy is a finite list of students, each carrying a strict preference
order over schools plus the outside option, a placement score per score
column, potential outcomes for every option, and (once a reporting model has
run) a submitted rank-ordered list of at most ``list_cap`` schools.

Schools are numbered ``1..J``; option ``0`` is the outside option and is
always available.  Score sharing is structural: ``score_groups[j-1]`` names
the score column used by school ``j``, and two schools "share a score" iff
they share a column, never by numeric coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

OUTSIDE = 0


class EconomyError(ValueError):
    """Raised for malformed economies or configs."""


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class EconomyTruth:
    """Ground truth held by the simulator, absent for ingested data.

    ``pref_orders`` has one row per student listing all of ``0..J`` from best
    to worst.  ``potential`` column ``d`` is the outcome the student would
    realize if assigned option ``d`` (column 0 = outside).
    """

    pref_orders: np.ndarray
    potential: np.ndarray

    def acceptable(self, i: int) -> tuple[int, ...]:
        """Schools student ``i`` strictly prefers to the outside option."""
        row = self.pref_orders[i]
        out = []
        for d in row:
            if d == OUTSIDE:
                break
            out.append(int(d))
        return tuple(out)

    def rank_of(self, i: int, option: int) -> int:
        """1-based position of ``option`` in student ``i``'s true order."""
        row = self.pref_orders[i]
        pos = int(np.nonzero(row == option)[0][0])
        return pos + 1


@dataclass(frozen=True)
class Economy:
    n_schools: int
    list_cap: int
    capacities: tuple[int, ...]
    score_groups: tuple[int, ...]
    score_cols: np.ndarray
    reports: tuple[tuple[int, ...], ...] | None = None
    y_observed: np.ndarray | None = None
    truth: EconomyTruth | None = None
    beliefs: np.ndarray | None = None

    def __post_init__(self) -> None:
        J = self.n_schools
        if J < 1:
            raise EconomyError("need at least one school")
        if self.list_cap < 1:
            raise EconomyError("list_cap must be >= 1")
        if len(self.capacities) != J:
            raise EconomyError("capacities must have one entry per school")
        if any(q < 0 for q in self.capacities):
            raise EconomyError("capacities must be non-negative")
        if len(self.score_groups) != J:
            raise EconomyError("score_groups must have one entry per school")
        n_cols = self.score_cols.shape[1] if self.score_cols.ndim == 2 else -1
        if n_cols < 1 or self.n_students < 1:
            raise EconomyError("score_cols must be a non-empty 2-d array")
        if any(not 0 <= g < n_cols for g in self.score_groups):
            raise EconomyError("score_groups references a missing column")
        if self.reports is not None:
            if len(self.reports) != self.n_students:
                raise EconomyError("reports must have one list per student")
            validate_reports(self.reports, J, self.list_cap)

    @property
    def n_students(self) -> int:
        return int(self.score_cols.shape[0])

    def score(self, i: int, j: int) -> float:
        """Placement score of student ``i`` at school ``j``."""
        return float(self.score_cols[i, self.score_groups[j - 1]])

    def school_scores(self, j: int) -> np.ndarray:
        """Score column used by school ``j``, one value per student."""
        return self.score_cols[:, self.score_groups[j - 1]]

    def shares_score(self, j: int, m: int) -> bool:
        """True iff schools ``j`` and ``m`` draw on the same score column."""
        return self.score_groups[j - 1] == self.score_groups[m - 1]

    def score_floor(self) -> float:
        """Support infimum used for cutoffs of under-filled schools."""
        return float(self.score_cols.min()) - 1.0


def validate_report(rol: Sequence[int], n_schools: int, list_cap: int,
                    who: str = "report") -> None:
    if not 1 <= len(rol) <= list_cap:
        raise EconomyError(f"{who}: list length {len(rol)} outside 1..{list_cap}")
    if len(set(rol)) != len(rol):
        raise EconomyError(f"{who}: duplicate school in list")
    for j in rol:
        if not 1 <= j <= n_schools:
            raise EconomyError(f"{who}: school id {j} out of range")


def validate_reports(reports: Sequence[tuple[int, ...]], n_schools: int,
                     list_cap: int) -> None:
    """``validate_report`` on every list, list ``i`` named "student i".

    Each distinct list is checked once; only when one fails are the lists
    gone through in order to name the first student holding a bad one.
    """
    try:
        for rol in set(reports):
            validate_report(rol, n_schools, list_cap)
        return
    except (EconomyError, TypeError):      # a bad or unhashable list
        pass
    for i, rol in enumerate(reports):
        validate_report(rol, n_schools, list_cap, who=f"student {i}")


# ---------------------------------------------------------------------------
# truthfulness checkers


def is_weak_truthful_order(report: Sequence[int], pref_order: Sequence[int],
                           list_cap: int) -> bool:
    """Report lists 1..cap schools, all acceptable, in true relative order."""
    if not 1 <= len(report) <= list_cap:
        return False
    if len(set(report)) != len(report):
        return False
    pos = {int(d): r for r, d in enumerate(pref_order)}
    out_pos = pos[OUTSIDE]
    last = -1
    for j in report:
        p = pos.get(int(j))
        if p is None or p > out_pos:
            return False          # unacceptable school listed
        if p < last:
            return False          # true order broken
        last = p
    return True


def is_strong_truthful_order(report: Sequence[int], pref_order: Sequence[int],
                             list_cap: int) -> bool:
    """Weak conditions plus maximal length: ``|P| = min(cap, #acceptable)``."""
    if not is_weak_truthful_order(report, pref_order, list_cap):
        return False
    pos = {int(d): r for r, d in enumerate(pref_order)}
    n_acc = pos[OUTSIDE]          # schools ranked above the outside option
    return len(report) == min(list_cap, n_acc)


# ---------------------------------------------------------------------------
# data-generating process


@dataclass(frozen=True)
class OutcomeModel:
    """Potential outcomes ``Y(d) = rank_weight * (pull of d) + effect_d + noise``.

    The pull term decreases in the student's true rank of ``d``, so higher
    preference predicts better outcomes.  With ``kind="binary"`` the latent
    value is thresholded to {0, 1}.
    """

    kind: str = "binary"
    rank_weight: float = 1.0
    school_effects: tuple[float, ...] | None = None
    noise_sd: float = 0.5
    threshold: float = 1.0


@dataclass(frozen=True)
class ReportingModel:
    """Which reporting rule fills the ROLs.

    model:
      * ``truth_topk``   -- best ``min(cap, #acceptable)`` schools, true order.
      * ``belief_skip``  -- as above, but drop out-of-reach schools first.
      * ``adversarial``  -- side-dependent lists that break truthful order.

    For ``belief_skip``, each student's believed cutoffs are the supplied
    (or pilot-run) cutoffs plus N(0, noise_sd) noise; a school is dropped
    when the student's score falls below both the believed cutoff minus
    ``margin`` and the realized cutoff.  With ``rational_floor`` the best
    actually-attainable acceptable school is never dropped, which keeps
    assignments consistent with true preferences.  Believed cutoffs are
    recorded on the economy for auditability.
    """

    model: str = "truth_topk"
    noise_sd: float = 0.0
    margin: float = 0.0
    rational_floor: bool = True
    adversarial_school: int | None = None


@dataclass(frozen=True)
class DGPConfig:
    n_students: int = 1000
    n_schools: int = 4
    list_cap: int = 3
    capacities: tuple[int, ...] | None = None
    capacity_fracs: tuple[float, ...] | None = None
    score_mode: str = "sd"               # "sd" | "independent" | "correlated"
    score_corr: float = 0.5
    score_mean: float = 500.0
    score_sd: float = 100.0
    quality: tuple[float, ...] | None = None
    taste_sd: float = 1.0
    outside_strength: float = 0.0
    max_acceptable: int | None = None
    all_acceptable: bool = False
    outcome: OutcomeModel = field(default_factory=OutcomeModel)
    reporting: ReportingModel = field(default_factory=ReportingModel)
    seed: int = 0

    @staticmethod
    def from_dict(raw: dict) -> "DGPConfig":
        d = dict(raw)
        for key in ("capacities", "capacity_fracs", "quality"):
            if d.get(key) is not None:
                d[key] = tuple(d[key])
        if isinstance(d.get("outcome"), dict):
            o = dict(d["outcome"])
            if o.get("school_effects") is not None:
                o["school_effects"] = tuple(o["school_effects"])
            d["outcome"] = OutcomeModel(**o)
        if isinstance(d.get("reporting"), dict):
            d["reporting"] = ReportingModel(**d["reporting"])
        return DGPConfig(**d)

    def to_dict(self) -> dict:
        out = {
            "n_students": self.n_students,
            "n_schools": self.n_schools,
            "list_cap": self.list_cap,
            "capacities": list(self.capacities) if self.capacities else None,
            "capacity_fracs": list(self.capacity_fracs) if self.capacity_fracs else None,
            "score_mode": self.score_mode,
            "score_corr": self.score_corr,
            "score_mean": self.score_mean,
            "score_sd": self.score_sd,
            "quality": list(self.quality) if self.quality else None,
            "taste_sd": self.taste_sd,
            "outside_strength": self.outside_strength,
            "max_acceptable": self.max_acceptable,
            "all_acceptable": self.all_acceptable,
            "outcome": {
                "kind": self.outcome.kind,
                "rank_weight": self.outcome.rank_weight,
                "school_effects": (list(self.outcome.school_effects)
                                   if self.outcome.school_effects else None),
                "noise_sd": self.outcome.noise_sd,
                "threshold": self.outcome.threshold,
            },
            "reporting": {
                "model": self.reporting.model,
                "noise_sd": self.reporting.noise_sd,
                "margin": self.reporting.margin,
                "rational_floor": self.reporting.rational_floor,
                "adversarial_school": self.reporting.adversarial_school,
            },
            "seed": self.seed,
        }
        return out


def _unique_scores(col: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Jitter a score column until values are pairwise distinct.

    Exact ties break the strict-priority model, so the simulator enforces
    tie-freedom at generation time.
    """
    col = col.astype(float).copy()
    for _ in range(64):
        _, counts = np.unique(col, return_counts=True)
        if counts.max(initial=1) == 1:
            return col
        dup = counts.max() > 1
        col = col + rng.normal(0.0, 1e-9, size=col.shape)
        if not dup:
            break
    raise EconomyError("could not de-tie score column")


def _resolve_capacities(cfg: DGPConfig) -> tuple[int, ...]:
    if cfg.capacities is not None:
        if len(cfg.capacities) != cfg.n_schools:
            raise EconomyError("capacities length mismatch")
        return tuple(int(q) for q in cfg.capacities)
    fracs = cfg.capacity_fracs
    if fracs is None:
        # decreasing seat shares so later (higher-quality) schools are scarce
        fracs = tuple(0.25 / (k + 1) for k in range(cfg.n_schools))[::-1]
    if len(fracs) != cfg.n_schools:
        raise EconomyError("capacity_fracs length mismatch")
    return tuple(max(1, int(round(f * cfg.n_students))) for f in fracs)


def generate_economy(cfg: DGPConfig) -> Economy:
    """Draw an economy from the config; same seed, same economy, bit for bit.

    Reports are filled according to ``cfg.reporting`` (a pilot truthful match
    supplies belief cutoffs when the model needs them).
    """
    rng = np.random.default_rng(cfg.seed)
    n, J, K = cfg.n_students, cfg.n_schools, cfg.list_cap
    if n < 1:
        raise EconomyError("n_students must be >= 1")
    if not 1 <= K:
        raise EconomyError("list_cap must be >= 1")

    # scores
    if cfg.score_mode == "sd":
        n_cols = 1
        groups = tuple(0 for _ in range(J))
        cols = rng.normal(cfg.score_mean, cfg.score_sd, size=(n, 1))
    elif cfg.score_mode == "independent":
        n_cols = J
        groups = tuple(range(J))
        cols = rng.normal(cfg.score_mean, cfg.score_sd, size=(n, J))
    elif cfg.score_mode == "correlated":
        n_cols = J
        groups = tuple(range(J))
        rho = float(np.clip(cfg.score_corr, 0.0, 0.999))
        common = rng.normal(0.0, 1.0, size=(n, 1))
        own = rng.normal(0.0, 1.0, size=(n, J))
        z = np.sqrt(rho) * common + np.sqrt(1.0 - rho) * own
        cols = cfg.score_mean + cfg.score_sd * z
    else:
        raise EconomyError(f"unknown score_mode {cfg.score_mode!r}")
    for c in range(n_cols):
        cols[:, c] = _unique_scores(cols[:, c], rng)
    cols.setflags(write=False)

    # preferences from a random-utility model over options 0..J
    quality = cfg.quality
    if quality is None:
        quality = tuple(0.5 * j for j in range(J))     # school J most desired
    if len(quality) != J:
        raise EconomyError("quality length mismatch")
    util = np.empty((n, J + 1))
    util[:, 0] = cfg.outside_strength + cfg.taste_sd * rng.normal(size=n)
    util[:, 1:] = np.asarray(quality) + cfg.taste_sd * rng.normal(size=(n, J))
    order = np.argsort(-util, axis=1, kind="stable").astype(np.int64)

    # everyone participates: at least one acceptable school
    top_outside = order[:, 0] == OUTSIDE
    if top_outside.any():
        idx = np.nonzero(top_outside)[0]
        order[idx, 0] = order[idx, 1]
        order[idx, 1] = OUTSIDE
    if cfg.all_acceptable:
        for i in range(n):
            row = order[i]
            keep = row[row != OUTSIDE]
            order[i, :J] = keep
            order[i, J] = OUTSIDE
    elif cfg.max_acceptable is not None:
        cap = int(cfg.max_acceptable)
        if cap < 1:
            raise EconomyError("max_acceptable must be >= 1")
        for i in range(n):
            row = order[i]
            out_pos = int(np.nonzero(row == OUTSIDE)[0][0])
            if out_pos > cap:
                keep = [d for d in row if d != OUTSIDE]
                new = keep[:cap] + [OUTSIDE] + keep[cap:]
                order[i] = new
    order.setflags(write=False)

    # potential outcomes
    om = cfg.outcome
    effects = om.school_effects
    if effects is None:
        effects = tuple(0.0 for _ in range(J))
    if len(effects) != J:
        raise EconomyError("school_effects length mismatch")
    inv = np.argsort(order, axis=1)     # inv[i, d] = 0-based rank of option d
    pull = (J - inv) / max(J, 1)        # 1 for the favourite, decreasing
    latent = om.rank_weight * pull + rng.normal(0.0, om.noise_sd, size=(n, J + 1))
    latent[:, 1:] += np.asarray(effects)
    if om.kind == "binary":
        potential = (latent > om.threshold).astype(float)
    elif om.kind == "continuous":
        potential = latent
    else:
        raise EconomyError(f"unknown outcome kind {om.kind!r}")
    potential.setflags(write=False)

    eco = Economy(
        n_schools=J,
        list_cap=K,
        capacities=_resolve_capacities(cfg),
        score_groups=groups,
        score_cols=cols,
        truth=EconomyTruth(pref_orders=order, potential=potential),
    )
    return generate_reports(eco, cfg.reporting, seed=cfg.seed)


# ---------------------------------------------------------------------------
# reporting models


def _truth_topk_reports(eco: Economy) -> tuple[tuple[int, ...], ...]:
    out = []
    for i in range(eco.n_students):
        acc = eco.truth.acceptable(i)
        out.append(tuple(acc[: eco.list_cap]))
    return tuple(out)


def _pilot_cutoffs(eco: Economy) -> tuple[float, ...]:
    """Cutoffs from a truthful pilot run of the student-proposing match."""
    from .mechanism import extract_cutoffs, run_da

    pilot = replace(eco, reports=_truth_topk_reports(eco))
    matching = run_da(pilot)
    return extract_cutoffs(matching, pilot).values


def _belief_skip_reports(
    eco: Economy, model: ReportingModel, rng: np.random.Generator,
    cutoffs: Sequence[float],
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    J, K = eco.n_schools, eco.list_cap
    base = np.asarray(cutoffs, dtype=float)
    beliefs = base[None, :] + rng.normal(0.0, model.noise_sd,
                                         size=(eco.n_students, J))
    reports = []
    for i in range(eco.n_students):
        acc = eco.truth.acceptable(i)
        feasible = [j for j in acc if eco.score(i, j) >= base[j - 1]]
        kept = []
        for j in acc:
            s = eco.score(i, j)
            hopeless = s < beliefs[i, j - 1] - model.margin
            if hopeless and s < base[j - 1]:
                continue            # out of reach and believed so: drop
            kept.append(j)
        rol = kept[:K]
        if model.rational_floor and feasible:
            best = feasible[0]      # acc is in true order of preference
            if best not in rol:
                pool = set(rol)
                if len(pool) >= K:
                    pool.discard(rol[-1])   # make room, drop least preferred
                pool.add(best)
                rol = [j for j in acc if j in pool]
        if not rol:
            rol = [acc[0]]
        reports.append(tuple(rol))
    beliefs.setflags(write=False)
    return tuple(reports), beliefs


def _adversarial_reports(
    eco: Economy, model: ReportingModel, rng: np.random.Generator,
    cutoffs: Sequence[float],
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Side-dependent lists that violate truthful order below the cutoff.

    Students acceptable to the target school list it truthfully when they
    believe they clear its cutoff; otherwise they swap in the school just
    above the target id (whether or not they find it acceptable).  The
    result is a reporting rule no truthful-order analysis can rationalize.
    """
    J, K = eco.n_schools, eco.list_cap
    target = model.adversarial_school or J
    base = np.asarray(cutoffs, dtype=float)
    beliefs = np.repeat(base[None, :], eco.n_students, axis=0)
    swap = target - 1 if target > 1 else target + 1
    reports = []
    for i in range(eco.n_students):
        acc = eco.truth.acceptable(i)
        rol = list(acc[:K])
        if target in rol and eco.score(i, target) < base[target - 1]:
            rol = [swap if j == target else j for j in rol]
            if len(set(rol)) != len(rol):
                rol = [j for k, j in enumerate(rol) if j not in rol[:k]]
        reports.append(tuple(rol))
    beliefs.setflags(write=False)
    return tuple(reports), beliefs


def generate_reports(eco: Economy, model: ReportingModel,
                     seed: int = 0) -> Economy:
    """Return a copy of the economy with submitted lists filled in."""
    if eco.truth is None:
        raise EconomyError("reporting models need ground-truth preferences")
    rng = np.random.default_rng((seed, 0x5eed))
    if model.model == "truth_topk":
        return replace(eco, reports=_truth_topk_reports(eco))
    if model.model == "belief_skip":
        cutoffs = _pilot_cutoffs(eco)
        reports, beliefs = _belief_skip_reports(eco, model, rng, cutoffs)
        return replace(eco, reports=reports, beliefs=beliefs)
    if model.model == "adversarial":
        cutoffs = _pilot_cutoffs(eco)
        reports, beliefs = _adversarial_reports(eco, model, rng, cutoffs)
        return replace(eco, reports=reports, beliefs=beliefs)
    raise EconomyError(f"unknown reporting model {model.model!r}")


def observe_outcomes(eco: Economy, assignment: Sequence[int]) -> Economy:
    """Fill observed outcomes ``y_i = Y_i(assigned option)`` from the truth."""
    if eco.truth is None:
        raise EconomyError("cannot observe outcomes without ground truth")
    idx = np.asarray(assignment, dtype=np.int64)
    if idx.shape != (eco.n_students,):
        raise EconomyError("assignment length mismatch")
    y = eco.truth.potential[np.arange(eco.n_students), idx]
    y = y.copy()
    y.setflags(write=False)
    return replace(eco, y_observed=y)
