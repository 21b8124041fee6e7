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

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

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


def _check_numbers(obj: object, prefix: str,
                   spec: Mapping[str, tuple[type, float | None]]) -> None:
    """Raise ``EconomyError`` naming the first field of ``obj`` in ``spec``
    that is not an ``int`` or a finite ``float``, as ``spec`` says, of at
    least its least value.  A tuple is checked item by item; a field whose
    default is None may be None."""
    for name, (kind, least) in spec.items():
        value = getattr(obj, name)
        if value is None and getattr(type(obj), name, 0) is None:
            continue
        for v in value if isinstance(value, tuple) else (value,):
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not (isinstance(v, numbers.Integral) if kind is int
                            else math.isfinite(v))
                    or least is not None and v < least):
                what = "an integer" if kind is int else "a finite number"
                at_least = "" if least is None else f" >= {least}"
                raise EconomyError(f"{prefix}{name}: expected {what}"
                                   f"{at_least}, got {v!r}")


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

    def __post_init__(self) -> None:
        _check_numbers(self, "outcome.", {
            "rank_weight": (float, None), "school_effects": (float, None),
            "noise_sd": (float, 0.0), "threshold": (float, None)})


@dataclass(frozen=True)
class ReportingModel:
    """Which reporting rule fills the ROLs.

    model:
      * ``truth_topk``   -- best ``min(cap, #acceptable)`` schools, true order.
      * ``belief_skip``  -- as above, but drop out-of-reach schools first.
      * ``adversarial``  -- side-dependent lists that break truthful order
        at ``adversarial_school`` (default: the last school); needs two
        schools.

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

    def __post_init__(self) -> None:
        _check_numbers(self, "reporting.", {
            "noise_sd": (float, 0.0), "margin": (float, None),
            "adversarial_school": (int, 1)})


def _check_adversarial(model: ReportingModel, n_schools: int) -> None:
    """The adversarial rule needs a target school and another to swap in."""
    if model.model != "adversarial":
        return
    if n_schools < 2:
        raise EconomyError(f"reporting.model: 'adversarial' needs at least"
                           f" 2 schools, got n_schools {n_schools}")
    target = model.adversarial_school
    if target is not None and target > n_schools:
        raise EconomyError(f"reporting.adversarial_school: expected a school"
                           f" in 1..{n_schools}, got {target}")


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

    def __post_init__(self) -> None:
        _check_numbers(self, "", {
            "n_students": (int, 1), "n_schools": (int, 1),
            "list_cap": (int, 1), "capacities": (int, 0),
            "capacity_fracs": (float, 0.0), "score_corr": (float, None),
            "score_mean": (float, None), "score_sd": (float, 0.0),
            "quality": (float, None), "taste_sd": (float, None),
            "outside_strength": (float, None), "max_acceptable": (int, 1),
            "seed": (int, 0)})
        for name, kind in (("outcome", OutcomeModel),
                           ("reporting", ReportingModel)):
            if not isinstance(getattr(self, name), kind):
                raise EconomyError(f"{name}: expected an object, got"
                                   f" {getattr(self, name)!r}")
        _check_adversarial(self.reporting, self.n_schools)

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
        col = col + rng.normal(0.0, 1e-9, size=col.shape)
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
    if cfg.all_acceptable or cfg.max_acceptable is not None:
        # move the outside option to position t, the schools keeping order
        t = (np.full(n, J) if cfg.all_acceptable else np.minimum(
            np.argmax(order == OUTSIDE, axis=1), cfg.max_acceptable))[:, None]
        pos = np.arange(J + 1)
        schools = order[order != OUTSIDE].reshape(n, J)
        moved = np.take_along_axis(schools, np.where(pos < t, pos, pos - 1),
                                   axis=1)
        order = np.where(pos == t, OUTSIDE, moved)
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


def _acceptable_mask(order: np.ndarray) -> np.ndarray:
    """(n, J+1) mask over true-order positions: the schools ranked above
    the outside option."""
    return np.logical_and.accumulate(order != OUTSIDE, axis=1)


def _first(mask: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` marked positions of each row of ``mask``."""
    return mask & (np.cumsum(mask, axis=1) <= k)


def _at_positions(order: np.ndarray, per_school: np.ndarray) -> np.ndarray:
    """``per_school[..., j-1]`` moved to school ``j``'s position in each
    true order; the outside option's position holds NaN."""
    per_option = np.empty(order.shape)
    per_option[:, OUTSIDE] = np.nan
    per_option[:, 1:] = per_school
    return np.take_along_axis(per_option, order, axis=1)


def _listed(values: np.ndarray, mask: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Row ``i``'s list: ``values[i]`` at the positions ``mask[i]`` marks."""
    flat = values[mask].tolist()
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return tuple([tuple(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)])


def _truth_topk_reports(eco: Economy) -> tuple[tuple[int, ...], ...]:
    order = eco.truth.pref_orders
    return _listed(order, _first(_acceptable_mask(order), eco.list_cap))


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
    n, J, K = eco.n_students, eco.n_schools, eco.list_cap
    base = np.asarray(cutoffs, dtype=float)
    beliefs = base[None, :] + rng.normal(0.0, model.noise_sd, size=(n, J))
    order = eco.truth.pref_orders
    acc = _acceptable_mask(order)
    score = _at_positions(order, eco.score_cols[:, list(eco.score_groups)])
    cutoff = _at_positions(order, base)
    feasible = acc & (score >= cutoff)
    hopeless = score < _at_positions(order, beliefs) - model.margin
    # out of reach and believed so: drop
    rol = _first(acc & ~(hopeless & (score < cutoff)), K)
    if model.rational_floor:
        best = np.argmax(feasible, axis=1)      # the best feasible school
        add = np.nonzero(feasible.any(axis=1)
                         & ~rol[np.arange(n), best])[0]
        full = add[rol[add].sum(axis=1) >= K]
        # make room: drop the least preferred listed school
        rol[full, J - np.argmax(rol[full, ::-1], axis=1)] = False
        rol[add, best[add]] = True
    rol[~rol.any(axis=1), 0] = True             # else the favourite alone
    beliefs.setflags(write=False)
    return _listed(order, rol), beliefs


def _adversarial_reports(
    eco: Economy, model: ReportingModel, rng: np.random.Generator,
    cutoffs: Sequence[float],
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Side-dependent lists that violate truthful order below the cutoff.

    Students acceptable to the target school list it truthfully when they
    believe they clear its cutoff; otherwise they swap in the school just
    above the target id (whether or not they find it acceptable), keeping
    the first copy when it is listed already.  The result is a reporting
    rule no truthful-order analysis can rationalize.
    """
    _check_adversarial(model, eco.n_schools)
    n, J, K = eco.n_students, eco.n_schools, eco.list_cap
    target = model.adversarial_school or J
    base = np.asarray(cutoffs, dtype=float)
    beliefs = np.repeat(base[None, :], n, axis=0)
    swap = target - 1 if target > 1 else target + 1
    order = eco.truth.pref_orders
    rol = _first(_acceptable_mask(order), K)
    at = np.argmax(order == target, axis=1)
    swap_at = np.argmax(order == swap, axis=1)
    hit = np.nonzero(rol[np.arange(n), at]
                     & (eco.school_scores(target) < base[target - 1]))[0]
    values = order.copy()
    values[hit, at[hit]] = swap
    twice = hit[rol[hit, swap_at[hit]]]         # swap listed already
    rol[twice, np.maximum(at[twice], swap_at[twice])] = False
    beliefs.setflags(write=False)
    return _listed(values, rol), beliefs


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
