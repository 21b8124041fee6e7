"""End-to-end orchestration: config, staged artifacts, run manifest.

One run walks simulate/ingest -> match -> pairs -> qsets -> identify ->
bounds, writing each stage's artifact into the output directory.  Each
(school, regime) window is identified once, into ``windows.json``; each of
its (school, fallback) pairs is a query on it, in ``identify.json``.  Every
(pair, regime, outcome) combination gets a status in the manifest: ``ok``,
``falsified`` when the containment inequalities reject the assumed
reporting discipline, ``skipped-empty-side`` when a window side has
nobody in it, or ``skipped-closure-cap`` (with a ``reason``) when a side's
connected unions of candidate sets outgrow ``identify.CLOSURE_CAP``.
Neither falsification nor a skipped combination aborts the run; wall-clock
numbers go to a separate timing file so the analytical artifacts are
byte-stable across reruns.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import io
from .bounds import (BoundsError, IDENTITY, OutcomeTransform, effect_bounds,
                     hm_side_bounds, naive_rd, pair_subpop, sharp_bounds_finite)
from .economy import DGPConfig, Economy, generate_economy, observe_outcomes
from .identify import (ClosureCapError, ContainmentStats, DistPolytope,
                       FalsificationSignal, LocalObs, build_polytope,
                       containment_stats, delta_bounds, falsification_test,
                       local_obs)
from .localpref import (ComparablePair, LocalSample, comparable_pairs,
                        local_samples)
from .mechanism import CutoffProfile, extract_cutoffs, run_da
from .presets import golden_sd, rigged_wpo, sample_economy, strategic_showcase_design
from .qsets import (EMPTY_UMAS, QsetError, Regime, WindowQsets, detect_umas,
                    regime_from_label, window_qsets)

__version__ = "0.1.0"

STAGES = ("simulate", "match", "pairs", "qsets", "identify", "bounds")

_PRESETS = ("golden-sd", "rigged-wpo", "strategic-showcase")


class PipelineError(ValueError):
    """Configuration or orchestration problem; maps to exit code 2."""


def parse_outcome(spec: Any) -> OutcomeTransform:
    """An outcome spec is "identity" or a dict naming a transform."""
    if spec == "identity":
        return IDENTITY
    if not isinstance(spec, Mapping):
        raise PipelineError(f"bad outcome spec {spec!r}")
    kind = spec.get("kind", "identity")
    name = spec.get("name", kind)
    if kind == "identity":
        return OutcomeTransform(name=name, kind="identity")
    if kind == "indicator":
        if "threshold" not in spec:
            raise PipelineError("indicator outcome needs a threshold")
        return OutcomeTransform(name=name, kind="indicator",
                                threshold=float(spec["threshold"]))
    if kind == "table":
        table = spec.get("table")
        if not isinstance(table, Mapping):
            raise PipelineError("table outcome needs a value map")
        return OutcomeTransform(name=name, kind="table",
                                table={float(k): float(v)
                                       for k, v in table.items()})
    raise PipelineError(f"unknown outcome kind {kind!r}")


def _text(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _outcome(spec: Any) -> Any:
    parse_outcome(spec)
    return spec


def _dgp(value: Any) -> dict[str, Any]:
    DGPConfig.from_dict(value)
    return dict(value)


def _listed(item):
    def read(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(item(v) for v in value)
    return read


# how ``RunConfig.from_dict`` reads each top-level key besides the
# ``falsification`` object, whose one key is ``action``
_READERS = {
    "preset": _text, "dgp": _dgp, "input_dir": _text,
    "capacities": _listed(int), "list_cap": int, "sample_n": int,
    "bandwidth": float, "min_local_n": int, "regimes": _listed(_text),
    "outcomes": _listed(_outcome), "seed": int, "out_dir": _text,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; built from a JSON config plus CLI flags."""

    preset: str | None = None
    dgp: Mapping[str, Any] | None = None
    input_dir: str | None = None
    capacities: tuple[int, ...] | None = None
    list_cap: int | None = None
    sample_n: int | None = None
    bandwidth: float | None = None
    min_local_n: int | None = None
    regimes: tuple[str, ...] = ("wpo", "wpo+umas", "spo", "spo+umas")
    outcomes: tuple[Any, ...] = ("identity",)
    seed: int = 0
    out_dir: str = "out"
    falsification_action: str = "error"

    def __post_init__(self) -> None:
        chosen = [s for s in (self.preset, self.dgp, self.input_dir)
                  if s is not None]
        if len(chosen) != 1:
            raise PipelineError(
                "config must name exactly one source: preset, dgp, or input_dir")
        if self.preset is not None and self.preset not in _PRESETS:
            raise PipelineError(f"unknown preset {self.preset!r};"
                                f" choose from {_PRESETS}")
        ingest = self.input_dir is not None
        for key, used, default in (
                ("capacities", ingest, None), ("list_cap", ingest, 3),
                ("sample_n", self.preset == "strategic-showcase", 20000)):
            value = getattr(self, key)
            if value is not None and not used:
                raise PipelineError(f"config key {key!r} is not used by"
                                    f" this source")
            if value is None and used:
                object.__setattr__(self, key, default)
        if not self.regimes:
            raise PipelineError("regimes must be nonempty")
        for label in self.regimes:
            try:
                regime_from_label(label)
            except QsetError as exc:
                raise PipelineError(str(exc)) from None
        if not self.outcomes:
            raise PipelineError("outcomes must be nonempty")
        for spec in self.outcomes:
            parse_outcome(spec)
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise PipelineError("bandwidth must be positive")
        if self.sample_n is not None and self.sample_n < 1:
            raise PipelineError("sample_n must be >= 1")
        if self.seed < 0:
            raise PipelineError("seed must be >= 0")
        if self.falsification_action not in ("error", "warn"):
            raise PipelineError("falsification action must be 'error' or 'warn'")
        if ingest and self.capacities is None:
            raise PipelineError("ingest mode needs capacities in the config")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        data = dict(data)
        fals = data.pop("falsification", {})
        if not isinstance(fals, Mapping):
            raise PipelineError("falsification must be an object")
        unknown = sorted(k for k in data if k not in _READERS)
        unknown += sorted(f"falsification.{k}" for k in fals if k != "action")
        if unknown:
            raise PipelineError(f"unknown config keys: {unknown}")
        unset = {f.name for f in fields(cls) if f.default is None}
        kw: dict[str, Any] = {}
        for key, value in data.items():
            if value is None and key in unset:
                continue                  # null leaves an optional key unset
            try:
                kw[key] = _READERS[key](value)
            except (TypeError, ValueError) as exc:
                raise PipelineError(f"config key {key!r}: {exc}") from None
        if "action" in fals:
            kw["falsification_action"] = fals["action"]
        return cls(**kw)

    def to_dict(self) -> dict[str, Any]:
        """The config as ``from_dict`` reads it: every key that is set, so
        no source key that the source does not use."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if getattr(self, f.name) is not None}
        if self.dgp is not None:
            out["dgp"] = dict(self.dgp)
        out["falsification"] = {"action": out.pop("falsification_action")}
        return out


# ---------------------------------------------------------------------------
# source resolution


@dataclass
class RunData:
    """Resolved inputs for the analytical stages."""

    economy: Economy
    cutoffs: CutoffProfile
    assignment: np.ndarray
    bandwidth: float
    min_local_n: int
    # the id of each student of ``economy``, in order: the positions for a
    # generated economy, the sorted ``students.csv`` ids for an ingested one
    student_ids: Sequence[int]
    input_checksums: dict[str, str] = field(default_factory=dict)
    warnings: dict[str, Any] = field(default_factory=dict)


def _tied_scores(eco: Economy) -> list[dict[str, int]]:
    """Each school whose score column repeats a value, with the number of
    students who share their score there with another student.  At such a
    school the lowest admitted score need not separate the admitted from
    the rejected."""
    tied = []
    for g in range(eco.score_cols.shape[1]):
        counts = np.unique(eco.score_cols[:, g], return_counts=True)[1]
        tied.append(int(counts[counts > 1].sum()))
    return [{"school_id": j, "tied_students": tied[g]}
            for j, g in enumerate(eco.score_groups, start=1) if tied[g]]


def resolve_source(cfg: RunConfig) -> RunData:
    bandwidth = cfg.bandwidth
    min_local_n = cfg.min_local_n
    if cfg.preset is not None:
        if cfg.preset == "golden-sd":
            inst = golden_sd()
        elif cfg.preset == "rigged-wpo":
            inst = rigged_wpo()
        else:
            inst = sample_economy(strategic_showcase_design(),
                                  cfg.sample_n, cfg.seed)
        return RunData(economy=inst.economy, cutoffs=inst.cutoffs,
                       assignment=np.asarray(inst.matching.assignment),
                       bandwidth=bandwidth if bandwidth is not None
                       else inst.bandwidth,
                       min_local_n=min_local_n if min_local_n is not None
                       else inst.min_local_n,
                       student_ids=range(inst.economy.n_students))
    if bandwidth is None:
        bandwidth = 30.0
    if min_local_n is None:
        min_local_n = 50
    if cfg.dgp is not None:
        dgp = dict(cfg.dgp)
        dgp.setdefault("seed", cfg.seed)
        eco = generate_economy(DGPConfig.from_dict(dgp))
        matching = run_da(eco)
        eco = observe_outcomes(eco, matching.assignment)
        return RunData(economy=eco, cutoffs=extract_cutoffs(matching, eco),
                       assignment=np.asarray(matching.assignment),
                       bandwidth=bandwidth, min_local_n=min_local_n,
                       student_ids=range(eco.n_students))

    in_dir = Path(cfg.input_dir or ".")
    eco, ids = io.load_economy(in_dir, cfg.list_cap, cfg.capacities or ())
    matching = run_da(eco)
    warnings: dict[str, Any] = {}
    tied = _tied_scores(eco)
    if tied:
        warnings["tied_scores"] = tied
    supplied_path = in_dir / "matching.csv"
    if supplied_path.exists():
        supplied = io.read_matching(supplied_path, ids)
        flipped = [sid for sid, given, ran
                   in zip(ids, supplied.tolist(), matching.assignment)
                   if given != ran]
        if flipped:
            warnings["assignment_mismatches"] = flipped
    checksums = {}
    for name in ("students.csv", "rols.csv", "outcomes.csv", "truth.csv",
                 "matching.csv", "cutoffs.csv"):
        p = in_dir / name
        if p.exists():
            checksums[name] = io.file_checksum(p)
    cutoffs_path = in_dir / "cutoffs.csv"
    if cutoffs_path.exists():
        values = io.read_cutoffs(cutoffs_path)
        if sorted(values) != list(range(1, eco.n_schools + 1)):
            raise PipelineError("cutoffs.csv must cover schools 1..J")
        cutoffs = CutoffProfile(
            values=tuple(float(values[j])
                         for j in range(1, eco.n_schools + 1)),
            floor=eco.score_floor())
    else:
        cutoffs = extract_cutoffs(matching, eco)
    return RunData(economy=eco, cutoffs=cutoffs,
                   assignment=np.asarray(matching.assignment),
                   bandwidth=bandwidth, min_local_n=min_local_n,
                   student_ids=ids, input_checksums=checksums,
                   warnings=warnings)


# ---------------------------------------------------------------------------
# per-combination analysis


def _serialize_qset(qset: frozenset) -> str:
    return "|".join(f"{a}:{b}" for a, b in sorted(qset))


def _side_payload(stats: ContainmentStats | None,
                  n_obs: int) -> dict[str, Any] | None:
    if stats is None:
        return None
    return {
        "n_obs": n_obs,
        "total_weight": stats.total,
        "support": [[list(p) for p in sorted(a)] for a in stats.family.members],
        "rows": [{"set": [list(p) for p in sorted(a)],
                  "prob": stats.prob(a)} for a in stats.family.closure],
    }


@dataclass
class ComboResult:
    """Identification plus bounds for one (pair, regime)."""

    pair: tuple[int, int]
    regime: str
    status: str
    identify: dict[str, Any]
    entries: list[dict[str, Any]]
    reason: str | None = None


@dataclass(frozen=True)
class _Window:
    """One school's window under one regime, shared by all its pairs: its
    records, containment statistics, ``windows.json`` side payloads and
    polytope.  ``status`` is "ok" or "skipped-closure-cap" (then with a
    ``reason`` and nothing but the records)."""

    obs_plus: list[LocalObs]
    obs_minus: list[LocalObs]
    stats_plus: ContainmentStats | None = None
    stats_minus: ContainmentStats | None = None
    plus: dict[str, Any] | None = None
    minus: dict[str, Any] | None = None
    poly: DistPolytope | None = None
    status: str = "ok"
    reason: str | None = None


def _build_window(eco: Economy, sample: LocalSample,
                  qsets: WindowQsets) -> _Window:
    obs_plus, obs_minus = local_obs(eco, sample, qsets)
    try:
        stats_plus = containment_stats(obs_plus, "plus") if obs_plus else None
        stats_minus = (containment_stats(obs_minus, "minus")
                       if obs_minus else None)
    except ClosureCapError as exc:
        return _Window(obs_plus, obs_minus, status="skipped-closure-cap",
                       reason=str(exc))
    return _Window(obs_plus, obs_minus, stats_plus, stats_minus,
                   _side_payload(stats_plus, sample.n_plus),
                   _side_payload(stats_minus, sample.n_minus),
                   build_polytope(stats_plus, stats_minus))


def _analyze_pairs(eco: Economy, pairs: Sequence[ComparablePair],
                   samples: Mapping[int, LocalSample],
                   qsets: Mapping[tuple[int, str], WindowQsets],
                   regimes: Sequence[Regime],
                   outcomes: Sequence[OutcomeTransform],
                   ) -> tuple[list[dict[str, Any]], list[ComboResult]]:
    """The ``windows.json`` entry of every (school, regime) window, and
    every (pair, regime) combination, pair-major.

    Pairs arrive grouped by school; each school's window is built once per
    regime, from the candidate sets the qsets stage derived, and analysed
    for all of that school's pairs, then dropped.
    """
    windows: list[dict[str, Any]] = []
    results: list[ComboResult] = []
    for school, group in itertools.groupby(pairs, key=lambda p: p.school):
        group = list(group)
        by_regime = []
        for regime in regimes:
            window = _build_window(eco, samples[school],
                                   qsets[school, regime.label])
            windows.append({"school": school, "regime": regime.label,
                            "plus": window.plus, "minus": window.minus})
            by_regime.append([analyze_combo(eco, p, regime, window, outcomes)
                              for p in group])
        results.extend(r for per_pair in zip(*by_regime) for r in per_pair)
    return windows, results


# identify.json block field -> DeltaBounds attribute; null without bounds
_DELTA_FIELDS = {"p_lower": "p_lower", "p_upper": "p_upper",
                 "denominator_plus": "denom_plus",
                 "denominator_minus": "denom_minus",
                 "delta_bar_plus": "delta_plus",
                 "delta_bar_minus": "delta_minus"}


def analyze_combo(eco: Economy, pair: ComparablePair, regime: Regime,
                  window: _Window,
                  outcomes: Sequence[OutcomeTransform]) -> ComboResult:
    """The pair's query on its window: partition checks, share bounds over
    the window's polytope, and bounds entries."""
    jk = (pair.school, pair.fallback)
    obs_plus, obs_minus = window.obs_plus, window.obs_minus
    status = window.status

    identify_block: dict[str, Any] = {
        "pair": list(jk),
        "regime": regime.label,
        "falsification": None,
    }
    delta = None
    if status == "ok":
        fals = falsification_test(window.stats_plus, window.stats_minus,
                                  eco.n_schools, pair=jk)
        identify_block["falsification"] = {
            "passed": fals.passed,
            "infeasible": False,
            "checks": [{"name": c.name, "statistic": c.statistic,
                        "limit": c.limit, "passed": c.passed}
                       for c in fals.checks],
        }
        if not fals.passed:
            status = "falsified"
        else:
            try:
                delta = delta_bounds(window.poly, jk, obs_plus, obs_minus)
            except FalsificationSignal:
                status = "falsified"
                identify_block["falsification"]["passed"] = False
                identify_block["falsification"]["infeasible"] = True
    if status == "ok" and (not obs_plus or not obs_minus):
        status = "skipped-empty-side"

    identify_block.update({key: getattr(delta, name, None)
                           for key, name in _DELTA_FIELDS.items()})

    entries = [e for g in outcomes for e in _bounds_entries(
        jk, regime, g, status, delta, window, pair)]
    return ComboResult(pair=jk, regime=regime.label, status=status,
                       identify=identify_block, entries=entries,
                       reason=window.reason)


def _base_entry(jk, regime, g, pair, delta) -> dict[str, Any]:
    return {
        "pair": list(jk),
        "regime": regime.label,
        "outcome": g.name,
        "method": None,
        "lower": None,
        "upper": None,
        "delta_bar_plus": None if delta is None else delta.delta_plus,
        "delta_bar_minus": None if delta is None else delta.delta_minus,
        "n_plus": pair.n_plus,
        "n_minus": pair.n_minus,
        "sign_identified": None,
        "naive_point": None,
        "naive_outside_bounds": None,
    }


def _bounds_entries(jk, regime, g, status, delta, window,
                    pair) -> list[dict[str, Any]]:
    hm_entry = _base_entry(jk, regime, g, pair, delta)
    hm_entry["method"] = "hm"
    sharp_entry = _base_entry(jk, regime, g, pair, delta)
    sharp_entry["method"] = "sharp-lp"
    if status != "ok":
        return [hm_entry, sharp_entry]
    obs_plus, obs_minus = window.obs_plus, window.obs_minus

    naive = None
    try:
        naive = naive_rd(obs_plus, obs_minus, jk, g)
    except BoundsError:
        pass
    hm_entry["naive_point"] = naive
    sharp_entry["naive_point"] = naive

    if (delta is not None and delta.delta_plus and delta.delta_minus):
        plus = hm_side_bounds(pair_subpop(obs_plus, jk), delta.delta_plus, g)
        minus = hm_side_bounds(pair_subpop(obs_minus, jk), delta.delta_minus, g)
        eff = effect_bounds(plus, minus)
        _fill(hm_entry, eff, naive)
    try:
        sharp = sharp_bounds_finite(obs_plus, obs_minus, window.stats_plus,
                                    window.stats_minus, jk, g)
        _fill(sharp_entry, sharp, naive)
    except BoundsError:
        pass          # unbounded support; the hm entry still stands
    return [hm_entry, sharp_entry]


def _fill(entry: dict[str, Any], eff, naive: float | None) -> None:
    entry["lower"] = eff.lower
    entry["upper"] = eff.upper
    entry["sign_identified"] = eff.sign_identified
    if naive is not None:
        entry["naive_outside_bounds"] = not eff.contains(naive, tol=1e-9)


# ---------------------------------------------------------------------------
# staged run


def run_pipeline(cfg: RunConfig, stage: str = "bounds") -> dict[str, Any]:
    """Run the pipeline up to ``stage``; returns the manifest dict."""
    if stage not in STAGES:
        raise PipelineError(f"unknown stage {stage!r}")
    depth = STAGES.index(stage)
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    data = resolve_source(cfg)
    eco = data.economy
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.input_dir is None:
        io.write_economy(out_dir, eco)
    timings["source"] = time.perf_counter() - t0

    manifest: dict[str, Any] = {
        "version": __version__,
        "stage": stage,
        "config": cfg.to_dict(),
        "inputs": data.input_checksums,
        "warnings": data.warnings,
        "n_students": eco.n_students,
        "n_schools": eco.n_schools,
    }
    if depth < 1:
        _finish_run(out_dir, manifest, timings, t0)
        return manifest

    t = time.perf_counter()
    io.write_matching(out_dir / "matching.csv", data.assignment,
                      data.student_ids)
    io.write_cutoffs(out_dir / "cutoffs.csv",
                     {j: data.cutoffs.cutoff(j)
                      for j in range(1, eco.n_schools + 1)})
    timings["match"] = time.perf_counter() - t
    if depth < 2:
        _finish_run(out_dir, manifest, timings, t0)
        return manifest

    t = time.perf_counter()
    samples = local_samples(eco, data.cutoffs, data.bandwidth)
    pairs = comparable_pairs(samples.values(), data.min_local_n)
    io.write_csv(out_dir / "pairs.csv",
                 ["school", "fallback", "n_local", "n_plus", "n_minus"],
                 ((p.school, p.fallback, p.n_local, p.n_plus, p.n_minus)
                  for p in pairs))
    manifest["pairs"] = [[p.school, p.fallback] for p in pairs]
    timings["pairs"] = time.perf_counter() - t
    if depth < 3:
        _finish_run(out_dir, manifest, timings, t0)
        return manifest

    regimes = [regime_from_label(lab) for lab in cfg.regimes]
    need_umas = any(r.umas for r in regimes)
    umas = detect_umas(eco, data.cutoffs) if need_umas else EMPTY_UMAS

    t = time.perf_counter()
    qsets = {(j, regime.label): window_qsets(eco, data.cutoffs, samples[j],
                                             regime,
                                             umas if regime.umas else None)
             for j in sorted({p.school for p in pairs}) for regime in regimes}
    _write_qsets_csv(out_dir, samples, qsets, data.student_ids)
    timings["qsets"] = time.perf_counter() - t
    if depth < 4:
        _finish_run(out_dir, manifest, timings, t0)
        return manifest

    if eco.y_observed is None:
        raise io.IngestError(
            f"{Path(cfg.input_dir or '.') / 'outcomes.csv'}: missing, and"
            f" stage {stage!r} needs observed outcomes")
    t = time.perf_counter()
    outcomes = tuple(parse_outcome(s) for s in cfg.outcomes)
    windows, results = _analyze_pairs(eco, pairs, samples, qsets, regimes,
                                      outcomes)
    timings["analyze"] = time.perf_counter() - t

    io.dump_json(out_dir / "windows.json", windows)
    io.dump_json(out_dir / "identify.json", [r.identify for r in results])
    statuses = []
    for r in results:
        for g in outcomes:
            entry = {"pair": list(r.pair), "regime": r.regime,
                     "outcome": g.name, "status": r.status}
            if r.reason is not None:
                entry["reason"] = r.reason
            statuses.append(entry)
    manifest["statuses"] = statuses
    counts: dict[str, int] = {}
    for s in statuses:
        counts[s["status"]] = counts.get(s["status"], 0) + 1
    manifest["counts"] = counts
    manifest["falsified_any"] = any(r.status == "falsified" for r in results)
    if depth < 5:
        _finish_run(out_dir, manifest, timings, t0)
        return manifest

    entries = [e for r in results for e in r.entries]
    io.dump_json(out_dir / "bounds.json", entries)
    _finish_run(out_dir, manifest, timings, t0)
    return manifest


def _finish_run(out_dir: Path, manifest: dict[str, Any],
                timings: dict[str, float], t0: float) -> None:
    io.dump_json(out_dir / "manifest.json", manifest)
    timings["total"] = time.perf_counter() - t0
    io.dump_json(out_dir / "timing.json", {"seconds": timings})


def _write_qsets_csv(out_dir: Path, samples: Mapping[int, LocalSample],
                     qsets: Mapping[tuple[int, str], WindowQsets],
                     student_ids: Sequence[int]) -> None:
    def rows():
        for (j, label), (plus, minus) in qsets.items():
            text = {q: _serialize_qset(q) for q in {*plus, *minus}}
            for side, ids, sets in (("plus", samples[j].plus_ids, plus),
                                    ("minus", samples[j].minus_ids, minus)):
                for i, q in zip(ids, sets):
                    yield j, label, student_ids[i], side, text[q]

    io.write_csv(out_dir / "qsets.csv",
                 ["school", "regime", "student_id", "side", "qset"], rows())


# ---------------------------------------------------------------------------
# report aggregation


def write_report(out_dir: Path) -> dict[str, Any]:
    """Aggregate bounds.json into summary and per-pair tables."""
    out_dir = Path(out_dir)
    bounds_path = out_dir / "bounds.json"
    if not bounds_path.exists():
        raise PipelineError(f"no bounds.json in {out_dir}; run bounds first")
    with open(bounds_path) as fh:
        entries = json.load(fh)

    # a combo counts as sign-identified (or naive-outside) when any of its
    # method rows says so
    by_regime: dict[str, dict[str, Any]] = {}
    for e in entries:
        reg = by_regime.setdefault(e["regime"], {
            "pairs": set(), "sign": set(), "naive_out": set()})
        key = (tuple(e["pair"]), e["outcome"])
        reg["pairs"].add(key)
        if e.get("sign_identified"):
            reg["sign"].add(key)
        if e.get("naive_outside_bounds"):
            reg["naive_out"].add(key)

    io.write_csv(out_dir / "report_summary.csv",
                 ["regime", "n_pairs", "n_sign_identified",
                  "n_naive_outside_bounds"],
                 ((reg, len(row["pairs"]), len(row["sign"]),
                   len(row["naive_out"]))
                  for reg, row in sorted(by_regime.items())))
    io.write_csv(out_dir / "report_pairs.csv",
                 ["school", "fallback", "regime", "outcome", "method",
                  "lower", "upper", "naive_point"],
                 ((e["pair"][0], e["pair"][1], e["regime"], e["outcome"],
                   e["method"], e["lower"], e["upper"], e["naive_point"])
                  for e in entries if e["method"] is not None))
    return {"regimes": sorted(by_regime),
            "n_entries": len(entries)}
