"""Acceptance gate: one test per shipped guarantee.

Each test exercises the public surface at the scale its guarantee names,
measures its own wall time, and reports a single PASS/FAIL verdict through
``acceptance_log``; the verdicts appear together in the terminal summary.
Failures also carry the offending cases in the assertion message.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from cutoffbounds import (
    DGPConfig,
    ReportingModel,
    generate_economy,
    run_da,
    run_sd,
)
from cutoffbounds.bounds import (
    IDENTITY,
    binary_bounds,
    effect_bounds,
    hm_side_bounds,
    pair_subpop,
    sharp_bounds_finite,
    trimming_bounds_continuous,
)
from cutoffbounds.identify import (
    FalsificationSignal,
    InfeasiblePolytopeError,
    LocalObs,
    build_polytope,
    collect_local_obs,
    containment_stats,
    delta_bounds,
    falsification_test,
    solve_bounds_on_event,
)
from cutoffbounds.localpref import select_local_sample
from cutoffbounds.mechanism import (
    audit_cutoff_characterization,
    audit_stability_wrt_reports,
    extract_cutoffs,
)
from cutoffbounds.pipeline import RunConfig, run_pipeline
from cutoffbounds.population import build_local_obs, population_truth
from cutoffbounds.presets import (
    anchored_mixture_design,
    golden_sd,
    random_mixture_design,
    rigged_wpo,
    sample_economy,
    strategic_showcase_design,
)
from cutoffbounds.qsets import REGIMES, detect_umas

from oracles import (
    exhaustive_qset_audit,
    grid_event_bounds,
    grid_sharp_ate_binary,
    joint_rows,
    union_closure,
)

WPO, WPO_U, SPO, SPO_U = REGIMES


def _population_parts(design, regime):
    """Side observations and containment statistics at population scale."""
    cv = design.population_cutoffs()
    op = build_local_obs(design.population_types("plus"), "plus", cv,
                         design.school, design.list_cap, regime)
    om = build_local_obs(design.population_types("minus"), "minus", cv,
                         design.school, design.list_cap, regime)
    return op, om, containment_stats(op, "plus"), containment_stats(om, "minus")


def _population_intervals(design, regime):
    """(hm-or-None, sharp) intervals for the design's studied pair."""
    pair = (design.school, design.fallback)
    op, om, sp, sm = _population_parts(design, regime)
    db = delta_bounds(build_polytope(sp, sm), pair, op, om)
    hm = None
    if db.delta_plus and db.delta_minus:
        hm = effect_bounds(
            hm_side_bounds(pair_subpop(op, pair), db.delta_plus),
            hm_side_bounds(pair_subpop(om, pair), db.delta_minus))
    sharp = sharp_bounds_finite(op, om, sp, sm, pair)
    return hm, sharp


def _within(inner, outer, tol=1e-9):
    return (outer.lower - tol <= inner.lower
            and inner.upper <= outer.upper + tol)


def test_c1_textbook_window_reproduced_exactly(acceptance_log):
    t0 = time.perf_counter()
    inst = golden_sd()
    eco, cutoffs = inst.economy, inst.cutoffs
    sample = select_local_sample(eco, cutoffs, inst.school, inst.bandwidth)
    op, _ = collect_local_obs(eco, cutoffs, sample, WPO_U,
                              detect_umas(eco, cutoffs))
    poly = build_polytope(containment_stats(op, "plus"), None)
    ev42 = solve_bounds_on_event(poly, [(4, 2)])
    ev43 = solve_bounds_on_event(poly, [(4, 3)])
    db = delta_bounds(poly, (4, 2), op, None)
    elapsed = time.perf_counter() - t0

    masses = Counter(tuple(sorted(o.qset)) for o in op)
    support = {k: v / sample.n_plus for k, v in masses.items()}
    problems = []
    if {k: round(v, 12) for k, v in support.items()} != {
            ((4, 2),): 0.1, ((4, 3),): 0.3, ((4, 2), (4, 3)): 0.6}:
        problems.append(f"window support off: {support}")
    tol = 1e-12
    for name, got, want in (("(4,2)", ev42, (0.1, 0.7)),
                            ("(4,3)", ev43, (0.3, 0.9))):
        if max(abs(got[0] - want[0]), abs(got[1] - want[1])) > tol:
            problems.append(f"event {name} bounds {got}, want {want}")
    if db.delta_plus is None or abs(db.delta_plus - 1 / 7) > tol:
        problems.append(f"trimming share {db.delta_plus}, want 1/7")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    detail = ("; ".join(problems) if problems else
              f"event bounds [0.1,0.7] and [0.3,0.9], share 1/7, all within "
              f"1e-12, {elapsed * 1000:.0f} ms")
    acceptance_log("C1", not problems, detail)
    assert not problems, problems


def test_c2_candidate_sets_match_exhaustive_enumeration(acceptance_log):
    t0 = time.perf_counter()
    checked, evaluated, mismatches = exhaustive_qset_audit(5, 3)
    elapsed = time.perf_counter() - t0
    problems = []
    if mismatches:
        problems.append(f"{len(mismatches)} mismatches, first: {mismatches[0]}")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    detail = ("; ".join(problems) if problems else
              f"{checked} configurations (5 schools, lists to 3, both sides, "
              f"4 regimes), {evaluated} evaluated, 0 mismatches, {elapsed:.1f}s")
    acceptance_log("C2", not problems, detail)
    assert not problems, problems


def test_c3_assignments_stable_and_cutoff_characterized(acceptance_log):
    t0 = time.perf_counter()
    sizes = [(60, 3), (250, 6), (900, 12), (2000, 20)]
    modes = ["sd", "independent", "correlated"]
    models = ["truth_topk", "belief_skip", "adversarial"]
    violations: list[str] = []
    n_shared = 0
    for i in range(100):
        n, J = sizes[i % 4]
        cfg = DGPConfig(n_students=n, n_schools=J, score_mode=modes[i % 3],
                        reporting=ReportingModel(model=models[(i // 3) % 3]),
                        seed=1000 + i)
        eco = generate_economy(cfg)
        matching = run_da(eco)
        cut = extract_cutoffs(matching, eco)
        for kind, found in (
                ("stability", audit_stability_wrt_reports(matching, eco)),
                ("cutoff", audit_cutoff_characterization(matching, eco, cut,
                                                         wrt="reports"))):
            if found:
                violations.append(f"economy {i}: {kind} x{len(found)}")
        if modes[i % 3] == "sd":
            n_shared += 1
            if run_sd(eco).assignment != matching.assignment:
                violations.append(f"economy {i}: serial order differs")
    elapsed = time.perf_counter() - t0
    problems = list(violations)
    if elapsed >= 20.0:
        problems.append(f"took {elapsed:.1f}s, budget 20s")
    detail = ("; ".join(problems) if problems else
              f"100 economies to n=2000, J=20: no stability or cutoff "
              f"violations; serial order agreed on all {n_shared} shared-score "
              f"economies, {elapsed:.1f}s")
    acceptance_log("C3", not problems, detail)
    assert not problems, problems


def _grid_polytopes():
    """Polytopes with at most four support atoms and grid-exact masses."""
    out = []
    inst = golden_sd()
    sample = select_local_sample(inst.economy, inst.cutoffs, inst.school,
                                 inst.bandwidth)
    umas = detect_umas(inst.economy, inst.cutoffs)
    for regime in (WPO, WPO_U):
        op, _ = collect_local_obs(inst.economy, inst.cutoffs, sample, regime,
                                  umas)
        poly = build_polytope(containment_stats(op, "plus"), None)
        out.append((f"golden/{regime.label}", poly, (4, 2)))

    designs = [("showcase", strategic_showcase_design())]
    designs += [(f"anchored-{s}", anchored_mixture_design(s)) for s in range(4)]
    for name, design in designs:
        for regime in REGIMES:
            _, _, sp, sm = _population_parts(design, regime)
            poly = build_polytope(sp, sm)
            if len(poly.atoms) <= 4:
                out.append((f"{name}/{regime.label}", poly,
                            (design.school, design.fallback)))
    kept = 0
    for seed in range(30):
        if kept >= 6:
            break
        design = random_mixture_design(seed)
        for regime in (WPO_U, SPO_U):
            _, _, sp, sm = _population_parts(design, regime)
            poly = build_polytope(sp, sm)
            if len(poly.atoms) <= 4:
                out.append((f"mixture-{seed}/{regime.label}", poly,
                            (design.school, design.fallback)))
                kept += 1
    return out


def _two_atom_cohort(seed):
    """Hand-built two-sided instance with hundredth masses and a shared
    latent outcome-by-pair distribution, so both sides stay consistent."""
    rng = np.random.default_rng(seed)
    A, B = (3, 1), (3, 2)
    latent = rng.multinomial(60, [0.25] * 4) + 10   # (A,1) (A,0) (B,1) (B,0)

    def side(div):
        obs = []
        for cell, (atom, y) in enumerate(((A, 1.0), (A, 0.0),
                                          (B, 1.0), (B, 0.0))):
            total = int(latent[cell])
            fuzzy = total // div
            if fuzzy:
                obs.append(LocalObs(qset=frozenset({A, B}), y=y,
                                    weight=fuzzy / 100))
            if total - fuzzy:
                obs.append(LocalObs(qset=frozenset({atom}), y=y,
                                    weight=(total - fuzzy) / 100))
        return obs

    return side(2), side(3), A


def test_c4_lp_bounds_match_grid_enumeration(acceptance_log):
    t0 = time.perf_counter()
    problems = []
    n_events = 0
    for name, poly, pair in _grid_polytopes():
        events = [[pair]]
        if len(poly.atoms) <= 3:
            events.append([pair] + [a for a in poly.atoms if a != pair][:1])
        for event in events:
            lp = solve_bounds_on_event(poly, event)
            grid = grid_event_bounds(poly.atoms, poly.rows, event)
            n_events += 1
            if max(abs(lp[0] - grid[0]), abs(lp[1] - grid[1])) > 0.01:
                problems.append(f"{name} event {event}: lp {lp} grid {grid}")

    rig = rigged_wpo()
    sample = select_local_sample(rig.economy, rig.cutoffs, rig.school,
                                 rig.bandwidth)
    op, om = collect_local_obs(rig.economy, rig.cutoffs, sample, WPO)
    poly = build_polytope(containment_stats(op, "plus"),
                          containment_stats(om, "minus"))
    lp_sig = grid_sig = False
    try:
        solve_bounds_on_event(poly, [(4, 2)])
    except InfeasiblePolytopeError:
        lp_sig = True
    try:
        grid_event_bounds(poly.atoms, poly.rows, [(4, 2)])
    except ValueError:
        grid_sig = True
    if not (lp_sig and grid_sig):
        problems.append(f"rigged infeasibility: lp={lp_sig} grid={grid_sig}")

    n_jumps = 0
    ate_cases = []
    showcase = strategic_showcase_design()
    for regime in (WPO_U, SPO_U):
        op, om, sp, sm = _population_parts(showcase, regime)
        ate_cases.append((f"showcase/{regime.label}", op, om, sp, sm, (4, 2)))
    for seed in (5, 6, 7):
        op, om, pair = _two_atom_cohort(seed)
        ate_cases.append((f"handmade-{seed}", op, om,
                          containment_stats(op, "plus"),
                          containment_stats(om, "minus"), pair))
    for name, op, om, sp, sm, pair in ate_cases:
        atoms = tuple(sorted(set().union(*(a for a in sp.family.members))
                             | set().union(*(a for a in sm.family.members))))
        if len(atoms) != 2:
            problems.append(f"{name}: {len(atoms)} atoms, wanted 2")
            continue
        got = sharp_bounds_finite(op, om, sp, sm, pair)
        lo, hi = grid_sharp_ate_binary(atoms, pair,
                                       joint_rows(op, union_closure(
                                           sp.family.members), IDENTITY),
                                       joint_rows(om, union_closure(
                                           sm.family.members), IDENTITY))
        n_jumps += 1
        if max(abs(got.lower - lo), abs(got.upper - hi)) > 0.01:
            problems.append(f"{name}: lp [{got.lower}, {got.upper}] "
                            f"grid [{lo}, {hi}]")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    detail = ("; ".join(problems) if problems else
              f"{n_events} event intervals and {n_jumps} jump intervals "
              f"match 0.01-step grids; infeasibility agreed on the rigged "
              f"cohort, {elapsed:.1f}s")
    acceptance_log("C4", not problems, detail)
    assert not problems, problems


def test_c5_truth_inside_intervals_population_and_sampled(acceptance_log):
    t0 = time.perf_counter()
    pop_checked = 0
    pop_misses: list[str] = []
    truths: dict[int, float] = {}
    for label, make in (("anchored", anchored_mixture_design),
                        ("mixture", random_mixture_design)):
        for seed in range(200):
            design = make(seed)
            pair = (design.school, design.fallback)
            cv = design.population_cutoffs()
            truth = population_truth(design.population_types("plus"),
                                     design.population_types("minus"),
                                     cv, design.school, pair)
            if label == "anchored":
                truths[seed] = truth
            for regime in REGIMES:
                hm, sharp = _population_intervals(design, regime)
                pop_checked += 1
                where = f"{label}-{seed}/{regime.label}"
                if hm is not None and not hm.contains(truth, tol=1e-9):
                    pop_misses.append(f"{where} hm {hm.lower},{hm.upper}")
                if not sharp.contains(truth, tol=1e-9):
                    pop_misses.append(f"{where} sharp {sharp.lower},"
                                      f"{sharp.upper}")

    # Finite cohorts, strict scoring: a replication counts only when the
    # falsification screen passes, both intervals exist, and both contain
    # the population truth.  The anchored family keeps every cross-side
    # containment row strictly slack, so feasibility survives sampling
    # noise; unrestricted mixtures sit on the constraint boundary and lose
    # roughly half of all replications to noise-tripped infeasibility,
    # which is why they stay in the population block above.
    emp_ok = 0
    emp_bad: list[str] = []
    for seed in range(200):
        design = anchored_mixture_design(seed)
        pair = (design.school, design.fallback)
        inst = sample_economy(design, 20_000, seed)
        sample = select_local_sample(inst.economy, inst.cutoffs,
                                     design.school, inst.bandwidth)
        op, om = collect_local_obs(inst.economy, inst.cutoffs, sample, WPO)
        sp = containment_stats(op, "plus")
        sm = containment_stats(om, "minus")
        if not falsification_test(sp, sm, design.n_schools, pair=pair).passed:
            emp_bad.append(f"{seed}: screen tripped")
            continue
        try:
            db = delta_bounds(build_polytope(sp, sm), pair, op, om)
            if not (db.delta_plus and db.delta_minus):
                emp_bad.append(f"{seed}: no trimming shares")
                continue
            hm = effect_bounds(
                hm_side_bounds(pair_subpop(op, pair), db.delta_plus),
                hm_side_bounds(pair_subpop(om, pair), db.delta_minus))
            sharp = sharp_bounds_finite(op, om, sp, sm, pair)
        except FalsificationSignal:
            emp_bad.append(f"{seed}: infeasible")
            continue
        if hm.contains(truths[seed], 1e-9) and sharp.contains(truths[seed],
                                                              1e-9):
            emp_ok += 1
        else:
            emp_bad.append(f"{seed}: truth escaped")
    elapsed = time.perf_counter() - t0

    problems = []
    if pop_misses:
        problems.append(f"population misses: {pop_misses[:5]}"
                        f" ({len(pop_misses)} total)")
    rate = emp_ok / 200
    if rate < 0.95:
        problems.append(f"sampled coverage {rate:.1%} < 95%:"
                        f" {emp_bad[:5]} ({len(emp_bad)} bad)")
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.0f}s, budget 300s")
    detail = ("; ".join(problems) if problems else
              f"population: truth inside every interval, {pop_checked} "
              f"design-regime cells over 400 mixtures; sampled n=20000: "
              f"{emp_ok}/200 strict ({rate:.1%}), {elapsed:.0f}s")
    acceptance_log("C5", not problems, detail)
    assert not problems, problems


def test_c6_nesting_and_trimming_monotonicity(acceptance_log):
    t0 = time.perf_counter()
    problems = []
    instances = [("showcase", strategic_showcase_design())]
    instances += [(f"anchored-{s}", anchored_mixture_design(s))
                  for s in range(20)]
    instances += [(f"mixture-{s}", random_mixture_design(s))
                  for s in range(20)]
    n_pairs = 0
    for name, design in instances:
        got = {}
        for regime in REGIMES:
            hm, sharp = _population_intervals(design, regime)
            got[regime.label] = (hm, sharp)
            if hm is not None and not _within(sharp, hm):
                problems.append(f"{name}/{regime.label}: sharp outside hm")
            n_pairs += 1
        for tight, loose in (("spo+umas", "spo"), ("spo", "wpo"),
                             ("wpo+umas", "wpo"), ("spo+umas", "wpo+umas")):
            if not _within(got[tight][1], got[loose][1]):
                problems.append(f"{name}: sharp {tight} not inside {loose}")
            hm_t, hm_l = got[tight][0], got[loose][0]
            if hm_t is not None and hm_l is not None and not _within(hm_t,
                                                                     hm_l):
                problems.append(f"{name}: hm {tight} not inside {loose}")

    sweeps = []
    showcase = strategic_showcase_design()
    op, _, _, _ = _population_parts(showcase, WPO)
    sweeps.append(("showcase binary", binary_bounds,
                   pair_subpop(op, (4, 2))))
    op, _, _, _ = _population_parts(anchored_mixture_design(0), WPO)
    sweeps.append(("anchored binary", binary_bounds,
                   pair_subpop(op, (3, 1))))
    rng = np.random.default_rng(4)
    cont = [LocalObs(qset=frozenset({(2, 1)}), y=float(y), weight=float(w))
            for y, w in zip(rng.normal(size=40), rng.uniform(0.5, 2, 40))]
    sweeps.append(("continuous trimming", trimming_bounds_continuous, cont))
    for name, fn, obs in sweeps:
        prev = None
        for share in np.linspace(0.05, 1.0, 20):
            side = fn(obs, float(share))
            if prev is not None and (side.lower < prev.lower - 1e-12
                                     or side.upper > prev.upper + 1e-12):
                problems.append(f"{name}: interval widened at share {share}")
            prev = side
    elapsed = time.perf_counter() - t0
    detail = ("; ".join(problems[:6]) if problems else
              f"sharp inside hm and regime chains nested on {n_pairs} "
              f"design-regime cells; trimming sweeps monotone, {elapsed:.1f}s")
    acceptance_log("C6", not problems, detail)
    assert not problems, problems


def test_c7_falsification_screens(acceptance_log, tmp_path):
    t0 = time.perf_counter()
    problems = []
    worst = 0.0
    for label, make in (("anchored", anchored_mixture_design),
                        ("mixture", random_mixture_design)):
        for seed in range(60):
            design = make(seed)
            pair = (design.school, design.fallback)
            for regime in REGIMES:
                _, _, sp, sm = _population_parts(design, regime)
                rep = falsification_test(sp, sm, design.n_schools, pair=pair)
                worst = max(worst, max(c.statistic for c in rep.checks))
                if not rep.passed:
                    problems.append(f"{label}-{seed}/{regime.label} tripped")

    manifest = run_pipeline(RunConfig(preset="rigged-wpo",
                                      out_dir=str(tmp_path / "rigged")))
    if not manifest["falsified_any"]:
        problems.append("rigged cohort not flagged")
    if manifest["counts"] != {"falsified": 4}:
        problems.append(f"rigged counts {manifest['counts']}")
    entries = json.loads((tmp_path / "rigged" / "identify.json").read_text())
    over = [c["statistic"] for e in entries
            for c in e["falsification"]["checks"] if c["statistic"] > 1.0]
    if len(over) < 4:
        problems.append(f"rigged statistics not above one: {over}")
    bounds = json.loads((tmp_path / "rigged" / "bounds.json").read_text())
    if any(e["lower"] is not None for e in bounds):
        problems.append("rigged run still produced bounds")
    elapsed = time.perf_counter() - t0
    detail = ("; ".join(problems[:6]) if problems else
              f"480 consistent design-regime cells pass (worst statistic "
              f"{worst:.6f}); rigged cohort flagged in every regime with "
              f"statistics above one and no bounds, {elapsed:.1f}s")
    acceptance_log("C7", not problems, detail)
    assert not problems, problems


def test_c8_strategic_cohort_naive_outside_bounds(acceptance_log, tmp_path):
    t0 = time.perf_counter()
    manifest = run_pipeline(RunConfig(preset="strategic-showcase",
                                      sample_n=20_000, seed=7,
                                      out_dir=str(tmp_path / "showcase")))
    entries = json.loads((tmp_path / "showcase" / "bounds.json").read_text())
    strict_out = [
        e for e in entries
        if e["regime"] == "spo+umas" and e["method"] == "sharp-lp"
        and e["lower"] is not None and e["naive_point"] is not None
        and (e["naive_point"] < e["lower"] - 1e-9
             or e["naive_point"] > e["upper"] + 1e-9)]
    elapsed = time.perf_counter() - t0
    problems = []
    if manifest["counts"] != {"ok": 8}:
        problems.append(f"unexpected statuses {manifest['counts']}")
    if not strict_out:
        problems.append("no pair with the naive contrast strictly outside "
                        "the strictest-regime bounds")
    detail = "; ".join(problems[:4]) if problems else (
        lambda e: f"pair {tuple(e['pair'])}: naive {e['naive_point']:.3f} "
                  f"outside [{e['lower']:.3f}, {e['upper']:.3f}]; packaged "
                  f"cohort only, no external dataset involved, "
                  f"{elapsed:.1f}s")(strict_out[0])
    acceptance_log("C8", not problems, detail)
    assert not problems, problems


def test_c9_identical_reruns_are_byte_identical(acceptance_log, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "run"
    cfg = dict(preset="strategic-showcase", sample_n=4000, seed=11,
               out_dir=str(out))
    run_pipeline(RunConfig(**cfg))
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    run_pipeline(RunConfig(**cfg))
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    elapsed = time.perf_counter() - t0

    problems = []
    if set(first) != set(second):
        problems.append(f"artifact lists differ: {set(first) ^ set(second)}")
    # timing.json is a wall-clock log and is the one permitted difference
    diffs = [name for name in first
             if name != "timing.json" and first[name] != second.get(name)]
    if diffs:
        problems.append(f"bytes differ: {diffs}")
    detail = ("; ".join(problems) if problems else
              f"{len(first) - 1} artifacts byte-identical across reruns "
              f"(timing log aside), {elapsed:.1f}s")
    acceptance_log("C9", not problems, detail)
    assert not problems, problems
