"""Fast tests of the benchmark: a tiny round of each workload's code path,
and every correctness check rejecting a deliberately corrupted result.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run
import tracing

ROOT = Path(__file__).resolve().parents[2]

TINY_DGP = dict(inputs.STRATEGIC_J6_DGP, n_schools=4,
                capacities=[188, 250, 375, 750], seed=1)


def _ctx(tmp_path: Path, trace: bool = False, seed: int = 3) -> run.Context:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return run.Context(root=ROOT, work=tmp_path, seed=seed, trace=trace,
                       env=env)


# ---------------------------------------------------------------------------
# tiny end-to-end rounds


def test_ingest_round_tiny(tmp_path):
    rnd = run.prepare_ingest(_ctx(tmp_path), n=20_000)()
    assert rnd.problems == []
    assert (rnd.attempted, rnd.failed) == (8, 0)
    assert rnd.wall_s > 0 and rnd.peak_rss_mb > 0


def test_strategic_round_tiny_traced(tmp_path):
    rnd = run.prepare_strategic_j6(_ctx(tmp_path, trace=True), dgp=TINY_DGP)()
    assert rnd.problems == []
    assert rnd.attempted > 0
    assert rnd.absent == []
    assert set(rnd.layers) == set(run.per_layer_names())
    assert rnd.layers["identify.event_lp_calls"] > 0
    assert rnd.layers["pipeline.analyze_s"] > 0


def test_sweep_round_tiny(tmp_path):
    rnd = run.prepare_sweep(_ctx(tmp_path), per_family=2)()
    assert rnd.problems == []
    assert (rnd.attempted, rnd.failed) == (16, 0)


def test_timed_run_returns_exit_code_and_kills_an_overrun():
    wall, code = run.timed_run([sys.executable, "-c", "raise SystemExit(3)"],
                               60.0)
    assert code == 3 and 0 < wall < 60.0
    with pytest.raises(run.subprocess.TimeoutExpired):
        run.timed_run([sys.executable, "-c", "import time; time.sleep(30)"],
                      0.5)


def test_per_layer_metrics_match_the_benchmark_spec():
    assert sorted(run.declared_per_layer()) == sorted(run.per_layer_names())


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "population-sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# event LPs


A, B, C = (4, 2), (4, 3), (2, 2)


def _block(lo, hi, passed=True):
    return {"pair": [4, 2], "regime": "wpo", "p_lower": lo, "p_upper": hi,
            "falsification": {"passed": passed}}


def test_union_closure_and_rows():
    assert checks.union_closure([1, 2, 4]) == {1, 2, 3, 4, 5, 6, 7}
    bit = {A: 0, B: 1}
    rows = checks.side_rows([frozenset({A})] * 3 + [frozenset({A, B})], bit)
    assert rows == {1: 0.75, 3: 1.0}


def test_event_lp_check_rejects_moved_bound_and_flipped_verdict():
    plus = [frozenset({A, B})] * 6 + [frozenset({C})] * 4
    minus = [frozenset({A})] * 4 + [frozenset({A, B, C})] * 6
    qsets_by = {(4, "wpo"): [(i, "plus", q) for i, q in enumerate(plus)]
                + [(i, "minus", q) for i, q in enumerate(minus)]}
    lo, hi = checks.event_bounds_highs(plus, minus, A)
    assert lo == pytest.approx(0.4) and hi == pytest.approx(0.6)
    assert checks.check_event_lps([_block(lo, hi)], qsets_by) == []
    moved = checks.check_event_lps([_block(lo - 0.01, hi)], qsets_by)
    assert moved and "HiGHS" in moved[0]
    flipped = checks.check_event_lps([_block(None, None, passed=False)],
                                     qsets_by)
    assert flipped and "falsified" in flipped[0]


def test_event_lp_check_rejects_a_missed_infeasibility():
    plus, minus = [frozenset({A})] * 5, [frozenset({B})] * 5
    qsets_by = {(4, "wpo"): [(i, "plus", q) for i, q in enumerate(plus)]
                + [(i, "minus", q) for i, q in enumerate(minus)]}
    assert checks.event_bounds_highs(plus, minus, A) is None
    missed = checks.check_event_lps([_block(1.0, 1.0)], qsets_by)
    assert missed and "empty" in missed[0]
    assert checks.check_event_lps([_block(None, None, passed=False)],
                                  qsets_by) == []


# ---------------------------------------------------------------------------
# matching


SCORES = np.array([90.0, 80.0, 70.0, 60.0])
REPORTS = [(1,), (1, 2), (2,), (1, 2)]
CAPS = (1, 2)


def test_matching_check_accepts_serial_dictatorship():
    assigned, cutoffs = checks.serial_dictatorship(SCORES, REPORTS, CAPS)
    assert assigned.tolist() == [1, 2, 2, 0]
    assert cutoffs == {1: 90.0, 2: 70.0}
    assert checks.check_matching(SCORES, REPORTS, CAPS, assigned,
                                 cutoffs) == []


def test_matching_check_rejects_wrong_assignment_and_overfull_school():
    _, cutoffs = checks.serial_dictatorship(SCORES, REPORTS, CAPS)
    swapped = np.array([2, 1, 2, 0])
    assert checks.check_matching(SCORES, REPORTS, CAPS, swapped, cutoffs)
    overfull = np.array([1, 2, 2, 2])
    problems = checks.check_matching(SCORES, REPORTS, CAPS, overfull, cutoffs)
    assert any("capacity" in p for p in problems)


def test_matching_check_rejects_wrong_cutoffs():
    assigned, cutoffs = checks.serial_dictatorship(SCORES, REPORTS, CAPS)
    problems = checks.check_matching(SCORES, REPORTS, CAPS, assigned,
                                     {**cutoffs, 2: 65.0})
    assert any("cutoffs differ" in p for p in problems)


# ---------------------------------------------------------------------------
# naive contrast, truth and intervals


def test_naive_contrast_by_hand():
    scores = np.array([55.0, 52.0, 45.0, 48.0, 90.0])
    reports = [(1, 2)] * 4 + [(2,)]
    y = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    cutoffs = {1: 50.0, 2: -1.0}
    assert checks.naive_contrast(scores, reports, y, cutoffs, (1, 2),
                                 bandwidth=30.0) == pytest.approx(0.5)


def _entry(regime, method, lower, upper, naive=0.1, n=4000):
    return {"pair": [4, 2], "regime": regime, "outcome": "identity",
            "method": method, "lower": lower, "upper": upper,
            "naive_point": naive, "n_plus": n, "n_minus": n}


def _entries():
    out = []
    for regime, shrink in (("wpo", 0.0), ("wpo+umas", 0.01), ("spo", 0.01),
                           ("spo+umas", 0.02)):
        out.append(_entry(regime, "hm", 0.17 + shrink, 0.43 - shrink))
        out.append(_entry(regime, "sharp-lp", 0.18 + shrink, 0.40 - shrink))
    return out


def _statuses(entries):
    return [{"pair": e["pair"], "regime": e["regime"],
             "outcome": e["outcome"], "status": "ok"} for e in entries]


def test_naive_check_rejects_a_wrong_naive_point():
    entries = _entries()
    assert checks.check_naive(entries, _statuses(entries), {A: 0.1}) == []
    entries[3]["naive_point"] = 0.2
    assert checks.check_naive(entries, _statuses(entries), {A: 0.1})


def test_studied_pair_check():
    entries = _entries()
    assert checks.check_studied_pair(entries, A, 0.1, 0.375) == []
    inside = checks.check_studied_pair(entries, A, 0.3, 0.375)
    assert inside and "naive" in inside[0]
    assert checks.check_studied_pair(entries, A, 0.1, 0.6)


def test_interval_check_rejects_bounds_moved_outside():
    entries = _entries()
    assert checks.check_intervals(entries) == []
    wide = copy.deepcopy(entries)
    wide[1]["upper"] = 0.5          # wpo sharp beyond wpo hm
    assert any("not inside hm" in p for p in checks.check_intervals(wide))
    loose = copy.deepcopy(entries)
    loose[6]["lower"] = 0.1         # spo+umas hm wider than spo hm
    assert any("spo+umas" in p for p in checks.check_intervals(loose))


def test_population_truth_of_the_showcase():
    # true (4,2) students: 0.7 admitted; 0.6 and 0.05 rejected, equal mass
    assert checks.population_truth(inputs.SHOWCASE) == pytest.approx(0.375)


def _sweep_result(cells):
    design = {"n_schools": 4, "list_cap": 3,
              "cutoff_targets": [None, 300.0, None, 800.0], "school": 4,
              "fallback": 2,
              "kinds": [{"mass": k.mass, "order": list(k.order),
                         "report": list(k.report),
                         "report_below": (None if k.report_below is None
                                          else list(k.report_below)),
                         "probs": list(k.probs)}
                        for k in inputs.SHOWCASE.kinds]}
    return {"designs": [design], "cells": cells, "sweep_s": 1.0}


def test_sweep_check_rejects_truth_outside_and_failed_cells():
    good = {"design": 0, "regime": "wpo", "status": "ok",
            "hm": [0.175, 0.425], "sharp": [0.175, 0.4]}
    assert run.check_sweep(_sweep_result([good])) == (0, [])
    moved = dict(good, sharp=[0.38, 0.4])
    failed, problems = run.check_sweep(_sweep_result([moved]))
    assert failed == 0 and any("truth" in p for p in problems)
    falsified = {"design": 0, "regime": "spo", "status": "falsified"}
    failed, problems = run.check_sweep(_sweep_result([good, falsified]))
    assert failed == 1 and problems == ["design 0/spo: falsified"]
    error = {"design": 0, "regime": "spo", "status": "error",
             "error": "ValueError('boom')"}
    failed, problems = run.check_sweep(_sweep_result([error]))
    assert failed == 1 and "boom" in problems[0]


def test_regime_coverage_flags_a_missing_true_pair():
    cutoffs = {1: 50.0, 2: -1.0}
    orders = np.array([[1, 2, 0], [2, 1, 0]])
    scores = np.array([55.0, 45.0])
    rows = [(0, "plus", frozenset({(1, 2)})), (1, "minus", frozenset({(1, 2)}))]
    # student 1 truly prefers 2 everywhere: true pair (2, 2)
    assert checks.regime_coverage(rows, orders, scores, cutoffs, 1) == [1]


# ---------------------------------------------------------------------------
# tracing


def test_tracer_reports_a_gone_function_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    layers = tracing.LAYERS + (
        tracing.Layer("simplex.no_such_solver",
                      calls="simplex.no_such_solver_calls"),
        tracing.Layer("no_such_module.run"),
    )
    monkeypatch.setattr(tracing, "LAYERS", layers)
    import cutoffbounds.identify as identify
    original = identify.solve_bounds_on_event
    tracer = tracing.Tracer()
    tracer.install()
    try:
        poly = identify.DistPolytope(atoms=((4, 2),),
                                     rows=((frozenset({(4, 2)}), 0.5),))
        assert identify.solve_bounds_on_event(poly, [(4, 2)]) == \
            pytest.approx((0.5, 1.0))
    finally:
        identify.solve_bounds_on_event = original
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cutoffbounds"):
                for attr, value in list(vars(mod).items()):
                    if getattr(value, "__wrapped__", None) is not None:
                        setattr(mod, attr, value.__wrapped__)
    report = tracer.report()
    assert {"simplex.no_such_solver_s", "simplex.no_such_solver_calls",
            "no_such_module.run_s"} <= set(report["absent"])
    assert report["metrics"]["identify.event_lp_calls"] == 1
    assert report["metrics"]["identify.event_lp_rows"] == 1
    assert report["metrics"]["simplex.solve_lp_calls"] == 2
