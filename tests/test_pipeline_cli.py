"""End-to-end runs: configuration, staged artifacts, exit codes, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoffbounds import identify, localpref, pipeline, qsets
from cutoffbounds.cli import main
from cutoffbounds.identify import (build_polytope, collect_local_obs,
                                   containment_stats, delta_bounds,
                                   falsification_test)
from cutoffbounds.io import dump_json, write_economy, write_matching
from cutoffbounds.localpref import select_local_sample
from cutoffbounds.pipeline import (
    PipelineError,
    RunConfig,
    resolve_source,
    run_pipeline,
    write_report,
)
from cutoffbounds.qsets import detect_umas, qset_for_student, regime_from_label
from strategies import dgp_dicts

ARTIFACTS = ("students.csv", "rols.csv", "outcomes.csv", "truth.csv",
             "matching.csv", "cutoffs.csv", "pairs.csv", "qsets.csv",
             "windows.json", "identify.json", "bounds.json", "manifest.json")


@pytest.fixture(scope="module")
def showcase_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("showcase")
    cfg = RunConfig(preset="strategic-showcase", sample_n=20000, seed=7,
                    out_dir=str(out))
    manifest = run_pipeline(cfg)
    return out, manifest


def _cfg_file(tmp_path, **extra):
    path = tmp_path / "run.json"
    payload = {"preset": "golden-sd", "out_dir": str(tmp_path / "out")}
    payload.update(extra)
    dump_json(path, payload)
    return path


# ---------------------------------------------------------------------------
# configuration


def test_config_requires_exactly_one_source():
    with pytest.raises(PipelineError, match="exactly one source"):
        RunConfig()
    with pytest.raises(PipelineError, match="exactly one source"):
        RunConfig(preset="golden-sd", input_dir="x", capacities=(1,))


def test_config_validation():
    with pytest.raises(PipelineError, match="unknown preset"):
        RunConfig(preset="nope")
    with pytest.raises(PipelineError, match="regimes"):
        RunConfig(preset="golden-sd", regimes=())
    with pytest.raises(PipelineError):
        RunConfig(preset="golden-sd", regimes=("wpo", "mystery"))
    with pytest.raises(PipelineError):
        RunConfig(preset="golden-sd", outcomes=({"kind": "wat"},))
    with pytest.raises(PipelineError, match="falsification action"):
        RunConfig(preset="golden-sd", falsification_action="ignore")
    with pytest.raises(PipelineError, match="capacities"):
        RunConfig(input_dir="somewhere")
    with pytest.raises(PipelineError, match="bandwidth"):
        RunConfig(preset="golden-sd", bandwidth=-2.0)


def test_from_dict_round_trip():
    cfg = RunConfig(preset="golden-sd", seed=5,
                    regimes=("wpo", "spo"), falsification_action="warn",
                    bandwidth=12.0, outcomes=("identity", {"kind": "table",
                                                           "table": {"1": 2}}),
                    out_dir="elsewhere")
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(PipelineError, match="unknown config keys.*bogus"):
        RunConfig.from_dict({"preset": "golden-sd", "bogus": 1})
    with pytest.raises(PipelineError, match="falsification must be an object"):
        RunConfig.from_dict({"preset": "golden-sd", "falsification": "warn"})


def test_nested_falsification_block():
    cfg = RunConfig.from_dict({"preset": "golden-sd",
                               "falsification": {"action": "warn"}})
    assert cfg.falsification_action == "warn"
    assert cfg.to_dict()["falsification"] == {"action": "warn"}


@pytest.mark.parametrize("extra, key", [
    ({"falsification": {"actoin": "warn"}}, "falsification.actoin"),
    ({"falsification": {"action": "warn", "tol": 1e-9}}, "falsification.tol"),
    ({"falsification": {"allowance": 0.5}}, "falsification.allowance"),
    ({"mechanism": "da"}, "mechanism"),
    ({"falsification_action": "warn"}, "falsification_action"),
    ({"support_cap": 8}, "support_cap"),
    ({"min_witnesses": 1}, "min_witnesses"),
])
def test_unknown_and_retired_keys_exit_2(tmp_path, capsys, extra, key):
    cfg = _cfg_file(tmp_path, preset="rigged-wpo", **extra)
    assert main(["bounds", "--config", str(cfg)]) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source, key, value", [
    ({"dgp": {"n_students": 300, "list_cap": 3}}, "list_cap", 1),
    ({"dgp": {"n_students": 300}}, "capacities", [1]),
    ({"dgp": {"n_students": 300}}, "sample_n", 5),
    ({"preset": "golden-sd"}, "list_cap", 1),
    ({"preset": "strategic-showcase"}, "capacities", [9, 9, 9, 9]),
    ({"preset": "golden-sd"}, "sample_n", 5),
    ({"preset": "rigged-wpo"}, "sample_n", 5),
    ({"input_dir": "x", "capacities": [1]}, "sample_n", 5),
])
def test_keys_the_source_does_not_read_exit_2(tmp_path, capsys, source, key,
                                              value):
    path = tmp_path / "run.json"
    dump_json(path, dict(source, out_dir=str(tmp_path / "out"), **{key: value}))
    assert main(["bounds", "--config", str(path)]) == 2
    assert f"config key '{key}' is not used" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source, echoed", [
    ({"dgp": {"n_students": 300}}, {}),
    ({"preset": "golden-sd"}, {}),
    ({"preset": "strategic-showcase"}, {"sample_n": 20000}),
    ({"input_dir": "x", "capacities": [1]}, {"capacities": [1],
                                             "list_cap": 3}),
])
def test_config_echo_names_the_source_keys_it_reads(source, echoed):
    cfg = RunConfig.from_dict(source)
    echo = json.loads(json.dumps(cfg.to_dict()))
    assert {k: echo[k] for k in ("capacities", "list_cap", "sample_n")
            if k in echo} == echoed
    assert RunConfig.from_dict(echo) == cfg


@pytest.mark.parametrize("payload, message", [
    ({"preset": "golden-sd", "list_cap": "three"}, "config key 'list_cap'"),
    ({"preset": "golden-sd", "closure_cap": 1},
     "unknown config keys: .*'closure_cap'"),
    ({"preset": "golden-sd", "bandwidth": "wide"}, "config key 'bandwidth'"),
    ({"input_dir": "x", "capacities": 5}, "config key 'capacities'"),
    ({"preset": "golden-sd",
      "outcomes": [{"kind": "indicator", "threshold": "x"}]},
     "config key 'outcomes': .*'x'"),
    ({"preset": "golden-sd", "outcomes": [{"kind": "table",
                                           "table": {"a": 1}}]},
     "config key 'outcomes': .*'a'"),
    ({"dgp": {"bogus": 1}}, "config key 'dgp': .*'bogus'"),
    ({"dgp": {"reporting": {"modle": "truth_topk"}}},
     "config key 'dgp': .*'modle'"),
    ({"preset": "golden-sd", "regimes": "wpo"}, "config key 'regimes'"),
    ({"preset": "golden-sd", "outcomes": "identity"}, "config key 'outcomes'"),
    ({"preset": 4}, "config key 'preset'"),
])
def test_malformed_config_values_exit_2(tmp_path, capsys, payload, message):
    path = tmp_path / "run.json"
    dump_json(path, dict(payload, out_dir=str(tmp_path / "out")))
    assert main(["bounds", "--config", str(path)]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, message", [
    ({"preset": "strategic-showcase", "sample_n": -5}, "sample_n"),
    ({"preset": "strategic-showcase", "seed": -1, "sample_n": 2000}, "seed"),
    ({"dgp": {"n_students": 200}, "seed": -1}, "seed"),
    ({"dgp": {"n_students": "many"}}, "config key 'dgp': n_students"),
    ({"dgp": {"n_students": 2.5}}, "config key 'dgp': n_students"),
    ({"dgp": {"n_students": 200, "seed": "x"}}, "config key 'dgp': seed"),
    ({"dgp": {"n_students": 200, "n_schools": 0}},
     "config key 'dgp': n_schools"),
    ({"dgp": {"n_students": 200, "reporting": "x"}},
     "config key 'dgp': reporting"),
    ({"dgp": {"n_students": 200, "outcome": "binary"}},
     "config key 'dgp': outcome"),
    ({"dgp": {"n_students": 200, "score_sd": -5}},
     "config key 'dgp': score_sd"),
    ({"preset": "golden-sd", "bandwidth": "nan"}, "bandwidth"),
    # only generate_economy reads the mode, after the config has passed
    ({"dgp": {"n_students": 200, "score_mode": "x"}}, "score_mode 'x'"),
    ({"dgp": {"n_students": 300, "n_schools": 3,
              "reporting": {"model": "adversarial", "adversarial_school": 9}}},
     "config key 'dgp': reporting.adversarial_school: expected a school in"
     " 1..3, got 9"),
    ({"dgp": {"n_students": 300, "n_schools": 1,
              "reporting": {"model": "adversarial"}}},
     "config key 'dgp': reporting.model: 'adversarial' needs at least 2"
     " schools"),
])
def test_unusable_config_values_exit_2(tmp_path, capsys, payload, message):
    path = tmp_path / "run.json"
    dump_json(path, dict(payload, out_dir=str(tmp_path / "out")))
    assert main(["bounds", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_config_schema_names_every_accepted_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Config schema")[1]
    section = section.split("\n### ")[0]
    named = re.findall(r"^\| `([a-z_.]+)` \|", section, flags=re.M)
    nested = RunConfig(preset="golden-sd").to_dict()["falsification"]
    assert sorted(named) == sorted(
        [*pipeline._READERS, *(f"falsification.{k}" for k in nested)])


def test_readme_artifact_list_names_every_file_a_run_writes(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Artifacts\n")[1]
    named = re.findall(r"`([^`]+)`", section.strip().split("\n\n")[0])
    run_pipeline(RunConfig(preset="golden-sd", out_dir=str(tmp_path)))
    write_report(tmp_path)
    assert sorted(named) == sorted(p.name for p in tmp_path.iterdir())


def test_readme_library_example_prints_its_comment_lines(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library use")[1]
    code = section.split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    want = [line[2:] for line in code.splitlines()
            if line.startswith(("# HM ", "# sharp "))]
    assert len(want) == 2
    assert capsys.readouterr().out.splitlines() == want


# ---------------------------------------------------------------------------
# clean instance end to end


def test_golden_cli_end_to_end(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    assert main(["bounds", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    line = capsys.readouterr().out
    assert "pairs=1" in line and "skipped-empty-side=4" in line
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pairs"] == [[4, 2]]
    assert manifest["counts"] == {"skipped-empty-side": 4}
    assert len(manifest["statuses"]) == 4
    assert manifest["falsified_any"] is False
    assert manifest["n_students"] == 28 and manifest["n_schools"] == 4


def test_golden_identify_artifact(tmp_path):
    run_pipeline(RunConfig(preset="golden-sd", out_dir=str(tmp_path)))
    blocks = {b["regime"]: b
              for b in json.loads((tmp_path / "identify.json").read_text())}
    assert set(blocks) == {"wpo", "wpo+umas", "spo", "spo+umas"}
    for blk in blocks.values():
        assert blk["pair"] == [4, 2]
        assert blk["falsification"]["passed"] is True
        assert blk["delta_bar_minus"] is None
    windows = json.loads((tmp_path / "windows.json").read_text())
    assert [(w["school"], w["regime"]) for w in windows] == \
        [(4, r) for r in ("wpo", "wpo+umas", "spo", "spo+umas")]
    for w in windows:
        assert w["minus"] is None            # nobody just below the cutoff
    # deductions sharpen the plus side from vacuous to informative
    assert blocks["wpo"]["delta_bar_plus"] == 0.0
    assert blocks["wpo+umas"]["delta_bar_plus"] == pytest.approx(1 / 7)
    assert blocks["spo+umas"]["delta_bar_plus"] == pytest.approx(1 / 7)


def test_golden_pairs_and_qsets_csv(tmp_path):
    run_pipeline(RunConfig(preset="golden-sd", out_dir=str(tmp_path)))
    lines = (tmp_path / "pairs.csv").read_text().splitlines()
    assert lines == ["school,fallback,n_local,n_plus,n_minus", "4,2,7,7,0"]
    qlines = (tmp_path / "qsets.csv").read_text().splitlines()
    assert qlines[0] == "school,regime,student_id,side,qset"
    assert len(qlines) == 41
    cell = re.compile(r"^\d+:\d+(\|\d+:\d+)*$")
    multi = 0
    for row in qlines[1:]:
        qset = row.split(",")[4]
        assert cell.match(qset), row
        multi += "|" in qset
    assert multi == 32


def test_golden_report(tmp_path, capsys):
    run_pipeline(RunConfig(preset="golden-sd", out_dir=str(tmp_path)))
    summary = write_report(tmp_path)
    assert summary == {"regimes": ["spo", "spo+umas", "wpo", "wpo+umas"],
                       "n_entries": 8}
    rows = (tmp_path / "report_summary.csv").read_text().splitlines()
    assert rows[0] == "regime,n_pairs,n_sign_identified,n_naive_outside_bounds"
    assert rows[1:] == ["spo,1,0,0", "spo+umas,1,0,0",
                        "wpo,1,0,0", "wpo+umas,1,0,0"]
    pair_rows = (tmp_path / "report_pairs.csv").read_text().splitlines()
    assert len(pair_rows) == 9               # header + 2 methods x 4 regimes
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert "8 entries" in capsys.readouterr().out


def test_report_needs_bounds(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert "bounds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# internally inconsistent instance


def test_rigged_run_is_falsified(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, preset="rigged-wpo")
    assert main(["bounds", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert "falsified=4" in captured.out
    assert "falsification detected" in captured.err
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"] == {"falsified": 4}
    assert manifest["falsified_any"] is True
    entries = json.loads((out / "bounds.json").read_text())
    assert len(entries) == 8
    assert all(e["lower"] is None and e["upper"] is None for e in entries)


def test_rigged_falsification_statistics(tmp_path):
    run_pipeline(RunConfig(preset="rigged-wpo", out_dir=str(tmp_path)))
    blocks = {b["regime"]: b
              for b in json.loads((tmp_path / "identify.json").read_text())}
    for label, atoms_stat in (("wpo", 1.5), ("wpo+umas", 1.5),
                              ("spo", 1.6), ("spo+umas", 1.6)):
        checks = {c["name"]: c for c in
                  blocks[label]["falsification"]["checks"]}
        assert checks["support-atoms"]["statistic"] == pytest.approx(atoms_stat)
        assert not checks["support-atoms"]["passed"]
        assert checks["pair-4-2"]["statistic"] == pytest.approx(0.6)
        assert checks["pair-4-2"]["passed"]
        assert blocks[label]["falsification"]["passed"] is False


def test_rigged_warn_mode_exits_zero(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, preset="rigged-wpo",
                    falsification={"action": "warn"})
    assert main(["bounds", "--config", str(cfg)]) == 0
    assert "falsification detected" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sampled cohort end to end


def test_showcase_bounds_frozen(showcase_run):
    out, manifest = showcase_run
    assert manifest["pairs"] == [[2, 1], [4, 2]]
    assert manifest["counts"] == {"ok": 8}
    entries = json.loads((out / "bounds.json").read_text())
    assert len(entries) == 16
    for e in entries:
        key = (tuple(e["pair"]), e["method"])
        if key == ((4, 2), "hm"):
            assert e["lower"] == pytest.approx(0.17367908810478216)
            assert e["upper"] == pytest.approx(0.4591082298213489)
        elif key == ((4, 2), "sharp-lp"):
            assert e["lower"] == pytest.approx(0.17367908810478205)
            assert e["upper"] == pytest.approx(0.4031441249731941)
        else:
            # the untargeted margin is point-identified: every type ranks
            # its fallback the same way on both sides of that cutoff
            assert e["upper"] - e["lower"] < 1e-9
        assert e["sign_identified"] is True
        if e["pair"] == [4, 2]:
            assert e["naive_point"] == pytest.approx(0.10737846341215873)
            assert e["naive_outside_bounds"] is True
        else:
            assert e["naive_outside_bounds"] is False


def test_showcase_sharp_within_hm(showcase_run):
    out, _ = showcase_run
    entries = json.loads((out / "bounds.json").read_text())
    by_key = {(tuple(e["pair"]), e["regime"], e["method"]): e for e in entries}
    for pair in ((2, 1), (4, 2)):
        for regime in ("wpo", "wpo+umas", "spo", "spo+umas"):
            hm = by_key[(pair, regime, "hm")]
            sharp = by_key[(pair, regime, "sharp-lp")]
            assert sharp["lower"] >= hm["lower"] - 1e-9
            assert sharp["upper"] <= hm["upper"] + 1e-9


def test_showcase_manifest_statuses(showcase_run):
    _, manifest = showcase_run
    statuses = manifest["statuses"]
    assert len(statuses) == 8                # 2 pairs x 4 regimes x 1 outcome
    assert {s["status"] for s in statuses} == {"ok"}
    assert sum(manifest["counts"].values()) == len(statuses)


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path):
    cfg = RunConfig(preset="golden-sd", out_dir=str(tmp_path))
    run_pipeline(cfg)
    first = {name: (tmp_path / name).read_bytes() for name in ARTIFACTS}
    run_pipeline(cfg)
    for name in ARTIFACTS:
        assert (tmp_path / name).read_bytes() == first[name], name


# ---------------------------------------------------------------------------
# one window per (school, regime)

# school 3 has two fallback pairs, (3, 1) and (3, 2), both analysed
SHARED_WINDOW_DGP = {"n_students": 4000, "n_schools": 6, "list_cap": 3,
                     "score_mode": "sd", "outcome": {"kind": "binary"},
                     "reporting": {"model": "belief_skip", "noise_sd": 20}}


def test_pairs_at_one_school_share_its_window(tmp_path, monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapper)

    for name in ("window_qsets", "local_obs", "containment_stats",
                 "_side_payload", "build_polytope"):
        counted(name)
    cfg = RunConfig(dgp=SHARED_WINDOW_DGP, seed=1, out_dir=str(tmp_path),
                    falsification_action="warn")
    manifest = run_pipeline(cfg)
    schools = Counter(j for j, _ in manifest["pairs"])
    assert max(schools.values()) >= 2
    n_windows = len(schools) * len(cfg.regimes)
    # the qsets stage's candidate sets are the ones the analysis reads, and
    # each window's rows and polytope are built once for all its pairs
    assert calls == {"window_qsets": n_windows, "local_obs": n_windows,
                     "containment_stats": 2 * n_windows,
                     "_side_payload": 2 * n_windows,
                     "build_polytope": n_windows}
    monkeypatch.undo()

    data = resolve_source(cfg)
    eco, cuts = data.economy, data.cutoffs
    umas = detect_umas(eco, cuts)

    def recompute(school, label):
        regime = regime_from_label(label)
        sample = select_local_sample(eco, cuts, school, data.bandwidth)
        plus, minus = collect_local_obs(eco, cuts, sample, regime,
                                        umas if regime.umas else None)
        return (sample, plus, minus, containment_stats(plus, "plus"),
                containment_stats(minus, "minus"))

    def side(stats, n_obs):
        return {"n_obs": n_obs, "total_weight": stats.total,
                "support": [sorted(map(list, a))
                            for a in stats.family.members],
                "rows": [{"set": sorted(map(list, a)), "prob": stats.prob(a)}
                         for a in stats.family.closure]}

    # one windows.json entry per (school, regime), equal to a recomputation
    windows = json.loads((tmp_path / "windows.json").read_text())
    assert [(w["school"], w["regime"]) for w in windows] == \
        [(j, label) for j in sorted(schools) for label in cfg.regimes]
    for w in windows:
        sample, _, _, sp, sm = recompute(w["school"], w["regime"])
        assert w["plus"] == side(sp, sample.n_plus)
        assert w["minus"] == side(sm, sample.n_minus)

    # every block equals a recomputation for its pair alone
    blocks = json.loads((tmp_path / "identify.json").read_text())
    assert len(blocks) == len(manifest["pairs"]) * len(cfg.regimes)
    shared_bounds = 0
    for blk in blocks:
        assert "plus" not in blk and "minus" not in blk
        jk = tuple(blk["pair"])
        _, plus, minus, sp, sm = recompute(jk[0], blk["regime"])
        fals = falsification_test(sp, sm, eco.n_schools, pair=jk)
        assert [c["statistic"] for c in blk["falsification"]["checks"]] == \
            [c.statistic for c in fals.checks]
        if blk["p_lower"] is not None:
            delta = delta_bounds(build_polytope(sp, sm), jk, plus, minus)
            assert (blk["p_lower"], blk["p_upper"]) == \
                (delta.p_lower, delta.p_upper)
            shared_bounds += schools[jk[0]] >= 2
    assert shared_bounds >= 2


# ---------------------------------------------------------------------------
# staged subcommands


def test_stages_accumulate_artifacts(tmp_path, golden):
    cfg = _cfg_file(tmp_path)
    stages = {
        "simulate": ("students.csv", "rols.csv", "outcomes.csv", "truth.csv"),
        "match": ("matching.csv", "cutoffs.csv"),
        "pairs": ("pairs.csv",),
        "qsets": ("qsets.csv",),
        "identify": ("windows.json", "identify.json"),
        "bounds": ("bounds.json",),
    }
    out = tmp_path / "out"
    pending = [n for names in stages.values() for n in names]
    for stage, fresh in stages.items():
        assert main([stage, "--config", str(cfg)]) == 0
        for name in fresh:
            pending.remove(name)
            assert (out / name).exists(), f"{stage} should write {name}"
        for name in pending:
            assert not (out / name).exists(), f"{stage} wrote {name} early"
        assert (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# ingest mode


def test_ingest_recomputes_and_flags_mismatches(tmp_path, golden, capsys):
    src = tmp_path / "in"
    write_economy(src, golden.economy)
    flipped = list(golden.matching.assignment)
    flipped[0] = 0 if flipped[0] != 0 else 1
    write_matching(src / "matching.csv", flipped, range(len(flipped)))
    cfg = _cfg_file(tmp_path, preset=None, input_dir=str(src),
                    capacities=list(golden.economy.capacities))
    assert main(["bounds", "--config", str(cfg)]) == 0
    assert "differ from recomputed" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["warnings"]["assignment_mismatches"] == [0]
    assert set(manifest["inputs"]) == {"students.csv", "rols.csv",
                                       "outcomes.csv", "truth.csv",
                                       "matching.csv"}


def test_ingest_warns_about_tied_scores(tmp_path, capsys):
    # independent score columns; student 3 gets student 7's score at
    # school 2 only, so school 2 alone has two tied students
    dgp = RunConfig(dgp={"n_students": 60, "n_schools": 3, "list_cap": 2,
                         "score_mode": "independent"},
                    seed=4, out_dir=str(tmp_path / "in"))
    run_pipeline(dgp, stage="simulate")
    src = tmp_path / "in"
    cfg = _cfg_file(tmp_path, preset=None, input_dir=str(src),
                    capacities=list(resolve_source(dgp).economy.capacities))
    assert main(["match", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["warnings"] == {}
    assert "tied" not in capsys.readouterr().err

    rows = list(csv.reader((src / "students.csv").read_text().splitlines()))
    rows[1 + 3][2] = rows[1 + 7][2]
    (src / "students.csv").write_text(
        "".join(",".join(r) + "\n" for r in rows))
    assert main(["match", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["warnings"] == {
        "tied_scores": [{"school_id": 2, "tied_students": 2}]}
    assert "tied scores at schools [2]" in capsys.readouterr().err


def _shift_ids(src, dst, by):
    """Copy the input files of ``src`` into ``dst`` with every student id
    raised by ``by``."""
    dst.mkdir()
    for name in ("students.csv", "rols.csv", "outcomes.csv", "truth.csv"):
        head, *rows = (src / name).read_text().splitlines()
        rows = [_with_id(f, int(f[0]) + by)
                for f in (row.split(",") for row in rows)]
        (dst / name).write_text("\n".join([head] + rows) + "\n")


def test_ingest_artifacts_carry_the_students_csv_ids(tmp_path):
    # 400 students with ids 100..499: the run's matching.csv and qsets.csv
    # name them by id, and its own matching, supplied back, matches itself
    dgp = RunConfig(dgp={"n_students": 400, "n_schools": 3, "list_cap": 2},
                    seed=2, out_dir=str(tmp_path / "base"))
    run_pipeline(dgp, stage="simulate")
    _shift_ids(tmp_path / "base", tmp_path / "shifted", 100)
    capacities = resolve_source(dgp).economy.capacities
    out = {}
    for name in ("base", "shifted"):
        cfg = RunConfig(input_dir=str(tmp_path / name), capacities=capacities,
                        bandwidth=100.0, min_local_n=5,
                        out_dir=str(tmp_path / f"out-{name}"))
        run_pipeline(cfg, stage="qsets")
        out[name] = {f: list(csv.reader(
            (tmp_path / f"out-{name}" / f).read_text().splitlines()))
            for f in ("matching.csv", "qsets.csv")}
    base, shifted = out["base"], out["shifted"]
    assert len(base["qsets.csv"]) > 1
    assert [r[0] for r in shifted["matching.csv"][1:]] == \
        [str(i) for i in range(100, 500)]
    assert shifted["matching.csv"][1:] == [
        [str(int(sid) + 100), j] for sid, j in base["matching.csv"][1:]]
    assert shifted["qsets.csv"][1:] == [
        r[:2] + [str(int(r[2]) + 100)] + r[3:] for r in base["qsets.csv"][1:]]

    src = tmp_path / "shifted"
    (src / "matching.csv").write_text(
        (tmp_path / "out-shifted" / "matching.csv").read_text())
    cfg = RunConfig(input_dir=str(src), capacities=capacities,
                    out_dir=str(tmp_path / "again"))
    assert run_pipeline(cfg, stage="match")["warnings"] == {}
    rows = shifted["matching.csv"]
    rows[5][1] = "0" if rows[5][1] != "0" else "1"
    (src / "matching.csv").write_text("".join(f"{a},{b}\n" for a, b in rows))
    assert run_pipeline(cfg, stage="match")["warnings"] == {
        "assignment_mismatches": [int(rows[5][0])]}


def test_ingest_cutoff_override(tmp_path, golden):
    src = tmp_path / "in"
    write_economy(src, golden.economy)
    (src / "cutoffs.csv").write_text(
        "school_id,cutoff\n1,150.0\n2,350.0\n3,550.0\n4,805.0\n")
    cfg = RunConfig(input_dir=str(src),
                    capacities=golden.economy.capacities,
                    out_dir=str(tmp_path / "out"))
    run_pipeline(cfg, stage="match")
    lines = (tmp_path / "out" / "cutoffs.csv").read_text().splitlines()
    assert lines[4] == "4,805.0"
    (src / "cutoffs.csv").write_text("school_id,cutoff\n4,805.0\n")
    with pytest.raises(PipelineError, match="1..J"):
        run_pipeline(cfg, stage="match")


def test_ingest_derives_each_window_students_budgets_once(tmp_path,
                                                          monkeypatch):
    src = tmp_path / "in"
    dgp = RunConfig(dgp=SHARED_WINDOW_DGP, seed=1, out_dir=str(src))
    run_pipeline(dgp, stage="simulate")
    cfg = RunConfig(input_dir=str(src),
                    capacities=resolve_source(dgp).economy.capacities,
                    out_dir=str(tmp_path / "out"), falsification_action="warn")
    # budget sets come from window_budgets (many students) or
    # counterfactual_sets (one student); count both, per (school, student)
    derived = Counter()
    many, one = localpref.window_budgets, localpref.counterfactual_sets

    def count_many(eco, cutoffs, j, ids):
        derived.update((j, i) for i in ids)
        return many(eco, cutoffs, j, ids)

    def count_one(eco, cutoffs, i, j):
        derived[j, i] += 1
        return one(eco, cutoffs, i, j)

    monkeypatch.setattr(localpref, "window_budgets", count_many)
    for module in (localpref, qsets):
        monkeypatch.setattr(module, "counterfactual_sets", count_one)
    run_pipeline(cfg)
    monkeypatch.undo()
    assert derived and set(derived.values()) == {1}

    with open(tmp_path / "out" / "qsets.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    window = {(int(r["school"]), int(r["student_id"])) for r in rows}
    assert window <= set(derived)
    assert len(rows) == len(window) * len(cfg.regimes)
    data = resolve_source(cfg)
    umas = detect_umas(data.economy, data.cutoffs)
    for r in rows:
        regime = regime_from_label(r["regime"])
        q = qset_for_student(data.economy, data.cutoffs, int(r["student_id"]),
                             int(r["school"]), regime,
                             umas if regime.umas else None)
        assert r["qset"] == "|".join(f"{a}:{b}" for a, b in sorted(q))


@pytest.mark.parametrize("extra", ["0,9", "0,4,2,9"])
def test_ingest_rejects_a_row_with_the_wrong_field_count(tmp_path, golden,
                                                         capsys, extra):
    src = tmp_path / "in"
    write_economy(src, golden.economy)
    rols = src / "rols.csv"
    n_lines = len(rols.read_text().splitlines())
    rols.write_text(rols.read_text() + extra + "\n")
    cfg = _cfg_file(tmp_path, preset=None, input_dir=str(src),
                    capacities=list(golden.economy.capacities))
    assert main(["bounds", "--config", str(cfg)]) == 2
    assert f"rols.csv row {n_lines + 1}: expected 3 fields" in \
        capsys.readouterr().err


def _append_row(path, row_of):
    """Append a copy of the file's first data row, changed by ``row_of``;
    returns the new row's number, counting the header as row 1."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [row_of(lines[1].split(","))]) + "\n")
    return len(lines) + 1


def _with_id(fields, sid):
    return ",".join([str(sid)] + fields[1:])


@pytest.mark.parametrize("name, row_of, message", [
    ("outcomes.csv", lambda f: _with_id(f, 99), "unknown student id 99"),
    ("truth.csv", lambda f: _with_id(f, 99), "unknown student id 99"),
    ("matching.csv", lambda f: _with_id(f, 99), "unknown student id 99"),
    ("truth.csv", lambda f: _with_id(f, 0),
     "duplicate truth row for student 0"),
])
def test_ingest_rejects_unknown_and_repeated_students(tmp_path, golden, capsys,
                                                      name, row_of, message):
    src = tmp_path / "in"
    write_economy(src, golden.economy)
    write_matching(src / "matching.csv", golden.matching.assignment,
                   range(golden.economy.n_students))
    row = _append_row(src / name, row_of)
    cfg = _cfg_file(tmp_path, preset=None, input_dir=str(src),
                    capacities=list(golden.economy.capacities))
    assert main(["bounds", "--config", str(cfg)]) == 2
    assert f"{name} row {row}: {message}" in capsys.readouterr().err


def _set_field(path, row, field, text):
    """Put ``text`` in field ``field`` of row ``row``, counting the header
    as row 1."""
    lines = path.read_text().splitlines()
    fields = lines[row - 1].split(",")
    fields[field] = text
    lines[row - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, field", [("students.csv", 3),
                                         ("outcomes.csv", 1)])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_ingest_rejects_non_finite_scores_and_outcomes(tmp_path, golden,
                                                       capsys, name, field,
                                                       text):
    # unchecked, a NaN score is ranked below every other one by the
    # matching, and a NaN or infinite outcome makes the window LPs fail
    src = tmp_path / "in"
    write_economy(src, golden.economy)
    _set_field(src / name, 10, field, text)
    cfg = _cfg_file(tmp_path, preset=None, input_dir=str(src),
                    capacities=list(golden.economy.capacities))
    assert main(["bounds", "--config", str(cfg)]) == 2
    assert f"{name} row 10: not a finite number: '{text}'" in \
        capsys.readouterr().err


def test_ingest_without_outcomes_is_a_config_error(tmp_path, golden, capsys):
    src = tmp_path / "in"
    write_economy(src, golden.economy)
    (src / "outcomes.csv").unlink()
    cfg = _cfg_file(tmp_path, preset=None, input_dir=str(src),
                    capacities=list(golden.economy.capacities))
    assert main(["qsets", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["bounds", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "outcomes.csv" in err and "'bounds'" in err


# ---------------------------------------------------------------------------
# CLI flags and error paths


def test_closure_cap_overrun_is_a_status(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(identify, "CLOSURE_CAP", 1)
    cfg = _cfg_file(tmp_path)
    assert main(["bounds", "--config", str(cfg)]) in (0, 3)
    assert "skipped-closure-cap=4" in capsys.readouterr().out
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"] == {"skipped-closure-cap": 4}
    for s in manifest["statuses"]:
        assert s["reason"] == "plus side: connected unions exceed cap 1"
    for blk in json.loads((out / "identify.json").read_text()):
        assert blk["falsification"] is None
    for w in json.loads((out / "windows.json").read_text()):
        assert w["plus"] is None and w["minus"] is None
    entries = json.loads((out / "bounds.json").read_text())
    assert len(entries) == 8
    assert all(e["lower"] is None and e["upper"] is None for e in entries)


def test_a_seatless_school_has_no_cutoff_and_no_pair(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, preset=None, min_local_n=10,
                    dgp={"n_students": 500, "n_schools": 4,
                         "capacities": [50, 0, 60, 40]},
                    falsification={"action": "warn"})
    assert main(["bounds", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    with open(out / "cutoffs.csv") as fh:
        cutoffs = {row["school_id"]: row["cutoff"] for row in csv.DictReader(fh)}
    assert cutoffs["2"] == "inf"
    pairs = json.loads((out / "manifest.json").read_text())["pairs"]
    assert len(pairs) == 2 and all(2 not in pair for pair in pairs)


def test_cli_overrides_take_precedence(tmp_path):
    cfg = _cfg_file(tmp_path, seed=0)
    alt = tmp_path / "alt"
    assert main(["simulate", "--config", str(cfg), "--seed", "9",
                 "--out", str(alt)]) == 0
    manifest = json.loads((alt / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert manifest["config"]["out_dir"] == str(alt)
    assert not (tmp_path / "out").exists()


def test_cli_config_errors(tmp_path, capsys):
    assert main(["bounds"]) == 2
    assert "--config is required" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["bounds", "--config", str(bad)]) == 2
    bad.write_text('{"preset": "golden-sd", "verbose": true}')
    assert main(["bounds", "--config", str(bad)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulated cohorts


# the benchmark's fixed J=6 cohort: its two falsified-yet-consistent
# combinations rest on this exact draw
STRATEGIC_J6_DGP = {
    "n_students": 3000, "n_schools": 6, "list_cap": 3, "score_mode": "sd",
    "capacities": [125, 150, 188, 250, 375, 750],
    "outcome": {"kind": "binary"},
    "reporting": {"model": "belief_skip", "noise_sd": 20},
    "seed": 2,
}


def test_strategic_j6_cohort_files_are_pinned(tmp_path):
    path = tmp_path / "run.json"
    dump_json(path, {"dgp": STRATEGIC_J6_DGP, "out_dir": str(tmp_path)})
    assert main(["simulate", "--config", str(path)]) == 0
    want = {
        "students.csv": "d382b69e0e5b7f516feeb2c2a07ddfb0"
                        "426689c21347a5d186967b42312e0d7a",
        "rols.csv": "6f22808b8fd37723a84ec7dbe3bba9a5"
                    "c1e51f3cf5ee329310c2324308fcc174",
        "outcomes.csv": "5984a6933cac954ce96f511b9967012c"
                        "2664b7f34f628cf4615ce9adb4ad280d",
        "truth.csv": "ecf613bd675dd5c4cfb971475d7b63c6"
                     "f46740c7855386789c97d7ed9184f5ce",
    }
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in want}
    assert got == want


def _readme_statuses() -> set[str]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text().split("| status | meaning |")[1]
    return set(re.findall(r"^\| `([a-z-]+)` \|", table.split("\n\n")[0],
                          flags=re.M))


@settings(max_examples=30, deadline=None)
@given(dgp_dicts(max_students=600, max_schools=6),
       st.sampled_from([5, 20, 50]), st.sampled_from([30.0, 150.0]))
def test_any_valid_dgp_runs_to_a_documented_status(dgp, min_local_n,
                                                   bandwidth):
    statuses = _readme_statuses()
    assert statuses
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        dump_json(path, {"dgp": dgp, "min_local_n": min_local_n,
                         "bandwidth": bandwidth,
                         "out_dir": str(Path(tmp) / "out")})
        code = main(["bounds", "--config", str(path)])
        manifest = json.loads((Path(tmp) / "out" / "manifest.json")
                              .read_text())
    assert code == (3 if manifest["falsified_any"] else 0)
    assert {e["status"] for e in manifest["statuses"]} <= statuses
