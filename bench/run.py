"""Benchmark of the cutoffbounds program: one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is taken from ``src/``.  The
call makes the workload's inputs from ``--seed``, then runs whole rounds of
the workload until ``--seconds`` have passed (and at least three), checks
every round's outputs against computations made apart from the program, and
prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` the program runs with its public functions wrapped and the
metrics are the per-layer ones.  The exit code is 0 when every check
passed, 1 otherwise.

Workloads: ingest-showcase-50k, dgp-strategic-j6, population-sweep (see
README.md for what each loads and why).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs
from tracing import layer_metric_names

BENCH_DIR = Path(__file__).resolve().parent
STARTED = time.monotonic()
TIME_LIMIT_S = 170.0            # a run must end within 180 s
SETUP_SAMPLES = 7               # fresh imports timed for setup_s
MIN_ROUNDS = 3                  # rounds per run, at the least
STAGES = ("source", "match", "pairs", "qsets", "analyze")


class BenchError(RuntimeError):
    """The run could not be measured (the program crashed or timed out)."""


@dataclass
class Round:
    wall_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    trace: bool
    env: dict[str, str]


def run_child(ctx: Context, mode: str, args: list[str]) -> tuple[float, float, int]:
    """Run ``child.py`` in one mode; (wall seconds, peak RSS in MB, exit
    code)."""
    remaining = TIME_LIMIT_S - (time.monotonic() - STARTED)
    if remaining <= 1.0:
        raise BenchError("no time left for another round")
    rss_file = ctx.work / f"{mode}.rss"
    rss_file.unlink(missing_ok=True)
    trace = str(ctx.work / "trace.json") if ctx.trace else "-"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(rss_file),
           trace] + args
    with open(ctx.work / f"{mode}.out", "w") as out, \
            open(ctx.work / f"{mode}.err", "w") as err:
        wall, code = timed_run(cmd, remaining, cwd=ctx.root, env=ctx.env,
                               stdout=out, stderr=err)
    if code < 0 or not rss_file.exists():
        raise BenchError(f"{mode} child ended with {code}:\n"
                         f"{_tail(ctx.work / (mode + '.err'))}")
    return wall, float(rss_file.read_text()), code


def timed_run(cmd: list[str], timeout: float, **popen) -> tuple[float, int]:
    """Run ``cmd`` to its end; (wall seconds, exit code).

    ``subprocess.run(timeout=...)`` waits by polling with sleeps of up to
    50 ms, which would round every time up to the next poll.  A blocking
    ``wait()`` wakes when the child exits; a timer kills a child that
    overruns ``timeout``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, **popen)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    if wall >= timeout:
        raise subprocess.TimeoutExpired(cmd, timeout)
    return wall, code


def _tail(path: Path) -> str:
    return path.read_text()[-2000:] if path.exists() else ""


def measure_setup(ctx: Context) -> float:
    """Median over ``SETUP_SAMPLES`` fresh interpreters of the seconds from
    starting one until it has imported the CLI module and exited."""
    times = []
    cmd = [sys.executable, "-c", "import cutoffbounds.cli"]
    for _ in range(SETUP_SAMPLES):
        wall, code = timed_run(cmd, 60.0, cwd=ctx.root, env=ctx.env)
        if code != 0:
            raise BenchError(f"importing the program exited {code}")
        times.append(wall)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the two pipeline workloads


@dataclass
class PipelineInputs:
    """What the checks need to know about one pipeline workload's cohort."""

    config: Path
    out_dir: Path
    action: str
    load: Callable[[Path], tuple]   # out_dir -> (scores, reports, orders)
    capacities: tuple[int, ...]
    extra: Callable[[dict, list[dict]], list[str]] | None = None
    verified: tuple | None = None   # (artifact digest, verdict) of round 1


def pipeline_round(ctx: Context, spec: PipelineInputs) -> Round:
    out = spec.out_dir
    if out.exists():
        shutil.rmtree(out)
    wall, rss, code = run_child(ctx, "cli",
                                ["bounds", "--config", str(spec.config)])
    if code not in (0, 3) or not (out / "manifest.json").exists():
        raise BenchError(f"cutoffbounds exited {code}:\n"
                         f"{_tail(ctx.work / 'cli.err')}")
    # Reruns are byte-identical apart from timing.json, so a round that
    # reproduces the verified round's artifacts inherits its verdict.
    digest = (code, checks.artifact_digest(out))
    if spec.verified is not None and spec.verified[0] == digest:
        attempted, failed, problems = spec.verified[1]
    else:
        attempted, failed, problems = verify_pipeline(spec, out, code)
        if spec.verified is not None:
            problems.append("artifacts differ from the first round's")
        spec.verified = (digest, (attempted, failed, problems))
    rnd = Round(wall_s=wall, peak_rss_mb=rss, attempted=attempted,
                failed=failed, problems=list(problems))
    if ctx.trace:
        _pipeline_layers(rnd, ctx.work / "trace.json", out)
    return rnd


def verify_pipeline(spec: PipelineInputs, out: Path,
                    code: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one run's artifacts."""
    manifest = json.loads((out / "manifest.json").read_text())
    problems = []
    want = 3 if manifest.get("falsified_any") and spec.action == "error" else 0
    if code != want:
        problems.append(f"exit code {code}, expected {want}")

    scores, reports, orders = spec.load(out)
    cutoffs = checks.read_cutoffs(out / "cutoffs.csv")
    assigned = checks.read_assignment(out / "matching.csv", len(scores))
    problems += checks.check_matching(scores, reports, spec.capacities,
                                      assigned, cutoffs)
    qsets_by = checks.read_qsets(out / "qsets.csv")
    identify_doc = json.loads((out / "identify.json").read_text())
    problems += checks.check_event_lps(identify_doc, qsets_by)
    entries = json.loads((out / "bounds.json").read_text())
    problems += checks.check_intervals(entries)
    if spec.extra is not None:
        problems += spec.extra(manifest, entries)

    # an operation fails when it is falsified although every window
    # student's true local pair is in their candidate set
    missing = {key: checks.regime_coverage(rows, orders, scores, cutoffs,
                                           key[0])
               for key, rows in qsets_by.items()}
    failed = 0
    for s in manifest["statuses"]:
        if s["status"] not in ("ok", "falsified", "skipped-empty-side"):
            problems.append(f"undocumented status {s['status']!r}")
        elif s["status"] == "falsified":
            key = (s["pair"][0], s["regime"])
            if key in missing and not missing[key]:
                failed += 1
    return len(manifest["statuses"]), failed, problems


def _pipeline_layers(rnd: Round, trace_file: Path, out: Path) -> None:
    report = json.loads(trace_file.read_text())
    rnd.layers.update(report["metrics"])
    rnd.absent.extend(report["absent"])
    stages = json.loads((out / "timing.json").read_text()).get("seconds", {})
    for stage in STAGES:
        if stage in stages:
            rnd.layers[f"pipeline.{stage}_s"] = float(stages[stage])
        else:
            rnd.absent.append(f"pipeline.{stage}_s")
    rnd.layers["io.bytes_written"] = float(sum(
        p.stat().st_size for p in out.iterdir()
        if p.is_file() and p.name != "timing.json"))


def prepare_ingest(ctx: Context, n: int = inputs.INGEST_N) -> Callable[[], Round]:
    cohort = inputs.sample_cohort(inputs.SHOWCASE, n, ctx.seed)
    in_dir, out_dir = ctx.work / "input", ctx.work / "out"
    inputs.write_cohort_csvs(cohort, in_dir)
    config = ctx.work / "config.json"
    config.write_text(json.dumps(inputs.ingest_config(in_dir, out_dir,
                                                      cohort)))
    _, own_cutoffs = checks.serial_dictatorship(cohort.scores, cohort.reports,
                                                cohort.capacities)
    design = inputs.SHOWCASE
    studied = (design.school, design.fallback)
    truth = checks.population_truth(design)
    naive: dict[tuple[int, int], float | None] = {}

    def extra(manifest: dict, entries: list[dict]) -> list[str]:
        for pair in {tuple(e["pair"]) for e in entries} - naive.keys():
            naive[pair] = checks.naive_contrast(
                cohort.scores, cohort.reports, cohort.y, own_cutoffs, pair,
                bandwidth=30.0)
        return (checks.check_naive(entries, manifest["statuses"], naive)
                + checks.check_studied_pair(entries, studied,
                                            naive.get(studied), truth))

    spec = PipelineInputs(
        config=config, out_dir=out_dir, action="error",
        load=lambda out: (cohort.scores, cohort.reports, cohort.orders),
        capacities=cohort.capacities, extra=extra)
    return lambda: pipeline_round(ctx, spec)


def prepare_strategic_j6(ctx: Context, dgp: dict = inputs.STRATEGIC_J6_DGP,
                         ) -> Callable[[], Round]:
    out_dir = ctx.work / "out"
    config = ctx.work / "config.json"
    config.write_text(json.dumps(inputs.strategic_j6_config(out_dir, dgp)))

    def load(out: Path):
        scores = checks.read_scores(out / "students.csv")
        n = len(scores)
        return (scores, checks.read_rols(out / "rols.csv", n),
                checks.read_orders(out / "truth.csv", n))

    spec = PipelineInputs(
        config=config, out_dir=out_dir, action="warn", load=load,
        capacities=tuple(dgp["capacities"]))
    return lambda: pipeline_round(ctx, spec)


# ---------------------------------------------------------------------------
# the population sweep


def _design_from_record(rec: dict) -> inputs.Design:
    kinds = tuple(inputs.Kind(
        mass=k["mass"], order=tuple(k["order"]), report=tuple(k["report"]),
        probs=tuple(k["probs"]),
        report_below=None if k["report_below"] is None
        else tuple(k["report_below"])) for k in rec["kinds"])
    return inputs.Design(n_schools=rec["n_schools"], list_cap=rec["list_cap"],
                         cutoff_targets=tuple(rec["cutoff_targets"]),
                         kinds=kinds, school=rec["school"],
                         fallback=rec["fallback"])


def check_sweep(result: dict) -> tuple[int, list[str]]:
    """(failed cells, problems) for one sweep result."""
    truths = [checks.population_truth(_design_from_record(r))
              for r in result["designs"]]
    failed = 0
    problems = []
    rows = []
    for cell in result["cells"]:
        where = f"design {cell['design']}/{cell['regime']}"
        if cell["status"] != "ok":
            # every design satisfies every regime at population scale
            failed += 1
            problems.append(f"{where}: {cell['status']} "
                            f"{cell.get('error', '')}".rstrip())
            continue
        truth = truths[cell["design"]]
        for method, key in (("hm", "hm"), ("sharp-lp", "sharp")):
            iv = cell[key]
            # bounds.json-shaped rows; the design stands in for the pair
            rows.append({"pair": [cell["design"], 0], "outcome": "y",
                         "regime": cell["regime"], "method": method,
                         "lower": None if iv is None else iv[0],
                         "upper": None if iv is None else iv[1]})
            if iv is not None and not checks.contains(iv, (truth, truth)):
                problems.append(f"{where}: truth {truth} outside {key} {iv}")
    problems += checks.check_intervals(rows)
    return failed, problems


def prepare_sweep(ctx: Context,
                  per_family: int = inputs.SWEEP_DESIGNS_PER_FAMILY,
                  ) -> Callable[[], Round]:
    result_file = ctx.work / "sweep.json"

    def one_round() -> Round:
        _, rss, code = run_child(ctx, "sweep", [str(ctx.seed), str(per_family),
                                                str(result_file)])
        if code != 0:
            raise BenchError(f"sweep exited {code}:\n"
                             f"{_tail(ctx.work / 'sweep.err')}")
        result = json.loads(result_file.read_text())
        failed, problems = check_sweep(result)
        rnd = Round(wall_s=result["sweep_s"], peak_rss_mb=rss,
                    attempted=len(result["cells"]), failed=failed,
                    problems=problems)
        if ctx.trace:
            report = json.loads((ctx.work / "trace.json").read_text())
            rnd.layers.update(report["metrics"])
            rnd.absent.extend(report["absent"])
        return rnd

    return one_round


WORKLOADS = {
    "ingest-showcase-50k": prepare_ingest,
    "dgp-strategic-j6": prepare_strategic_j6,
    "population-sweep": prepare_sweep,
}

def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run can measure."""
    names = layer_metric_names()
    names += [f"pipeline.{s}_s" for s in STAGES] + ["io.bytes_written"]
    return names


def declared_per_layer() -> dict[str, str]:
    """Name -> unit of the per-layer metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def summarize(rounds: list[Round], trace: bool, setup_s: float | None) -> dict:
    problems = [p for r in rounds for p in r.problems]
    if trace:
        metrics = {}
        for name, unit in declared_per_layer().items():
            vals = [r.layers[name] for r in rounds if name in r.layers]
            value = statistics.median(vals) if vals else 0.0
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            # the fastest round: the host's contention only ever adds time,
            # and on a shared host the slowest rounds follow its bursts
            "wall_s": {"value": min(r.wall_s for r in rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb
                                                       for r in rounds),
                            "unit": "MB"},
        }
    return {"correct": not problems,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cutoffbounds" / "__init__.py").is_file():
        print(f"error: no src/cutoffbounds under {root}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    # the program is single-threaded; idle BLAS workers spinning on a
    # 2-vCPU host would take turns with it and add to the noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    work = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ctx = Context(root=root, work=work, seed=args.seed,
                  trace=bool(args.trace), env=env)
    try:
        setup_s = None if ctx.trace else measure_setup(ctx)
        one_round = WORKLOADS[args.workload](ctx)
        rounds = []
        longest = 0.0
        t0 = time.perf_counter()
        while True:
            started = time.perf_counter()
            rnd = one_round()
            longest = max(longest, time.perf_counter() - started)
            rounds.append(rnd)
            print(f"round {len(rounds)}: wall {rnd.wall_s:.3f} s, peak rss "
                  f"{rnd.peak_rss_mb:.1f} MB, {rnd.attempted} operations, "
                  f"{rnd.failed} failed", flush=True)
            if (time.perf_counter() - t0 >= args.seconds
                    and len(rounds) >= MIN_ROUNDS):
                break
            if time.monotonic() - STARTED + longest >= TIME_LIMIT_S:
                break           # another round could overrun the time limit
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(rounds, ctx.trace, setup_s)
    for p in sorted({p for r in rounds for p in r.problems}):
        print(f"check failed: {p}")
    if ctx.trace:
        absent = sorted({a for r in rounds for a in r.absent})
        zero = [n for n, m in result["metrics"].items()
                if n not in absent and m["value"] == 0]
        print(f"absent (function gone): {' '.join(absent) or '-'}")
        print(f"zero on this workload: {' '.join(zero) or '-'}")
    if result["correct"]:
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
