"""Child-process entry points; the program runs here, never in run.py.

    python3 bench/child.py cli RSS_FILE TRACE_JSON CLI_ARGS...
        Run ``cutoffbounds.cli.main(CLI_ARGS)``, as ``python3 -m
        cutoffbounds.cli`` would.
    python3 bench/child.py sweep RSS_FILE TRACE_JSON SEED PER_FAMILY RESULT_JSON
        Run the population sweep for SEED over PER_FAMILY designs of each
        family under every regime; write designs, cell results and the
        sweep's wall time to RESULT_JSON.

Both write the process's peak resident memory in MB to RSS_FILE when they
end.  With TRACE_JSON other than ``-`` every layer is wrapped first and the
layer metrics are written there.  The program is imported from
``PYTHONPATH``, which run.py points at the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from inputs import sweep_design_seeds, sweep_quotas
from tracing import Tracer


def _design_record(design) -> dict:
    return {
        "n_schools": design.n_schools, "list_cap": design.list_cap,
        "cutoff_targets": list(design.cutoff_targets),
        "school": design.school, "fallback": design.fallback,
        "kinds": [{"mass": t.mass, "order": list(t.order),
                   "report": list(t.report),
                   "report_below": (None if t.report_below is None
                                    else list(t.report_below)),
                   "probs": list(t.probs)} for t in design.types],
    }


def sweep_designs(seed: int, per_family: int) -> list:
    """Designs from the library's seeded generators, ``per_family`` of
    each family, in the fixed mix of sizes ``inputs.sweep_quotas`` gives.

    Cost grows steeply with a design's size, so a free mix would let the
    seed, not the program, set the sweep's time.
    """
    from cutoffbounds.presets import (PresetError, anchored_mixture_design,
                                      random_mixture_design)
    designs = []
    for make, shape in ((anchored_mixture_design, lambda d: len(d.types)),
                        (random_mixture_design, lambda d: d.n_schools)):
        quotas = sweep_quotas(make.__name__, per_family)
        for s in sweep_design_seeds(seed, make.__name__):
            if not any(quotas.values()):
                break
            try:
                design = make(s)
            except PresetError:
                continue
            if quotas.get(shape(design), 0) > 0:
                quotas[shape(design)] -= 1
                designs.append(design)
        if any(quotas.values()):
            raise RuntimeError(f"seed {seed}: too few {make.__name__} draws")
    return designs


def sweep_cell(design, regime) -> dict:
    """One (design, regime) cell at population scale, as in the README's
    library example plus the falsification screen."""
    from cutoffbounds.bounds import (effect_bounds, hm_side_bounds,
                                     pair_subpop, sharp_bounds_finite)
    from cutoffbounds.identify import (FalsificationSignal, build_polytope,
                                       containment_stats, delta_bounds,
                                       falsification_test)
    from cutoffbounds.population import build_local_obs

    pair = (design.school, design.fallback)
    cv = design.population_cutoffs()
    op = build_local_obs(design.population_types("plus"), "plus", cv,
                         design.school, design.list_cap, regime)
    om = build_local_obs(design.population_types("minus"), "minus", cv,
                         design.school, design.list_cap, regime)
    sp, sm = containment_stats(op, "plus"), containment_stats(om, "minus")
    if not falsification_test(sp, sm, design.n_schools, pair=pair).passed:
        return {"status": "falsified"}
    try:
        shares = delta_bounds(build_polytope(sp, sm), pair, op, om)
        sharp = sharp_bounds_finite(op, om, sp, sm, pair)
    except FalsificationSignal:
        return {"status": "falsified"}
    hm = None
    if shares.delta_plus and shares.delta_minus:
        b = effect_bounds(
            hm_side_bounds(pair_subpop(op, pair), shares.delta_plus),
            hm_side_bounds(pair_subpop(om, pair), shares.delta_minus))
        hm = [b.lower, b.upper]
    return {"status": "ok", "hm": hm, "sharp": [sharp.lower, sharp.upper]}


def run_sweep(seed: int, per_family: int) -> dict:
    from cutoffbounds.qsets import REGIMES

    designs = sweep_designs(seed, per_family)
    cells = []
    t0 = time.perf_counter()
    for d, design in enumerate(designs):
        for regime in REGIMES:
            try:
                cell = sweep_cell(design, regime)
            except Exception as exc:      # every cell gets a verdict
                cell = {"status": "error", "error": repr(exc)}
            cells.append({"design": d, "regime": regime.label, **cell})
    sweep_s = time.perf_counter() - t0
    return {"sweep_s": sweep_s, "cells": cells,
            "designs": [_design_record(d) for d in designs]}


def peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space.

    ``VmHWM`` is used rather than rusage's ``ru_maxrss``, which also counts
    the parent's memory that a vforked child shares until it execs.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    mode, rss_path, trace_arg, rest = argv[0], Path(argv[1]), argv[2], argv[3:]
    if mode not in ("cli", "sweep"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    import cutoffbounds.cli
    tracer = None
    if trace_arg != "-":
        import cutoffbounds.population  # noqa: F401  (wrapped too)
        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            return cutoffbounds.cli.main(rest)
        seed, per_family, result_path = int(rest[0]), int(rest[1]), Path(rest[2])
        result_path.write_text(json.dumps(run_sweep(seed, per_family)))
        return 0
    finally:
        if tracer is not None:
            Path(trace_arg).write_text(json.dumps(tracer.report()))
        rss_path.write_text(repr(peak_rss_mb()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
