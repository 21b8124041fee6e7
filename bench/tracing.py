"""Per-layer timings and counts, taken by wrapping the program's public
functions from outside.

Each layer is named by its public caller (``module.function``), so a
metric keeps its name when the code behind it moves.  A name the program no
longer has is reported as absent; the run goes on without it.  Wrapping
replaces the function in its own module and in every ``cutoffbounds``
module that imported it by name, so calls through either binding are
timed.  Times are inclusive: a layer's time contains the layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# counter hooks: (bound arguments, result or None, exception or None)
# -> {counter name: increment}


def _closure_counts(args, result, exc):
    if result is None:
        return {}
    n_closure = len(result.family.closure)
    return {"identify.closure_sets": n_closure,
            "identify.containment_tests": n_closure * len(args["obs"])}


def _event_lp_counts(args, result, exc):
    infeasible = exc is not None and any(
        c.__name__ == "InfeasiblePolytopeError" for c in type(exc).__mro__)
    return {"identify.event_lp_calls": 1,
            "identify.event_lp_rows": len(args["poly"].rows),
            "identify.infeasible_polytopes": int(infeasible)}


def _sharp_lp_rows(args, result, exc):
    """Containment rows the joint program states before dropping the
    trivially satisfied ones: closure members times outcome events."""
    g = args["g"]
    obs = list(args["obs_plus"] or ()) + list(args["obs_minus"] or ())
    n_events = 2 ** len({g(o.y) for o in obs}) - 1
    n_closure = sum(len(s.family.closure)
                    for s in (args["stats_plus"], args["stats_minus"])
                    if s is not None)
    return {"bounds.sharp_lp_rows": n_closure * n_events}


@dataclass(frozen=True)
class Layer:
    """One wrapped public function and the metrics it yields.

    Time is summed over calls into ``<name>_s`` unless ``max_metric`` names
    a metric that keeps the longest single call instead.  ``calls`` names a
    call counter; ``hook`` turns each call into further counters, listed in
    ``counters``.
    """

    name: str
    calls: str | None = None
    max_metric: str | None = None
    counters: tuple[str, ...] = ()
    hook: Callable | None = None

    def metric_names(self) -> list[str]:
        names = [self.max_metric or f"{self.name}_s"]
        if self.calls:
            names.append(self.calls)
        return names + list(self.counters)


LAYERS = (
    Layer("io.load_economy"),
    Layer("io.dump_json"),
    Layer("economy.generate_economy"),
    Layer("mechanism.run_da"),
    Layer("localpref.select_local_sample",
          calls="localpref.select_local_sample_calls"),
    Layer("localpref.find_comparable_pairs"),
    Layer("qsets.detect_umas"),
    Layer("identify.collect_local_obs"),
    Layer("identify.containment_stats",
          counters=("identify.closure_sets", "identify.containment_tests"),
          hook=_closure_counts),
    Layer("identify.solve_bounds_on_event",
          counters=("identify.event_lp_calls", "identify.event_lp_rows",
                    "identify.infeasible_polytopes"),
          hook=_event_lp_counts),
    Layer("identify.falsification_test"),
    Layer("bounds.hm_side_bounds"),
    Layer("bounds.sharp_bounds_finite", counters=("bounds.sharp_lp_rows",),
          hook=_sharp_lp_rows),
    Layer("simplex.solve_lp", calls="simplex.solve_lp_calls"),
    Layer("population.build_local_obs"),
    Layer("pipeline.analyze_combo", max_metric="pipeline.analyze_combo_max_s"),
)


def layer_metric_names() -> list[str]:
    """Every metric the wrapped layers can produce, in a fixed order."""
    return [n for layer in LAYERS for n in layer.metric_names()]


class Tracer:
    """Accumulates inclusive time and counters per wrapped layer."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()

    def install(self) -> None:
        for layer in LAYERS:
            module_name, func_name = layer.name.split(".")
            try:
                module = importlib.import_module(f"cutoffbounds.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.update(layer.metric_names())
                continue
            wrapper = self._wrap(layer, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("cutoffbounds"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        signature = inspect.signature(original)
        values = self.values

        def record(args, kwargs, result, exc, elapsed):
            if layer.max_metric:
                values[layer.max_metric] = max(values[layer.max_metric],
                                               elapsed)
            else:
                values[f"{layer.name}_s"] += elapsed
            if layer.calls:
                values[layer.calls] += 1
            if layer.hook is None:
                return
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = layer.hook(bound.arguments, result, exc)
            except (TypeError, KeyError, AttributeError):
                self.absent.update(layer.counters)  # the signature moved on
                return
            for key, inc in counts.items():
                values[key] += inc

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                record(args, kwargs, None, exc, time.perf_counter() - t0)
                raise
            record(args, kwargs, result, None, time.perf_counter() - t0)
            return result

        return wrapper

    def report(self) -> dict[str, Any]:
        """Values for every layer metric, zero when never reached, plus the
        names whose function is gone."""
        metrics = {n: float(self.values.get(n, 0.0))
                   for n in layer_metric_names() if n not in self.absent}
        return {"metrics": metrics, "absent": sorted(self.absent)}
