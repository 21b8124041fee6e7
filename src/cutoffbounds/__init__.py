"""Constrained school-matching simulation and partial-identification
bounds on school assignment effects at admission cutoffs.

The workflow mirrors the pipeline stages: simulate or ingest an economy,
run the matching mechanism and extract cutoffs, discover comparable
(school, fallback) pairs near cutoffs, build each window student's set of
candidate true local preferences from the submitted list, turn containment
frequencies into trimming shares and falsification checks, and finally
produce effect intervals (trimming-based and sharp LP) per pair, regime,
and outcome.
"""

from .bounds import (EffectBounds, IDENTITY, OutcomeTransform, SideBounds,
                     binary_bounds, effect_bounds, hm_side_bounds, naive_rd,
                     sharp_bounds_finite, trimming_bounds_continuous)
from .economy import (DGPConfig, Economy, EconomyError, EconomyTruth, OUTSIDE,
                      OutcomeModel, ReportingModel, generate_economy,
                      generate_reports, observe_outcomes)
from .identify import (ClosureCapError, DeltaBounds, FalsificationSignal,
                       InfeasiblePolytopeError, LocalObs, build_polytope,
                       collect_local_obs, connected_unions, containment_stats,
                       delta_bounds, falsification_test, local_obs,
                       solve_bounds_on_event, support_family)
from .localpref import (ComparablePair, LocalSample, budget_set,
                        comparable_pairs, counterfactual_sets,
                        find_comparable_pairs, local_pair, local_samples,
                        select_local_sample, window_budgets)
from .mechanism import (CutoffProfile, Matching, audit_cutoff_characterization,
                        audit_stability_wrt_reports, extract_cutoffs, run_da,
                        run_sd)
from .pipeline import (RunConfig, __version__, run_pipeline, write_report)
from .qsets import (EMPTY_UMAS, REGIMES, Regime, StaleUmasError, UmasRelation,
                    build_qset, detect_umas, qset_for_student,
                    regime_from_label, window_qsets)

__all__ = [
    "ClosureCapError", "ComparablePair", "CutoffProfile", "DGPConfig",
    "DeltaBounds", "EMPTY_UMAS", "Economy", "EconomyError", "EconomyTruth",
    "EffectBounds", "FalsificationSignal", "IDENTITY",
    "InfeasiblePolytopeError", "LocalObs", "LocalSample", "Matching",
    "OUTSIDE", "OutcomeModel", "OutcomeTransform", "REGIMES", "Regime",
    "ReportingModel", "RunConfig", "SideBounds", "StaleUmasError",
    "UmasRelation", "__version__", "audit_cutoff_characterization",
    "audit_stability_wrt_reports", "binary_bounds", "budget_set",
    "build_polytope", "build_qset", "collect_local_obs", "comparable_pairs",
    "connected_unions", "containment_stats", "counterfactual_sets",
    "delta_bounds", "detect_umas", "effect_bounds", "extract_cutoffs",
    "falsification_test",
    "find_comparable_pairs", "generate_economy", "generate_reports",
    "hm_side_bounds", "local_obs", "local_pair", "local_samples", "naive_rd",
    "observe_outcomes", "qset_for_student", "regime_from_label", "run_da",
    "run_pipeline", "run_sd", "select_local_sample", "sharp_bounds_finite",
    "solve_bounds_on_event", "support_family", "trimming_bounds_continuous",
    "window_budgets", "window_qsets", "write_report",
]
