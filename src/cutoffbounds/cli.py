"""Command line driver.

Each subcommand runs the pipeline through one stage and leaves that
stage's artifacts (plus everything upstream) in the output directory.
Exit codes: 0 on success, 2 on configuration or input validation errors,
3 when falsification was detected and the config says that is an error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .economy import EconomyError
from .io import IngestError, read_config_file
from .localpref import LocalPrefError
from .mechanism import MechanismError
from .pipeline import PipelineError, RunConfig, run_pipeline, write_report
from .presets import PresetError
from .qsets import QsetError

_STAGE_HELP = {
    "simulate": "draw or ingest the economy and write its CSV files",
    "match": "run the mechanism; write matching.csv and cutoffs.csv",
    "pairs": "discover comparable pairs; write pairs.csv",
    "qsets": "emit per-student candidate sets; write qsets.csv",
    "identify": "containment analysis and trimming shares; write identify.json",
    "bounds": "effect bounds per pair, regime, and outcome; write bounds.json",
    "report": "aggregate bounds.json into summary tables",
}

_CONFIG_ERRORS = (PipelineError, IngestError, EconomyError, MechanismError,
                  LocalPrefError, QsetError, PresetError)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE",
                        help="JSON run configuration")
    shared.add_argument("--seed", type=int, metavar="N",
                        help="override the config seed")
    shared.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config)")
    parser = argparse.ArgumentParser(
        prog="cutoffbounds",
        description="Constrained school-matching simulation and cutoff-"
                    "discontinuity bounds on school assignment effects.",
        parents=[shared])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _STAGE_HELP.items():
        sub.add_parser(name, help=text, parents=[shared])
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    if args.config is None:
        raise PipelineError("--config is required for this command")
    data = read_config_file(Path(args.config))
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["out_dir"] = args.out
    return RunConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            out_dir = args.out
            if out_dir is None and args.config is not None:
                out_dir = read_config_file(Path(args.config)).get("out_dir")
            if out_dir is None:
                raise PipelineError("report needs --out or an out_dir in --config")
            summary = write_report(Path(out_dir))
            print(f"report over {summary['n_entries']} entries,"
                  f" regimes: {', '.join(summary['regimes'])}")
            return 0

        cfg = _build_config(args)
        manifest = run_pipeline(cfg, stage=args.command)
        counts = manifest.get("counts", {})
        pairs = manifest.get("pairs")
        line = f"stage {args.command} done, out={cfg.out_dir}"
        if pairs is not None:
            line += f", pairs={len(pairs)}"
        if counts:
            line += ", " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(line)
        if manifest.get("warnings", {}).get("assignment_mismatches"):
            ids = manifest["warnings"]["assignment_mismatches"]
            print(f"warning: supplied assignments differ from recomputed"
                  f" matching for ids {ids[:10]}"
                  + (" ..." if len(ids) > 10 else ""), file=sys.stderr)
        if manifest.get("falsified_any"):
            print("warning: falsification detected for at least one"
                  " pair-regime combination", file=sys.stderr)
            if cfg.falsification_action == "error":
                return 3
        return 0
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
