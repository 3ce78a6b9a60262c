"""Command-line driver: analyze rounds, generate synthetic ones, validate inputs.

Exit codes: 0 success, 1 validation errors, 2 I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .ingest import load_round, write_applications, write_medians, write_registry
from .report import InvalidDatasetError, analyze_round, emit
from .synth import SynthConfig, default_synth_config, synthesize_round


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asnqual",
        description="Quantitative analytics for national scientific qualification rounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    round_inputs = argparse.ArgumentParser(add_help=False)
    round_inputs.add_argument("--applications", required=True, help="applications CSV path")
    round_inputs.add_argument("--medians", required=True, help="medians CSV path")
    round_inputs.add_argument("--registry", default=None, help="registry CSV path (default: bundled)")

    analyze = sub.add_parser(
        "analyze", parents=[round_inputs], help="run the full analysis over a round"
    )
    analyze.add_argument("--out", required=True, help="output directory")
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.add_argument(
        "--bin-width",
        type=float,
        default=50.0,
        help="bin width of the per-discipline application-count histogram (default 50)",
    )
    analyze.set_defaults(func=_cmd_analyze)

    synth = sub.add_parser("synth", help="generate a synthetic round")
    synth.add_argument("--config", default=None, help="generator config JSON (default: bundled demo config)")
    synth.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    synth.add_argument("--out", required=True, help="output directory")
    synth.set_defaults(func=_cmd_synth)

    validate = sub.add_parser(
        "validate", parents=[round_inputs], help="check round inputs and report diagnostics"
    )
    validate.set_defaults(func=_cmd_validate)

    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    dataset, diagnostics = load_round(args.applications, args.medians, args.registry)
    for diag in diagnostics:
        print(f"note: {diag}", file=sys.stderr)
    try:
        report = analyze_round(dataset, hist_bin_width=args.bin_width)
    except InvalidDatasetError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    written = emit(report, args.format, args.out)
    print(f"wrote {len(written)} file(s) to {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    config = SynthConfig.load(args.config) if args.config else default_synth_config()
    dataset = synthesize_round(config, args.seed)
    out = Path(args.out)
    write_applications(dataset.applications, out / "applications.csv")
    write_medians(dataset.medians, out / "medians.csv")
    write_registry(dataset.registry, out / "registry.csv")
    print(
        f"wrote {len(dataset.applications)} applications across "
        f"{len(dataset.medians)} median sets to {out}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    dataset, diagnostics = load_round(args.applications, args.medians, args.registry)
    problems = dataset.validate()
    for diag in diagnostics:
        print(str(diag))
    for problem in problems:
        print(f"dataset: error: {problem}")
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors or problems:
        print(f"{len(errors) + len(problems)} error(s), {len(diagnostics) - len(errors)} warning(s)")
        return 1
    print(f"ok: {len(dataset.applications)} applications, {len(dataset.medians)} median sets")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
