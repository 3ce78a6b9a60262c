"""Command-line driver: analyze rounds, generate synthetic ones, validate inputs.

Exit codes: 0 success, 1 validation errors, 2 I/O errors.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import os
import sys
from collections import Counter
from contextlib import suppress
from pathlib import Path
from typing import NoReturn, Sequence

# The names the commands call are the package's exports, each imported on its
# first access as an attribute of this module, so that a command loads only
# what it runs.  The commands call them through the module, so that a wrapper
# set on it with setattr (perfbench/traced_cli.py) is the one that runs.
# this module: asnqual.cli, or __main__ under python -m asnqual.cli
_cli = sys.modules[__name__]


def __getattr__(name: str):
    package = importlib.import_module(__package__)
    if name not in package.__all__:  # an export, not the package's own __path__ or __all__
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


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
    dataset, diagnostics = _cli.load_round(args.applications, args.medians, args.registry)
    for diag in diagnostics:
        print(f"note: {diag}", file=sys.stderr)
    # one total per file that lost rows: the report is made from the rows kept
    kept = {str(args.applications): len(dataset.applications), str(args.medians): len(dataset.medians)}
    skipped: dict[str, Counter] = {}
    for diag in diagnostics:
        if diag.severity == "error":
            skipped.setdefault(diag.source, Counter())[diag.code] += 1
    for source, codes in skipped.items():
        total = sum(codes.values())
        by_code = ", ".join(f"{code} {n}" for code, n in codes.items())
        print(f"note: {source}: skipped {total} of {kept[source] + total} rows ({by_code})", file=sys.stderr)
    from .report import ClassifiedWriter

    # the classified table is written in a forked child while the analysis goes on
    with ClassifiedWriter(args.format) as writer:
        try:
            report = _cli.analyze_round(dataset, hist_bin_width=args.bin_width, writer=writer)
        except _cli.InvalidDatasetError as exc:
            for problem in exc.problems:
                print(f"error: {problem}", file=sys.stderr)
            return 1
        written = _cli.emit(report, args.format, args.out, writer=writer)
    print(f"wrote {len(written)} file(s) to {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    config = _cli.SynthConfig.load(args.config) if args.config else _cli.default_synth_config()
    dataset = _cli.synthesize_round(config, args.seed)
    out = Path(args.out)
    _cli.write_applications(dataset.applications, out / "applications.csv")
    _cli.write_medians(dataset.medians, out / "medians.csv")
    _cli.write_registry(dataset.registry, out / "registry.csv")
    print(
        f"wrote {len(dataset.applications)} applications across "
        f"{len(dataset.medians)} median sets to {out}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    dataset, diagnostics = _cli.load_round(args.applications, args.medians, args.registry)
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


def run() -> NoReturn:
    """The command line, as `asnqual` and `python -m asnqual.cli` run it.

    BLAS runs one thread unless OPENBLAS_NUM_THREADS says otherwise, so that
    `analyze` runs one OS thread and may fork (ingest.may_fork).  No output
    depends on it: the only BLAS products, in stats.spearman_rho, sum
    multiples of 0.5, which is exact in any order.  After the command the
    atexit handlers run and stdout and stderr are flushed; os._exit then
    skips the interpreter's teardown (35-42 ms after a command that loaded
    numpy).  A failed flush exits 120, as the interpreter's own exit does.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError as exc:
            code = 120
            with suppress(OSError):
                sys.stderr.write(f"error: cannot flush {stream.name}: {exc}\n")
    os._exit(code)


if __name__ == "__main__":
    run()
