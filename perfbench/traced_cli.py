"""Run one asnqual CLI command in-process with spans around the package's layers.

    python perfbench/traced_cli.py SPANS_JSON COMMAND_ID -- <asnqual arguments>

The wrappers are installed on module attributes from here, so the package
itself carries no tracing code.  Each span records its name, start, end,
parent and the command id; hot per-application functions only count calls.
Spans stay in memory and are written to SPANS_JSON when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

T0 = time.perf_counter()


class Tracer:
    def __init__(self, command_id: int) -> None:
        self.command_id = command_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}

    def span(self, name, fn, describe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "trace": self.command_id, "name": name,
                    "parent": self.stack[-1] if self.stack else None,
                    "start": time.perf_counter() - T0}
            self.spans.append(span)
            self.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                self.stack.pop()
                span["end"] = time.perf_counter() - T0
                span["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if describe is not None:
                span.update(describe(args, result))
            return result
        return wrapper

    def counter(self, name, fn):
        self.calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _parsed(args, result):
    records, diagnostics = result
    skipped = sum(1 for d in diagnostics if getattr(d, "severity", "error") == "error")
    return {"rows": len(records) + skipped, "skipped": skipped}


def _pvr(args, result):
    return {"n": len(args[0]),
            "dominating": int(getattr(result, "dominating_pairs", 0)),
            "violating": int(getattr(result, "violations", 0))}


def _written(args, result):
    return {"format": args[1], "files": len(result), "bytes": sum(_size(p) for p in result)}


# (owner, attribute, span name, describe); a missing attribute is skipped, so its
# metrics read 0 rather than failing the run.
SPANS = [
    ("asnqual.cli", "synthesize_round", "synth.synthesize_round",
     lambda a, r: {"rows": len(r.applications)}),
    ("asnqual.cli", "write_applications", "ingest.write", lambda a, r: {"bytes": _size(a[1])}),
    ("asnqual.cli", "write_medians", "ingest.write", lambda a, r: {"bytes": _size(a[1])}),
    ("asnqual.cli", "write_registry", "ingest.write", lambda a, r: {"bytes": _size(a[1])}),
    ("asnqual.cli", "load_round", "ingest.load_round", None),
    ("asnqual.ingest", "parse_applications", "ingest.parse_applications", _parsed),
    ("asnqual.ingest", "parse_medians", "ingest.parse_medians", _parsed),
    ("asnqual.ingest:RoundDataset", "validate", "ingest.validate", None),
    ("asnqual.cli", "analyze_round", "report.analyze_round", None),
    ("asnqual.report", "_classify_all", "thresholds.classify", None),
    ("asnqual.report", "pareto_violation_ratio", "dominance.pvr", _pvr),
    ("asnqual.report", "spearman_rho", "stats.spearman", lambda a, r: {"n": len(a[0])}),
    ("asnqual.report", "rates_from_flags", "stats.rates", None),
    ("asnqual.report", "proportion_diff_ci", "stats.rates", None),
    ("asnqual.report", "five_number_summary", "stats.summary", None),
    ("asnqual.cli", "emit", "report.emit", _written),
]
COUNTERS = [
    ("asnqual.report", "classify", "thresholds.classify"),
    ("asnqual.synth", "classify", "thresholds.classify"),
    ("asnqual.report", "exceeds_count", "thresholds.exceeds_count"),
    ("asnqual.thresholds", "exceeds_count", "thresholds.exceeds_count"),
    ("asnqual.thresholds:MedianIndex", "resolve", "thresholds.resolve"),
]


def _owner(spec: str):
    """The module, or the class for a "module:Class" spec, that holds the attribute."""
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls, None) if cls else owner


def install(tracer: Tracer) -> None:
    for path, attr, name, describe in SPANS:
        owner = _owner(path)
        if owner is not None and hasattr(owner, attr):
            setattr(owner, attr, tracer.span(name, getattr(owner, attr), describe))
    for path, attr, name in COUNTERS:
        owner = _owner(path)
        if owner is not None and hasattr(owner, attr):
            setattr(owner, attr, tracer.counter(name, getattr(owner, attr)))


def main() -> int:
    spans_path, command_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(int(command_id))
    cli = tracer.span("cli.import", importlib.import_module)("asnqual.cli")
    install(tracer)
    code = tracer.span("cli.main", cli.main)(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"argv": argv, "spans": tracer.spans, "calls": tracer.calls}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
