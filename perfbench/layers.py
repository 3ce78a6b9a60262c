"""Per-layer metrics from the traced run's span files and `python -X importtime`.

Layer metrics are read from the command that exercises the layer: synth
layers from `synth`, `report.emit_json_s` from `analyze --format json`, and
every other layer from `analyze --format csv`.
"""

from __future__ import annotations

IMPORTS = {
    "cli.import_s": "asnqual.cli",
    "cli.import_numpy_s": "numpy",
    "stats.import_s": "asnqual.stats",
}


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of the modules in IMPORTS, from importtime output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cum, name = line.split("|")
        name = name.strip()
        if cum.strip().isdigit() and name not in cumulative:
            cumulative[name] = int(cum) / 1e6
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORTS.items()}


def _named(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def _total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in _named(spans, name))


def self_time(spans: list[dict], span: dict) -> float:
    """The span's duration minus that of its direct children (which never overlap)."""
    children = [s for s in spans if s["parent"] == span["id"]]
    return (span["end"] - span["start"]) - sum(s["end"] - s["start"] for s in children)


def _rss_mb(spans: list[dict], name: str) -> float:
    ends = [s["rss_kb"] for s in _named(spans, name)]
    return max(ends) / 1024 if ends else 0.0


def layer_metrics(synth: dict, analyze_csv: dict, analyze_json: dict) -> dict[str, float]:
    """Every span-derived per-layer metric, from one span file per command."""
    s, a, j = synth["spans"], analyze_csv["spans"], analyze_json["spans"]
    calls = analyze_csv["calls"]
    pvr = _named(a, "dominance.pvr")
    pairs = sum(p["n"] * (p["n"] - 1) for p in pvr)
    dominating = sum(p["dominating"] for p in pvr)
    spearman = _named(a, "stats.spearman")
    parsed = _named(a, "ingest.parse_applications") + _named(a, "ingest.parse_medians")
    emitted = _named(a, "report.emit")
    analyze = _named(a, "report.analyze_round")
    return {
        "synth.synthesize_round_s": _total(s, "synth.synthesize_round"),
        "synth.rows": sum(x["rows"] for x in _named(s, "synth.synthesize_round")),
        "ingest.write_s": _total(s, "ingest.write"),
        "ingest.bytes_written": sum(x["bytes"] for x in _named(s, "ingest.write")),
        "ingest.load_round_s": _total(a, "ingest.load_round"),
        "ingest.parse_applications_s": _total(a, "ingest.parse_applications"),
        "ingest.parse_medians_s": _total(a, "ingest.parse_medians"),
        "ingest.rows_read": sum(x["rows"] for x in parsed),
        "ingest.rows_skipped": sum(x["skipped"] for x in parsed),
        "ingest.validate_s": _total(a, "ingest.validate"),
        "ingest.validate_calls": len(_named(a, "ingest.validate")),
        "thresholds.classify_calls": calls.get("thresholds.classify", 0),
        "thresholds.exceeds_count_calls": calls.get("thresholds.exceeds_count", 0),
        "thresholds.resolve_calls": calls.get("thresholds.resolve", 0),
        "thresholds.classify_s": _total(a, "thresholds.classify"),
        "dominance.pvr_calls": len(pvr),
        "dominance.pvr_s": _total(a, "dominance.pvr"),
        "dominance.pvr_max_group": max((p["n"] for p in pvr), default=0),
        "dominance.pvr_slowest_call_s": max((p["end"] - p["start"] for p in pvr), default=0.0),
        "dominance.pairs_compared": pairs,
        "dominance.dominating_pairs": dominating,
        "dominance.violating_pairs": sum(p["violating"] for p in pvr),
        "dominance.dominating_share": dominating / pairs if pairs else 0.0,
        "stats.spearman_calls": len(spearman),
        "stats.spearman_s": _total(a, "stats.spearman"),
        "stats.spearman_max_n": max((x.get("n", 0) for x in spearman), default=0),
        "stats.rates_s": _total(a, "stats.rates"),
        "stats.summary_s": _total(a, "stats.summary"),
        "report.analyze_round_s": _total(a, "report.analyze_round"),
        "report.analyze_self_s": sum(self_time(a, x) for x in analyze),
        "report.emit_csv_s": _total(a, "report.emit"),
        "report.emit_json_s": _total(j, "report.emit"),
        "report.files_written": sum(x["files"] for x in emitted),
        "report.bytes_written": sum(x["bytes"] for x in emitted),
        "rss.after_load_mb": _rss_mb(a, "ingest.load_round"),
        "rss.after_analyze_mb": _rss_mb(a, "report.analyze_round"),
    }


def largest_child(spans: list[dict], parent_name: str) -> tuple[str, float]:
    """The child layer with the most total time under the named span."""
    parents = {s["id"] for s in _named(spans, parent_name)}
    totals: dict[str, float] = {}
    for s in spans:
        if s["parent"] in parents:
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    return max(totals.items(), key=lambda kv: kv[1], default=("", 0.0))
