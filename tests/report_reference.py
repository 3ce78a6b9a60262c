"""Frozen per-record reference of the report pipeline, for differential tests.

A compact copy of `asnqual.report` as it was before the analysis moved onto
columns: one ClassifiedApplication per application, one `_cell` or
`_jsonable` call per value, row-major tables.  It imports the row
dataclasses and the unchanged domain and statistics helpers only, so a
change to the report's own code cannot leak into the reference.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import fields
from pathlib import Path

from asnqual.dominance import pareto_violation_ratio
from asnqual.indicators import IndicatorKind
from asnqual.ingest import AREA_ACRONYMS
from asnqual.report import (
    AreaRow,
    ClassifiedApplication,
    CorrelationRow,
    DisciplinePooledRow,
    DisciplineRoleRow,
    ExtremePqRow,
    GroupRateRow,
    HistogramBin,
    MedianTagRow,
    MinMedianRow,
    MinQualifiedRow,
    RateDifferenceRow,
    SummaryRow,
    TagCountRow,
)
from asnqual.stats import (
    CorrelationResult,
    FiveNumberSummary,
    five_number_summary,
    proportion_diff_ci,
    rates_from_flags,
    spearman_rho,
)
from asnqual.thresholds import (
    MedianTag,
    Role,
    Standing,
    exceeds_count,
    required_exceedances,
    tag_median_pair,
    zero_median_census,
)

NAN = math.nan
ROLE_LABELS = {Role.FULL: "full", Role.ASSOCIATE: "associate"}
KIND_LABELS = {
    IndicatorKind.BIBLIOMETRIC: "bibliometric",
    IndicatorKind.NON_BIBLIOMETRIC: "non-bibliometric",
}


def _rate(k, n):
    return k / n if n else NAN


def _safe_spearman(x, y):
    try:
        return spearman_rho(x, y)
    except ValueError:
        return CorrelationResult(NAN, len(x), NAN, NAN, NAN)


def _summary_row(variable, values):
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return SummaryRow(variable, 0, FiveNumberSummary(NAN, NAN, NAN, NAN, NAN))
    return SummaryRow(variable, len(clean), five_number_summary(clean))


def _fa_pairs(rows, code):
    full = {code(r): r for r in rows if r.role is Role.FULL}
    assoc = {code(r): r for r in rows if r.role is Role.ASSOCIATE}
    return [(full[c], assoc[c]) for c in sorted(full.keys() & assoc.keys())]


def _fa_correlation(label, field, group, pairs):
    get = operator.attrgetter(field)
    xy = [(get(f), get(a)) for f, a in pairs]
    xy = [(x, y) for x, y in xy if not (math.isnan(x) or math.isnan(y))]
    result = _safe_spearman([x for x, _ in xy], [y for _, y in xy])
    return CorrelationRow(f"{label}.F", f"{label}.A", group, result)


def _classify_all(data, index):
    standings, rows, medians = [], [], {}
    for app in data.applications:
        m = medians.get((app.discipline, app.role))
        if m is None:
            m = medians[app.discipline, app.role] = index.resolve(app.discipline, app.role)
        count = exceeds_count(app.indicators, m)
        over = count >= required_exceedances(m.kind)
        standing = Standing.OVER_MEDIAN if over else Standing.UNDER_MEDIAN
        standings.append(standing)
        v = app.indicators
        rows.append(ClassifiedApplication(
            app.applicant_id, app.discipline.code, app.discipline.sub_discipline or "",
            app.role, v.kind, v.ind1, v.ind2, v.ind3, count, standing, app.qualified,
        ))
    rows.sort(key=lambda r: (r.discipline, r.sub_discipline, r.role.value, r.applicant_id))
    return rows, standings


def _na_histogram(na_values, width):
    if not na_values:
        return []
    n_bins = max(1, math.ceil((max(na_values) + 1) / width))
    counts = [0] * n_bins
    for v in na_values:
        b = int(v // width)
        while b * width > v:
            b -= 1
        while (b + 1) * width <= v:
            b += 1
        counts[b] += 1
    return [HistogramBin(b * width, (b + 1) * width, c) for b, c in enumerate(counts)]


def reference_tables(data, hist_bin_width=50.0):
    """Every report table as (header, rows), keyed by name; the dataset must validate."""
    applications = data.applications
    members = {}
    for i, app in enumerate(applications):
        members.setdefault((app.discipline.code, app.role), []).append(i)
    groups = sorted(members.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
    na_by_code = {}
    for (code, _), positions in groups:
        na_by_code[code] = na_by_code.get(code, 0) + len(positions)
    bins = _na_histogram(list(na_by_code.values()), hist_bin_width)
    index = data.median_index()
    kinds = data.registry_kinds()
    classified, standings = _classify_all(data, index)

    role_rows = []
    for (code, role), positions in groups:
        apps = [applications[i] for i in positions]
        over = [standings[i] is Standing.OVER_MEDIAN for i in positions]
        qual = [a.qualified for a in apps]
        rates = rates_from_flags(qual, over)
        pvr = pareto_violation_ratio(apps)
        role_rows.append(DisciplineRoleRow(
            code, role, kinds[code], rates.n_total, sum(qual), rates.n_over, rates.n_under,
            sum(1 for q, o in zip(qual, over) if q and o),
            sum(1 for q, o in zip(qual, over) if q and not o),
            rates.pq, rates.pqo, rates.pqu,
            pvr.ratio, pvr.dominating_pairs, pvr.violations, pvr.no_comparable_pairs,
        ))

    pooled, by_area = {}, {}
    for r in role_rows:
        counts = (r.applications, r.qualified, r.over_median, r.under_median,
                  r.qualified_over, r.qualified_under)
        sums = pooled.setdefault(r.discipline, [0] * 6)
        for i, count in enumerate(counts):
            sums[i] += count
        area = by_area.setdefault(r.discipline[:2], [0] * 4)
        slot = 0 if r.role is Role.FULL else 1
        area[slot] += r.applications
        area[2 + slot] += r.qualified
    pooled_rows = [
        DisciplinePooledRow(code, kinds[code], n, k, o, u, ko, ku,
                            _rate(k, n), _rate(ko, o), _rate(ku, u))
        for code, (n, k, o, u, ko, ku) in pooled.items()
    ]
    area_rows = [
        AreaRow(area, AREA_ACRONYMS[area], nf, na, nf + na, kf, ka, kf + ka,
                _rate(kf, nf), _rate(ka, na), _rate(kf + ka, nf + na))
        for area, (nf, na, kf, ka) in sorted(by_area.items())
    ]
    summaries = [
        _summary_row("NA", [r.applications for r in pooled_rows]),
        _summary_row("PQ", [r.pq for r in pooled_rows]),
        _summary_row("PQO", [r.pqo for r in pooled_rows]),
        _summary_row("PQU", [r.pqu for r in pooled_rows]),
        _summary_row("PVR.F", [r.pvr for r in role_rows if r.role is Role.FULL]),
        _summary_row("PVR.A", [r.pvr for r in role_rows if r.role is Role.ASSOCIATE]),
    ]

    vectors = {(role, kind): [] for role in Role for kind in IndicatorKind}
    group_counts = {(role, kind, s): [0, 0] for role in Role for kind in IndicatorKind for s in Standing}
    for r in classified:
        vectors[r.role, r.kind].append((r.ind1, r.ind2, r.ind3))
        counts = group_counts[r.role, r.kind, r.standing]
        counts[0] += 1
        counts[1] += r.qualified

    pairs = _fa_pairs(role_rows, operator.attrgetter("discipline"))
    pairs_of = {kind: [p for p in pairs if p[0].kind is kind] for kind in IndicatorKind}
    top_level = {(s.discipline.code, s.role): s for s in index.top_level()}
    median_pairs = _fa_pairs(top_level.values(), lambda s: s.discipline.code)
    correlations = [
        _fa_correlation("NA", "applications", "all", pairs),
        _fa_correlation("PQ", "pq", "all", pairs),
    ]
    for kind in IndicatorKind:
        kind_pairs = [p for p in median_pairs if p[0].kind is kind]
        for i in (1, 2, 3):
            correlations.append(_fa_correlation(f"M{i}", f"m{i}", KIND_LABELS[kind], kind_pairs))
    suffix = {Role.FULL: "F", Role.ASSOCIATE: "A"}
    for role in (Role.FULL, Role.ASSOCIATE):
        for kind in (IndicatorKind.BIBLIOMETRIC, IndicatorKind.NON_BIBLIOMETRIC):
            group = vectors[role, kind]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                correlations.append(CorrelationRow(
                    f"ind{i + 1}.{suffix[role]}", f"ind{j + 1}.{suffix[role]}", KIND_LABELS[kind],
                    _safe_spearman([v[i] for v in group], [v[j] for v in group]),
                ))
    for label in ("PQO", "PQU"):
        for kind in IndicatorKind:
            correlations.append(_fa_correlation(label, label.lower(), KIND_LABELS[kind], pairs_of[kind]))
    for kind in IndicatorKind:
        correlations.append(_fa_correlation("PVR", "pvr", KIND_LABELS[kind], pairs_of[kind]))
    correlations.append(_fa_correlation("PVR", "pvr", "all", pairs))

    group_rates = [GroupRateRow(role, kind, s, n, k, _rate(k, n))
                   for (role, kind, s), (n, k) in group_counts.items()]
    rate_differences = []
    for role in (Role.FULL, Role.ASSOCIATE):
        for s in (Standing.OVER_MEDIAN, Standing.UNDER_MEDIAN):
            nb, kb = group_counts[role, IndicatorKind.BIBLIOMETRIC, s]
            nn, kn = group_counts[role, IndicatorKind.NON_BIBLIOMETRIC, s]
            diff, low, high = proportion_diff_ci(kb, nb, kn, nn) if nb and nn else (NAN,) * 3
            rate_differences.append(
                RateDifferenceRow(role, s, _rate(kb, nb), _rate(kn, nn), diff, low, high))

    tag_rows, violations = [], [0, 0, 0]
    tag_counts = {tag: [0, 0] for tag in MedianTag}
    for full, assoc in median_pairs:
        tag = tag_median_pair(full, assoc)
        tag_counts[tag][0 if full.kind is IndicatorKind.BIBLIOMETRIC else 1] += 1
        if tag is not MedianTag.NONE:
            tag_rows.append(MedianTagRow(full.discipline.code, full.kind, tag))
        for i in range(3):
            if full.as_tuple()[i] < assoc.as_tuple()[i]:
                violations[i] += 1
    tag_count_rows = [TagCountRow(tag, c[0], c[1], c[0] + c[1]) for tag, c in tag_counts.items()]

    min_median_rows = []
    min_counts = {Role.FULL: [0, 0, 0], Role.ASSOCIATE: [0, 0, 0]}
    seen = {Role.FULL: 0, Role.ASSOCIATE: 0}
    for (code, role), positions in groups:
        m = top_level.get((code, role))
        if m is None:
            continue
        vecs = [applications[i].indicators.as_tuple() for i in positions if applications[i].qualified]
        seen[role] += 1
        for i in range(3):
            low = min((v[i] for v in vecs), default=NAN)
            min_median_rows.append(MinMedianRow(code, role, i + 1, m.as_tuple()[i], low))
            if vecs and low > m.as_tuple()[i]:
                min_counts[role][i] += 1
    min_qualified = [MinQualifiedRow(role, seen[role], *min_counts[role])
                     for role in (Role.FULL, Role.ASSOCIATE)]

    ranked = sorted((r for r in pooled_rows if not math.isnan(r.pq)), key=lambda r: (r.pq, r.discipline))
    extreme = [ExtremePqRow("bottom", k, r.discipline, r.pq) for k, r in enumerate(ranked[:5], 1)]
    extreme += [ExtremePqRow("top", k, r.discipline, r.pq)
                for k, r in enumerate(sorted(ranked, key=lambda r: (-r.pq, r.discipline))[:5], 1)]
    census = zero_median_census(index.top_level())

    def dataclass_table(cls, rows):
        header = [f.name for f in fields(cls)]
        return header, [operator.attrgetter(*header)(r) for r in rows]

    tables = {
        "area_table": dataclass_table(AreaRow, area_rows),
        "discipline_role_table": dataclass_table(DisciplineRoleRow, role_rows),
        "discipline_pooled_table": dataclass_table(DisciplinePooledRow, pooled_rows),
        "group_rates": dataclass_table(GroupRateRow, group_rates),
        "rate_differences": dataclass_table(RateDifferenceRow, rate_differences),
        "median_tags": dataclass_table(MedianTagRow, tag_rows),
        "median_tag_counts": dataclass_table(TagCountRow, tag_count_rows),
        "min_qualified_table": dataclass_table(MinQualifiedRow, min_qualified),
        "classified_applications": dataclass_table(ClassifiedApplication, classified),
        "extreme_pq": dataclass_table(ExtremePqRow, extreme),
        "fig_min_median_scatter": dataclass_table(MinMedianRow, min_median_rows),
    }
    tables["totals"] = (
        ["n_applications", "n_qualified", "n_disciplines", "distinct_names"],
        [[len(applications), sum(1 for a in applications if a.qualified), len(pooled_rows),
          len({(a.last_name, a.first_name) for a in applications})]],
    )
    tables["summaries"] = (["variable", "n", "min", "q1", "median", "q3", "max"],
                           [[s.variable, s.n, *s.summary.as_tuple()] for s in summaries])
    tables["correlations"] = (
        ["x", "y", "group", "n", "rho", "ci_low", "ci_high", "p_value"],
        [[c.x_label, c.y_label, c.group, c.result.n, c.result.rho, c.result.ci_low,
          c.result.ci_high, c.result.p_value_zero_corr] for c in correlations],
    )
    tables["median_census"] = (
        ["role", "zero_components", "disciplines"],
        [["full", 1, census.full_one_zero], ["full", 2, census.full_two_zero],
         ["associate", 1, census.associate_one_zero], ["associate", 2, census.associate_two_zero]],
    )
    tables["median_component_violations"] = (
        ["component", "full_below_associate"], [[i + 1, violations[i]] for i in range(3)])
    tables["fig_na_hist"] = (["bin_low", "bin_high", "disciplines"],
                             [[b.low, b.high, b.count] for b in bins])
    tables["fig_na_scatter"] = (["discipline", "na_full", "na_associate"],
                                [[f.discipline, f.applications, a.applications] for f, a in pairs])
    tables["fig_conditional_scatter"] = (
        ["discipline", "kind", "pqo_full", "pqo_associate", "pqu_full", "pqu_associate"],
        [[f.discipline, f.kind, f.pqo, a.pqo, f.pqu, a.pqu] for f, a in pairs],
    )
    tables["fig_pq_bars"] = (
        ["discipline", "pq"],
        [[r.discipline, r.pq] for r in sorted((r for r in pooled_rows if not math.isnan(r.pq)),
                                             key=lambda r: (-r.pq, r.discipline))],
    )
    tables["fig_pvr_bars"] = (
        ["discipline", "pvr_full", "pvr_associate"],
        [[f.discipline, f.pvr, a.pvr] for f, a in sorted(pairs, key=lambda p: (-p[0].pvr, p[0].discipline))],
    )
    return tables


def cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(value, Role):
        return ROLE_LABELS[value]
    if isinstance(value, IndicatorKind):
        return KIND_LABELS[value]
    if isinstance(value, Standing):
        return value.value
    if isinstance(value, MedianTag):
        return value.value or "none"
    return str(value)


def jsonable(value):
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, (Role, IndicatorKind, Standing, MedianTag)):
        return cell(value)
    return value


def reference_emit(tables, format: str, out_dir: Path) -> None:
    """The tables as 21 CSV files or one report.json under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if format == "csv":
        for name, (header, rows) in tables.items():
            with open(out_dir / f"{name}.csv", "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([cell(v) for v in row] for row in rows)
    else:
        document = {
            name: {"columns": header, "rows": [[jsonable(v) for v in row] for row in rows]}
            for name, (header, rows) in sorted(tables.items())
        }
        (out_dir / "report.json").write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
