"""Full round analysis and deterministic report emission.

analyze_round validates a RoundDataset and turns it into a RoundReport holding
every table of the analysis pipeline: per-area and per-discipline
qualification counts, five-number summaries, rank correlations, pooled
conditional rates with bibliometric/non-bibliometric difference
intervals, median anomaly tables, minimum-qualified-indicator counts,
and plot-ready figure data.  emit writes the report as a directory of
CSV files or as a single JSON document; byte output is deterministic
for a fixed report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .dominance import ApplicationRecord, pareto_violation_ratio
from .indicators import IndicatorKind
from .ingest import AREA_ACRONYMS, RoundDataset
from .stats import (
    CorrelationResult,
    FiveNumberSummary,
    five_number_summary,
    proportion_diff_ci,
    rates_from_flags,
    spearman_rho,
)
from .thresholds import (
    DisciplineId,
    MedianIndex,
    MedianSet,
    MedianTag,
    Role,
    Standing,
    ZeroMedianCensus,
    exceeds_count,
    required_exceedances,
    tag_median_pair,
    zero_median_census,
)

_NAN = math.nan
# Upper bound on the bins of the application-count histogram, so that a tiny
# --bin-width cannot make the report grow without bound.
MAX_HIST_BINS = 10_000


class InvalidDatasetError(ValueError):
    """A dataset that RoundDataset.validate() rejects; keeps every problem."""

    def __init__(self, problems: Sequence[str]) -> None:
        super().__init__(f"invalid dataset: {problems[0]}")
        self.problems = list(problems)


ROLE_LABELS = {Role.FULL: "full", Role.ASSOCIATE: "associate"}
KIND_LABELS = {
    IndicatorKind.BIBLIOMETRIC: "bibliometric",
    IndicatorKind.NON_BIBLIOMETRIC: "non-bibliometric",
}


@dataclass(frozen=True)
class AreaRow:
    area: str
    acronym: str
    applications_full: int
    applications_associate: int
    applications_total: int
    qualified_full: int
    qualified_associate: int
    qualified_total: int
    pq_full: float
    pq_associate: float
    pq_total: float


@dataclass(frozen=True)
class DisciplineRoleRow:
    discipline: str
    role: Role
    kind: IndicatorKind
    applications: int
    qualified: int
    over_median: int
    under_median: int
    qualified_over: int
    qualified_under: int
    pq: float
    pqo: float
    pqu: float
    pvr: float
    dominating_pairs: int
    violating_pairs: int
    no_comparable_pairs: bool


@dataclass(frozen=True)
class DisciplinePooledRow:
    discipline: str
    kind: IndicatorKind
    applications: int
    qualified: int
    over_median: int
    under_median: int
    qualified_over: int
    qualified_under: int
    pq: float
    pqo: float
    pqu: float


@dataclass(frozen=True)
class SummaryRow:
    variable: str
    n: int
    summary: FiveNumberSummary


@dataclass(frozen=True)
class CorrelationRow:
    x_label: str
    y_label: str
    group: str
    result: CorrelationResult


@dataclass(frozen=True)
class GroupRateRow:
    role: Role
    kind: IndicatorKind
    standing: Standing
    applications: int
    qualified: int
    rate: float


@dataclass(frozen=True)
class RateDifferenceRow:
    """Bibliometric minus non-bibliometric qualification rate, per role and standing."""

    role: Role
    standing: Standing
    rate_bibliometric: float
    rate_non_bibliometric: float
    difference: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class MedianTagRow:
    discipline: str
    kind: IndicatorKind
    tag: MedianTag


@dataclass(frozen=True)
class TagCountRow:
    tag: MedianTag
    bibliometric: int
    non_bibliometric: int
    total: int


@dataclass(frozen=True)
class MinQualifiedRow:
    """Disciplines where min over qualified applicants of ind_i strictly exceeds M_i."""

    role: Role
    disciplines: int
    above_m1: int
    above_m2: int
    above_m3: int


@dataclass(frozen=True)
class MinMedianRow:
    discipline: str
    role: Role
    component: int
    median: float
    min_qualified: float


@dataclass(frozen=True)
class ClassifiedApplication:
    applicant_id: str
    discipline: str
    sub_discipline: str
    role: Role
    kind: IndicatorKind
    ind1: float
    ind2: float
    ind3: float
    exceeds: int
    standing: Standing
    qualified: bool


@dataclass(frozen=True)
class ExtremePqRow:
    position: str
    rank: int
    discipline: str
    pq: float


@dataclass(frozen=True)
class HistogramBin:
    low: float
    high: float
    count: int


@dataclass(frozen=True)
class RoundReport:
    n_applications: int
    n_qualified: int
    n_disciplines: int
    distinct_names: int
    area_rows: tuple[AreaRow, ...]
    discipline_role_rows: tuple[DisciplineRoleRow, ...]
    discipline_pooled_rows: tuple[DisciplinePooledRow, ...]
    summaries: tuple[SummaryRow, ...]
    correlations: tuple[CorrelationRow, ...]
    group_rates: tuple[GroupRateRow, ...]
    rate_differences: tuple[RateDifferenceRow, ...]
    median_census: ZeroMedianCensus
    median_tags: tuple[MedianTagRow, ...]
    median_tag_counts: tuple[TagCountRow, ...]
    component_violations: tuple[int, int, int]
    min_qualified: tuple[MinQualifiedRow, ...]
    min_median_rows: tuple[MinMedianRow, ...]
    classified: tuple[ClassifiedApplication, ...]
    extreme_pq: tuple[ExtremePqRow, ...]
    na_histogram: tuple[HistogramBin, ...]
    hist_bin_width: float


def _rate(qualified: int, total: int) -> float:
    return qualified / total if total else _NAN


def _safe_spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Correlation or a NaN-filled result when the sample cannot support one."""
    try:
        return spearman_rho(x, y)
    except ValueError:
        return CorrelationResult(_NAN, len(x), _NAN, _NAN, _NAN)


def _summary_row(variable: str, values: Sequence[float]) -> SummaryRow:
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return SummaryRow(variable, 0, FiveNumberSummary(_NAN, _NAN, _NAN, _NAN, _NAN))
    return SummaryRow(variable, len(clean), five_number_summary(clean))


def _classify_all(
    data: RoundDataset, index: MedianIndex
) -> tuple[list[ClassifiedApplication], dict[str, Standing]]:
    standings: dict[str, Standing] = {}
    rows: list[ClassifiedApplication] = []
    medians: dict[tuple[DisciplineId, Role], MedianSet] = {}
    for app in data.applications:
        m = medians.get((app.discipline, app.role))
        if m is None:
            m = medians[app.discipline, app.role] = index.resolve(app.discipline, app.role)
        count = exceeds_count(app.indicators, m)
        if count >= required_exceedances(m.kind):
            standing = Standing.OVER_MEDIAN
        else:
            standing = Standing.UNDER_MEDIAN
        standings[_app_key(app)] = standing
        rows.append(
            ClassifiedApplication(
                app.applicant_id,
                app.discipline.code,
                app.discipline.sub_discipline or "",
                app.role,
                app.indicators.kind,
                app.indicators.ind1,
                app.indicators.ind2,
                app.indicators.ind3,
                count,
                standing,
                app.qualified,
            )
        )
    rows.sort(key=lambda r: (r.discipline, r.sub_discipline, r.role.value, r.applicant_id))
    return rows, standings


def _app_key(app: ApplicationRecord) -> str:
    sub = app.discipline.sub_discipline or ""
    return f"{app.discipline.code}|{sub}|{app.role.value}|{app.applicant_id}"


def _na_histogram(na_values: Sequence[int], width: float) -> list[HistogramBin]:
    """Bins [b*width, (b+1)*width) from 0 up past the largest application count."""
    if not na_values:
        return []
    span = (max(na_values) + 1) / width
    if span > MAX_HIST_BINS:
        raise ValueError(
            f"histogram bin width (--bin-width) {width!r} would make more than "
            f"{MAX_HIST_BINS} bins"
        )
    n_bins = max(1, math.ceil(span))
    counts = [0] * n_bins
    for v in na_values:
        b = int(v // width)
        # v // width can miss the bin edges b*width by one when width is not
        # exact in binary; the edges as computed below decide.
        while b * width > v:
            b -= 1
        while (b + 1) * width <= v:
            b += 1
        counts[b] += 1
    return [HistogramBin(b * width, (b + 1) * width, c) for b, c in enumerate(counts)]


def analyze_round(data: RoundDataset, hist_bin_width: float = 50.0) -> RoundReport:
    """Run the full analysis pipeline over a dataset.

    Raises InvalidDatasetError, listing every problem, when the dataset
    does not validate.
    """
    problems = data.validate()
    if problems:
        raise InvalidDatasetError(problems)
    if not (math.isfinite(hist_bin_width) and hist_bin_width > 0):
        raise ValueError(
            f"histogram bin width (--bin-width) must be a finite number above 0, "
            f"got {hist_bin_width!r}"
        )

    by_discipline_role: dict[tuple[str, Role], list[ApplicationRecord]] = {}
    for app in data.applications:
        by_discipline_role.setdefault((app.discipline.code, app.role), []).append(app)
    na_by_code: dict[str, int] = {}
    for (code, _), apps in by_discipline_role.items():
        na_by_code[code] = na_by_code.get(code, 0) + len(apps)
    bins = _na_histogram(list(na_by_code.values()), hist_bin_width)

    index = data.median_index()
    kinds = data.registry_kinds()
    classified, standing_of = _classify_all(data, index)

    role_rows: list[DisciplineRoleRow] = []
    for (code, role), apps in sorted(by_discipline_role.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        over = [standing_of[_app_key(a)] is Standing.OVER_MEDIAN for a in apps]
        qual = [a.qualified for a in apps]
        rates = rates_from_flags(qual, over)
        pvr_result = pareto_violation_ratio(apps)
        qualified_over = sum(1 for q, o in zip(qual, over) if q and o)
        qualified_under = sum(1 for q, o in zip(qual, over) if q and not o)
        role_rows.append(
            DisciplineRoleRow(
                code,
                role,
                kinds[code],
                rates.n_total,
                sum(qual),
                rates.n_over,
                rates.n_under,
                qualified_over,
                qualified_under,
                rates.pq,
                rates.pqo,
                rates.pqu,
                pvr_result.ratio,
                pvr_result.dominating_pairs,
                pvr_result.violations,
                pvr_result.no_comparable_pairs,
            )
        )

    pooled_rows: list[DisciplinePooledRow] = []
    codes = sorted({code for code, _ in by_discipline_role})
    rows_by_code: dict[str, list[DisciplineRoleRow]] = {}
    for row in role_rows:
        rows_by_code.setdefault(row.discipline, []).append(row)
    for code in codes:
        rows = rows_by_code[code]
        applications = sum(r.applications for r in rows)
        qualified = sum(r.qualified for r in rows)
        over = sum(r.over_median for r in rows)
        under = sum(r.under_median for r in rows)
        q_over = sum(r.qualified_over for r in rows)
        q_under = sum(r.qualified_under for r in rows)
        pooled_rows.append(
            DisciplinePooledRow(
                code,
                kinds[code],
                applications,
                qualified,
                over,
                under,
                q_over,
                q_under,
                _rate(qualified, applications),
                _rate(q_over, over),
                _rate(q_under, under),
            )
        )

    area_rows: list[AreaRow] = []
    for area in sorted({code[:2] for code in codes}):
        area_pooled = [r for r in pooled_rows if r.discipline.startswith(area + "/")]
        area_role = [r for r in role_rows if r.discipline.startswith(area + "/")]
        apps_full = sum(r.applications for r in area_role if r.role is Role.FULL)
        apps_assoc = sum(r.applications for r in area_role if r.role is Role.ASSOCIATE)
        qual_full = sum(r.qualified for r in area_role if r.role is Role.FULL)
        qual_assoc = sum(r.qualified for r in area_role if r.role is Role.ASSOCIATE)
        total = sum(r.applications for r in area_pooled)
        qual_total = sum(r.qualified for r in area_pooled)
        area_rows.append(
            AreaRow(
                area,
                AREA_ACRONYMS[area],
                apps_full,
                apps_assoc,
                total,
                qual_full,
                qual_assoc,
                qual_total,
                _rate(qual_full, apps_full),
                _rate(qual_assoc, apps_assoc),
                _rate(qual_total, total),
            )
        )

    full_by_code = {r.discipline: r for r in role_rows if r.role is Role.FULL}
    assoc_by_code = {r.discipline: r for r in role_rows if r.role is Role.ASSOCIATE}

    summaries = [
        _summary_row("NA", [r.applications for r in pooled_rows]),
        _summary_row("PQ", [r.pq for r in pooled_rows]),
        _summary_row("PQO", [r.pqo for r in pooled_rows]),
        _summary_row("PQU", [r.pqu for r in pooled_rows]),
        _summary_row("PVR.F", [r.pvr for r in role_rows if r.role is Role.FULL]),
        _summary_row("PVR.A", [r.pvr for r in role_rows if r.role is Role.ASSOCIATE]),
    ]

    correlations: list[CorrelationRow] = []

    def _paired_rows(metric) -> tuple[list[float], list[float], list[str]]:
        xs, ys, paired_codes = [], [], []
        for code in codes:
            f, a = full_by_code.get(code), assoc_by_code.get(code)
            if f is None or a is None:
                continue
            x, y = metric(f), metric(a)
            if math.isnan(x) or math.isnan(y):
                continue
            xs.append(x)
            ys.append(y)
            paired_codes.append(code)
        return xs, ys, paired_codes

    na_f, na_a, _ = _paired_rows(lambda r: float(r.applications))
    correlations.append(CorrelationRow("NA.F", "NA.A", "all", _safe_spearman(na_f, na_a)))
    pq_f, pq_a, _ = _paired_rows(lambda r: r.pq)
    correlations.append(CorrelationRow("PQ.F", "PQ.A", "all", _safe_spearman(pq_f, pq_a)))

    top_level = {(s.discipline.code, s.role): s for s in index.top_level()}
    for kind in (IndicatorKind.BIBLIOMETRIC, IndicatorKind.NON_BIBLIOMETRIC):
        for i, label in enumerate(("M1", "M2", "M3")):
            xs, ys = [], []
            for code in sorted({c for c, _ in top_level}):
                full = top_level.get((code, Role.FULL))
                assoc = top_level.get((code, Role.ASSOCIATE))
                if full is None or assoc is None or full.kind is not kind:
                    continue
                xs.append(full.as_tuple()[i])
                ys.append(assoc.as_tuple()[i])
            correlations.append(
                CorrelationRow(f"{label}.F", f"{label}.A", KIND_LABELS[kind], _safe_spearman(xs, ys))
            )

    suffix = {Role.FULL: "F", Role.ASSOCIATE: "A"}
    for role in (Role.FULL, Role.ASSOCIATE):
        for kind in (IndicatorKind.BIBLIOMETRIC, IndicatorKind.NON_BIBLIOMETRIC):
            group = [r for r in classified if r.role is role and r.kind is kind]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                xs = [(r.ind1, r.ind2, r.ind3)[i] for r in group]
                ys = [(r.ind1, r.ind2, r.ind3)[j] for r in group]
                correlations.append(
                    CorrelationRow(
                        f"ind{i + 1}.{suffix[role]}",
                        f"ind{j + 1}.{suffix[role]}",
                        KIND_LABELS[kind],
                        _safe_spearman(xs, ys),
                    )
                )

    for metric_name, metric in (("PQO", lambda r: r.pqo), ("PQU", lambda r: r.pqu)):
        for kind in (IndicatorKind.BIBLIOMETRIC, IndicatorKind.NON_BIBLIOMETRIC):
            xs, ys = [], []
            for code in codes:
                f, a = full_by_code.get(code), assoc_by_code.get(code)
                if f is None or a is None or f.kind is not kind:
                    continue
                x, y = metric(f), metric(a)
                if math.isnan(x) or math.isnan(y):
                    continue
                xs.append(x)
                ys.append(y)
            correlations.append(
                CorrelationRow(
                    f"{metric_name}.F", f"{metric_name}.A", KIND_LABELS[kind], _safe_spearman(xs, ys)
                )
            )

    for group_kind in (IndicatorKind.BIBLIOMETRIC, IndicatorKind.NON_BIBLIOMETRIC, None):
        xs, ys = [], []
        for code in codes:
            f, a = full_by_code.get(code), assoc_by_code.get(code)
            if f is None or a is None:
                continue
            if group_kind is not None and f.kind is not group_kind:
                continue
            xs.append(f.pvr)
            ys.append(a.pvr)
        label = KIND_LABELS[group_kind] if group_kind is not None else "all"
        correlations.append(CorrelationRow("PVR.F", "PVR.A", label, _safe_spearman(xs, ys)))

    group_rates: list[GroupRateRow] = []
    group_counts: dict[tuple[Role, IndicatorKind, Standing], tuple[int, int]] = {}
    for role in (Role.FULL, Role.ASSOCIATE):
        for kind in (IndicatorKind.BIBLIOMETRIC, IndicatorKind.NON_BIBLIOMETRIC):
            members = [r for r in classified if r.role is role and r.kind is kind]
            for standing in (Standing.OVER_MEDIAN, Standing.UNDER_MEDIAN):
                subset = [r for r in members if r.standing is standing]
                n = len(subset)
                k = sum(1 for r in subset if r.qualified)
                group_counts[(role, kind, standing)] = (k, n)
                group_rates.append(GroupRateRow(role, kind, standing, n, k, _rate(k, n)))

    rate_differences: list[RateDifferenceRow] = []
    for role in (Role.FULL, Role.ASSOCIATE):
        for standing in (Standing.OVER_MEDIAN, Standing.UNDER_MEDIAN):
            kb, nb = group_counts[(role, IndicatorKind.BIBLIOMETRIC, standing)]
            kn, nn = group_counts[(role, IndicatorKind.NON_BIBLIOMETRIC, standing)]
            if nb and nn:
                diff, low, high = proportion_diff_ci(kb, nb, kn, nn)
            else:
                diff = low = high = _NAN
            rate_differences.append(
                RateDifferenceRow(role, standing, _rate(kb, nb), _rate(kn, nn), diff, low, high)
            )

    census_sets = index.top_level()
    census = zero_median_census(census_sets)
    tag_rows: list[MedianTagRow] = []
    violations = [0, 0, 0]
    tag_counts: dict[MedianTag, list[int]] = {tag: [0, 0] for tag in MedianTag}
    for code in sorted({c for c, _ in top_level}):
        full = top_level.get((code, Role.FULL))
        assoc = top_level.get((code, Role.ASSOCIATE))
        if full is None or assoc is None:
            continue
        tag = tag_median_pair(full, assoc)
        kind_slot = 0 if full.kind is IndicatorKind.BIBLIOMETRIC else 1
        tag_counts[tag][kind_slot] += 1
        if tag is not MedianTag.NONE:
            tag_rows.append(MedianTagRow(code, full.kind, tag))
        for i in range(3):
            if full.as_tuple()[i] < assoc.as_tuple()[i]:
                violations[i] += 1
    tag_count_rows = [
        TagCountRow(tag, counts[0], counts[1], counts[0] + counts[1])
        for tag, counts in tag_counts.items()
    ]

    min_median_rows: list[MinMedianRow] = []
    min_counts = {Role.FULL: [0, 0, 0], Role.ASSOCIATE: [0, 0, 0]}
    disciplines_seen = {Role.FULL: 0, Role.ASSOCIATE: 0}
    for (code, role), apps in sorted(by_discipline_role.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        m = top_level.get((code, role))
        if m is None:
            continue
        qualified_vectors = [a.indicators.as_tuple() for a in apps if a.qualified]
        disciplines_seen[role] += 1
        for i in range(3):
            min_value = min((v[i] for v in qualified_vectors), default=_NAN)
            min_median_rows.append(MinMedianRow(code, role, i + 1, m.as_tuple()[i], min_value))
            if qualified_vectors and min_value > m.as_tuple()[i]:
                min_counts[role][i] += 1
    min_qualified = [
        MinQualifiedRow(role, disciplines_seen[role], *min_counts[role])
        for role in (Role.FULL, Role.ASSOCIATE)
    ]

    ranked = sorted(
        (r for r in pooled_rows if not math.isnan(r.pq)),
        key=lambda r: (r.pq, r.discipline),
    )
    extreme: list[ExtremePqRow] = []
    for rank, row in enumerate(ranked[:5], start=1):
        extreme.append(ExtremePqRow("bottom", rank, row.discipline, row.pq))
    for rank, row in enumerate(sorted(ranked, key=lambda r: (-r.pq, r.discipline))[:5], start=1):
        extreme.append(ExtremePqRow("top", rank, row.discipline, row.pq))

    distinct_names = len({(a.last_name, a.first_name) for a in data.applications})

    return RoundReport(
        n_applications=len(data.applications),
        n_qualified=sum(1 for a in data.applications if a.qualified),
        n_disciplines=len(codes),
        distinct_names=distinct_names,
        area_rows=tuple(area_rows),
        discipline_role_rows=tuple(role_rows),
        discipline_pooled_rows=tuple(pooled_rows),
        summaries=tuple(summaries),
        correlations=tuple(correlations),
        group_rates=tuple(group_rates),
        rate_differences=tuple(rate_differences),
        median_census=census,
        median_tags=tuple(tag_rows),
        median_tag_counts=tuple(tag_count_rows),
        component_violations=(violations[0], violations[1], violations[2]),
        min_qualified=tuple(min_qualified),
        min_median_rows=tuple(min_median_rows),
        classified=tuple(classified),
        extreme_pq=tuple(extreme),
        na_histogram=tuple(bins),
        hist_bin_width=hist_bin_width,
    )


def _cell(value) -> str:
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


def _jsonable(value):
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, (Role, IndicatorKind, Standing, MedianTag)):
        return _cell(value)
    return value


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    try:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _tables(report: RoundReport) -> dict[str, tuple[list[str], list[list]]]:
    """Every report section as (header, rows), keyed by table name."""
    tables: dict[str, tuple[list[str], list[list]]] = {}

    tables["totals"] = (
        ["n_applications", "n_qualified", "n_disciplines", "distinct_names"],
        [[report.n_applications, report.n_qualified, report.n_disciplines, report.distinct_names]],
    )
    tables["area_table"] = (
        [
            "area", "acronym", "applications_full", "applications_associate",
            "applications_total", "qualified_full", "qualified_associate",
            "qualified_total", "pq_full", "pq_associate", "pq_total",
        ],
        [
            [
                r.area, r.acronym, r.applications_full, r.applications_associate,
                r.applications_total, r.qualified_full, r.qualified_associate,
                r.qualified_total, r.pq_full, r.pq_associate, r.pq_total,
            ]
            for r in report.area_rows
        ],
    )
    tables["discipline_role_table"] = (
        [
            "discipline", "role", "kind", "applications", "qualified", "over_median",
            "under_median", "qualified_over", "qualified_under", "pq", "pqo", "pqu",
            "pvr", "dominating_pairs", "violating_pairs", "no_comparable_pairs",
        ],
        [
            [
                r.discipline, r.role, r.kind, r.applications, r.qualified, r.over_median,
                r.under_median, r.qualified_over, r.qualified_under, r.pq, r.pqo, r.pqu,
                r.pvr, r.dominating_pairs, r.violating_pairs, r.no_comparable_pairs,
            ]
            for r in report.discipline_role_rows
        ],
    )
    tables["discipline_pooled_table"] = (
        [
            "discipline", "kind", "applications", "qualified", "over_median",
            "under_median", "qualified_over", "qualified_under", "pq", "pqo", "pqu",
        ],
        [
            [
                r.discipline, r.kind, r.applications, r.qualified, r.over_median,
                r.under_median, r.qualified_over, r.qualified_under, r.pq, r.pqo, r.pqu,
            ]
            for r in report.discipline_pooled_rows
        ],
    )
    tables["summaries"] = (
        ["variable", "n", "min", "q1", "median", "q3", "max"],
        [
            [s.variable, s.n, *s.summary.as_tuple()]
            for s in report.summaries
        ],
    )
    tables["correlations"] = (
        ["x", "y", "group", "n", "rho", "ci_low", "ci_high", "p_value"],
        [
            [
                c.x_label, c.y_label, c.group, c.result.n, c.result.rho,
                c.result.ci_low, c.result.ci_high, c.result.p_value_zero_corr,
            ]
            for c in report.correlations
        ],
    )
    tables["group_rates"] = (
        ["role", "kind", "standing", "applications", "qualified", "rate"],
        [
            [r.role, r.kind, r.standing, r.applications, r.qualified, r.rate]
            for r in report.group_rates
        ],
    )
    tables["rate_differences"] = (
        [
            "role", "standing", "rate_bibliometric", "rate_non_bibliometric",
            "difference", "ci_low", "ci_high",
        ],
        [
            [
                r.role, r.standing, r.rate_bibliometric, r.rate_non_bibliometric,
                r.difference, r.ci_low, r.ci_high,
            ]
            for r in report.rate_differences
        ],
    )
    tables["median_census"] = (
        ["role", "zero_components", "disciplines"],
        [
            ["full", 1, report.median_census.full_one_zero],
            ["full", 2, report.median_census.full_two_zero],
            ["associate", 1, report.median_census.associate_one_zero],
            ["associate", 2, report.median_census.associate_two_zero],
        ],
    )
    tables["median_tags"] = (
        ["discipline", "kind", "tag"],
        [[r.discipline, r.kind, r.tag] for r in report.median_tags],
    )
    tables["median_tag_counts"] = (
        ["tag", "bibliometric", "non_bibliometric", "total"],
        [[r.tag, r.bibliometric, r.non_bibliometric, r.total] for r in report.median_tag_counts],
    )
    tables["median_component_violations"] = (
        ["component", "full_below_associate"],
        [[i + 1, report.component_violations[i]] for i in range(3)],
    )
    tables["min_qualified_table"] = (
        ["role", "disciplines", "above_m1", "above_m2", "above_m3"],
        [
            [r.role, r.disciplines, r.above_m1, r.above_m2, r.above_m3]
            for r in report.min_qualified
        ],
    )
    tables["classified_applications"] = (
        [
            "applicant_id", "discipline", "sub_discipline", "role", "kind",
            "ind1", "ind2", "ind3", "exceeds", "standing", "qualified",
        ],
        [
            [
                r.applicant_id, r.discipline, r.sub_discipline, r.role, r.kind,
                r.ind1, r.ind2, r.ind3, r.exceeds, r.standing, r.qualified,
            ]
            for r in report.classified
        ],
    )
    tables["extreme_pq"] = (
        ["position", "rank", "discipline", "pq"],
        [[r.position, r.rank, r.discipline, r.pq] for r in report.extreme_pq],
    )
    tables["fig_na_hist"] = (
        ["bin_low", "bin_high", "disciplines"],
        [[b.low, b.high, b.count] for b in report.na_histogram],
    )

    full_rows = {r.discipline: r for r in report.discipline_role_rows if r.role is Role.FULL}
    assoc_rows = {r.discipline: r for r in report.discipline_role_rows if r.role is Role.ASSOCIATE}
    paired = sorted(set(full_rows) & set(assoc_rows))
    tables["fig_na_scatter"] = (
        ["discipline", "na_full", "na_associate"],
        [[code, full_rows[code].applications, assoc_rows[code].applications] for code in paired],
    )
    tables["fig_conditional_scatter"] = (
        ["discipline", "kind", "pqo_full", "pqo_associate", "pqu_full", "pqu_associate"],
        [
            [
                code, full_rows[code].kind, full_rows[code].pqo, assoc_rows[code].pqo,
                full_rows[code].pqu, assoc_rows[code].pqu,
            ]
            for code in paired
        ],
    )
    tables["fig_pq_bars"] = (
        ["discipline", "pq"],
        [
            [r.discipline, r.pq]
            for r in sorted(
                (r for r in report.discipline_pooled_rows if not math.isnan(r.pq)),
                key=lambda r: (-r.pq, r.discipline),
            )
        ],
    )
    tables["fig_pvr_bars"] = (
        ["discipline", "pvr_full", "pvr_associate"],
        [
            [code, full_rows[code].pvr, assoc_rows[code].pvr]
            for code in sorted(paired, key=lambda c: (-full_rows[c].pvr, c))
        ],
    )
    tables["fig_min_median_scatter"] = (
        ["discipline", "role", "component", "median", "min_qualified"],
        [
            [r.discipline, r.role, r.component, r.median, r.min_qualified]
            for r in report.min_median_rows
        ],
    )
    return tables


def emit(report: RoundReport, format: str, target: str | Path) -> list[Path]:
    """Write the report under `target`; returns the created file paths.

    format "csv" produces one file per table; "json" produces a single
    report.json with the same tables keyed by name.
    """
    out_dir = Path(target)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create {out_dir}: {exc}") from exc
    tables = _tables(report)
    written: list[Path] = []
    if format == "csv":
        for name in sorted(tables):
            header, rows = tables[name]
            path = out_dir / f"{name}.csv"
            _write_csv(path, header, rows)
            written.append(path)
    elif format == "json":
        document = {
            name: {
                "columns": header,
                "rows": [[_jsonable(v) for v in row] for row in rows],
            }
            for name, (header, rows) in sorted(tables.items())
        }
        path = out_dir / "report.json"
        try:
            path.write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)
    else:
        raise ValueError(f"unknown format {format!r}, expected csv or json")
    return written
