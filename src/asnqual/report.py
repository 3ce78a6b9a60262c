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

import csv
import json
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Collection, Iterable, Sequence

from .dominance import pareto_violation_ratio
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


def _fa_pairs(rows: Collection, code: Callable[..., str]) -> list[tuple]:
    """(full, associate) of every discipline code that has both roles, in code order."""
    full = {code(r): r for r in rows if r.role is Role.FULL}
    assoc = {code(r): r for r in rows if r.role is Role.ASSOCIATE}
    return [(full[c], assoc[c]) for c in sorted(full.keys() & assoc.keys())]


def _fa_correlation(label: str, field: str, group: str, pairs: Sequence[tuple]) -> CorrelationRow:
    """Spearman of `field`, full against associate; a pair holding a NaN is left out."""
    get = operator.attrgetter(field)
    xy = [(get(f), get(a)) for f, a in pairs]
    xy = [(x, y) for x, y in xy if not (math.isnan(x) or math.isnan(y))]
    result = _safe_spearman([x for x, _ in xy], [y for _, y in xy])
    return CorrelationRow(f"{label}.F", f"{label}.A", group, result)


def _classify_all(
    data: RoundDataset, index: MedianIndex
) -> tuple[list[ClassifiedApplication], list[Standing]]:
    """The sorted classified rows, and each application's standing in data.applications order."""
    standings: list[Standing] = []
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
        standings.append(standing)
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

    applications = data.applications
    # Positions in data.applications of each (discipline code, role) group.
    members: dict[tuple[str, Role], list[int]] = {}
    for i, app in enumerate(applications):
        members.setdefault((app.discipline.code, app.role), []).append(i)
    groups = sorted(members.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
    na_by_code: dict[str, int] = {}
    for (code, _), positions in groups:
        na_by_code[code] = na_by_code.get(code, 0) + len(positions)
    bins = _na_histogram(list(na_by_code.values()), hist_bin_width)

    index = data.median_index()
    kinds = data.registry_kinds()
    classified, standings = _classify_all(data, index)

    role_rows: list[DisciplineRoleRow] = []
    for (code, role), positions in groups:
        apps = [applications[i] for i in positions]
        over = [standings[i] is Standing.OVER_MEDIAN for i in positions]
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

    # Per code: applications, qualified, over, under, qualified over, qualified under.
    pooled: dict[str, list[int]] = {}
    # Per area: full and associate applications, full and associate qualified.
    by_area: dict[str, list[int]] = {}
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
        DisciplinePooledRow(
            code, kinds[code], n, k, over, under, k_over, k_under,
            _rate(k, n), _rate(k_over, over), _rate(k_under, under),
        )
        for code, (n, k, over, under, k_over, k_under) in pooled.items()
    ]
    area_rows = [
        AreaRow(
            area, AREA_ACRONYMS[area], n_full, n_assoc, n_full + n_assoc,
            k_full, k_assoc, k_full + k_assoc,
            _rate(k_full, n_full), _rate(k_assoc, n_assoc),
            _rate(k_full + k_assoc, n_full + n_assoc),
        )
        for area, (n_full, n_assoc, k_full, k_assoc) in sorted(by_area.items())
    ]

    summaries = [
        _summary_row("NA", [r.applications for r in pooled_rows]),
        _summary_row("PQ", [r.pq for r in pooled_rows]),
        _summary_row("PQO", [r.pqo for r in pooled_rows]),
        _summary_row("PQU", [r.pqu for r in pooled_rows]),
        _summary_row("PVR.F", [r.pvr for r in role_rows if r.role is Role.FULL]),
        _summary_row("PVR.A", [r.pvr for r in role_rows if r.role is Role.ASSOCIATE]),
    ]

    # One pass over the classified rows: indicator vectors per role and kind,
    # and [applications, qualified] per role, kind and standing.
    vectors = {(role, kind): [] for role in Role for kind in IndicatorKind}
    group_counts = {
        (role, kind, standing): [0, 0]
        for role in Role for kind in IndicatorKind for standing in Standing
    }
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
                xs = [v[i] for v in group]
                ys = [v[j] for v in group]
                correlations.append(
                    CorrelationRow(
                        f"ind{i + 1}.{suffix[role]}",
                        f"ind{j + 1}.{suffix[role]}",
                        KIND_LABELS[kind],
                        _safe_spearman(xs, ys),
                    )
                )
    for label in ("PQO", "PQU"):
        for kind in IndicatorKind:
            correlations.append(
                _fa_correlation(label, label.lower(), KIND_LABELS[kind], pairs_of[kind])
            )
    for kind in IndicatorKind:
        correlations.append(_fa_correlation("PVR", "pvr", KIND_LABELS[kind], pairs_of[kind]))
    correlations.append(_fa_correlation("PVR", "pvr", "all", pairs))

    group_rates = [
        GroupRateRow(role, kind, standing, n, k, _rate(k, n))
        for (role, kind, standing), (n, k) in group_counts.items()
    ]
    rate_differences: list[RateDifferenceRow] = []
    for role in (Role.FULL, Role.ASSOCIATE):
        for standing in (Standing.OVER_MEDIAN, Standing.UNDER_MEDIAN):
            nb, kb = group_counts[role, IndicatorKind.BIBLIOMETRIC, standing]
            nn, kn = group_counts[role, IndicatorKind.NON_BIBLIOMETRIC, standing]
            if nb and nn:
                diff, low, high = proportion_diff_ci(kb, nb, kn, nn)
            else:
                diff = low = high = _NAN
            rate_differences.append(
                RateDifferenceRow(role, standing, _rate(kb, nb), _rate(kn, nn), diff, low, high)
            )

    tag_rows: list[MedianTagRow] = []
    violations = [0, 0, 0]
    tag_counts: dict[MedianTag, list[int]] = {tag: [0, 0] for tag in MedianTag}
    for full, assoc in median_pairs:
        tag = tag_median_pair(full, assoc)
        kind_slot = 0 if full.kind is IndicatorKind.BIBLIOMETRIC else 1
        tag_counts[tag][kind_slot] += 1
        if tag is not MedianTag.NONE:
            tag_rows.append(MedianTagRow(full.discipline.code, full.kind, tag))
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
    for (code, role), positions in groups:
        m = top_level.get((code, role))
        if m is None:
            continue
        qualified_vectors = [
            applications[i].indicators.as_tuple() for i in positions if applications[i].qualified
        ]
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

    return RoundReport(
        n_applications=len(applications),
        n_qualified=sum(1 for a in applications if a.qualified),
        n_disciplines=len(pooled_rows),
        distinct_names=len({(a.last_name, a.first_name) for a in applications}),
        area_rows=tuple(area_rows),
        discipline_role_rows=tuple(role_rows),
        discipline_pooled_rows=tuple(pooled_rows),
        summaries=tuple(summaries),
        correlations=tuple(correlations),
        group_rates=tuple(group_rates),
        rate_differences=tuple(rate_differences),
        median_census=zero_median_census(index.top_level()),
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
    """One CSV file; a cell is quoted only when it holds a comma, a quote or a newline."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_cell(v) for v in row] for row in rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _dataclass_table(cls: type, rows: Sequence) -> tuple[list[str], list[tuple]]:
    """A table whose columns are the fields of the row dataclass, in declaration order."""
    header = [f.name for f in fields(cls)]
    row_of = operator.attrgetter(*header)
    return header, [row_of(r) for r in rows]


def _tables(report: RoundReport) -> dict[str, tuple[list[str], list]]:
    """Every report section as (header, rows), keyed by table name."""
    tables = {
        name: _dataclass_table(cls, rows)
        for name, cls, rows in (
            ("area_table", AreaRow, report.area_rows),
            ("discipline_role_table", DisciplineRoleRow, report.discipline_role_rows),
            ("discipline_pooled_table", DisciplinePooledRow, report.discipline_pooled_rows),
            ("group_rates", GroupRateRow, report.group_rates),
            ("rate_differences", RateDifferenceRow, report.rate_differences),
            ("median_tags", MedianTagRow, report.median_tags),
            ("median_tag_counts", TagCountRow, report.median_tag_counts),
            ("min_qualified_table", MinQualifiedRow, report.min_qualified),
            ("classified_applications", ClassifiedApplication, report.classified),
            ("extreme_pq", ExtremePqRow, report.extreme_pq),
            ("fig_min_median_scatter", MinMedianRow, report.min_median_rows),
        )
    }
    tables["totals"] = (
        ["n_applications", "n_qualified", "n_disciplines", "distinct_names"],
        [[report.n_applications, report.n_qualified, report.n_disciplines, report.distinct_names]],
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
    tables["median_census"] = (
        ["role", "zero_components", "disciplines"],
        [
            ["full", 1, report.median_census.full_one_zero],
            ["full", 2, report.median_census.full_two_zero],
            ["associate", 1, report.median_census.associate_one_zero],
            ["associate", 2, report.median_census.associate_two_zero],
        ],
    )
    tables["median_component_violations"] = (
        ["component", "full_below_associate"],
        [[i + 1, report.component_violations[i]] for i in range(3)],
    )
    tables["fig_na_hist"] = (
        ["bin_low", "bin_high", "disciplines"],
        [[b.low, b.high, b.count] for b in report.na_histogram],
    )
    pairs = _fa_pairs(report.discipline_role_rows, operator.attrgetter("discipline"))
    tables["fig_na_scatter"] = (
        ["discipline", "na_full", "na_associate"],
        [[f.discipline, f.applications, a.applications] for f, a in pairs],
    )
    tables["fig_conditional_scatter"] = (
        ["discipline", "kind", "pqo_full", "pqo_associate", "pqu_full", "pqu_associate"],
        [[f.discipline, f.kind, f.pqo, a.pqo, f.pqu, a.pqu] for f, a in pairs],
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
            [f.discipline, f.pvr, a.pvr]
            for f, a in sorted(pairs, key=lambda p: (-p[0].pvr, p[0].discipline))
        ],
    )
    return tables


def emit(report: RoundReport, format: str, target: str | Path) -> list[Path]:
    """Write the report under `target`; returns the created file paths.

    format "csv" produces one file per table; "json" produces a single
    report.json with the same tables keyed by name.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}, expected csv or json")
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
    else:
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
    return written
