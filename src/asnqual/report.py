"""Full round analysis and deterministic report emission.

analyze_round validates a RoundDataset and turns it into a RoundReport holding
every table of the analysis pipeline: per-area and per-discipline
qualification counts, five-number summaries, rank correlations, pooled
conditional rates with bibliometric/non-bibliometric difference
intervals, median anomaly tables, minimum-qualified-indicator counts,
and plot-ready figure data.  The analysis runs on the columns of the
dataset's ApplicationTable.  emit writes the report as a directory of CSV files
or as a single JSON document, formatting each table column by column; byte
output is deterministic for a fixed report.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import astuple, dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from .dominance import pareto_violation_ratio
from .indicators import IndicatorKind
from .ingest import AREA_ACRONYMS, BLOCK_ROWS, RoundDataset, number_cells, output_file, write_csv
from .stats import (
    CorrelationResult,
    FiveNumberSummary,
    five_number_summary,
    proportion_diff_ci,
    rates_from_flags,
    spearman_rho,
)
from .thresholds import (
    CENSUS_CELLS,
    MedianTag,
    Role,
    Standing,
    ZeroMedianCensus,
    classify_rows as _classify_all,  # a module global: a wrapper set on it here is called
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
# How every enum member is written, in CSV and in JSON.
_LABELS = {**ROLE_LABELS, **{m: m.value for m in (*IndicatorKind, *Standing)}}
_LABELS.update({t: t.value or "none" for t in MedianTag})
_ROLE_KINDS = list(itertools.product(Role, IndicatorKind))
# The standing of a row, indexed by its over-median flag.
_STANDINGS = (Standing.UNDER_MEDIAN, Standing.OVER_MEDIAN)


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


@dataclass(frozen=True, eq=False)
class EnumColumn:
    """Values taken at an index: row i is members[codes[i]].

    ``codes`` is an integer array, or an EnumColumn of integers when ``members``
    is a sequence, not an array.  A few members can stand for many rows (one
    label per group), and an order can read a column in place.
    """

    codes: np.ndarray | EnumColumn
    members: np.ndarray | Sequence

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> EnumColumn:
        return EnumColumn(self.codes[rows], self.members)

    def tolist(self) -> list:
        if isinstance(self.members, np.ndarray):
            return self.members[self.codes].tolist()
        return list(map(self.members.__getitem__, self.codes.tolist()))


@dataclass(frozen=True, eq=False)
class ClassifiedTable:
    """The classified applications as one column per ClassifiedApplication field.

    Rows are sorted by discipline, sub-discipline, role and applicant id: each
    column is an EnumColumn that reads a dataset column, or a group's label,
    through that one order.  Iterating gathers one block of rows at a time.
    """

    columns: tuple[EnumColumn, ...]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[ClassifiedApplication]:
        for lo in range(0, len(self), BLOCK_ROWS):
            block = (column[lo:lo + BLOCK_ROWS].tolist() for column in self.columns)
            yield from map(ClassifiedApplication, *block)


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
    classified: ClassifiedTable
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
    # v // width can miss the bin edges b*width by one when width is not exact
    # in binary; np.histogram compares each value with the edges as computed.
    counts, edges = np.histogram(na_values, np.arange(n_bins + 1) * width)
    edges = edges.tolist()
    return [HistogramBin(low, high, c) for low, high, c in zip(edges, edges[1:], counts.tolist())]


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

    table = data.applications
    index = data.median_index()
    group, ind, qualified = table.group, table.ind, table.qualified

    # A group (a discipline with its sub-discipline, a role and a kind) has one median set.
    median_sets = [index.resolve(discipline, role) for discipline, role, _ in table.groups]
    medians = np.array([m.as_tuple() for m in median_sets], dtype=float).reshape(-1, 3)
    required = np.array([required_exceedances(m.kind) for m in median_sets], dtype=np.int64)
    exceeds, over = _classify_all(ind, medians[group], required[group])

    labels = [(d.code, d.sub_discipline or "", role, kind) for d, role, kind in table.groups]
    # One role x kind code per row: the _ROLE_KINDS index of its group's.
    role_kind = np.array(
        [_ROLE_KINDS.index((role, kind)) for _, _, role, kind in labels], dtype=np.int8
    )[group]
    # Rows in (discipline code, sub-discipline, role, applicant id) order, by
    # two stable sorts: equal keys keep their dataset order.
    group_keys = [(code, sub, role.value) for code, sub, role, _ in labels]
    rank_of = {key: r for r, key in enumerate(sorted(set(group_keys)))}
    rank = np.array([rank_of[key] for key in group_keys], dtype=np.intp)
    ids = np.array(table.ids, dtype=object)
    by_id = np.argsort(ids, kind="stable")
    order = by_id[np.argsort(rank[group[by_id]], kind="stable")]
    # applicant_id is injective, so the distinct ids, each a run in id order,
    # are the distinct names.
    new_id = ids[by_id[1:]] != ids[by_id[:-1]]
    distinct_names = int(np.count_nonzero(new_id)) + (len(ids) > 0)
    in_order = functools.partial(EnumColumn, order)
    classified = ClassifiedTable((
        in_order(table.ids),
        *(EnumColumn(in_order(group), [label[f] for label in labels]) for f in (0, 1)),
        *(EnumColumn(in_order(role_kind), members) for members in zip(*_ROLE_KINDS)),
        *map(in_order, ind.T), in_order(exceeds),
        EnumColumn(in_order(over.view(np.int8)), _STANDINGS), in_order(qualified),
    ))

    # Discipline-level groups (code, role, kind), in code and role order; the
    # positions of each are a slice of one stable argsort, in dataset order.
    discipline_keys = [(code, role, kind) for code, _, role, kind in labels]
    keys = sorted(set(discipline_keys), key=lambda k: (k[0], k[1].value))
    key_id = {key: k for k, key in enumerate(keys)}
    coarse = np.array([key_id[key] for key in discipline_keys], dtype=np.int32)[group]
    members = np.argsort(coarse, kind="stable")
    sizes = np.bincount(coarse, minlength=len(keys))
    starts = np.cumsum(sizes) - sizes

    top_level = {(s.discipline.code, s.role): s for s in index.top_level()}
    role_rows: list[DisciplineRoleRow] = []
    min_median_rows: list[MinMedianRow] = []
    for (code, role, kind), start, size in zip(keys, starts.tolist(), sizes.tolist()):
        positions = members[start:start + size]
        qual = qualified[positions]
        rates = rates_from_flags(qual, over[positions])
        pvr = pareto_violation_ratio(ind[positions], qual)
        n_qualified = int(np.count_nonzero(qual))
        qualified_over = int(np.count_nonzero(qual & over[positions]))
        role_rows.append(DisciplineRoleRow(
            code, role, kind, rates.n_total, n_qualified, rates.n_over, rates.n_under,
            qualified_over, n_qualified - qualified_over, rates.pq, rates.pqo, rates.pqu,
            pvr.ratio, pvr.dominating_pairs, pvr.violations, pvr.no_comparable_pairs,
        ))
        m = top_level.get((code, role))
        if m is None:
            continue
        vectors = ind[positions[qual]]
        # argmin takes the first of equal values, as min() does with 0.0 and -0.0
        lows = vectors[vectors.argmin(axis=0), [0, 1, 2]].tolist() if len(vectors) else [_NAN] * 3
        for i, (median, low) in enumerate(zip(m.as_tuple(), lows)):
            min_median_rows.append(MinMedianRow(code, role, i + 1, median, low))
    # Per role: disciplines (three scatter rows each, by component), and those above M_i.
    min_qualified: list[MinQualifiedRow] = []
    for role in Role:
        scatter = [r for r in min_median_rows if r.role is role]
        above = [sum(r.min_qualified > r.median for r in scatter[i::3]) for i in range(3)]
        min_qualified.append(MinQualifiedRow(role, len(scatter) // 3, *above))

    # role_rows are in code order, so each discipline's rows are one run, and
    # so are each area's.  A pooled row sums the six counts of its discipline's rows.
    role_counts = operator.attrgetter(*(f.name for f in fields(DisciplinePooledRow)[2:8]))
    pooled_rows: list[DisciplinePooledRow] = []
    for (code, kind), run in itertools.groupby(role_rows, lambda r: (r.discipline, r.kind)):
        n, k, n_over, n_under, k_over, k_under = map(sum, zip(*map(role_counts, run)))
        pooled_rows.append(DisciplinePooledRow(
            code, kind, n, k, n_over, n_under, k_over, k_under,
            _rate(k, n), _rate(k_over, n_over), _rate(k_under, n_under),
        ))
    area_rows: list[AreaRow] = []
    for area, run in itertools.groupby(role_rows, lambda r: r.discipline[:2]):
        run = list(run)
        n_full, n_assoc, k_full, k_assoc = (
            sum(getattr(r, field) for r in run if r.role is role)
            for field in ("applications", "qualified") for role in Role
        )
        area_rows.append(AreaRow(
            area, AREA_ACRONYMS[area], n_full, n_assoc, n_full + n_assoc,
            k_full, k_assoc, k_full + k_assoc,
            _rate(k_full, n_full), _rate(k_assoc, n_assoc),
            _rate(k_full + k_assoc, n_full + n_assoc),
        ))

    na_values = [r.applications for r in pooled_rows]
    bins = _na_histogram(na_values, hist_bin_width)
    summaries = [
        _summary_row("NA", na_values),
        _summary_row("PQ", [r.pq for r in pooled_rows]),
        _summary_row("PQO", [r.pqo for r in pooled_rows]),
        _summary_row("PQU", [r.pqu for r in pooled_rows]),
        _summary_row("PVR.F", [r.pvr for r in role_rows if r.role is Role.FULL]),
        _summary_row("PVR.A", [r.pvr for r in role_rows if r.role is Role.ASSOCIATE]),
    ]

    # Applications and qualified per role x kind x standing, over-median first.
    cells = 2 * role_kind + ~over
    n_cells = np.bincount(cells, minlength=8).tolist()
    k_cells = np.bincount(cells[qualified], minlength=8).tolist()
    group_rates = [
        GroupRateRow(role, kind, standing, n, k, _rate(k, n))
        for (role, kind, standing), n, k in zip(
            itertools.product(Role, IndicatorKind, Standing), n_cells, k_cells
        )
    ]
    counts = {(r.role, r.kind, r.standing): (r.applications, r.qualified) for r in group_rates}
    rate_differences: list[RateDifferenceRow] = []
    for role, standing in itertools.product(Role, Standing):
        (nb, kb), (nn, kn) = (counts[role, kind, standing] for kind in IndicatorKind)
        diff, low, high = proportion_diff_ci(kb, nb, kn, nn) if nb and nn else (_NAN,) * 3
        rate_differences.append(
            RateDifferenceRow(role, standing, _rate(kb, nb), _rate(kn, nn), diff, low, high)
        )

    pairs = _fa_pairs(role_rows, operator.attrgetter("discipline"))
    pairs_of = {kind: [p for p in pairs if p[0].kind is kind] for kind in IndicatorKind}
    median_pairs = _fa_pairs(top_level.values(), lambda s: s.discipline.code)
    correlations = [
        _fa_correlation("NA", "applications", "all", pairs),
        _fa_correlation("PQ", "pq", "all", pairs),
    ]
    for kind in IndicatorKind:
        kind_pairs = [p for p in median_pairs if p[0].kind is kind]
        for i in (1, 2, 3):
            correlations.append(_fa_correlation(f"M{i}", f"m{i}", kind.value, kind_pairs))
    suffix = {Role.FULL: "F", Role.ASSOCIATE: "A"}
    for rk, (role, kind) in enumerate(_ROLE_KINDS):
        vectors = ind[role_kind == rk]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            x, y = (f"ind{c + 1}.{suffix[role]}" for c in (i, j))
            result = _safe_spearman(vectors[:, i], vectors[:, j])
            correlations.append(CorrelationRow(x, y, kind.value, result))
    for label in ("PQO", "PQU", "PVR"):
        for kind in IndicatorKind:
            correlations.append(
                _fa_correlation(label, label.lower(), kind.value, pairs_of[kind])
            )
    correlations.append(_fa_correlation("PVR", "pvr", "all", pairs))

    tagged = [(full, assoc, tag_median_pair(full, assoc)) for full, assoc in median_pairs]
    tag_rows = [
        MedianTagRow(full.discipline.code, full.kind, tag)
        for full, _, tag in tagged if tag is not MedianTag.NONE
    ]
    tag_count_rows: list[TagCountRow] = []
    for tag in MedianTag:
        b, nb = (sum(t is tag and f.kind is kind for f, _, t in tagged) for kind in IndicatorKind)
        tag_count_rows.append(TagCountRow(tag, b, nb, b + nb))
    violations = tuple(
        sum(f.as_tuple()[i] < a.as_tuple()[i] for f, a, _ in tagged) for i in range(3)
    )

    # The five lowest and the five highest pooled rates, ties in code order.
    rated = [r for r in pooled_rows if not math.isnan(r.pq)]
    extreme = [
        ExtremePqRow(position, rank, row.discipline, row.pq)
        for position, sign in (("bottom", 1), ("top", -1))
        for rank, row in enumerate(sorted(rated, key=lambda r: (sign * r.pq, r.discipline))[:5], 1)
    ]

    return RoundReport(
        n_applications=len(table), n_qualified=int(np.count_nonzero(qualified)),
        n_disciplines=len(pooled_rows), distinct_names=distinct_names,
        area_rows=tuple(area_rows), discipline_role_rows=tuple(role_rows),
        discipline_pooled_rows=tuple(pooled_rows), summaries=tuple(summaries),
        correlations=tuple(correlations), group_rates=tuple(group_rates),
        rate_differences=tuple(rate_differences),
        median_census=zero_median_census(index.top_level()),
        median_tags=tuple(tag_rows), median_tag_counts=tuple(tag_count_rows),
        component_violations=violations,
        min_qualified=tuple(min_qualified), min_median_rows=tuple(min_median_rows),
        classified=classified, extreme_pq=tuple(extreme), na_histogram=tuple(bins),
        hist_bin_width=hist_bin_width,
    )


def _each(rule: Callable[[object], str]) -> Callable[[Sequence], list[str]]:
    """A column rule that applies ``rule`` to every value."""
    return lambda values: list(map(rule, values))


_JSON_FLOATS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_LABELS = {member: encode_basestring_ascii(label) for member, label in _LABELS.items()}


def _json_floats(values: Sequence[float]) -> list[str]:
    """JSON tokens of floats: repr, with NaN as null and infinities as +-Infinity."""
    tokens = list(map(float.__repr__, values))
    return list(map(_JSON_FLOATS.get, tokens, tokens))


# The (CSV, JSON) column rule of each value type.  JSON writes a value as json.dumps
# does, NaN as null; CSV writes NaN as NaN and an integral float below 1e16 as an integer.
_RULES: dict[type, tuple[Callable[[Sequence], list[str]], Callable[[Sequence], list[str]]]] = {
    bool: (_each({True: "true", False: "false"}.__getitem__),) * 2,
    int: (_each(str), _each(int.__repr__)),
    float: (functools.partial(number_cells, nan="NaN", below=1e16), _json_floats),
    **{enum: (_each(_LABELS.__getitem__), _each(_JSON_LABELS.__getitem__))
       for enum in (Role, IndicatorKind, Standing, MedianTag)},
    str: (_each(str), _each(encode_basestring_ascii)),
}
_CSV, _JSON = 0, 1


def _format_column(column: Sequence | EnumColumn, format: int) -> list:
    """A column's text, through the rule of the one type its values hold.

    An EnumColumn formats its members or its rows' values, whichever are
    fewer.  Arrays go through tolist(): numpy 2 writes repr(np.float64(x)) as
    "np.float64(x)".  A column of two types, or of a type without a rule
    (None, a subclass, a numpy scalar), raises TypeError.
    """
    if isinstance(column, EnumColumn):
        if len(column.members) < len(column):
            return EnumColumn(column.codes, _format_column(column.members, format)).tolist()
        column = column.tolist()
    values = column.tolist() if isinstance(column, np.ndarray) else column
    kinds = set(map(type, values))
    if len(kinds) > 1 or not kinds <= _RULES.keys():
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise TypeError(f"a report column holds one type with a cell rule, got {names}")
    return _RULES[kinds.pop()][format](values) if kinds else []


_csv_column = functools.partial(_format_column, format=_CSV)
_json_column = functools.partial(_format_column, format=_JSON)


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """One CSV file, each block of rows formatted column by column."""
    write_csv(path, header, len(columns[0]), lambda rows: [_csv_column(c[rows]) for c in columns])


# The layout of json.dumps(document, indent=2, sort_keys=True): table names at
# indent 2, "columns" and "rows" at 4, their items at 6, the values of a row at 8.
_JSON_VALUE_SEP = ",\n        "
_JSON_ROW_SEP = "\n      ],\n      [\n        "


def _write_json(handle: IO[str], tables: dict[str, tuple[list[str], list[Sequence]]]) -> None:
    """The tables as report.json, one table and one block of rows at a time.

    The text is that of json.dumps(document, indent=2, sort_keys=True) + "\n"
    for document = {name: {"columns": header, "rows": rows}}.
    """
    handle.write("{")
    for t, name in enumerate(sorted(tables)):
        header, columns = tables[name]
        names = ",\n      ".join(map(encode_basestring_ascii, header))
        handle.write(
            f'{"," if t else ""}\n  {encode_basestring_ascii(name)}: {{\n'
            f'    "columns": [\n      {names}\n    ],\n    "rows": '
        )
        n_rows = len(columns[0])
        if not n_rows:
            handle.write("[]\n  }")
            continue
        handle.write("[\n      [\n        ")
        for lo in range(0, n_rows, BLOCK_ROWS):
            block = [_json_column(c[lo:lo + BLOCK_ROWS]) for c in columns]
            if lo:
                handle.write(_JSON_ROW_SEP)
            handle.write(_JSON_ROW_SEP.join(map(_JSON_VALUE_SEP.join, zip(*block))))
        handle.write("\n      ]\n    ]\n  }")
    handle.write("\n}\n")


def _row_table(header: list[str], rows: Iterable[Sequence]) -> tuple[list[str], list[Sequence]]:
    """(header, columns) of a table given row by row."""
    return header, list(zip(*rows)) or [() for _ in header]


def _dataclass_table(cls: type, rows: Sequence) -> tuple[list[str], list[Sequence]]:
    """A table whose columns are the fields of the row dataclass, in declaration order."""
    header = [f.name for f in fields(cls)]
    return _row_table(header, map(operator.attrgetter(*header), rows))


def _tables(report: RoundReport) -> dict[str, tuple[list[str], list[Sequence]]]:
    """Every report section as (header, columns), keyed by table name."""
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
            ("extreme_pq", ExtremePqRow, report.extreme_pq),
            ("fig_min_median_scatter", MinMedianRow, report.min_median_rows),
        )
    }
    tables["classified_applications"] = (
        [f.name for f in fields(ClassifiedApplication)], report.classified.columns
    )
    totals = ["n_applications", "n_qualified", "n_disciplines", "distinct_names"]
    tables["totals"] = _row_table(totals, [operator.attrgetter(*totals)(report)])
    tables["summaries"] = _row_table(
        ["variable", "n", "min", "q1", "median", "q3", "max"],
        [[s.variable, s.n, *s.summary.as_tuple()] for s in report.summaries],
    )
    tables["correlations"] = _row_table(
        ["x", "y", "group", "n", "rho", "ci_low", "ci_high", "p_value"],
        [
            [c.x_label, c.y_label, c.group, c.result.n, c.result.rho, c.result.ci_low,
             c.result.ci_high, c.result.p_value_zero_corr]
            for c in report.correlations
        ],
    )
    tables["median_census"] = _row_table(
        ["role", "zero_components", "disciplines"],
        [[role, zeros, n] for (role, zeros), n in zip(CENSUS_CELLS, astuple(report.median_census))],
    )
    tables["median_component_violations"] = (
        ["component", "full_below_associate"], [(1, 2, 3), report.component_violations]
    )
    tables["fig_na_hist"] = _row_table(
        ["bin_low", "bin_high", "disciplines"],
        [[b.low, b.high, b.count] for b in report.na_histogram],
    )
    pairs = _fa_pairs(report.discipline_role_rows, operator.attrgetter("discipline"))
    tables["fig_na_scatter"] = _row_table(
        ["discipline", "na_full", "na_associate"],
        [[f.discipline, f.applications, a.applications] for f, a in pairs],
    )
    tables["fig_conditional_scatter"] = _row_table(
        ["discipline", "kind", "pqo_full", "pqo_associate", "pqu_full", "pqu_associate"],
        [[f.discipline, f.kind, f.pqo, a.pqo, f.pqu, a.pqu] for f, a in pairs],
    )
    rated = [r for r in report.discipline_pooled_rows if not math.isnan(r.pq)]
    tables["fig_pq_bars"] = _row_table(
        ["discipline", "pq"],
        [[r.discipline, r.pq] for r in sorted(rated, key=lambda r: (-r.pq, r.discipline))],
    )
    pvr_order = sorted(pairs, key=lambda p: (-p[0].pvr, p[0].discipline))
    tables["fig_pvr_bars"] = _row_table(
        ["discipline", "pvr_full", "pvr_associate"],
        [[f.discipline, f.pvr, a.pvr] for f, a in pvr_order],
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
    tables = _tables(report)
    written: list[Path] = []
    if format == "csv":
        for name, (header, columns) in sorted(tables.items()):
            written.append(out_dir / f"{name}.csv")
            _write_csv(written[-1], header, columns)
    else:
        written.append(out_dir / "report.json")
        with output_file(written[-1]) as handle:
            _write_json(handle, tables)
    return written
