"""Round data ingestion: applications, median fixtures, discipline registry.

All interchange files are UTF-8 comma-delimited text with a header row.
Row-level damage (bad numbers, unknown role codes, missing values) is
skipped and reported as a diagnostic with the offending line number;
dataset-level inconsistency (duplicate keys, disciplines missing from the
registry) is a hard error.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .dominance import ApplicationRecord
from .indicators import IndicatorKind, IndicatorVector
from .thresholds import AREA_CODES, DisciplineId, MedianIndex, MedianSet, Role

AREA_ACRONYMS = {
    "01": "MCS",
    "02": "PHY",
    "03": "CHE",
    "04": "EAS",
    "05": "BIO",
    "06": "MED",
    "07": "AVM",
    "08": "CEA",
    "09": "IIE",
    "10": "APL",
    "11": "HPP",
    "12": "LAW",
    "13": "ECS",
    "14": "PSS",
}

# Areas 01-09 are bibliometric except five engineering/architecture codes;
# areas 10-14 are non-bibliometric except the psychology macro-sector 11/E.
NON_BIBLIOMETRIC_EXCEPTIONS = frozenset({"08/C1", "08/D1", "08/E1", "08/E2", "08/F1"})
BIBLIOMETRIC_EXCEPTIONS = frozenset({"11/E1", "11/E2", "11/E3", "11/E4"})

APPLICATION_COLUMNS = (
    "last_name",
    "first_name",
    "discipline",
    "sub_discipline",
    "role",
    "ind1",
    "ind2",
    "ind3",
    "qualified",
)
MEDIAN_COLUMNS = ("discipline", "sub_discipline", "role", "kind", "m1", "m2", "m3")
REGISTRY_COLUMNS = ("discipline", "area_acronym", "kind")

_KIND_CODES = {"B": IndicatorKind.BIBLIOMETRIC, "NB": IndicatorKind.NON_BIBLIOMETRIC}
_KIND_TO_CODE = {v: k for k, v in _KIND_CODES.items()}


def discipline_kind(code: str) -> IndicatorKind:
    """Indicator kind of a discipline code under the area partition rules."""
    area = code[:2]
    if area not in AREA_CODES:
        raise ValueError(f"unknown area code {area!r}")
    if int(area) <= 9:
        if code in NON_BIBLIOMETRIC_EXCEPTIONS:
            return IndicatorKind.NON_BIBLIOMETRIC
        return IndicatorKind.BIBLIOMETRIC
    if code in BIBLIOMETRIC_EXCEPTIONS:
        return IndicatorKind.BIBLIOMETRIC
    return IndicatorKind.NON_BIBLIOMETRIC


@dataclass(frozen=True)
class DisciplineRegistryEntry:
    """One discipline with its area acronym and indicator kind."""

    discipline: DisciplineId
    area_acronym: str
    kind: IndicatorKind

    def __post_init__(self) -> None:
        expected_acronym = AREA_ACRONYMS[self.discipline.area]
        if self.area_acronym != expected_acronym:
            raise ValueError(
                f"area acronym {self.area_acronym!r} does not match "
                f"{expected_acronym!r} for area {self.discipline.area}"
            )
        expected_kind = discipline_kind(self.discipline.code)
        if self.kind is not expected_kind:
            raise ValueError(
                f"{self.discipline.code} must be {expected_kind.value}, "
                f"got {self.kind.value}"
            )

    @property
    def area_code(self) -> str:
        return self.discipline.area


@dataclass(frozen=True)
class Diagnostic:
    """One skipped or suspicious input row."""

    line: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity}: {self.message}"


@contextmanager
def _open_text(source: str | Path | IO[str]) -> Iterator[IO[str]]:
    if isinstance(source, (str, Path)):
        # utf-8-sig drops the byte-order mark that spreadsheet exports put
        # before the header.
        with open(source, encoding="utf-8-sig", newline="") as handle:
            yield handle
    else:
        yield source


def _undecodable(source: str | Path | IO[str], exc: UnicodeDecodeError) -> str:
    """The decode error, with the file and the physical line that holds the bad byte.

    The decoder reads the file in chunks, so the csv reader's line count does
    not say where the byte is; the file is scanned again, line by line.
    """
    if not isinstance(source, (str, Path)):
        return f"{getattr(source, 'name', 'input')}: not UTF-8 text ({exc.reason})"
    with open(source, "rb") as raw:
        for number, line in enumerate(raw, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                return (
                    f"{source}: line {number}: not UTF-8 text "
                    f"({bad.reason} at byte {bad.start + 1} of the line)"
                )
    return f"{source}: not UTF-8 text ({exc.reason})"


def _read_rows(
    source: str | Path | IO[str], required: Sequence[str]
) -> tuple[list[dict[str, str]], list[int]]:
    """All rows as dicts plus their line numbers; fails fast on bad headers."""
    with _open_text(source) as handle:
        try:
            # a short row reads as empty fields, which the parsers reject
            reader = csv.DictReader(handle, restval="")
            if reader.fieldnames is None:
                raise ValueError("input is empty, expected a header row")
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"missing columns: {', '.join(missing)}")
            rows: list[dict[str, str]] = []
            lines: list[int] = []
            for row in reader:
                rows.append(row)
                lines.append(reader.line_num)
        except UnicodeDecodeError as exc:
            raise ValueError(_undecodable(source, exc)) from None
    return rows, lines


def _parse_float(row: dict[str, str], column: str) -> float:
    raw = (row.get(column) or "").strip()
    if not raw:
        raise ValueError(f"missing value in column {column}")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"unparseable number {raw!r} in column {column}") from None


def _parse_role(raw: str) -> Role:
    raw = raw.strip()
    if raw == "1":
        return Role.FULL
    if raw == "2":
        return Role.ASSOCIATE
    raise ValueError(f"unknown role {raw!r}, expected 1 or 2")


def _parse_kind(raw: str) -> IndicatorKind:
    kind = _KIND_CODES.get(raw.strip().upper())
    if kind is None:
        raise ValueError(f"unknown kind {raw!r}, expected B or NB")
    return kind


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"unknown boolean {raw!r}, expected true or false")


def applicant_id(last: str, first: str) -> str:
    """`last|first`, with `\\` and `|` inside a name escaped as `\\\\` and `\\|`.

    The escapes keep the id unambiguous: `A|B, C` and `A, B|C` differ.
    """
    if "|" in last or "\\" in last:
        last = last.replace("\\", "\\\\").replace("|", "\\|")
    if "|" in first or "\\" in first:
        first = first.replace("\\", "\\\\").replace("|", "\\|")
    return f"{last}|{first}"


def load_default_registry() -> list[DisciplineRegistryEntry]:
    """The complete 184-discipline registry shipped with the package."""
    data = resources.files("asnqual").joinpath("data/registry.csv").read_text("utf-8")
    entries, diagnostics = parse_registry(io.StringIO(data))
    if diagnostics:
        raise ValueError(f"bundled registry is damaged: {diagnostics[0]}")
    return entries


def parse_registry(
    source: str | Path | IO[str],
) -> tuple[list[DisciplineRegistryEntry], list[Diagnostic]]:
    """Registry rows (discipline, area_acronym, kind B|NB) plus diagnostics."""
    rows, lines = _read_rows(source, REGISTRY_COLUMNS)
    entries: list[DisciplineRegistryEntry] = []
    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()
    for row, line in zip(rows, lines):
        try:
            discipline = DisciplineId.parse(row["discipline"])
            entry = DisciplineRegistryEntry(
                discipline, row["area_acronym"].strip(), _parse_kind(row["kind"])
            )
        except ValueError as exc:
            diagnostics.append(Diagnostic(line, str(exc)))
            continue
        if discipline.code in seen:
            raise ValueError(f"line {line}: duplicate registry entry {discipline.code}")
        seen.add(discipline.code)
        entries.append(entry)
    return entries, diagnostics


def parse_applications(
    source: str | Path | IO[str],
    registry: Sequence[DisciplineRegistryEntry] | None = None,
) -> tuple[list[ApplicationRecord], list[Diagnostic]]:
    """Application rows as records; indicator kind comes from the registry.

    Malformed rows are skipped with a line-numbered diagnostic.  Duplicate
    (name, discipline, role) rows and disciplines the registry does not
    know are hard errors.
    """
    if registry is None:
        registry = load_default_registry()
    kinds = {entry.discipline.code: entry.kind for entry in registry}
    rows, lines = _read_rows(source, APPLICATION_COLUMNS)
    records: list[ApplicationRecord] = []
    diagnostics: list[Diagnostic] = []
    seen: set[tuple[str, str | None, Role, str, str]] = set()
    for row, line in zip(rows, lines):
        try:
            discipline = DisciplineId.parse(
                row["discipline"], (row.get("sub_discipline") or "").strip() or None
            )
            role = _parse_role(row["role"])
            ind = tuple(_parse_float(row, c) for c in ("ind1", "ind2", "ind3"))
            qualified = _parse_bool(row["qualified"])
            last = row["last_name"].strip()
            first = row["first_name"].strip()
            if not last or not first:
                raise ValueError("missing applicant name")
            # a report CSV writes a bare \r unquoted, so the row would read back as two
            if "\n" in last or "\r" in last or "\n" in first or "\r" in first:
                raise ValueError("line break in applicant name")
        except ValueError as exc:
            diagnostics.append(Diagnostic(line, str(exc)))
            continue
        kind = kinds.get(discipline.code)
        if kind is None:
            raise ValueError(
                f"line {line}: discipline {discipline.code} is not in the registry"
            )
        try:
            vector = IndicatorVector(ind[0], ind[1], ind[2], kind)
        except ValueError as exc:
            diagnostics.append(Diagnostic(line, str(exc)))
            continue
        identity = applicant_id(last, first)
        key = (discipline.code, discipline.sub_discipline, role, last, first)
        if key in seen:
            raise ValueError(
                f"line {line}: duplicate application for {identity} "
                f"in {discipline.code} role {role.value}"
            )
        seen.add(key)
        records.append(
            ApplicationRecord(identity, last, first, discipline, role, vector, qualified)
        )
    return records, diagnostics


def parse_medians(
    source: str | Path | IO[str],
) -> tuple[list[MedianSet], list[Diagnostic]]:
    """Median threshold rows; zero bibliometric medians draw a warning.

    Duplicate (discipline, sub-discipline, role) rows are a hard error.
    """
    rows, lines = _read_rows(source, MEDIAN_COLUMNS)
    sets: list[MedianSet] = []
    diagnostics: list[Diagnostic] = []
    seen: set[tuple[str, str | None, Role]] = set()
    for row, line in zip(rows, lines):
        try:
            discipline = DisciplineId.parse(
                row["discipline"], (row.get("sub_discipline") or "").strip() or None
            )
            role = _parse_role(row["role"])
            kind = _parse_kind(row["kind"])
            medians = tuple(_parse_float(row, c) for c in ("m1", "m2", "m3"))
            median_set = MedianSet(discipline, role, *medians, kind)
        except ValueError as exc:
            diagnostics.append(Diagnostic(line, str(exc)))
            continue
        key = (discipline.code, discipline.sub_discipline, role)
        if key in seen:
            raise ValueError(
                f"line {line}: duplicate median set for {discipline.code} "
                f"sub={discipline.sub_discipline or '-'} role {role.value}"
            )
        seen.add(key)
        if kind is IndicatorKind.BIBLIOMETRIC and median_set.zero_components() > 0:
            diagnostics.append(
                Diagnostic(line, f"zero median in bibliometric {discipline.code}", "warning")
            )
        sets.append(median_set)
    return sets, diagnostics


@dataclass(frozen=True)
class RoundDataset:
    """One qualification round: applications, thresholds, registry."""

    applications: tuple[ApplicationRecord, ...]
    medians: tuple[MedianSet, ...]
    registry: tuple[DisciplineRegistryEntry, ...]

    def __init__(
        self,
        applications: Iterable[ApplicationRecord],
        medians: Iterable[MedianSet],
        registry: Iterable[DisciplineRegistryEntry],
    ) -> None:
        object.__setattr__(self, "applications", tuple(applications))
        object.__setattr__(self, "medians", tuple(medians))
        object.__setattr__(self, "registry", tuple(registry))

    def median_index(self) -> MedianIndex:
        return MedianIndex(self.medians)

    def registry_kinds(self) -> dict[str, IndicatorKind]:
        return {entry.discipline.code: entry.kind for entry in self.registry}

    def validate(self) -> list[str]:
        """Cross-collection consistency problems; empty means valid."""
        problems: list[str] = []
        kinds = self.registry_kinds()
        index = self.median_index()
        for m in self.medians:
            expected = kinds.get(m.discipline.code)
            if expected is None:
                problems.append(f"median set {m.discipline.code} not in registry")
            elif m.kind is not expected:
                problems.append(
                    f"median set {m.discipline.code} kind {m.kind.value} "
                    f"disagrees with registry {expected.value}"
                )
        for app in self.applications:
            expected = kinds.get(app.discipline.code)
            if expected is None:
                problems.append(
                    f"application {app.applicant_id}: discipline "
                    f"{app.discipline.code} not in registry"
                )
                continue
            if app.indicators.kind is not expected:
                problems.append(
                    f"application {app.applicant_id}: indicator kind "
                    f"{app.indicators.kind.value} disagrees with registry"
                )
            try:
                index.resolve(app.discipline, app.role)
            except KeyError:
                problems.append(
                    f"application {app.applicant_id}: no median set for "
                    f"{app.discipline.code} role {app.role.value}"
                )
        return problems


def load_round(
    applications_path: str | Path,
    medians_path: str | Path,
    registry_path: str | Path | None = None,
) -> tuple[RoundDataset, list[Diagnostic]]:
    """Parse a full round from disk, pooling all row diagnostics."""
    if registry_path is None:
        registry = load_default_registry()
        registry_diags: list[Diagnostic] = []
    else:
        registry, registry_diags = parse_registry(registry_path)
    applications, app_diags = parse_applications(applications_path, registry)
    medians, median_diags = parse_medians(medians_path)
    dataset = RoundDataset(applications, medians, registry)
    return dataset, registry_diags + app_diags + median_diags


def _format_value(value: float) -> str:
    """Shortest exact decimal form; integers lose the trailing .0."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def write_applications(records: Iterable[ApplicationRecord], target: str | Path | IO[str]) -> None:
    with _open_write(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(APPLICATION_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.last_name,
                    r.first_name,
                    r.discipline.code,
                    r.discipline.sub_discipline or "",
                    r.role.value,
                    _format_value(r.indicators.ind1),
                    _format_value(r.indicators.ind2),
                    _format_value(r.indicators.ind3),
                    "true" if r.qualified else "false",
                ]
            )


def write_medians(sets: Iterable[MedianSet], target: str | Path | IO[str]) -> None:
    with _open_write(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(MEDIAN_COLUMNS)
        for m in sets:
            writer.writerow(
                [
                    m.discipline.code,
                    m.discipline.sub_discipline or "",
                    m.role.value,
                    _KIND_TO_CODE[m.kind],
                    _format_value(m.m1),
                    _format_value(m.m2),
                    _format_value(m.m3),
                ]
            )


def write_registry(entries: Iterable[DisciplineRegistryEntry], target: str | Path | IO[str]) -> None:
    with _open_write(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REGISTRY_COLUMNS)
        for e in entries:
            writer.writerow([e.discipline.code, e.area_acronym, _KIND_TO_CODE[e.kind]])


@contextmanager
def _open_write(target: str | Path | IO[str]) -> Iterator[IO[str]]:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield target
