"""Frozen per-row references of `parse_applications`, `RoundDataset.validate`
and `write_applications`.

Compact copies of them as they were before ingest moved onto columns:
`csv.DictReader` reads every row into a dict first, then each row is checked
in turn and kept as an ApplicationRecord, and the dataset check resolves a
median set for every application.  The writer formats one row at a time and
hands every row to csv.writer.  They import the domain classes only, so a
change to the ingest module's own code cannot leak into them.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path

from asnqual.dominance import ApplicationRecord
from asnqual.indicators import IndicatorVector
from asnqual.thresholds import DisciplineId, Role

APPLICATION_COLUMNS = (
    "last_name", "first_name", "discipline", "sub_discipline", "role",
    "ind1", "ind2", "ind3", "qualified",
)


@contextmanager
def _open_text(source):
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as handle:
            yield handle
    else:
        yield source


def _name(source):
    return source if isinstance(source, (str, Path)) else getattr(source, "name", "input")


def _undecodable(source, exc):
    if not isinstance(source, (str, Path)):
        return f"{_name(source)}: not UTF-8 text ({exc.reason})"
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


def _read_rows(source, required):
    with _open_text(source) as handle:
        try:
            reader = csv.DictReader(handle, restval="")
            if reader.fieldnames is None:
                raise ValueError(f"{_name(source)}: input is empty, expected a header row")
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"{_name(source)}: missing columns: {', '.join(missing)}")
            rows, lines = [], []
            for row in reader:
                rows.append(row)
                lines.append(reader.line_num)
        except UnicodeDecodeError as exc:
            raise ValueError(_undecodable(source, exc)) from None
    return rows, lines


def _parse_float(row, column):
    raw = (row.get(column) or "").strip()
    if not raw:
        raise ValueError(f"missing value in column {column}")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"unparseable number {raw!r} in column {column}") from None


def _parse_role(raw):
    raw = raw.strip()
    if raw == "1":
        return Role.FULL
    if raw == "2":
        return Role.ASSOCIATE
    raise ValueError(f"unknown role {raw!r}, expected 1 or 2")


def _parse_bool(raw):
    lowered = raw.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"unknown boolean {raw!r}, expected true or false")


def applicant_id(last, first):
    if "|" in last or "\\" in last:
        last = last.replace("\\", "\\\\").replace("|", "\\|")
    if "|" in first or "\\" in first:
        first = first.replace("\\", "\\\\").replace("|", "\\|")
    return f"{last}|{first}"


def reference_parse_applications(source, registry):
    """(records, [(line, message, severity)]); raises ValueError on a hard error."""
    kinds = {entry.discipline.code: entry.kind for entry in registry}
    rows, lines = _read_rows(source, APPLICATION_COLUMNS)
    records, diagnostics, seen = [], [], set()
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
            if "\n" in last or "\r" in last or "\n" in first or "\r" in first:
                raise ValueError("line break in applicant name")
        except ValueError as exc:
            diagnostics.append((line, str(exc), "error"))
            continue
        kind = kinds.get(discipline.code)
        if kind is None:
            raise ValueError(
                f"{_name(source)}: line {line}: discipline {discipline.code} is not in the registry"
            )
        try:
            vector = IndicatorVector(ind[0], ind[1], ind[2], kind)
        except ValueError as exc:
            diagnostics.append((line, str(exc), "error"))
            continue
        identity = applicant_id(last, first)
        key = (discipline.code, discipline.sub_discipline, role, last, first)
        if key in seen:
            raise ValueError(
                f"{_name(source)}: line {line}: duplicate application for {identity} "
                f"in {discipline.code} role {role.value}"
            )
        seen.add(key)
        records.append(
            ApplicationRecord(identity, last, first, discipline, role, vector, qualified)
        )
    return records, diagnostics


def reference_validate(dataset):
    """Cross-collection problems, checked application by application."""
    problems = []
    kinds = dataset.registry_kinds()
    index = dataset.median_index()
    for m in dataset.medians:
        expected = kinds.get(m.discipline.code)
        if expected is None:
            problems.append(f"median set {m.discipline.code} not in registry")
        elif m.kind is not expected:
            problems.append(
                f"median set {m.discipline.code} kind {m.kind.value} "
                f"disagrees with registry {expected.value}"
            )
    for app in dataset.applications:
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


def _format_value(value):
    """Shortest exact decimal form; integers lose the trailing .0."""
    return str(int(value)) if value.is_integer() else repr(value)


def reference_write_applications(table, handle):
    """The rows of an ApplicationTable as CSV, each row formatted and written on its own."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(APPLICATION_COLUMNS)
    for i in range(len(table)):
        discipline, role, _ = table.groups[table.group[i]]
        writer.writerow([
            table.last[i], table.first[i], discipline.code, discipline.sub_discipline or "",
            role.value, *map(_format_value, table.ind[i].tolist()),
            "true" if table.qualified[i] else "false",
        ])
