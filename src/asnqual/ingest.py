"""Round data ingestion: applications, median fixtures, discipline registry.

All interchange files are UTF-8 comma-delimited text with a header row.
Row-level damage (bad numbers, unknown role codes, missing values) is
skipped and reported as a diagnostic with the offending line number;
dataset-level inconsistency (duplicate keys, disciplines missing from the
registry) is a hard error.  A round's applications are held as an
ApplicationTable of columns, from the parser on.
"""

from __future__ import annotations

import csv
import io
import itertools
import marshal
import math
import operator
import os
import re
import stat
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import IO, TYPE_CHECKING, NoReturn, TypeVar

from .indicators import IndicatorKind, IndicatorVector
from .thresholds import AREA_ACRONYMS, DisciplineId, MedianIndex, MedianSet, Role

# numpy is imported by the functions that use it, so that reading and
# validating a round does not load it.
if TYPE_CHECKING:
    import numpy as np

    from .dominance import ApplicationRecord

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
_ROLE_CODES = {str(r.value): r for r in Role}
_FLAGS = {"true": True, "false": False}

_T = TypeVar("_T")


def discipline_kind(code: str) -> IndicatorKind:
    """Indicator kind of a discipline code under the area partition rules."""
    area = code[:2]
    if area not in AREA_ACRONYMS:
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


@dataclass(frozen=True)
class Diagnostic:
    """One skipped or suspicious input row.

    ``code`` names the check that the row failed: ``discipline``, ``role``,
    ``kind``, ``number``, ``boolean``, ``name``, ``value`` (an indicator or
    a median that is negative or not finite) or ``registry`` (an entry that
    breaks the area rules).  The warning on a zero bibliometric median has
    the code ``zero-median``.  ``source`` names the file of the row; load_round
    fills it in, and the diagnostics of a parsed stream keep it empty.
    """

    line: int
    message: str
    severity: str = "error"
    code: str = ""
    source: str = ""

    def __str__(self) -> str:
        prefix = f"{self.source}: " if self.source else ""
        return f"{prefix}line {self.line}: {self.severity}: {self.message}"


class _RowDamage(ValueError):
    """A row that fails a check; ``code`` is the diagnostic code of the check."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True, eq=False)
class ApplicationTable(Sequence):
    """The applications of a round as columns; records are built only on demand.

    Row i is applicant ``ids[i]``, the ``applicant_id`` of its names, which are
    read back from it by ``split_applicant_id``, with the indicators ``ind[i]``
    (an n x 3 float64 array) and the outcome ``qualified[i]`` (bool), in group
    ``group[i]`` (int32).  ``groups`` holds the (discipline, role, kind) of each
    group, and every group has a row.  Indexing and iteration yield
    ApplicationRecord rows, and a table equals a list or tuple of the same
    records.  No name holds a line break.

    The numeric columns are held in one form each, a flat C-contiguous
    buffer: ``group_buffer`` of int32 group ids, ``ind_buffer`` of float64
    indicators, three per row, and ``qualified_buffer`` of 0/1 bytes.
    ``group``, ``ind`` and ``qualified`` are numpy views of them, made on
    first access without a copy.  Build a table with from_rows or
    from_records, which check the columns; from_records also rejects a record
    whose id is not that of its names.
    """

    ids: list[str]
    groups: tuple[tuple[DisciplineId, Role, IndicatorKind], ...]
    group_buffer: array | np.ndarray
    ind_buffer: array | np.ndarray
    qualified_buffer: bytearray | np.ndarray

    @cached_property
    def group(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.group_buffer, dtype=np.int32)

    @cached_property
    def ind(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.ind_buffer, dtype=np.float64).reshape(-1, 3)

    @cached_property
    def qualified(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.qualified_buffer, dtype=np.bool_)

    @classmethod
    def from_rows(
        cls,
        last: Sequence[str],
        first: Sequence[str],
        groups: Sequence[tuple[DisciplineId, Role, IndicatorKind]],
        group: array | Sequence[int] | np.ndarray,
        ind: array | Sequence[float] | Sequence[tuple[float, float, float]] | np.ndarray,
        qualified: bytearray | Sequence[bool] | np.ndarray,
    ) -> ApplicationTable:
        """A table from per-row columns; groups that hold no row are dropped.

        The table keeps the ``applicant_id`` of each row's names.  ``group``,
        ``ind`` and ``qualified`` may be any sequences or numpy arrays: group
        ids, the indicators as rows of three or three per row, and outcomes.
        Each is copied into the table's layout.  A name holding a line break,
        or a column that does not convert or fit, is rejected with a ValueError.
        """
        for column in (last, first):
            text = "".join(column)  # one scan per column; the row is found only on failure
            if "\n" in text or "\r" in text:
                row = next(i for i, name in enumerate(column) if "\n" in name or "\r" in name)
                raise ValueError(f"row {row}: line break in applicant name {column[row]!r}")
        ids = [applicant_id(*names) for names in zip(last, first, strict=True)]
        columns = []
        for name, values, convert in (("group", group, lambda v: array("i", v)), ("ind", ind, _floats),
                                      ("qualified", qualified, lambda v: bytearray(map(bool, v)))):
            try:  # array() reads a list far faster than it reads numpy scalars one by one
                columns.append(convert(getattr(values, "tolist", lambda: values)()))
            except (OverflowError, TypeError) as exc:
                raise ValueError(f"application column {name}: {exc}") from None
        return _table(ids, groups, *columns)

    @classmethod
    def from_records(cls, records: Iterable[ApplicationRecord]) -> ApplicationTable:
        group_of: dict[tuple[DisciplineId, Role, IndicatorKind], int] = {}
        rows = [
            (r.applicant_id, r.last_name, r.first_name,
             group_of.setdefault((r.discipline, r.role, r.indicators.kind), len(group_of)),
             r.indicators.as_tuple(), r.qualified)
            for r in records
        ]
        ids, last, first, group, ind, qualified = [list(c) for c in zip(*rows)] or [[]] * 6
        table = cls.from_rows(last, first, list(group_of), group, ind, qualified)
        if ids != table.ids:
            row = next(i for i, pair in enumerate(zip(ids, table.ids)) if pair[0] != pair[1])
            raise ValueError(f"row {row}: applicant id {ids[row]!r} is not that of its names")
        return table

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[ApplicationRecord]:
        return self._records(slice(None))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._records(index))
        i = range(len(self))[index]
        return next(self._records(slice(i, i + 1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ApplicationTable, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ApplicationTable({len(self)} applications in {len(self.groups)} groups)"

    def _records(self, rows: slice) -> Iterator[ApplicationRecord]:
        from .dominance import ApplicationRecord

        columns = (self.ids[rows], self.group[rows].tolist(), self.ind[rows].tolist(),
                   self.qualified[rows].tolist())
        for applicant, g, (v1, v2, v3), qualified in zip(*columns):
            discipline, role, kind = self.groups[g]
            yield ApplicationRecord(
                applicant, *split_applicant_id(applicant), discipline, role,
                IndicatorVector(v1, v2, v3, kind), qualified,
            )


def _floats(values) -> array:
    """A float column as an ``array('d')``, with rows of (v1, v2, v3) flattened."""
    try:
        return array("d", values)
    except TypeError:
        return array("d", itertools.chain.from_iterable(values))


def _group_ids(buffer: array | np.ndarray) -> memoryview:
    """The items of an int32 buffer, as Python ints."""
    return memoryview(buffer).cast("B").cast("i")


def _table(ids, groups, group, ind, qualified) -> ApplicationTable:
    """A table that keeps its columns as given: C-contiguous buffers of int32 group ids,
    float64 indicators (three per row) and 0/1 outcomes, as the parser and synth make
    them, with the ids of names the parser checked or synth made without a line break."""
    codes = _group_ids(group)
    # the indicator column holds three float64 values, 24 bytes, per row
    lengths = {len(ids), len(codes), memoryview(ind).nbytes / 24, memoryview(qualified).nbytes}
    if len(lengths) > 1:
        raise ValueError(f"application columns of unequal lengths: {sorted(lengths)}")
    used = set(codes)
    if used and (min(used) < 0 or max(used) >= len(groups)):
        raise ValueError(f"group id outside the {len(groups)} groups")
    if len(used) < len(groups):
        keep = sorted(used)
        renumber = dict(zip(keep, range(len(keep))))
        group = array("i", map(renumber.__getitem__, codes))
        groups = [groups[g] for g in keep]
    return ApplicationTable(ids, tuple(groups), group, ind, qualified)


@contextmanager
def _open_text(source: str | Path | IO[str]) -> Iterator[IO[str]]:
    if isinstance(source, (str, Path)):
        # utf-8-sig drops the byte-order mark that spreadsheet exports put
        # before the header.
        with open(source, encoding="utf-8-sig", newline="") as handle:
            yield handle
    else:
        yield source


def _source_name(source: str | Path | IO[str]) -> str | Path:
    """How an input is named in messages: its path, or the name of the stream."""
    return source if isinstance(source, (str, Path)) else getattr(source, "name", "input")


def _undecodable(source: str | Path | IO[str], exc: UnicodeDecodeError) -> str:
    """The decode error, with the file and the physical line that holds the bad byte.

    The decoder reads the file in chunks, so the csv reader's line count does
    not say where the byte is; the file is scanned again, line by line.
    """
    if not isinstance(source, (str, Path)):
        return f"{_source_name(source)}: not UTF-8 text ({exc.reason})"
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


def _rows(
    source: str | Path | IO[str], columns: Sequence[str]
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """(line, fields) of every non-blank row, with the fields of `columns` in order.

    One csv.reader pass that reads rows as ``csv.DictReader(restval="")``
    does: blank rows are skipped, a short row is padded with "", extra
    fields are ignored, and a column named twice takes its last field.  The
    line is the reader's line count at the end of the row.  Fails fast on a
    missing header or column, on bytes that are not UTF-8, and on a row the
    csv module cannot read, such as one with a field over its size limit.
    """
    with _open_text(source) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{_source_name(source)}: input is empty, expected a header row")
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in columns if c not in position]
            if missing:
                raise ValueError(f"{_source_name(source)}: missing columns: {', '.join(missing)}")
            picks = [position[c] for c in columns]
            pick, width = operator.itemgetter(*picks), max(picks) + 1
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    row += [""] * (width - len(row))
                yield reader.line_num, pick(row)
        except UnicodeDecodeError as exc:
            raise ValueError(_undecodable(source, exc)) from None
        except csv.Error as exc:
            raise ValueError(f"{_source_name(source)}: line {reader.line_num}: {exc}") from None


def _fail(source: str | Path | IO[str], rows: Iterator, message: str) -> NoReturn:
    """Raise a hard error naming the input once the rest of it is read.

    An input that is not UTF-8 is reported as such, whichever row fails first.
    """
    for _ in rows:
        pass
    raise ValueError(f"{_source_name(source)}: {message}")


def _checked(code: str, build: Callable[..., _T], *args: object) -> _T:
    """build(*args), with a ValueError it raises turned into row damage of that code."""
    try:
        return build(*args)
    except ValueError as exc:
        raise _RowDamage(code, str(exc)) from None


def _parse_discipline(code: str, sub_discipline: str) -> DisciplineId:
    return _checked("discipline", DisciplineId.parse, code, sub_discipline.strip() or None)


def _parse_float(raw: str, column: str) -> float:
    raw = raw.strip()
    if not raw:
        raise _RowDamage("number", f"missing value in column {column}")
    try:
        return float(raw)
    except ValueError:
        raise _RowDamage("number", f"unparseable number {raw!r} in column {column}") from None


def _parse_role(raw: str) -> Role:
    raw = raw.strip()
    role = _ROLE_CODES.get(raw)
    if role is None:
        raise _RowDamage("role", f"unknown role {raw!r}, expected 1 or 2")
    return role


def _parse_kind(raw: str) -> IndicatorKind:
    kind = _KIND_CODES.get(raw.strip().upper())
    if kind is None:
        raise _RowDamage("kind", f"unknown kind {raw!r}, expected B or NB")
    return kind


def _parse_bool(raw: str) -> bool:
    flag = _FLAGS.get(raw.strip().lower())
    if flag is None:
        raise _RowDamage("boolean", f"unknown boolean {raw!r}, expected true or false")
    return flag


def _check_names(last: str, first: str) -> None:
    if not last or not first:
        raise _RowDamage("name", "missing applicant name")
    # a report CSV writes a bare \r unquoted, so the row would read back as two
    if "\n" in last or "\r" in last or "\n" in first or "\r" in first:
        raise _RowDamage("name", "line break in applicant name")


def applicant_id(last: str, first: str) -> str:
    """`last|first`, with `\\` and `|` inside a name escaped as `\\\\` and `\\|`.

    The escapes keep the id unambiguous: `A|B, C` and `A, B|C` differ.
    """
    if "|" in last or "\\" in last:
        last = last.replace("\\", "\\\\").replace("|", "\\|")
    if "|" in first or "\\" in first:
        first = first.replace("\\", "\\\\").replace("|", "\\|")
    return f"{last}|{first}"


def split_applicant_id(identity: str) -> tuple[str, str]:
    """The (last, first) names of an `applicant_id`, its exact inverse; a ValueError if it is none."""
    if "\\" not in identity and identity.count("|") == 1:  # nothing is escaped, so the one | splits it
        last, first = identity.split("|")
        return last, first
    # two runs of escapes (\\ or \|) and other characters, split by a bare |
    match = re.fullmatch(r"((?:[^\\|]|\\[\\|])*)\|((?:[^\\|]|\\[\\|])*)", identity)
    if match is None:
        raise ValueError(f"not an applicant id: {identity!r}")
    return tuple(re.sub(r"\\(.)", r"\1", name) for name in match.groups())


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
    entries: list[DisciplineRegistryEntry] = []
    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()
    rows = _rows(source, REGISTRY_COLUMNS)
    for line, (code, acronym, kind) in rows:
        try:
            discipline = _parse_discipline(code, "")
            entry = _checked(
                "registry", DisciplineRegistryEntry, discipline, acronym.strip(), _parse_kind(kind)
            )
        except _RowDamage as damage:
            diagnostics.append(Diagnostic(line, str(damage), code=damage.code))
            continue
        if discipline.code in seen:
            _fail(source, rows, f"line {line}: duplicate registry entry {discipline.code}")
        seen.add(discipline.code)
        entries.append(entry)
    return entries, diagnostics


def parse_applications(
    source: str | Path | IO[str],
    registry: Sequence[DisciplineRegistryEntry] | None = None,
) -> tuple[ApplicationTable, list[Diagnostic]]:
    """Application rows as an ApplicationTable; indicator kind comes from the registry.

    Malformed rows are skipped with a line-numbered diagnostic.  Duplicate
    (name, discipline, role) rows and disciplines the registry does not know
    are hard errors.  A regular file is first read by the block path
    (_parse_blocks), which reads a clean file exactly and declines any other;
    a declined file and a stream go through the row loop (_parse_rows).
    """
    if registry is None:
        registry = load_default_registry()
    kinds = {entry.discipline.code: entry.kind for entry in registry}
    if isinstance(source, (str, Path)):
        table = _parse_blocks(source, kinds)
        if table is not None:
            return table, []
    return _parse_rows(source, kinds)


class _Columns:
    """The columns and groups of a table that either parse path fills: gid() parses each
    distinct discipline, sub-discipline and role once; add() checks and appends every row."""

    def __init__(self, kinds: dict[str, IndicatorKind]) -> None:
        self.kinds = kinds
        # (code, sub-discipline, role) as written -> group id.  A group is a
        # (discipline, role, kind); kind is None for a discipline the registry lacks.
        self.group_ids: dict[tuple[str, str, str], int] = {}
        self.group_of: dict[tuple[DisciplineId, Role], int] = {}
        self.groups: list[tuple[DisciplineId, Role, IndicatorKind | None]] = []
        self.keys: list[tuple[str, str, str]] = []  # the first raw key of each group
        # The ids already read in each group, for the duplicate check.
        self.seen: list[set[str]] = []
        self.ids: list[str] = []
        # Typed buffers, not per-row objects: the group id, the three indicators
        # and the 0/1 outcome of each row.
        self.group, self.values, self.flags = array("i"), array("d"), bytearray()

    def gid(self, key: tuple[str, str, str]) -> int:
        """The group id of a raw (discipline, sub-discipline, role), numbered in order of
        first appearance; _RowDamage if the discipline or the role does not parse."""
        gid = self.group_ids.get(key)
        if gid is None:
            code, sub, role = key
            parsed = (_parse_discipline(code, sub), _parse_role(role))
            gid = self.group_ids[key] = self.group_of.setdefault(parsed, len(self.groups))
            if gid == len(self.groups):
                self.groups.append((*parsed, self.kinds.get(parsed[0].code)))
                self.keys.append(key)
                self.seen.append(set())
        return gid

    def add(self, gid: int, ids: list[str], values: Iterable[float], flags: Iterable[int]) -> bool:
        """Appends a run of rows of group `gid`: ids, indicators three per row, 0/1 outcomes.
        False, with nothing appended, if an id is already in the group or twice in the run."""
        seen = self.seen[gid]
        size = len(seen)
        seen.update(ids)
        if len(seen) != size + len(ids):
            return False
        self.ids += ids
        self.group.fromlist([gid] * len(ids))
        self.values.extend(values)
        self.flags.extend(flags)
        return True

    def table(self) -> ApplicationTable:
        # every name is checked before its row is added, so from_rows' check is not run
        return _table(self.ids, self.groups, self.group, self.values, self.flags)


def _parse_rows(source: str | Path | IO[str],
                kinds: dict[str, IndicatorKind]) -> tuple[ApplicationTable, list[Diagnostic]]:
    """The row loop: one csv.reader pass that adds each clean row to _Columns.  It reads every
    input and names the line of each diagnostic and hard error.  A group whose discipline the
    registry lacks is a hard error at its first row that passes the row checks."""
    columns = _Columns(kinds)
    diagnostics: list[Diagnostic] = []
    rows = _rows(source, APPLICATION_COLUMNS)
    for line, (last, first, code, sub, role_code, raw1, raw2, raw3, flag) in rows:
        try:
            gid = columns.gid((code, sub, role_code))
            try:
                v1, v2, v3 = float(raw1), float(raw2), float(raw3)
            except ValueError:
                v1, v2, v3 = map(_parse_float, (raw1, raw2, raw3), ("ind1", "ind2", "ind3"))
            qualified = _FLAGS.get(flag)
            if qualified is None:
                qualified = _parse_bool(flag)
            last, first = last.strip(), first.strip()
            _check_names(last, first)
        except _RowDamage as damage:
            diagnostics.append(Diagnostic(line, str(damage), code=damage.code))
            continue
        discipline, role, kind = columns.groups[gid]
        if kind is None:
            _fail(source, rows, f"line {line}: discipline {discipline.code} is not in the registry")
        if not (0 <= v1 < math.inf and 0 <= v2 < math.inf and 0 <= v3 < math.inf):
            try:
                IndicatorVector(v1, v2, v3, kind)
            except ValueError as exc:
                diagnostics.append(Diagnostic(line, str(exc), code="value"))
                continue
        identity = applicant_id(last, first)
        if not columns.add(gid, [identity], (v1, v2, v3), (qualified,)):
            _fail(source, rows, f"line {line}: duplicate application for {identity} "
                                f"in {discipline.code} role {role.value}")
    return columns.table(), diagnostics


# The most bytes of a file that the block path reads at once; each read is cut
# at its last line break.
_CHUNK_BYTES = 1 << 16
# Rows per block of a parsed file, of a CSV file written or of a report.json
# table: each block is split or formatted column by column, and is all of a
# table that is held as text.
BLOCK_ROWS = 1024
# The fewest rows that a second process parses or formats.  In a size sweep of
# national-300's groups (fresh processes, alternating pairs on a 2-vCPU host),
# neither the split parse nor the classified table's writer won reliably below
# about 18,000 rows, where a fork, its output and a reap cost about what they
# save, and both won at 21,000 and 24,000 rows; the 680-row demo round is read
# and written in one process.
FORK_ROWS = 20 * BLOCK_ROWS


def _forkable() -> bool:
    """Whether this process may fork a ForkedChild: os.memfd_create exists, no other
    thread runs, and the process may use two CPUs.  fork copies only the calling
    thread, so every OS thread counts, a BLAS pool's too; where /proc/self/task
    does not list them (outside Linux), the process does not fork."""
    if not hasattr(os, "memfd_create"):
        return False
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return threads == 1 and (cpus or 1) >= 2


def may_fork(rows: int) -> bool:
    """Whether work on `rows` rows goes to a ForkedChild: at least FORK_ROWS of them, in
    a process that may fork."""
    return rows >= FORK_ROWS and _forkable()


class ForkedChild:
    """`work(out)` in a forked child, when work on `rows` rows may fork (may_fork).

    The one place that decides to fork, forks, reaps and falls back.  Its
    caller starts it, does its own part, and calls wait(): that returns `out`
    from its start, or None when no child did the work (no fork was allowed,
    os.memfd_create or os.fork failed, the work raised or the child died), and
    then the caller does the child's part itself.  The child leaves by
    os._exit, with status 0 when `work` returns and 1 when it raises, so it
    never returns into the caller's code, runs no atexit handler and flushes
    none of the caller's stdio buffers.  `out`, its one way back, is an
    anonymous in-memory file opened before the fork: it needs no directory,
    and unlike a full pipe it never stops the child.  close(), and leaving a
    `with` block, kills the child if not reaped yet, reaps it and closes
    `out`: no child or file outlives its owner.
    """

    def __init__(self, work: Callable[[IO[bytes]], object], rows: int) -> None:
        self.pid: int | None = None
        self.out: IO[bytes] | None = None
        if not may_fork(rows):
            return
        try:
            self.out = open(os.memfd_create("asnqual", os.MFD_CLOEXEC), "w+b")
            self.pid = os.fork()
        except OSError:  # no output file or no fork: no child, so wait() returns None
            self.close()
        except BaseException:
            self.close()
            raise
        if self.pid == 0:
            status = 1
            try:
                work(self.out)
                self.out.flush()
                status = 0
            finally:
                os._exit(status)

    def wait(self) -> IO[bytes] | None:
        """Reaps the child once; `out` from its start when a child's work returned, else None."""
        if self.pid is not None:
            if os.waitpid(self.pid, 0)[1] != 0:
                self.out.close()
            self.pid = None
        if self.out is None or self.out.closed:
            return None
        self.out.seek(0)  # the child's writes moved the shared offset
        return self.out

    def close(self) -> None:
        if self.pid is not None:
            import signal  # loaded only when a child is stopped early

            os.kill(self.pid, signal.SIGKILL)
            self.wait()
        if self.out is not None:
            self.out.close()

    def __enter__(self) -> ForkedChild:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _Decline(Exception):
    """An input that the block path cannot read exactly; the row loop reads it."""


def _parse_blocks(path: str | Path, kinds: dict[str, IndicatorKind]) -> ApplicationTable | None:
    """The table of a regular file with no damaged row, read in blocks of columns; None
    for any other file, which the row loop then reads from the start.

    The file is cut at the first line break past its midpoint.  This process
    parses the first half and a ForkedChild the second, on a fork rule given
    the file's rows as estimated from the length of its first row.  The child
    opens the file anew, so as not to move this process's offset, and sends
    its columns as one marshal payload, or None when its half declines; when
    no child did the work, this process parses the second half too.  A FIFO
    or other special file is never opened here, since a second read would
    not see its data.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, "rb") as handle:
            blocks = _Blocks(handle, kinds)
            start, end = handle.tell(), os.fstat(handle.fileno()).st_size
            rows = (end - start) // max(1, len(handle.readline(blocks.limit + 1)))
            handle.seek(max(start, end // 2))
            cut = handle.tell() if handle.readline(blocks.limit + 1).endswith(b"\n") else end

            def send(out: IO[bytes]) -> None:  # in the child
                payload = marshal.dumps(None)  # if the half declines
                with open(path, "rb") as own, suppress(_Decline):
                    payload = blocks.read(own, cut, end).payload()
                out.write(payload)

            with ForkedChild(send, rows) as child:
                blocks.read(handle, start, cut)
                out = child.wait()
                if out is None:
                    blocks.read(handle, cut, end)
                else:
                    blocks.merge(marshal.loads(out.read()))  # marshal.load(out) reads piece by piece
            return blocks.table()
    except (_Decline, OSError):
        return None


class _Blocks(_Columns):
    """The columns of a file's rows, parsed 1,024 lines at a time with one split per
    block; it raises _Decline at anything the row loop would not read as a clean row.

    A clean row has as many commas as the header and no quote, carriage
    return or NUL; its names are not blank, its discipline and role parse,
    its discipline is in the registry, its three indicators are finite and
    not negative, its flag is exactly ``true`` or ``false``, and its
    applicant is not already in its group.  Its line holds at most
    csv.field_size_limit() characters.  On such rows the columns are those
    the row loop makes, with groups numbered in order of first appearance.
    """

    def __init__(self, handle: IO[bytes], kinds: dict[str, IndicatorKind]) -> None:
        """Reads the header line of `handle`, leaving it at the first row."""
        super().__init__(kinds)
        self.limit = csv.field_size_limit()
        line = handle.readline(self.limit + 1)
        try:
            header = line.decode("utf-8-sig").removesuffix("\n")
        except UnicodeDecodeError:
            raise _Decline from None
        position = {name: i for i, name in enumerate(header.split(","))}
        if len(line) > self.limit or any(c in header for c in '"\r\0') or not all(
            c in position for c in APPLICATION_COLUMNS
        ):
            raise _Decline
        self.commas = header.count(",")
        self.picks = [position[c] for c in APPLICATION_COLUMNS]

    def read(self, handle: IO[bytes], start: int, end: int) -> _Blocks:
        """Parse the rows in bytes [start, end) of the file, which end at a line break or
        at the end of the file, reading at most _CHUNK_BYTES and one line at once."""
        handle.seek(start)
        partial = b""  # the start of a line that the last read cut
        while start < end:
            data = handle.read(min(_CHUNK_BYTES, end - start))
            if not data:
                raise _Decline  # the file shrank while it was read
            start += len(data)
            data = partial + data
            whole = len(data) if start == end else data.rfind(b"\n") + 1
            partial = data[whole:]
            if len(partial) > self.limit:
                raise _Decline
            self._lines(data[:whole])
        return self

    def _lines(self, data: bytes) -> None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            raise _Decline from None
        if '"' in text or "\r" in text or "\0" in text:
            raise _Decline
        lines = text.split("\n")
        if len(text) > self.limit and max(map(len, lines)) > self.limit:
            raise _Decline
        for lo in range(0, len(lines), BLOCK_ROWS):
            self._block(list(filter(None, lines[lo:lo + BLOCK_ROWS])))  # blank lines are skipped

    def _block(self, lines: list[str]) -> None:
        if not lines:
            return
        if set(map(str.count, lines, itertools.repeat(","))) != {self.commas}:
            raise _Decline
        text = ",".join(lines)
        fields = text.split(",")
        width = self.commas + 1
        last, first, code, sub, role, raw1, raw2, raw3, flag = (fields[p::width] for p in self.picks)
        last, first = list(map(str.strip, last)), list(map(str.strip, first))
        if "" in last or "" in first:
            raise _Decline
        if "|" in text or "\\" in text:
            ids = list(map(applicant_id, last, first))
        else:
            ids = list(map("|".join, zip(last, first)))
        raw = [""] * (3 * len(lines))
        raw[0::3], raw[1::3], raw[2::3] = raw1, raw2, raw3
        try:
            values = list(map(float, raw))
            flags = bytes(map(_FLAGS.__getitem__, flag))
        except (ValueError, KeyError):
            raise _Decline from None
        # a NaN, an infinity or an overflow makes the sum NaN or infinite
        if min(values) < 0 or not sum(values) < math.inf:
            raise _Decline
        # as an array, so that each run is appended by one copy
        self._add_runs(zip(code, sub, role), self._gid, ids, array("d", values), flags)

    def _add_runs(self, keys: Iterable, gid: Callable, ids: list, values: Sequence, flags: bytes) -> None:
        """Adds rows one run of equal keys at a time, each with the group id gid(key)."""
        lo = 0
        for key, run in itertools.groupby(keys):
            hi = lo + len(list(run))
            if not self.add(gid(key), ids[lo:hi], values[3 * lo:3 * hi], flags[lo:hi]):
                raise _Decline  # a duplicate application, in one half or across the halves
            lo = hi

    def _gid(self, key: tuple[str, str, str]) -> int:
        """The group id of a raw key; declined if the key does not parse or the registry lacks it."""
        try:
            gid = self.gid(key)
        except _RowDamage:
            raise _Decline from None
        if self.groups[gid][2] is None:
            raise _Decline
        return gid

    def payload(self) -> bytes:
        """The columns as a child sends them: ids, each group's first raw key, buffers as bytes."""
        return marshal.dumps((self.ids, self.keys, self.group.tobytes(), self.values.tobytes(),
                              bytes(self.flags)))

    def merge(self, columns: tuple | None) -> None:
        """Adds the rows of a child's loaded payload after these, by add() too; None, from a
        half that declined, declines here."""
        if columns is None:
            raise _Decline
        ids, keys, group, values, flags = columns
        # the child's groups, renumbered: ours first, then its new ones in its order
        renumber = list(map(self._gid, keys))
        self._add_runs(array("i", group), renumber.__getitem__, ids, array("d", values), flags)


def parse_medians(
    source: str | Path | IO[str],
) -> tuple[list[MedianSet], list[Diagnostic]]:
    """Median threshold rows; zero bibliometric medians draw a warning.

    Duplicate (discipline, sub-discipline, role) rows are a hard error.
    """
    sets: list[MedianSet] = []
    diagnostics: list[Diagnostic] = []
    seen: set[tuple[str, str | None, Role]] = set()
    rows = _rows(source, MEDIAN_COLUMNS)
    for line, (code, sub, role, kind, *raw) in rows:
        try:
            discipline = _parse_discipline(code, sub)
            role = _parse_role(role)
            kind = _parse_kind(kind)
            medians = map(_parse_float, raw, ("m1", "m2", "m3"))
            median_set = _checked("value", MedianSet, discipline, role, *medians, kind)
        except _RowDamage as damage:
            diagnostics.append(Diagnostic(line, str(damage), code=damage.code))
            continue
        key = (discipline.code, discipline.sub_discipline, role)
        if key in seen:
            _fail(
                source, rows,
                f"line {line}: duplicate median set for {discipline.code} "
                f"sub={discipline.sub_discipline or '-'} role {role.value}",
            )
        seen.add(key)
        if kind is IndicatorKind.BIBLIOMETRIC and median_set.zero_components() > 0:
            diagnostics.append(Diagnostic(
                line, f"zero median in bibliometric {discipline.code}", "warning", "zero-median"
            ))
        sets.append(median_set)
    return sets, diagnostics


@dataclass(frozen=True)
class RoundDataset:
    """One qualification round: applications, thresholds, registry.

    Applications given as records are converted to an ApplicationTable.
    """

    applications: ApplicationTable
    medians: tuple[MedianSet, ...]
    registry: tuple[DisciplineRegistryEntry, ...]

    def __init__(
        self,
        applications: ApplicationTable | Iterable[ApplicationRecord],
        medians: Iterable[MedianSet],
        registry: Iterable[DisciplineRegistryEntry],
    ) -> None:
        if not isinstance(applications, ApplicationTable):
            applications = ApplicationTable.from_records(applications)
        object.__setattr__(self, "applications", applications)
        object.__setattr__(self, "medians", tuple(medians))
        object.__setattr__(self, "registry", tuple(registry))

    def median_index(self) -> MedianIndex:
        return MedianIndex(self.medians)

    def registry_kinds(self) -> dict[str, IndicatorKind]:
        return {entry.discipline.code: entry.kind for entry in self.registry}

    def validate(self) -> list[str]:
        """Cross-collection consistency problems; empty means valid.

        Each group of applications is checked once; its problems are then
        listed for every application in it, in row order.
        """
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
        table = self.applications
        found: list[list[str]] = []
        for discipline, role, kind in table.groups:
            expected = kinds.get(discipline.code)
            if expected is None:
                found.append([f"discipline {discipline.code} not in registry"])
                continue
            found.append([])
            if kind is not expected:
                found[-1].append(f"indicator kind {kind.value} disagrees with registry")
            try:
                index.resolve(discipline, role)
            except KeyError:
                found[-1].append(f"no median set for {discipline.code} role {role.value}")
        if any(found):
            for i, g in enumerate(_group_ids(table.group_buffer)):
                problems.extend(f"application {table.ids[i]}: {p}" for p in found[g])
        return problems


def load_round(
    applications_path: str | Path,
    medians_path: str | Path,
    registry_path: str | Path | None = None,
) -> tuple[RoundDataset, list[Diagnostic]]:
    """Parse a full round from disk, pooling the row diagnostics of its two files, each naming
    its file.  A damaged row of a given registry is a hard error, as in the bundled registry."""
    if registry_path is None:
        registry = load_default_registry()
    else:
        registry, damaged = parse_registry(registry_path)
        if damaged:
            raise ValueError(f"{registry_path}: line {damaged[0].line}: {damaged[0].message}")
    applications, app_diags = parse_applications(applications_path, registry)
    medians, median_diags = parse_medians(medians_path)
    diagnostics = [replace(d, source=str(path)) for path, diags in
                   ((applications_path, app_diags), (medians_path, median_diags)) for d in diags]
    return RoundDataset(applications, medians, registry), diagnostics


def number_cells(values: Iterable[float], nan: str = "nan", below: float = math.inf) -> list[str]:
    """Cells of Python floats: NaN as `nan`, integral values under `below` as integers, else repr.
    Not array scalars, whose repr names their type, nor ints (no is_integer before 3.12): list arrays."""
    return [(str(int(v)) if abs(v) < below else repr(v)) if v.is_integer() else nan if v != v else repr(v)
            for v in values]


def _plain(cells: Sequence[str]) -> bool:
    """Whether no cell holds a comma, a quote or a line break: the block needs no quoting."""
    text = "".join(cells)
    return not any(special in text for special in ',"\r\n')


@contextmanager
def output_file(path: str | Path) -> Iterator[IO[str]]:
    """A UTF-8 text file written as `<name>.part` and renamed over `path` once complete.

    The directory is created; a failed write leaves no file, and its OSError names `path`.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(part, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(part, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(OSError):  # gone after the rename, or never made
            part.unlink()


def write_csv(
    target: str | Path | IO[str], header: Sequence[str], n_rows: int, block: Callable[[slice], list]
) -> None:
    """CSV of `n_rows` rows, `BLOCK_ROWS` at a time; `block(rows)` gives their cells by column.

    A cell is quoted only when it holds a comma, a quote or a newline.  A
    block of more than one column with no comma, quote or line break in
    any cell is joined as it is; any other goes through csv.writer, which
    also writes a row of one empty cell as "".
    """
    if isinstance(target, (str, Path)):
        with output_file(target) as handle:
            return write_csv(handle, header, n_rows, block)
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    for lo in range(0, n_rows, BLOCK_ROWS):
        cells = block(slice(lo, lo + BLOCK_ROWS))
        if len(cells) > 1 and all(map(_plain, cells)):
            target.write("\n".join(map(",".join, zip(*cells))) + "\n")
        else:
            writer.writerows(zip(*cells))


def write_applications(table: ApplicationTable, target: str | Path | IO[str]) -> None:
    """The applications as CSV, each block of rows formatted column by column."""
    labels = [(d.code, d.sub_discipline or "", str(r.value)) for d, r, _ in table.groups]
    write_csv(target, APPLICATION_COLUMNS, len(table), lambda rows: [
        *zip(*map(split_applicant_id, table.ids[rows])),
        *zip(*map(labels.__getitem__, table.group[rows].tolist())),
        *map(number_cells, table.ind[rows].T.tolist()),
        [("false", "true")[q] for q in table.qualified[rows].tolist()],
    ])


def write_medians(sets: Iterable[MedianSet], target: str | Path | IO[str]) -> None:
    sets = list(sets)
    labels = [(m.discipline.code, m.discipline.sub_discipline or "", str(m.role.value),
               _KIND_TO_CODE[m.kind]) for m in sets]
    write_csv(target, MEDIAN_COLUMNS, len(sets), lambda rows: [
        *zip(*labels[rows]), *map(number_cells, zip(*(m.as_tuple() for m in sets[rows])))
    ])


def write_registry(entries: Iterable[DisciplineRegistryEntry], target: str | Path | IO[str]) -> None:
    rows = [(e.discipline.code, e.area_acronym, _KIND_TO_CODE[e.kind]) for e in entries]
    write_csv(target, REGISTRY_COLUMNS, len(rows), lambda block: list(zip(*rows[block])))
