"""The streaming column parser and the block writer against their frozen
per-row references (ingest_reference.py).

The parser's inputs are the fuzz corpus of test_cli_fuzz.py plus what
csv.DictReader has rules for: blank lines, short and long rows, a column
named twice, every line ending and quoted fields that span lines; files may
start with a byte-order mark and hold a byte that is not UTF-8 past the
first decode chunk.  The records, the (line, message, severity) of every
diagnostic and any hard error must be the same.  The writer's inputs are
tables one row short of, at, and past the 1,024-row block, with names that
need quoting and values at the edges of the integer and repr forms; the
bytes must be the same.
"""

import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asnqual.indicators import IndicatorKind
from asnqual.ingest import (
    ApplicationTable,
    load_default_registry,
    parse_applications,
    write_applications,
)
from asnqual.thresholds import DisciplineId, Role
from ingest_reference import reference_parse_applications, reference_write_applications
from test_cli_fuzz import APPLICATIONS, NEWLINES, csv_text, damaged_csv

REGISTRY = load_default_registry()
# The text decoder reads a file in chunks of this many bytes.
DECODE_CHUNK = 8192


def outcome(parse, source):
    try:
        records, diagnostics = parse(source, REGISTRY)
    except (ValueError, csv.Error) as exc:
        return ("hard error", type(exc).__name__, str(exc))
    triples = [d if isinstance(d, tuple) else (d.line, d.message, d.severity) for d in diagnostics]
    return ("parsed", list(records), triples)


@st.composite
def reshaped_csv(draw):
    """The fuzz round with a column named twice, short and long rows, a quoted
    line break, blank lines, and any line ending on every line."""
    header, *rows = [list(r) for r in APPLICATIONS]
    if draw(st.booleans()):
        name = draw(st.sampled_from(header))
        column = header.index(name)
        header.append(name)
        for row in rows:
            row.append(draw(st.sampled_from([row[column], "", "x", "2", "-1", " true "])))
    for row in rows:
        shape = draw(st.sampled_from(["whole", "whole", "short", "long"]))
        if shape == "short":
            del row[draw(st.integers(0, len(row) - 1)):]
        elif shape == "long":
            row += draw(st.lists(st.sampled_from(["", "x", "1"]), min_size=1, max_size=3))
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        if row:
            column = draw(st.integers(0, len(row) - 1))
            row[column] += draw(NEWLINES) + draw(st.sampled_from(["", "x", "1"]))
    lines = [header, *rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), [])
    return "".join(csv_text([line], draw(NEWLINES)) for line in lines)


def padding(rows):
    """Valid rows of distinct applicants, enough to fill the first decode chunk."""
    return csv_text([[f"Pad{i}", "Ada", "01/A1", "", "1", "1", "2", "3", "true"] for i in range(rows)])


@given(
    damaged_csv(APPLICATIONS) | reshaped_csv(),
    st.booleans(),
    st.none() | st.floats(0.0, 1.0),
)
def test_columns_match_the_per_row_reference(text, bom, bad_byte_at):
    data = text.encode("utf-8")
    if bad_byte_at is not None:
        # a byte that is not UTF-8, after a hard error the damaged rows may hold
        data += padding(400).encode("utf-8")
        cut = DECODE_CHUNK + int(bad_byte_at * (len(data) - DECODE_CHUNK))
        data = data[:cut] + b"\xff" + data[cut:]
    if bom:
        data = b"\xef\xbb\xbf" + data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "applications.csv"
        path.write_bytes(data)
        expected = outcome(reference_parse_applications, path)
        assert outcome(parse_applications, path) == expected
    if bad_byte_at is not None:
        # the decode error, or an error in the header, which is read first
        assert expected[0] == "hard error"
        assert "not UTF-8 text" in expected[2] or "column" in expected[2]


@given(reshaped_csv(), st.sampled_from(["", None]))
def test_text_streams_match_the_per_row_reference(text, newline):
    # a stream that splits lines at "\n" only fails in the csv reader on a bare "\r"
    expected = outcome(reference_parse_applications, io.StringIO(text, newline=newline))
    assert outcome(parse_applications, io.StringIO(text, newline=newline)) == expected


def test_blank_lines_are_skipped_but_counted():
    text = csv_text(APPLICATIONS[:2]) + "\n\n" + csv_text([APPLICATIONS[2][:5] + ["x", "1", "1", "true"]])
    records, diagnostics = parse_applications(io.StringIO(text), REGISTRY)
    assert len(records) == 1
    assert [(d.line, d.code) for d in diagnostics] == [(5, "number")]
    assert outcome(reference_parse_applications, io.StringIO(text))[2] == [
        (5, "unparseable number 'x' in column ind1", "error")
    ]


def test_a_column_named_twice_reads_its_last_field():
    rows = [APPLICATIONS[0] + ["ind1"], APPLICATIONS[1] + ["7.5"], APPLICATIONS[2][:3]]
    records, diagnostics = parse_applications(io.StringIO(csv_text(rows)), REGISTRY)
    assert [r.indicators.ind1 for r in records] == [7.5]
    # the short row is padded with "", so its last ind1 is missing, not "12"
    assert [(d.line, d.message) for d in diagnostics] == [(3, "unknown role '', expected 1 or 2")]
    assert outcome(reference_parse_applications, io.StringIO(csv_text(rows)))[1:] == (
        list(records), [(3, "unknown role '', expected 1 or 2", "error")]
    )


@pytest.mark.parametrize("damage", [
    APPLICATIONS[1],
    ["Rossi", "Maria", "01/A9", "", "1", "1", "1", "1", "true"],
])
def test_a_byte_past_the_first_chunk_wins_over_an_earlier_hard_error(tmp_path, damage):
    path = tmp_path / "applications.csv"
    path.write_bytes(csv_text([*APPLICATIONS, damage]).encode() + padding(400).encode() + b"\xff\n")
    expected = outcome(reference_parse_applications, path)
    assert expected == ("hard error", "ValueError", f"{path}: line {len(APPLICATIONS) + 402}: "
                        "not UTF-8 text (invalid start byte at byte 1 of the line)")
    assert outcome(parse_applications, path) == expected


def test_padding_fills_the_first_decode_chunk():
    # so the bad byte above always lies past the first chunk
    assert len(padding(400).encode()) > DECODE_CHUNK


GROUPS = [
    (DisciplineId.parse("01/A1"), Role.FULL, IndicatorKind.BIBLIOMETRIC),
    (DisciplineId.parse("08/C1"), Role.ASSOCIATE, IndicatorKind.NON_BIBLIOMETRIC),
    (DisciplineId.parse("13/A5", "13/A5-x"), Role.FULL, IndicatorKind.NON_BIBLIOMETRIC),
]
# Each side of the integral test: signed zero, the least subnormal, 2**53 + 1
# (a double only as 2**53), 1e16 (where the report's float rule turns to repr)
# and beyond.
EDGE_VALUES = [-0.0, 5e-324, float(2**53 + 1), 1e16, 1e20, 0.1, 3.0]
# A block with one of these characters in a name goes through csv.writer.
NAMES = st.text(alphabet=st.sampled_from(',"|\\ab'), min_size=1, max_size=4)


@st.composite
def application_tables(draw, finite=False):
    """A table of 1,023 to 2,049 rows: edge values, and special names at a few rows."""
    n = draw(st.sampled_from([1023, 1024, 1025, 2049]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = EDGE_VALUES if finite else [*EDGE_VALUES, math.inf, -math.inf, math.nan]
    ind = rng.choice(values, size=(n, 3))
    drawn = rng.random((n, 3)) < 0.5
    ind[drawn] = rng.lognormal(1.0, 2.0, drawn.sum())
    last = [f"Applicant-{i}" for i in range(n)]
    first = ["Synth"] * n
    if not finite:
        for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            last[row], first[row] = draw(NAMES), draw(NAMES)
    group = rng.integers(0, len(GROUPS), n)
    ids = [f"{a}|{b}" for a, b in zip(last, first)]
    return ApplicationTable.from_rows(ids, last, first, GROUPS, group, ind, rng.random(n) < 0.5)


@settings(max_examples=25, deadline=None)
@given(application_tables())
def test_written_round_is_the_per_row_writer_text(table):
    expected = io.StringIO()
    reference_write_applications(table, expected)
    written = io.StringIO()
    write_applications(table, written)
    assert written.getvalue() == expected.getvalue()


@settings(max_examples=10, deadline=None)
@given(application_tables(finite=True))
def test_a_written_round_reads_back_equal(table):
    text = io.StringIO()
    write_applications(table, text)
    parsed, diagnostics = parse_applications(io.StringIO(text.getvalue()), REGISTRY)
    assert diagnostics == []
    assert parsed == table
