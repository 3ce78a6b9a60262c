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
bytes must be the same.  The writers read the names back from the ids, so
both inverses of applicant_id must give back every pair of names.
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

from asnqual import ingest
from asnqual.indicators import IndicatorKind
from asnqual.ingest import (
    ApplicationTable,
    applicant_id,
    load_default_registry,
    parse_applications,
    split_applicant_id,
    write_applications,
)
from asnqual.thresholds import DisciplineId, Role
from ingest_reference import reference_parse_applications, reference_write_applications
from ingest_reference import split_applicant_id as reference_split_applicant_id
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
    return ApplicationTable.from_rows(last, first, GROUPS, group, ind, rng.random(n) < 0.5)


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


ID_NAMES = st.text(alphabet=st.sampled_from('|\\ab\r\n,"'), max_size=6)


@settings(max_examples=500)
@pytest.mark.parametrize("split", [split_applicant_id, reference_split_applicant_id],
                         ids=["split_applicant_id", "reference"])
@given(ID_NAMES, ID_NAMES)
def test_the_names_are_read_back_from_their_id(split, last, first):
    assert split(applicant_id(last, first)) == (last, first)


# The block path and the split.  Each round below has at least three 1,024-line
# blocks, so each half of a split file holds two.  A clean round is read by the
# block path and any other by the row loop; either way the outcome must be the
# reference's, whether the file is read in two processes or in one.
ROUND_ROWS = 2100


def cut_of(data):
    """Where the split cuts a file: after the first line break past its midpoint."""
    return data.index(b"\n", len(data) // 2) + 1


def round_lines(rows=ROUND_ROWS):
    return [csv_text(APPLICATIONS[:1]), *padding(rows).splitlines(keepends=True)]


def with_line(line, where):
    """A round with `line` in its first half, its second half, or first after the cut."""
    lines = round_lines(ROUND_ROWS + len(line) // 16)  # a long line still fits in a half
    if where != "after the cut":
        lines.insert(len(lines) // 4 if where == "first half" else 3 * len(lines) // 4, line)
        return "".join(lines).encode()
    middle, end = (len("".join(lines)) + len(line)) // 2, 0
    at = next(at for at, text in enumerate(lines, 1) if (end := end + len(text)) > middle)
    data = "".join(lines[:at] + [line] + lines[at:]).encode()
    assert data[cut_of(data):].startswith(line.encode())
    return data


@pytest.fixture(params=["split", "one process"])
def split(request, monkeypatch):
    monkeypatch.setattr(ingest, "_forkable", lambda: request.param == "split")
    monkeypatch.setattr(ingest, "FORK_ROWS", ingest.BLOCK_ROWS)  # under ROUND_ROWS
    return request.param


def where_and_split(*wheres):
    """The places of a line in a split file, and the first of them in a file that one
    process reads, where the place makes no difference."""
    return pytest.mark.parametrize("where, forkable", [*((w, True) for w in wheres), (wheres[0], False)],
                                   ids=[*wheres, "one process"])


def assert_parsed_as_the_reference(path):
    expected = outcome(reference_parse_applications, path)
    assert outcome(parse_applications, path) == expected
    if expected[0] == "parsed":  # the row loop's table, group order and buffers too
        table, _ = parse_applications(path, REGISTRY)
        rows, _ = ingest._parse_rows(path, {e.discipline.code: e.kind for e in REGISTRY})
        assert (table.ids, table.groups) == (rows.ids, rows.groups)
        assert [bytes(b) for b in (table.group_buffer, table.ind_buffer, table.qualified_buffer)] == [
            bytes(b) for b in (rows.group_buffer, rows.ind_buffer, rows.qualified_buffer)]
    return expected


def row(last="Rossi", first="Maria", discipline="01/A1", sub="", role="1", ind=("1", "2", "3"),
        qualified="true", end="\n"):
    return ",".join([last, first, discipline, sub, role, *ind, qualified]) + end


# Each damage of damaged_csv as one line, and the lines that csv reads as a clean
# row but the block path declines.
LINES = {
    "huge number": row(ind=("1e400", "2", "3")),
    "nan": row(ind=("1", "nan", "3")),
    "negative": row(ind=("1", "2", "-1")),
    "sum past the largest float": row(ind=("1.7e308", "1.7e308", "1")),
    "400 digits": row(ind=("1" * 400, "2", "3")),
    "unparseable number": row(ind=("x", "2", "3")),
    "missing number": row(ind=("1", "", "3")),
    "role 3": row(role="3"),
    "malformed discipline": row(discipline="1/A1"),
    "discipline not in the registry": row(discipline="01/A9"),
    "discipline with no median set": row(discipline="01/A2"),
    "bad flag": row(qualified="yes"),
    "flag in capitals": row(qualified="TRUE"),
    "flag with spaces": row(qualified=" true "),
    "blank name": row(last="  "),
    "duplicate": row(last="Pad7", first="Ada"),
    "other role": row(last="Pad7", first="Ada", role="2"),
    "quoted line break in a name": row(last='"Ro\nssi"'),
    "carriage return in a name": row(last="Ro\rssi"),
    "quoted line break in a sub-discipline": row(sub='"x\ny"'),
    "short row": row()[:-len(",true\n")] + "\n",
    "long row": row(qualified="true,x"),
    # the two rows' fields, taken together, are as many as two whole rows hold
    "long row, then short row": row(qualified="true,Cy") + "Dee,01/A1,,1,1,2,3,true\n",
    "CRLF line end": row(end="\r\n"),
    "NUL": row(last="Ro\0ssi"),
    "quoted field": row(last='"Rossi, Jr"'),
    "names holding | and \\": row(last="Ro|ssi", first="Ma\\ria"),
    "line over the csv field limit": row(last="R" * 70_000, first="M" * 70_000),
    "sub-discipline": row(discipline="13/A5", sub="13/A5-x"),
}


@where_and_split("first half", "second half", "after the cut")
@pytest.mark.parametrize("name", sorted(LINES))
def test_a_line_anywhere_in_a_split_round_is_read_as_the_reference(tmp_path, monkeypatch, name, where, forkable):
    monkeypatch.setattr(ingest, "_forkable", lambda: forkable)
    monkeypatch.setattr(ingest, "FORK_ROWS", ingest.BLOCK_ROWS)  # under ROUND_ROWS
    path = tmp_path / "applications.csv"
    path.write_bytes(with_line(LINES[name], where))
    assert_parsed_as_the_reference(path)


def test_padding_makes_a_round_of_three_blocks_per_file_and_two_per_half():
    data = "".join(round_lines()).encode()
    assert data.count(b"\n") > 2 * ingest.BLOCK_ROWS
    assert data[:cut_of(data)].count(b"\n") > ingest.BLOCK_ROWS


def write_round(tmp_path, lines):
    path = tmp_path / "applications.csv"
    path.write_bytes("".join(lines).encode() if isinstance(lines, list) else lines)
    return path


def test_a_clean_round_is_read_as_the_reference(tmp_path, split):
    expected = assert_parsed_as_the_reference(write_round(tmp_path, round_lines()))
    assert expected[0] == "parsed" and len(expected[1]) == ROUND_ROWS and expected[2] == []


@pytest.mark.parametrize("copies", [(100, 300), (1600, 1900), (100, 1900)],
                         ids=["first half", "second half", "straddling the cut"])
def test_a_duplicate_in_either_half_or_across_the_cut_is_the_hard_error(tmp_path, split, copies):
    lines = round_lines()
    lines.insert(copies[1], lines[copies[0]])
    expected = assert_parsed_as_the_reference(write_round(tmp_path, lines))
    assert expected[0] == "hard error" and "duplicate application for Pad" in expected[2]


def test_groups_across_the_cut_and_first_seen_after_it_are_numbered_as_the_reference(tmp_path, split):
    def rows(n, start, **fields):
        return [row(last=f"App{i}", first="Bo", **fields) for i in range(start, start + n)]

    lines = [csv_text(APPLICATIONS[:1]),
             *rows(900, 0),                           # first half only
             *rows(600, 0, discipline="13/A5"),       # straddles the cut
             *rows(300, 0, discipline="01/A2", role="2"),
             *rows(200, 900),                         # 01/A1 role 1 again, after the cut
             *rows(100, 0, discipline="08/C1", sub="08/C1-a"),
             *rows(100, 1100, sub=" ", role=" 1 ")]   # another spelling of 01/A1 role 1
    path = write_round(tmp_path, lines)
    data = path.read_bytes()
    assert b"13/A5" in data[:cut_of(data)] and b"13/A5" in data[cut_of(data):]
    expected = assert_parsed_as_the_reference(path)
    assert expected[0] == "parsed" and len(expected[1]) == 2200


@pytest.mark.parametrize("edit", [
    lambda text: "﻿" + text,
    lambda text: text + "\n",
    lambda text: text.replace(",1,1,2,3,true\n", ",1,1,2,3,true\n\n", 5),
    lambda text: text[:-1],
    lambda text: text[:-5],
    lambda text: text.replace("\n", "\r\n"),
    lambda text: "qualified,ind3,ind2,ind1,role,sub_discipline,discipline,first_name,last_name\n" + "\n".join(
        ",".join(reversed(line.split(","))) for line in text.splitlines()[1:]) + "\n",
    lambda text: "qualified,ind3,ind2,ind1,role,sub_discipline,discipline,first_name,last_name\n"
                 + text.split("\n", 1)[1],
    lambda text: text.replace("last_name", "last_name,note", 1).replace(",true\n", ",true,\n"),
], ids=["BOM", "trailing blank line", "blank lines", "no final line break", "truncated row",
        "CRLF line ends", "reordered header", "header alone reordered", "unused column"])
def test_whole_file_shapes_are_read_as_the_reference(tmp_path, split, edit):
    text = "".join(round_lines()).replace("Pad", "Pad ", 1)
    assert_parsed_as_the_reference(write_round(tmp_path, [edit(text)]))


def test_a_bad_byte_after_the_cut_wins_over_a_hard_error_before_it(tmp_path, split):
    lines = round_lines()
    lines.insert(300, row(discipline="01/A9"))
    data = "".join(lines).encode()
    cut = cut_of(data)
    path = write_round(tmp_path, data[:cut + 40] + b"\xff" + data[cut + 40:])
    expected = assert_parsed_as_the_reference(path)
    assert expected[0] == "hard error" and "not UTF-8 text" in expected[2]
