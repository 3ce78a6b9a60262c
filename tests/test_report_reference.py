"""The report pipeline against its frozen per-record reference (report_reference.py).

Small generated rounds cover what the golden round does not: ties and
constant indicator columns, groups with nobody over or under the median,
disciplines that have one role only, sub-disciplines with and without
their own median set (an empty one too), zero medians, signed zeros, and names holding a
comma, a quote, a bar or a backslash.  Every CSV table and report.json
must be byte-identical.  The streamed report.json writer is also checked
against json.dumps on generated tables of every value type, one type per
column.
"""

import csv
import enum
import io
import json
import math
import tempfile
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asnqual.dominance import ApplicationRecord
from asnqual.indicators import IndicatorKind, IndicatorVector
from asnqual.ingest import RoundDataset, applicant_id, load_default_registry
from asnqual import ingest as ingest_module
from asnqual import report as report_module
from asnqual.report import (
    _csv_column,
    _json_column,
    _write_csv,
    _write_json,
    analyze_round,
    emit,
)
from asnqual.thresholds import DisciplineId, MedianSet, MedianTag, Role, Standing
from report_reference import cell, jsonable, reference_emit, reference_tables

B = IndicatorKind.BIBLIOMETRIC
NB = IndicatorKind.NON_BIBLIOMETRIC
REGISTRY = tuple(load_default_registry())
CODES = [("01/A1", B), ("01/B1", B), ("10/A1", NB), ("13/A5", NB)]
INDICATORS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 7.25, 5e-324, 12.0])
MEDIANS = st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0])
NAMES = st.text(alphabet='ab,"|\\ ', min_size=1, max_size=3)


def triple(values):
    return st.tuples(values, values, values)


@st.composite
def rounds(draw):
    applications, medians = [], []
    for code, kind in draw(st.lists(st.sampled_from(CODES), min_size=1, max_size=3, unique=True)):
        roles = draw(st.sampled_from([(Role.FULL,), (Role.ASSOCIATE,), tuple(Role)]))
        for role in roles:
            # "" is a sub-discipline of its own that sorts with the discipline level
            subs = draw(st.lists(st.sampled_from(["x", "y", ""]), unique=True, max_size=2))
            own = [s for s in subs if draw(st.booleans())]
            # without a discipline-level set, every application needs a sub-discipline set
            top = not own or draw(st.booleans())
            for sub in ([None] if top else []) + own:
                medians.append(MedianSet(DisciplineId.parse(code, sub), role, *draw(triple(MEDIANS)), kind))
            constant = draw(triple(INDICATORS)) if draw(st.booleans()) else None
            for _ in range(draw(st.integers(0, 7))):
                sub = draw(st.sampled_from(([None] + subs) if top else own))
                last, first = draw(NAMES), draw(NAMES)
                vector = constant or draw(triple(INDICATORS))
                applications.append(ApplicationRecord(
                    applicant_id(last, first), last, first, DisciplineId.parse(code, sub), role,
                    IndicatorVector(*vector, kind), draw(st.booleans()),
                ))
    applications = draw(st.permutations(applications))
    return RoundDataset(applications, medians, REGISTRY)


def written(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# Blocks of 1 and 3 rows make the emit and the iteration read the classified
# columns, gathered through their sort order, across block boundaries.
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rounds(), st.sampled_from([50.0, 3.0, 0.7]), st.sampled_from([1, 3, 1024]))
def test_every_table_matches_the_reference(monkeypatch, data, width, block_rows):
    for module in (report_module, ingest_module):
        monkeypatch.setattr(module, "BLOCK_ROWS", block_rows)
    assert not data.validate()
    tables = reference_tables(data, width)
    report = analyze_round(data, hist_bin_width=width)
    with tempfile.TemporaryDirectory() as tmp:
        for side, emit_to in (("ref", lambda fmt, d: reference_emit(tables, fmt, d)),
                              ("new", lambda fmt, d: emit(report, fmt, d))):
            emit_to("csv", Path(tmp) / side / "csv")
            emit_to("json", Path(tmp) / side / "json")
        for fmt in ("csv", "json"):
            assert written(Path(tmp) / "new" / fmt) == written(Path(tmp) / "ref" / fmt)
        documents = [
            json.loads((Path(tmp) / side / "json" / "report.json").read_text("utf-8"), parse_float=str)
            for side in ("ref", "new")
        ]
        assert documents[0] == documents[1]
    assert len(report.classified) == len(data.applications)
    # iterating the column table gives the reference's rows, value types included
    assert [repr(astuple(r)) for r in report.classified] == [
        repr(tuple(row)) for row in tables["classified_applications"][1]
    ]


def test_reference_reproduces_the_golden_report(tmp_path):
    from asnqual.synth import default_synth_config, synthesize_round

    golden = Path(__file__).parent / "golden" / "report"
    tables = reference_tables(synthesize_round(default_synth_config(), 7))
    reference_emit(tables, "csv", tmp_path)
    reference_emit(tables, "json", tmp_path)
    assert written(tmp_path) == written(golden)


# Floats where the integer rule and repr meet: signed zeros, the 1e16 edge and
# its neighbours, 2**53 + 1 (not a double), subnormals and the smallest normal.
EDGE_FLOATS = [
    0.0, -0.0, math.nan, 1e16, np.nextafter(1e16, 0), np.nextafter(1e16, math.inf),
    -1e16, np.nextafter(-1e16, 0), float(2**53 + 1), float(2**53 - 1), 5e-324, -5e-324,
    2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0), 0.1, 1.5, 123.0, 1e300,
]
FLOATS = st.sampled_from([float(x) for x in EDGE_FLOATS]) | st.floats(allow_infinity=False)
INTS = st.integers(-(2**64), 2**64) | st.sampled_from([2**53 + 1, -(2**53 + 1), 0])
INT64S = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([2**53 + 1, -(2**53 + 1), 0])
ENUMS = [Role, IndicatorKind, Standing, MedianTag]
# Every type that has a cell rule, each with its values: a report column holds one of them.
TYPED = [FLOATS, INTS, st.booleans(), st.text(max_size=3), *map(st.sampled_from, ENUMS)]
UNIFORM = [(float, FLOATS), (int, INT64S), (bool, st.booleans())]


@given(st.one_of(*(st.lists(values, max_size=20) for values in TYPED)))
def test_column_formatters_follow_the_cell_rules(values):
    assert _csv_column(values) == [cell(v) for v in values]
    assert _json_column(values) == [json.dumps(jsonable(v)) for v in values]


@given(st.one_of(*(st.tuples(st.just(t), st.lists(s, max_size=20)) for t, s in UNIFORM)))
def test_array_columns_format_as_their_python_values(typed):
    dtype, values = typed
    array = np.array(values, dtype=dtype)
    assert _csv_column(array) == [cell(v) for v in values]
    assert _json_column(array) == [json.dumps(jsonable(v)) for v in values]


class Grade(enum.IntEnum):
    """An int subclass: a type of its own, without a cell rule."""

    PASS = 1


@pytest.mark.parametrize("values, types", [
    ([1, 2.5], "float, int"),
    ([True, 1], "bool, int"),
    ([Fraction(1, 3), "a"], "Fraction, str"),
    ([None], "NoneType"),
    ([Grade.PASS], "Grade"),
    ([Fraction(1, 3)], "Fraction"),
    ([np.float64(1.0)], "float64"),
], ids=["mixed", "bool and int", "mixed, one without a rule", "None", "IntEnum", "Fraction",
        "numpy scalar"])
@pytest.mark.parametrize("format_column", [_csv_column, _json_column], ids=["csv", "json"])
def test_a_column_of_two_types_or_of_a_type_without_a_rule_is_refused(format_column, values, types):
    with pytest.raises(TypeError, match=f"^a report column holds one type with a cell rule, got {types}$"):
        format_column(values)


# Text with non-ASCII and control characters, quotes and backslashes.
TEXT = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\\n\x00\x1f\x7f'), max_size=4)
JSON_FLOATS = st.sampled_from([float(x) for x in EDGE_FLOATS] + [math.inf, -math.inf]) | st.floats()
JSON_TYPED = [JSON_FLOATS, INTS, st.booleans(), TEXT, *map(st.sampled_from, ENUMS)]
JSON_ARRAYS = [(float, JSON_FLOATS), (int, INT64S), (bool, st.booleans())]


@st.composite
def json_tables(draw):
    """{name: (header, columns)}: list or array columns of one length and one type each,
    0 and 1 rows included."""
    tables = {}
    for name in draw(st.lists(TEXT, min_size=1, max_size=4, unique=True)):
        n_rows = draw(st.sampled_from([0, 1]) | st.integers(0, 9))
        header = draw(st.lists(TEXT, min_size=1, max_size=4))
        columns = []
        for _ in header:
            if draw(st.booleans()):
                values = draw(st.sampled_from(JSON_TYPED))
                columns.append(draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
            else:
                dtype, values = draw(st.sampled_from(JSON_ARRAYS))
                values = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
                columns.append(np.array(values, dtype=dtype))
        tables[name] = (header, columns)
    return tables


@given(json_tables(), st.sampled_from([1, 2, 3, 1024]))
def test_streamed_json_is_the_json_dumps_text(tables, block_rows):
    document = {}
    for name, (header, columns) in tables.items():
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        rows = [[jsonable(v) for v in row] for row in zip(*values)]
        document[name] = {"columns": header, "rows": rows}
    out = io.StringIO()
    with mock.patch.object(report_module, "BLOCK_ROWS", block_rows):
        _write_json(out, tables)
    assert out.getvalue() == json.dumps(document, indent=2, sort_keys=True) + "\n"


# Cells csv.writer must quote, or may leave bare (a lone carriage return).
CSV_TEXT = st.text(alphabet=st.sampled_from('a ,"\r\n\\|'), max_size=3)


@st.composite
def csv_tables(draw):
    """(header, columns) of one to three text or float columns, empty cells included."""
    n_rows = draw(st.integers(0, 9))
    header = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=3))
    columns = []
    for _ in header:
        if draw(st.booleans()):
            columns.append(draw(st.lists(CSV_TEXT, min_size=n_rows, max_size=n_rows)))
        else:
            values = draw(st.lists(FLOATS, min_size=n_rows, max_size=n_rows))
            columns.append(np.array(values, dtype=float))
    return header, columns


@given(csv_tables(), st.sampled_from([1, 2, 1024]))
def test_csv_files_are_the_csv_writer_text(table, block_rows):
    header, columns = table
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    writer.writerows([cell(v) for v in row] for row in zip(*values))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ingest_module, "BLOCK_ROWS", block_rows):
        _write_csv(Path(tmp) / "table.csv", header, columns)
        text = (Path(tmp) / "table.csv").read_bytes().decode("utf-8")
    assert text == expected.getvalue()
