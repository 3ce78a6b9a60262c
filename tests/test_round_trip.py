"""What the round writers write, the parsers read back.

`parse_applications(write_applications(t))` holds every finite, non-negative
row of `t`, equal and in order, and reports every other row as one `value`
diagnostic at its line.  Names and sub-disciplines hold commas and quotes,
and names bars and backslashes too.  The medians and the registry come back
equal, with no diagnostic but the warning on a zero bibliometric median.

Two cases lie outside the property: a padded name or sub-discipline reads
back stripped, and a (group, id) that appears twice is a hard error on load.
"""

import io
import math

from hypothesis import given
from hypothesis import strategies as st

from asnqual.indicators import IndicatorKind
from asnqual.ingest import (
    ApplicationTable,
    Diagnostic,
    applicant_id,
    discipline_kind,
    load_default_registry,
    parse_applications,
    parse_medians,
    parse_registry,
    write_applications,
    write_medians,
    write_registry,
)
from asnqual.thresholds import DisciplineId, MedianSet, Role
from test_ingest_reference import EDGE_VALUES

REGISTRY = load_default_registry()
CODES = ["01/A1", "08/C1", "11/E1", "13/A5"]
NAMES = st.text(alphabet=',"|\\ a', min_size=1, max_size=5).map(str.strip).filter(bool)
SUBS = st.none() | st.text(alphabet=',"b ', min_size=1, max_size=4).map(str.strip).filter(bool)
VALUES = st.sampled_from([*EDGE_VALUES, 0.0, math.inf, -math.inf, math.nan, -1.0, -5e-324])
MEDIANS = st.sampled_from([*EDGE_VALUES, 0.0])


def kept(vector):
    return all(0 <= v < math.inf for v in vector)


@st.composite
def application_tables(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(CODES), SUBS, st.sampled_from(Role)),
                         min_size=1, max_size=4, unique=True))
    groups = [(DisciplineId.parse(code, sub), role, discipline_kind(code)) for code, sub, role in keys]
    rows = draw(st.lists(
        st.tuples(st.integers(0, len(groups) - 1), NAMES, NAMES,
                  st.tuples(VALUES, VALUES, VALUES), st.booleans()),
        max_size=30, unique_by=lambda row: (row[0], applicant_id(row[1], row[2])),
    ))
    return groups, rows


def table_of(groups, rows):
    group, last, first, ind, qualified = (list(c) for c in zip(*rows)) if rows else [[]] * 5
    return ApplicationTable.from_rows(last, first, groups, group, ind, qualified)


@given(application_tables())
def test_written_applications_read_back(drawn):
    groups, rows = drawn
    text = io.StringIO()
    write_applications(table_of(groups, rows), text)
    parsed, diagnostics = parse_applications(io.StringIO(text.getvalue()), REGISTRY)
    assert parsed == table_of(groups, [row for row in rows if kept(row[3])])
    # the header is line 1
    assert [(d.line, d.severity, d.code) for d in diagnostics] == [
        (i + 2, "error", "value") for i, row in enumerate(rows) if not kept(row[3])
    ]


@given(st.lists(
    st.tuples(st.sampled_from(CODES), SUBS, st.sampled_from(Role), st.sampled_from(IndicatorKind),
              MEDIANS, MEDIANS, MEDIANS),
    max_size=12, unique_by=lambda m: m[:3],
))
def test_written_medians_read_back(drawn):
    sets = [MedianSet(DisciplineId.parse(code, sub), role, m1, m2, m3, kind)
            for code, sub, role, kind, m1, m2, m3 in drawn]
    text = io.StringIO()
    write_medians(sets, text)
    parsed, diagnostics = parse_medians(io.StringIO(text.getvalue()))
    assert parsed == sets
    assert diagnostics == [
        Diagnostic(i + 2, f"zero median in bibliometric {m.discipline.code}", "warning", "zero-median")
        for i, m in enumerate(sets)
        if m.kind is IndicatorKind.BIBLIOMETRIC and m.zero_components()
    ]


@given(st.lists(st.sampled_from(REGISTRY), unique=True))
def test_written_registry_reads_back(entries):
    text = io.StringIO()
    write_registry(entries, text)
    assert parse_registry(io.StringIO(text.getvalue())) == (entries, [])

