"""Exit-code contract of the CLI under damaged input files.

Whatever the applications and medians CSVs hold, `asnqual validate` and
`asnqual analyze` return 0, 1 or 2, raise nothing and finish quickly.  The
inputs are a small valid round put through the damage real exports show:
truncation, mixed line endings, reordered headers, huge or non-finite
numbers and duplicate keys.
"""

import csv
import io
import tempfile
import time
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from asnqual.cli import main

APPLICATIONS = [
    ["last_name", "first_name", "discipline", "sub_discipline", "role", "ind1", "ind2", "ind3", "qualified"],
    ["Rossi", "Maria", "01/A1", "", "1", "11", "15", "6", "true"],
    ["Bianchi", "Luca", "01/A1", "", "1", "12", "14", "8", "true"],
    ["Verdi", "Anna", "01/A1", "", "1", "9", "12", "6", "false"],
    ["Neri", "Paolo", "01/A1", "", "1", "0", "0", "0", "false"],
    ['O"Brien, Jr', "Ann", "01/A1", "", "2", "9", "12", "6", "true"],
    ["Gallo", "Sara", "01/A1", "", "2", "8", "11", "5", "false"],
    ["Conti", "Marco", "01/A1", "", "2", "10.5", "15", "7", "true"],
    ["Costa", "Elena", "13/A5", "", "1", "2", "3", "1", "true"],
    ["Greco", "Davide", "13/A5", "", "1", "1", "2", "0.5", "false"],
    ["Bruno", "Giulia", "13/A5", "", "2", "1", "2", "0.3", "true"],
    ["Fontana", "Luigi", "13/A5", "", "2", "0", "0", "0", "false"],
]
MEDIANS = [
    ["discipline", "sub_discipline", "role", "kind", "m1", "m2", "m3"],
    ["01/A1", "", "1", "B", "10", "13", "5"],
    ["01/A1", "", "2", "B", "8", "11", "4"],
    ["13/A5", "", "1", "NB", "1", "2", "0.5"],
    ["13/A5", "", "2", "NB", "1", "1", "0.2"],
]
NUMERIC_COLUMNS = {"ind1", "ind2", "ind3", "m1", "m2", "m3", "role"}
HUGE = st.sampled_from(
    ["1e308", "-1e308", "1.8e308", "inf", "-inf", "nan", "NaN", "1" * 400, "9" * 400 + ".5", "1e-320", "-0"]
)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


def csv_text(rows, newline="\n"):
    out = io.StringIO()
    csv.writer(out, lineterminator=newline).writerows(rows)
    return out.getvalue()


@st.composite
def damaged_csv(draw, table):
    header, *rows = [list(r) for r in table]
    # huge-numeric: overwrite some numeric cells
    numeric = [c for c, name in enumerate(header) if name in NUMERIC_COLUMNS]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from(numeric))] = draw(HUGE)
    # duplicate-key: repeat rows, sometimes with other values
    for _ in range(draw(st.integers(0, 2))):
        copy = list(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            copy[draw(st.sampled_from(numeric))] = "3"
        rows.insert(draw(st.integers(0, len(rows))), copy)
    # reordered-header: permute the columns, or the header alone
    order = draw(st.permutations(range(len(header))))
    header = [header[c] for c in order]
    if draw(st.booleans()):
        rows = [[row[c] for c in order] for row in rows]
    # mixed-newline: each line ends its own way
    text = "".join(csv_text([line], draw(NEWLINES)) for line in [header, *rows])
    # truncated: cut anywhere, inside a quoted field too
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def run_cli(argv):
    started = time.perf_counter()
    code = main(argv)
    assert code in (0, 1, 2)
    assert time.perf_counter() - started < 5.0
    return code


@given(
    damaged_csv(APPLICATIONS) | st.just(None),
    damaged_csv(MEDIANS) | st.just(None),
    st.sampled_from(["csv", "json"]),
)
def test_damaged_inputs_exit_0_1_or_2(applications, medians, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text, table in (
            ("applications.csv", applications, APPLICATIONS),
            ("medians.csv", medians, MEDIANS),
        ):
            paths[name] = Path(tmp) / name
            paths[name].write_text(csv_text(table) if text is None else text, encoding="utf-8", newline="")
        args = ["--applications", str(paths["applications.csv"]), "--medians", str(paths["medians.csv"])]
        validated = run_cli(["validate", *args])
        analyzed = run_cli(["analyze", *args, "--out", str(Path(tmp) / "report"), "--format", fmt])
        # a round that validates is analyzed
        assert validated != 0 or analyzed == 0


def test_undamaged_round_passes():
    with tempfile.TemporaryDirectory() as tmp:
        for name, table in (("applications.csv", APPLICATIONS), ("medians.csv", MEDIANS)):
            (Path(tmp) / name).write_text(csv_text(table), encoding="utf-8", newline="")
        args = ["--applications", f"{tmp}/applications.csv", "--medians", f"{tmp}/medians.csv"]
        assert main(["validate", *args]) == 0
        assert main(["analyze", *args, "--out", f"{tmp}/report"]) == 0
