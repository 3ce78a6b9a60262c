"""Exit-code contract of the CLI under damaged input files.

Whatever the applications and medians CSVs hold, `asnqual validate` and
`asnqual analyze` return 0, 1 or 2, raise nothing and finish quickly.  The
inputs are a small valid round put through the damage real exports show:
truncation, mixed line endings, reordered headers, huge or non-finite
numbers, line breaks inside names or sub-disciplines, duplicate keys, a
discipline the registry or the medians lack, and an applicant in both roles.
`asnqual synth` keeps the same contract under damaged configs: truncated
JSON, wrong types, non-finite numbers and sizes past the caps.
"""

import csv
import io
import json
import math
import tempfile
import time
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asnqual.cli import main
from asnqual.synth import MAX_APPLICATIONS, MAX_PROFESSORS, SynthConfig

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
# One character past the csv module's default field size limit.  Only the CLI
# fuzz draws it: the frozen per-row reader of test_ingest_reference.py lets
# its csv.Error escape, where the parser names the file and line.
HUGE_OR_OVER_THE_LIMIT = HUGE | st.just("1" * 131_073)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
NAME_COLUMNS = {"last_name", "first_name"}


def csv_text(rows, newline="\n"):
    out = io.StringIO()
    csv.writer(out, lineterminator=newline).writerows(rows)
    return out.getvalue()


@st.composite
def damaged_csv(draw, table, huge=HUGE):
    header, *rows = [list(r) for r in table]
    # huge-numeric: overwrite some numeric cells
    numeric = [c for c, name in enumerate(header) if name in NUMERIC_COLUMNS]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from(numeric))] = draw(huge)
    # duplicate-key: repeat rows, sometimes with other values
    for _ in range(draw(st.integers(0, 2))):
        copy = list(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            copy[draw(st.sampled_from(numeric))] = "3"
        rows.insert(draw(st.integers(0, len(rows))), copy)
    # unknown-discipline: a row moved to 01/A9, a well-formed code the registry
    # lacks, or to 01/A2, which the registry holds but no median set covers
    if "discipline" in header and draw(st.booleans()):
        draw(st.sampled_from(rows))[header.index("discipline")] = draw(st.sampled_from(["01/A9", "01/A2"]))
    names = [c for c, name in enumerate(header) if name in NAME_COLUMNS]
    # other-role: an applicant copied into the other role, which is no duplicate
    if names and draw(st.booleans()):
        copy = list(draw(st.sampled_from(rows)))
        role = header.index("role")
        copy[role] = {"1": "2", "2": "1"}.get(copy[role], copy[role])
        rows.insert(draw(st.integers(0, len(rows))), copy)
    # line-break-in-name: a name holding \r or \n, which csv writes quoted or not
    if names and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from(names))] = "Ro" + draw(NEWLINES) + "ssi"
    # line-break-in-sub-discipline: the same, in the sub-discipline of either file
    if "sub_discipline" in header and draw(st.booleans()):
        draw(st.sampled_from(rows))[header.index("sub_discipline")] = "x" + draw(NEWLINES) + "y"
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
    damaged_csv(APPLICATIONS, HUGE_OR_OVER_THE_LIMIT) | st.just(None),
    damaged_csv(MEDIANS, HUGE_OR_OVER_THE_LIMIT) | st.just(None),
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
        if analyzed == 0 and fmt == "csv":
            # every classified row reads back whole
            with open(Path(tmp) / "report" / "classified_applications.csv", newline="") as handle:
                assert {len(row) for row in csv.reader(handle)} == {11}


def test_undamaged_round_passes():
    with tempfile.TemporaryDirectory() as tmp:
        for name, table in (("applications.csv", APPLICATIONS), ("medians.csv", MEDIANS)):
            (Path(tmp) / name).write_text(csv_text(table), encoding="utf-8", newline="")
        args = ["--applications", f"{tmp}/applications.csv", "--medians", f"{tmp}/medians.csv"]
        assert main(["validate", *args]) == 0
        assert main(["analyze", *args, "--out", f"{tmp}/report"]) == 0


@pytest.mark.parametrize("name", ["applications.csv", "medians.csv", "registry.csv"])
def test_field_past_the_csv_size_limit_exits_1_naming_the_file(tmp_path, capsys, name):
    tables = {"applications.csv": APPLICATIONS, "medians.csv": MEDIANS,
              "registry.csv": [["discipline", "area_acronym", "kind"], ["01/A1", "MCS", "B"],
                               ["13/A5", "ECS", "NB"]]}
    for file_name, table in tables.items():
        rows = [list(row) for row in table]
        if file_name == name:
            rows[1][0] = "x" * 200_000
        (tmp_path / file_name).write_text(csv_text(rows), encoding="utf-8", newline="")
    args = ["--applications", str(tmp_path / "applications.csv"),
            "--medians", str(tmp_path / "medians.csv"), "--registry", str(tmp_path / "registry.csv")]
    message = f"{tmp_path / name}: line 2: field larger than field limit"
    assert run_cli(["validate", *args]) == 1
    assert message in capsys.readouterr().err
    assert run_cli(["analyze", *args, "--out", str(tmp_path / "report")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["Ro\rssi", "Ro\nssi", "Ro\r\nssi"])
def test_line_break_in_a_name_is_row_damage(tmp_path, capsys, name):
    text = csv_text(APPLICATIONS) + f'"{name}",Maria,01/A1,,1,1,1,1,true\n'
    (tmp_path / "applications.csv").write_text(text, encoding="utf-8", newline="")
    (tmp_path / "medians.csv").write_text(csv_text(MEDIANS), encoding="utf-8", newline="")
    args = ["--applications", str(tmp_path / "applications.csv"),
            "--medians", str(tmp_path / "medians.csv")]
    assert main(["validate", *args]) == 1
    # the quoted row spans lines 13 and 14; the diagnostic names where it ends
    assert "line 14: error: line break in applicant name" in capsys.readouterr().out
    assert main(["analyze", *args, "--out", str(tmp_path / "report")]) == 0
    with open(tmp_path / "report" / "classified_applications.csv", newline="") as handle:
        assert len(list(csv.reader(handle))) == len(APPLICATIONS)


@pytest.mark.parametrize("newline", ["\r", "\n", "\r\n"])
@pytest.mark.parametrize("name, row", [
    ("applications.csv", 'Rossi,Maria,01/A1,"x{}y",1,1,1,1,true'),
    ("medians.csv", '01/A1,"x{}y",1,B,1,1,1'),
])
def test_line_break_in_a_sub_discipline_is_row_damage(tmp_path, capsys, name, row, newline):
    tables = {"applications.csv": APPLICATIONS, "medians.csv": MEDIANS}
    for file_name, table in tables.items():
        text = csv_text(table) + (row.format(newline) + "\n" if file_name == name else "")
        (tmp_path / file_name).write_text(text, encoding="utf-8", newline="")
    args = ["--applications", str(tmp_path / "applications.csv"),
            "--medians", str(tmp_path / "medians.csv")]
    assert main(["validate", *args]) == 1
    # the quoted row starts on the line after the table and ends on the next
    line = len(tables[name]) + 2
    assert f"line {line}: error: line break in sub-discipline" in capsys.readouterr().out
    assert main(["analyze", *args, "--out", str(tmp_path / "report")]) == 0
    with open(tmp_path / "report" / "classified_applications.csv", newline="") as handle:
        assert len(list(csv.reader(handle))) == len(APPLICATIONS)


def test_row_damage_names_its_file(tmp_path, capsys):
    # a role-3 row on line 2 of both files, before the round's own rows
    damaged = {"applications.csv": ["Ferri", "Ugo", "01/A1", "", "3", "1", "1", "1", "true"],
               "medians.csv": ["01/A1", "", "3", "B", "1", "1", "1"]}
    for name, table in (("applications.csv", APPLICATIONS), ("medians.csv", MEDIANS)):
        rows = [table[0], damaged[name], *table[1:]]
        (tmp_path / name).write_text(csv_text(rows), encoding="utf-8", newline="")
    args = ["--applications", str(tmp_path / "applications.csv"),
            "--medians", str(tmp_path / "medians.csv")]
    messages = [f"{tmp_path / name}: line 2: error: unknown role '3', expected 1 or 2" for name in damaged]
    assert main(["validate", *args]) == 1
    assert capsys.readouterr().out.splitlines() == [*messages, "2 error(s), 0 warning(s)"]
    assert main(["analyze", *args, "--out", str(tmp_path / "report")]) == 0
    # each file's rows below its header, and the damaged one
    assert capsys.readouterr().err.splitlines() == [f"note: {message}" for message in messages] + [
        f"note: {tmp_path / 'applications.csv'}: skipped 1 of {len(APPLICATIONS)} rows (role 1)",
        f"note: {tmp_path / 'medians.csv'}: skipped 1 of {len(MEDIANS)} rows (role 1)",
    ]


def test_analyze_totals_the_rows_it_skipped_by_code(tmp_path, capsys):
    # two bad numbers and a bad role in the applications; the medians lose nothing
    damaged = [["Ferri", "Ugo", "01/A1", "", "1", "n/a", "1", "1", "true"],
               ["Moro", "Ivo", "01/A1", "", "3", "1", "1", "1", "true"],
               ["Riva", "Lia", "13/A5", "", "2", "1", "", "1", "false"]]
    (tmp_path / "applications.csv").write_text(csv_text([*APPLICATIONS, *damaged]), encoding="utf-8")
    (tmp_path / "medians.csv").write_text(csv_text(MEDIANS), encoding="utf-8")
    args = ["--applications", str(tmp_path / "applications.csv"),
            "--medians", str(tmp_path / "medians.csv"), "--out", str(tmp_path / "report")]
    assert main(["analyze", *args]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("note: ") for line in err)
    assert err[-1] == (f"note: {tmp_path / 'applications.csv'}: "
                       f"skipped 3 of {len(APPLICATIONS) - 1 + 3} rows (number 2, role 1)")


@pytest.mark.parametrize("rows, line, message", [
    ([["01/A1", "PHY", "B"], ["13/A5", "ECS", "NB"]], 2,
     "area acronym 'PHY' does not match 'MCS' for area 01"),
    ([["01/A1", "MCS", "B"], ["13/A5", "ECS", "NB"], ["02/A1", "MCS", "B"]], 4,
     "area acronym 'MCS' does not match 'PHY' for area 02"),
], ids=["used by the round", "unused"])
def test_a_damaged_registry_row_exits_1_naming_the_file(tmp_path, capsys, rows, line, message):
    registry = [["discipline", "area_acronym", "kind"], *rows]
    for name, table in (("applications.csv", APPLICATIONS), ("medians.csv", MEDIANS),
                        ("registry.csv", registry)):
        (tmp_path / name).write_text(csv_text(table), encoding="utf-8", newline="")
    args = ["--applications", str(tmp_path / "applications.csv"),
            "--medians", str(tmp_path / "medians.csv"), "--registry", str(tmp_path / "registry.csv")]
    expected = f"error: {tmp_path / 'registry.csv'}: line {line}: {message}\n"
    assert main(["validate", *args]) == 1
    assert capsys.readouterr() == ("", expected)
    assert main(["analyze", *args, "--out", str(tmp_path / "report")]) == 1
    assert capsys.readouterr() == ("", expected)
    assert not (tmp_path / "report").exists()


PLANS = [
    {
        "discipline": "01/A1", "n_full": 3, "n_associate": 4, "professors": 11,
        "components": [{"family": "gamma", "params": [2.0, 1.5]},
                       {"family": "poisson", "params": [3.0]},
                       {"family": "uniform", "params": [0.0, 5.0]}],
        "decision": "noisy-threshold", "flip_probability": 0.1, "relaxed_quantile": 0.5,
    },
    {
        "discipline": "13/A5", "n_full": 2, "n_associate": 0, "professors": 5,
        "components": [{"family": "lognormal", "params": [1.0, 0.5]},
                       {"family": "constant", "params": [0.0]},
                       {"family": "poisson", "params": [1.0]}],
        "decision": "relaxed", "relaxed_quantile": 0.6,
    },
]
WRONG = st.sampled_from(
    [None, True, False, "3", "gamma", [], [1.0], {}, 2.5, 2.0, -1, 0, math.nan, math.inf,
     -math.inf, 1e308, 10**30]
)
# Past the caps, and only where a cap applies, so that a value the check
# accepts stays small.
PAST_CAP = {"n_full": MAX_APPLICATIONS + 1, "n_associate": MAX_APPLICATIONS + 1,
            "professors": MAX_PROFESSORS + 1}


@st.composite
def damaged_config(draw):
    plans = deepcopy(PLANS)
    for _ in range(draw(st.integers(0, 2))):
        params = draw(st.sampled_from(draw(st.sampled_from(plans))["components"]))["params"]
        params[draw(st.integers(0, len(params) - 1))] = draw(WRONG)
    for _ in range(draw(st.integers(0, 3))):
        plan = draw(st.sampled_from(plans))
        key = draw(st.sampled_from(sorted(plan)))
        if key in PAST_CAP and draw(st.booleans()):
            plan[key] = PAST_CAP[key]
        else:
            plan[key] = draw(WRONG)
    text = json.dumps({"plans": plans})
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@given(damaged_config())
def test_damaged_synth_configs_exit_0_1_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(text, encoding="utf-8")
        out = Path(tmp) / "round"
        synthesized = run_cli(["synth", "--config", str(config), "--seed", "3", "--out", str(out)])
        if synthesized == 0:
            args = ["--applications", str(out / "applications.csv"),
                    "--medians", str(out / "medians.csv")]
            assert run_cli(["validate", *args]) == 0


def plan_config(**sizes):
    return json.dumps({"plans": [{**PLANS[0], **sizes}]})


def test_sizes_at_the_caps_load():
    # the check only: nothing is drawn
    config = SynthConfig.from_json(
        plan_config(n_full=MAX_APPLICATIONS - 7, n_associate=7, professors=MAX_PROFESSORS)
    )
    assert config.plans[0].n_full + config.plans[0].n_associate == MAX_APPLICATIONS


@pytest.mark.parametrize("sizes", [
    {"n_full": MAX_APPLICATIONS - 6, "n_associate": 7},
    {"professors": MAX_PROFESSORS + 1},
    {"n_full": 2.5}, {"n_associate": True}, {"professors": "11"},
    {"n_full": math.nan}, {"n_full": math.inf},
])
def test_bad_sizes_exit_1_naming_the_config(tmp_path, capsys, sizes):
    config = tmp_path / "config.json"
    config.write_text(plan_config(**sizes), encoding="utf-8")
    started = time.perf_counter()
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "round")]) == 1
    assert time.perf_counter() - started < 5.0
    assert f"error: {config}: " in capsys.readouterr().err
    assert not (tmp_path / "round").exists()


def test_caps_span_all_plans():
    second = {**PLANS[1], "n_full": MAX_APPLICATIONS // 2 + 1, "n_associate": 0}
    first = {**PLANS[0], "n_full": MAX_APPLICATIONS // 2, "n_associate": 0}
    with pytest.raises(ValueError, match="applications in all"):
        SynthConfig.from_json(json.dumps({"plans": [first, second]}))
