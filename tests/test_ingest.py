import dataclasses
import io
import re
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from asnqual.dominance import ApplicationRecord, pareto_violation_ratio
from asnqual.indicators import IndicatorKind, IndicatorVector
from asnqual.ingest import (
    AREA_ACRONYMS,
    BIBLIOMETRIC_EXCEPTIONS,
    NON_BIBLIOMETRIC_EXCEPTIONS,
    ApplicationTable,
    Diagnostic,
    DisciplineRegistryEntry,
    RoundDataset,
    applicant_id,
    discipline_kind,
    load_default_registry,
    load_round,
    parse_applications,
    parse_medians,
    parse_registry,
    split_applicant_id,
    write_applications,
    write_medians,
    write_registry,
)
from asnqual.report import analyze_round
from asnqual.synth import (
    ComponentModel,
    DecisionModel,
    DisciplinePlan,
    SynthConfig,
    default_synth_config,
    synthesize_round,
)
from asnqual.thresholds import DisciplineId, MedianIndex, MedianSet, Role, Standing, classify
from ingest_reference import reference_validate

GOLDEN = Path(__file__).parent / "golden"
APPS_HEADER = "last_name,first_name,discipline,sub_discipline,role,ind1,ind2,ind3,qualified\n"
MEDIANS_HEADER = "discipline,sub_discipline,role,kind,m1,m2,m3\n"


def apps_csv(*rows):
    return io.StringIO(APPS_HEADER + "".join(r + "\n" for r in rows))


def medians_csv(*rows):
    return io.StringIO(MEDIANS_HEADER + "".join(r + "\n" for r in rows))


class TestRegistry:
    def test_has_all_disciplines(self):
        registry = load_default_registry()
        assert len(registry) == 184
        per_area = Counter(e.discipline.area for e in registry)
        expected = dict(
            zip(
                [f"{i:02d}" for i in range(1, 15)],
                (7, 6, 8, 4, 13, 26, 14, 12, 20, 19, 17, 16, 15, 7),
            )
        )
        assert per_area == expected

    def test_kind_partition(self):
        registry = load_default_registry()
        kinds = {e.discipline.code: e.kind for e in registry}
        for code, kind in kinds.items():
            area = int(code[:2])
            if code in NON_BIBLIOMETRIC_EXCEPTIONS:
                assert kind is IndicatorKind.NON_BIBLIOMETRIC
            elif code in BIBLIOMETRIC_EXCEPTIONS:
                assert kind is IndicatorKind.BIBLIOMETRIC
            elif area <= 9:
                assert kind is IndicatorKind.BIBLIOMETRIC
            else:
                assert kind is IndicatorKind.NON_BIBLIOMETRIC

    def test_acronyms_cover_every_area(self):
        assert len(AREA_ACRONYMS) == 14
        assert AREA_ACRONYMS["01"] == "MCS"
        assert AREA_ACRONYMS["14"] == "PSS"

    def test_discipline_kind_rule(self):
        assert discipline_kind("01/A1") is IndicatorKind.BIBLIOMETRIC
        assert discipline_kind("08/C1") is IndicatorKind.NON_BIBLIOMETRIC
        assert discipline_kind("11/E2") is IndicatorKind.BIBLIOMETRIC
        assert discipline_kind("12/A1") is IndicatorKind.NON_BIBLIOMETRIC
        with pytest.raises(ValueError, match="unknown area"):
            discipline_kind("77/A1")

    def test_entry_rejects_wrong_acronym(self):
        with pytest.raises(ValueError, match="acronym"):
            DisciplineRegistryEntry(
                DisciplineId.parse("01/A1"), "PHY", IndicatorKind.BIBLIOMETRIC
            )

    def test_entry_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="must be"):
            DisciplineRegistryEntry(
                DisciplineId.parse("01/A1"), "MCS", IndicatorKind.NON_BIBLIOMETRIC
            )

    def test_parse_rejects_duplicates(self):
        source = io.StringIO(
            "discipline,area_acronym,kind\n01/A1,MCS,B\n01/A1,MCS,B\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            parse_registry(source)

    def test_round_trip(self):
        registry = load_default_registry()
        buffer = io.StringIO()
        write_registry(registry, buffer)
        reparsed, diagnostics = parse_registry(io.StringIO(buffer.getvalue()))
        assert diagnostics == []
        assert reparsed == registry


class TestParseApplications:
    def test_well_formed_rows(self):
        records, diagnostics = parse_applications(
            apps_csv(
                "Rossi,Maria,01/A1,,1,11,15,6,true",
                "Bianchi,Luca,01/A1,,2,5,5,5,false",
                "Verdi,Anna,10/A1,,1,2,3,1,true",
            )
        )
        assert diagnostics == []
        assert len(records) == 3
        assert records[0].indicators.as_tuple() == (11, 15, 6)
        assert records[0].indicators.kind is IndicatorKind.BIBLIOMETRIC
        assert records[2].indicators.kind is IndicatorKind.NON_BIBLIOMETRIC
        assert records[1].role is Role.ASSOCIATE
        assert records[1].qualified is False

    def test_unknown_role_is_skipped_with_a_diagnostic(self):
        records, diagnostics = parse_applications(
            apps_csv("Rossi,Maria,01/A1,,3,1,1,1,true", "Bianchi,Luca,01/A1,,1,1,1,1,true")
        )
        assert len(records) == 1
        assert len(diagnostics) == 1
        assert "unknown role" in diagnostics[0].message
        assert diagnostics[0].line == 2

    def test_missing_indicator_names_the_column(self):
        records, diagnostics = parse_applications(
            apps_csv("Rossi,Maria,01/A1,,1,1,,1,true")
        )
        assert records == []
        assert "ind2" in diagnostics[0].message

    def test_negative_indicator_is_skipped(self):
        records, diagnostics = parse_applications(
            apps_csv("Rossi,Maria,01/A1,,1,-1,1,1,true")
        )
        assert records == []
        assert len(diagnostics) == 1

    def test_bad_boolean_is_skipped(self):
        records, diagnostics = parse_applications(
            apps_csv("Rossi,Maria,01/A1,,1,1,1,1,maybe")
        )
        assert records == []
        assert "boolean" in diagnostics[0].message

    def test_duplicate_application_is_a_hard_error(self):
        with pytest.raises(ValueError, match="duplicate application"):
            parse_applications(
                apps_csv(
                    "Rossi,Maria,01/A1,,1,1,1,1,true",
                    "Rossi,Maria,01/A1,,1,2,2,2,false",
                )
            )

    def test_same_name_in_another_role_is_allowed(self):
        records, diagnostics = parse_applications(
            apps_csv(
                "Rossi,Maria,01/A1,,1,1,1,1,true",
                "Rossi,Maria,01/A1,,2,1,1,1,true",
            )
        )
        assert len(records) == 2
        assert diagnostics == []

    def test_names_that_join_to_the_same_id_are_two_applicants(self):
        records, diagnostics = parse_applications(
            apps_csv("A|B,C,01/A1,,1,11,15,8,true", "A,B|C,01/A1,,1,1,1,1,false")
        )
        assert diagnostics == []
        # `\` and `|` inside a name are escaped, so the two ids differ
        assert [r.applicant_id for r in records] == ["A\\|B|C", "A|B\\|C"]
        # escaping `|` alone would give both of these `\|\|a`
        assert applicant_id("\\", "|a") != applicant_id("|\\", "a")
        medians, _ = parse_medians(medians_csv("01/A1,,1,B,10,13.2,7"))
        report = analyze_round(RoundDataset(records, medians, load_default_registry()))
        assert sorted(r.exceeds for r in report.classified) == [0, 3]
        row = report.discipline_role_rows[0]
        assert (row.over_median, row.under_median) == (1, 1)

    def test_unknown_discipline_is_a_hard_error(self):
        with pytest.raises(ValueError, match="not in the registry"):
            parse_applications(apps_csv("Rossi,Maria,01/Z9,,1,1,1,1,true"))

    @pytest.mark.parametrize("rows, message", [
        (["Rossi,Maria,01/A1,,1,1,1,1,true", "Rossi,Maria,01/A1,,1,2,2,2,true",
          "Verdi,Anna,01/A9,,1,1,1,1,true"],
         "line 3: duplicate application for Rossi|Maria in 01/A1 role 1"),
        (["Rossi,Maria,01/A1,,1,1,1,1,true", "Verdi,Anna,01/A9,,1,1,1,1,true",
          "Rossi,Maria,01/A1,,1,2,2,2,true"],
         "line 3: discipline 01/A9 is not in the registry"),
        # the same applicant in the other role is no duplicate
        (["Rossi,Maria,01/A1,,1,1,1,1,true", "Rossi,Maria,01/A1,,2,2,2,2,true",
          "Rossi,Maria,01/A1,,2,2,2,2,true"],
         "line 4: duplicate application for Rossi|Maria in 01/A1 role 2"),
        # a discipline the registry lacks fails at its first row that passes the row checks
        (["Verdi,Anna,01/A9,,1,x,1,1,true", "Rossi,Maria,01/A1,,1,1,1,1,true",
          "Verdi,Bo,01/A9,,1,1,1,1,true"],
         "line 4: discipline 01/A9 is not in the registry"),
    ])
    def test_the_first_hard_error_in_the_file_is_raised(self, rows, message):
        with pytest.raises(ValueError, match=re.escape(f"input: {message}")):
            parse_applications(apps_csv(*rows))

    def test_parse_peak_memory_per_row(self, tmp_path):
        # The typed buffers and one id set per group keep the peak near what the
        # table holds (about 250 B a row here, names and ids included): about
        # 320 B a row, against 550 with a tuple per row and one set of
        # (group, id) pairs.
        components = (ComponentModel("lognormal", (1.2, 0.7)), ComponentModel("gamma", (2.0, 3.0)),
                      ComponentModel("poisson", (6.0,)))
        registry = load_default_registry()
        plans = [DisciplinePlan(e.discipline.code, 100, 150, components) for e in registry[:80]]
        path = tmp_path / "applications.csv"
        write_applications(synthesize_round(SynthConfig(plans), 1).applications, path)
        tracemalloc.start()
        try:
            table, _ = parse_applications(path, registry)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 20_000
        assert peak / len(table) < 400

    def test_missing_column_is_a_hard_error(self):
        source = io.StringIO("last_name,first_name,discipline\nRossi,Maria,01/A1\n")
        with pytest.raises(ValueError, match="missing columns"):
            parse_applications(source)

    def test_sub_discipline_is_kept(self):
        records, _ = parse_applications(
            apps_csv("Rossi,Maria,13/A1,13/A1-x,1,1,1,1,true")
        )
        assert records[0].discipline.sub_discipline == "13/A1-x"

    @pytest.mark.parametrize(
        "row, code",
        [
            ("Rossi,Maria,01/Z9x,,1,1,1,1,true", "discipline"),
            ("Rossi,Maria,77/A1,,1,1,1,1,true", "discipline"),
            ("Rossi,Maria,01/A1,,9,1,1,1,true", "role"),
            ("Rossi,Maria,01/A1,,nan,1,1,1,true", "role"),
            ("Rossi,Maria,01/A1,,1,1,,1,true", "number"),
            ("Rossi,Maria,01/A1,,1,1,abc,1,true", "number"),
            ("Rossi,Maria,01/A1,,1,11", "number"),
            ("Rossi,Maria,01/A1,,1,1,1,1,maybe", "boolean"),
            ("Rossi,Maria,01/A1,,1,1,1,1", "boolean"),
            (" ,Maria,01/A1,,1,1,1,1,true", "name"),
            ('"Ro\rssi",Maria,01/A1,,1,1,1,1,true', "name"),
            ("Rossi,Maria,01/A1,,1,-1,1,1,true", "value"),
            ("Rossi,Maria,01/A1,,1,1,-1e308,1,true", "value"),
            ("Rossi,Maria,01/A1,,1,1,1,1.8e308,true", "value"),
            ("Rossi,Maria,01/A1,,1,inf,1,1,true", "value"),
            ("Rossi,Maria,01/A1,,1,1,NaN,1,true", "value"),
            ("Rossi,Maria,01/A1,,1," + "1" * 400 + ",1,1,true", "value"),
        ],
    )
    def test_a_skipped_row_names_the_check_it_failed(self, row, code):
        records, diagnostics = parse_applications(apps_csv(row))
        assert records == []
        [diagnostic] = diagnostics
        assert (diagnostic.line, diagnostic.severity, diagnostic.code) == (2, "error", code)
        assert str(diagnostic) == f"line 2: error: {diagnostic.message}"

    def test_rows_at_the_limits_are_kept(self):
        records, diagnostics = parse_applications(
            apps_csv("Rossi,Maria,01/A1,,1,1e308,1e-320,-0,true", "Bianchi,Luca,01/A1,, 2 ,1,1,1, TRUE ")
        )
        assert diagnostics == []
        assert records[0].indicators.as_tuple() == (1e308, 1e-320, 0.0)
        assert (records[1].role, records[1].qualified) == (Role.ASSOCIATE, True)


class TestApplicationTable:
    ROWS = (
        "Rossi,Maria,01/A1,,1,11,15,6,true",
        "Verdi,Anna,10/A1,10/A1-x,2,2,3,1,false",
        "Bianchi,Luca,01/A1,,1,5,5,5,false",
    )

    def test_rows_are_records_built_on_demand(self):
        table, _ = parse_applications(apps_csv(*self.ROWS))
        records = list(table)
        assert len(table) == 3 and len(table.groups) == 2
        assert table.ind.shape == (3, 3) and table.group.dtype == np.int32
        assert [table[i] for i in range(3)] == records
        assert table[-1] == records[-1] and table[1:] == records[1:]
        assert table[::-2] == records[::-2]
        with pytest.raises(IndexError):
            table[3]
        assert table == records and table == tuple(records) and table != records[:2]
        assert records[1].discipline.sub_discipline == "10/A1-x"
        assert records[1].indicators.kind is IndicatorKind.NON_BIBLIOMETRIC
        assert repr(table) == "ApplicationTable(3 applications in 2 groups)"

    def test_records_round_trip(self):
        table, _ = parse_applications(apps_csv(*self.ROWS))
        again = ApplicationTable.from_records(table)
        assert again == table
        assert list(again.ids) == ["Rossi|Maria", "Verdi|Anna", "Bianchi|Luca"]
        assert RoundDataset(list(table), [], []).applications == table

    def test_a_group_whose_rows_are_all_skipped_is_dropped(self):
        table, diagnostics = parse_applications(
            apps_csv("Rossi,Maria,01/A1,,1,-1,1,1,true", "Verdi,Anna,10/A1,,2,2,3,1,false")
        )
        assert [d.code for d in diagnostics] == ["value"]
        assert [(d.code, role) for d, role, _ in table.groups] == [("10/A1", Role.ASSOCIATE)]
        assert table.group.tolist() == [0]

    def test_from_rows_takes_the_typed_buffers_of_the_parser(self):
        groups = [(DisciplineId.parse("01/A1"), Role.FULL, IndicatorKind.BIBLIOMETRIC),
                  (DisciplineId.parse("10/A1"), Role.ASSOCIATE, IndicatorKind.NON_BIBLIOMETRIC),
                  (DisciplineId.parse("13/A5"), Role.FULL, IndicatorKind.NON_BIBLIOMETRIC)]
        values = array("d", [11.0, 15.0, 6.0, 0.5, -0.0, 2.0, 5e-324, 3.0, 1e300])
        table = ApplicationTable.from_rows(
            ["a", "b", "c"], ["X"] * 3, groups,
            array("i", [2, 0, 2]), values, bytearray([1, 0, 1]),
        )
        assert table.group.dtype == np.int32 and table.group.tolist() == [1, 0, 1]
        assert [g[0].code for g in table.groups] == ["01/A1", "13/A5"]  # 10/A1 holds no row
        assert table.ind.dtype == np.float64 and table.ind.shape == (3, 3)
        assert table.ind.ravel().tolist() == values.tolist()
        assert table.qualified.dtype == np.bool_ and table.qualified.tolist() == [True, False, True]
        empty = ApplicationTable.from_rows([], [], groups, array("i"), array("d"), bytearray())
        assert empty.group.dtype == np.int32 and empty.ind.shape == (0, 3) and empty.groups == ()
        assert empty.qualified.dtype == np.bool_

    @pytest.mark.parametrize("name", ["Ro\rssi", "Ro\nssi", "Ro\r\nssi"])
    @pytest.mark.parametrize("record_field", ["last_name", "first_name"])
    def test_a_line_break_in_a_name_is_rejected_with_its_row(self, name, record_field):
        # a report CSV would write a bare \r unquoted, and the file would not load back
        table, _ = parse_applications(apps_csv(*self.ROWS))
        records = list(table)
        records[2] = dataclasses.replace(records[2], **{record_field: name})
        builds = (
            lambda: ApplicationTable.from_rows(
                [r.last_name for r in records], [r.first_name for r in records], table.groups,
                table.group, table.ind, table.qualified,
            ),
            lambda: ApplicationTable.from_records(records),
            lambda: RoundDataset(records, [], []),
        )
        for build in builds:
            with pytest.raises(ValueError, match=re.escape(f"row 2: line break in applicant name {name!r}")):
                build()

    @pytest.mark.parametrize("field, value", [
        ("applicant_id", "Bianchi|Luca|"), ("applicant_id", "Bianchi Luca"),
        ("last_name", "Bianco"), ("first_name", "Luca|"),
    ])
    def test_a_record_whose_id_is_not_that_of_its_names_is_rejected_with_its_row(self, field, value):
        # the table keeps the id alone, so the names would not read back
        table, _ = parse_applications(apps_csv(*self.ROWS))
        records = list(table)
        records[2] = dataclasses.replace(records[2], **{field: value})
        message = f"row 2: applicant id {records[2].applicant_id!r} is not that of its names"
        for build in (ApplicationTable.from_records, lambda rows: RoundDataset(rows, [], [])):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(records)


class TestParseMedians:
    def test_fixture_of_four_rows(self):
        sets, diagnostics = parse_medians(
            medians_csv(
                "01/A1,,1,B,10,13.2,7",
                "01/A1,,2,B,8,11,5",
                "10/A1,,1,NB,1,2,0.5",
                "10/A1,,2,NB,0.5,1.5,0.2",
            )
        )
        assert diagnostics == []
        assert len(sets) == 4
        assert sets[0].as_tuple() == (10, 13.2, 7)
        assert sets[2].kind is IndicatorKind.NON_BIBLIOMETRIC

    def test_duplicate_is_a_hard_error(self):
        with pytest.raises(ValueError, match="duplicate median set"):
            parse_medians(medians_csv("01/A1,,1,B,1,1,1", "01/A1,,1,B,2,2,2"))

    def test_negative_median_is_rejected_with_a_diagnostic(self):
        sets, diagnostics = parse_medians(medians_csv("01/A1,,1,B,-1,1,1"))
        assert sets == []
        assert len(diagnostics) == 1
        assert diagnostics[0].severity == "error"

    def test_zero_bibliometric_median_draws_a_warning_but_is_kept(self):
        sets, diagnostics = parse_medians(medians_csv("01/A1,,1,B,0,1,1"))
        assert len(sets) == 1
        assert len(diagnostics) == 1
        assert diagnostics[0].severity == "warning"

    def test_zero_non_bibliometric_median_is_silent(self):
        sets, diagnostics = parse_medians(medians_csv("10/A1,,1,NB,0,1,1"))
        assert len(sets) == 1
        assert diagnostics == []

    def test_unknown_kind_is_skipped(self):
        sets, diagnostics = parse_medians(medians_csv("01/A1,,1,X,1,1,1"))
        assert sets == []
        assert "unknown kind" in diagnostics[0].message


@pytest.mark.parametrize("newline", ["\r", "\n", "\r\n"])
@pytest.mark.parametrize("parse, header, good, damaged", [
    pytest.param(parse_applications, APPS_HEADER, "Rossi,Maria,01/A1,,1,1,1,1,true",
                 'Verdi,Anna,01/A1,"x{}y",1,1,1,1,true', id="applications"),
    pytest.param(parse_medians, MEDIANS_HEADER, "01/A1,,1,B,1,1,1", '01/A1,"x{}y",2,B,1,1,1',
                 id="medians"),
])
def test_a_line_break_in_a_sub_discipline_skips_its_row(tmp_path, parse, header, good, damaged, newline):
    # the quoted row spans lines 2 and 3; the row after it is line 4
    path = tmp_path / "input.csv"
    path.write_text(header + damaged.format(newline) + "\n" + good + "\n", newline="")
    kept, diagnostics = parse(path)
    assert len(kept) == 1
    assert [(d.line, d.severity, d.code) for d in diagnostics] == [(3, "error", "discipline")]
    assert diagnostics[0].message.startswith("line break in sub-discipline ")


class TestRoundDataset:
    def build(self):
        apps, _ = parse_applications(apps_csv("Rossi,Maria,01/A1,,1,11,15,6,true"))
        sets, _ = parse_medians(medians_csv("01/A1,,1,B,10,13.2,7"))
        return RoundDataset(apps, sets, load_default_registry())

    def test_valid_dataset(self):
        assert self.build().validate() == []

    def test_missing_median_set_is_reported(self):
        dataset = self.build()
        stripped = RoundDataset(dataset.applications, [], dataset.registry)
        problems = stripped.validate()
        assert any("no median set" in p for p in problems)

    def test_median_kind_disagreement_is_reported(self):
        apps, _ = parse_applications(apps_csv("Rossi,Maria,01/A1,,1,11,15,6,true"))
        sets, _ = parse_medians(medians_csv("01/A1,,1,NB,10,13.2,7"))
        problems = RoundDataset(apps, sets, load_default_registry()).validate()
        assert any("disagrees with registry" in p for p in problems)

    def test_validate_resolves_a_median_set_once_per_group(self, monkeypatch):
        dataset, _ = load_round(
            GOLDEN / "applications.csv", GOLDEN / "medians.csv", GOLDEN / "registry.csv"
        )
        calls = []
        resolve = MedianIndex.resolve
        monkeypatch.setattr(
            MedianIndex, "resolve", lambda self, *a: calls.append(a) or resolve(self, *a)
        )
        assert dataset.validate() == []
        assert len(calls) == len(dataset.applications.groups) == 16
        assert len(dataset.applications) == 680

    def test_validate_lists_each_application_as_the_per_application_check_did(self):
        def app(name, code, role, kind):
            discipline = DisciplineId.parse(*code.split(":"))
            vector = IndicatorVector(1.0, 2.0, 3.0, kind)
            return ApplicationRecord(f"{name}|X", name, "X", discipline, role, vector, True)

        B, NB = IndicatorKind.BIBLIOMETRIC, IndicatorKind.NON_BIBLIOMETRIC
        records = [
            app("a", "01/A1", Role.FULL, B),
            app("b", "01/A2", Role.FULL, B),  # discipline not in the registry
            app("c", "01/A1", Role.FULL, NB),  # kind disagrees with the registry
            app("d", "01/A1", Role.ASSOCIATE, B),  # no median set
            app("e", "01/A1:01/A1-x", Role.FULL, NB),  # resolves to its discipline's set
            app("f", "01/A2", Role.ASSOCIATE, B),
            app("g", "01/A1", Role.ASSOCIATE, NB),
            app("h", "01/A1", Role.FULL, B),
        ]
        medians = [
            MedianSet(DisciplineId.parse("01/A1"), Role.FULL, 1, 1, 1, B),
            MedianSet(DisciplineId.parse("12/A1"), Role.FULL, 1, 1, 1, B),
        ]
        registry = [e for e in load_default_registry() if e.discipline.code != "01/A2"]
        dataset = RoundDataset(records, medians, registry)
        problems = dataset.validate()
        assert problems == reference_validate(dataset)
        assert problems == [
            "median set 12/A1 kind bibliometric disagrees with registry non-bibliometric",
            "application b|X: discipline 01/A2 not in registry",
            "application c|X: indicator kind non-bibliometric disagrees with registry",
            "application d|X: no median set for 01/A1 role 2",
            "application e|X: indicator kind non-bibliometric disagrees with registry",
            "application f|X: discipline 01/A2 not in registry",
            "application g|X: indicator kind non-bibliometric disagrees with registry",
            "application g|X: no median set for 01/A1 role 2",
        ]

    def test_round_trip_through_files(self, tmp_path):
        dataset = synthesize_round(default_synth_config(), 11)
        apps_path = tmp_path / "applications.csv"
        medians_path = tmp_path / "medians.csv"
        registry_path = tmp_path / "registry.csv"
        write_applications(dataset.applications, apps_path)
        write_medians(dataset.medians, medians_path)
        write_registry(dataset.registry, registry_path)
        reparsed, diagnostics = load_round(apps_path, medians_path, registry_path)
        assert diagnostics == []
        assert list(reparsed.applications) == list(dataset.applications)
        assert list(reparsed.medians) == list(dataset.medians)
        assert list(reparsed.registry) == list(dataset.registry)

    @pytest.mark.parametrize("with_bom", ["applications.csv", "medians.csv"])
    def test_byte_order_mark_is_ignored(self, tmp_path, with_bom):
        dataset = synthesize_round(default_synth_config(), 11)
        write_applications(dataset.applications, tmp_path / "applications.csv")
        write_medians(dataset.medians, tmp_path / "medians.csv")
        path = tmp_path / with_bom
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        reparsed, diagnostics = load_round(tmp_path / "applications.csv", tmp_path / "medians.csv")
        assert diagnostics == []
        assert list(reparsed.applications) == list(dataset.applications)
        assert list(reparsed.medians) == list(dataset.medians)

    def test_latin1_row_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "applications.csv"
        rows = [APPS_HEADER.encode()]
        rows += [f"Name{i},Maria,01/A1,,1,11,15,6,true\n".encode() for i in range(3000)]
        rows[2500] = "Ferr\u00e9,Maria,01/A1,,1,11,15,6,true\n".encode("latin-1")
        path.write_bytes(b"".join(rows))
        with pytest.raises(ValueError, match=r"applications\.csv: line 2501: not UTF-8 text"):
            parse_applications(path)

    @pytest.mark.parametrize("name, parse", [
        ("applications.csv", parse_applications),
        ("medians.csv", parse_medians),
        ("registry.csv", parse_registry),
    ])
    def test_field_over_the_csv_size_limit_names_the_file_and_line(self, tmp_path, name, parse):
        lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "x" * 200_000 + lines[2]
        path = tmp_path / name
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: line 3: field larger than"):
            parse(path)

    def test_serialization_is_stable(self):
        dataset = synthesize_round(default_synth_config(), 11)
        first, second = io.StringIO(), io.StringIO()
        write_applications(dataset.applications, first)
        write_applications(dataset.applications, second)
        assert first.getvalue() == second.getvalue()


def tiny_plan(**overrides):
    base = dict(
        discipline="01/A1",
        n_full=15,
        n_associate=20,
        components=(
            ComponentModel("lognormal", (1.5, 0.7)),
            ComponentModel("gamma", (2.0, 2.0)),
            ComponentModel("poisson", (4.0,)),
        ),
    )
    base.update(overrides)
    return DisciplinePlan(**base)


class TestSynth:
    def test_same_seed_yields_identical_datasets(self):
        config = default_synth_config()
        a = synthesize_round(config, 42)
        b = synthesize_round(config, 42)
        assert list(a.applications) == list(b.applications)
        assert list(a.medians) == list(b.medians)

    def test_different_seeds_differ(self):
        config = default_synth_config()
        a = synthesize_round(config, 1)
        b = synthesize_round(config, 2)
        assert list(a.applications) != list(b.applications)

    def test_generated_dataset_is_valid(self):
        dataset = synthesize_round(default_synth_config(), 3)
        assert dataset.validate() == []

    def test_strict_median_qualifies_exactly_the_over_median(self):
        config = SynthConfig((tiny_plan(),))
        dataset = synthesize_round(config, 5)
        index = MedianIndex(dataset.medians)
        for app in dataset.applications:
            m = index.resolve(app.discipline, app.role)
            over = classify(app.indicators, m) is Standing.OVER_MEDIAN
            assert app.qualified == over

    def test_strict_and_relaxed_models_admit_no_violations(self):
        for decision in (DecisionModel.STRICT_MEDIAN, DecisionModel.RELAXED):
            config = SynthConfig((tiny_plan(decision=decision, n_full=40, n_associate=40),))
            dataset = synthesize_round(config, 9)
            for role in (Role.FULL, Role.ASSOCIATE):
                group = [a for a in dataset.applications if a.role is role]
                assert pareto_violation_ratio(group).ratio == 0.0

    def test_zero_flip_probability_equals_strict(self):
        strict = SynthConfig((tiny_plan(),))
        noisy = SynthConfig((tiny_plan(decision=DecisionModel.NOISY_THRESHOLD, flip_probability=0.0),))
        a = synthesize_round(strict, 21)
        b = synthesize_round(noisy, 21)
        assert [x.qualified for x in a.applications] == [x.qualified for x in b.applications]

    def test_invalid_distribution_parameters_are_errors(self):
        with pytest.raises(ValueError, match="sigma"):
            ComponentModel("lognormal", (1.0, 0.0))
        with pytest.raises(ValueError, match="unknown distribution"):
            ComponentModel("zipf", (1.0,))
        with pytest.raises(ValueError, match="parameters"):
            ComponentModel("gamma", (1.0,))

    def test_invalid_plan_parameters_are_errors(self):
        with pytest.raises(ValueError, match="flip probability"):
            tiny_plan(decision=DecisionModel.NOISY_THRESHOLD, flip_probability=1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            tiny_plan(n_full=-1)
        with pytest.raises(ValueError, match="quantile"):
            tiny_plan(relaxed_quantile=1.0)

    def test_unknown_discipline_is_an_error(self):
        config = SynthConfig((tiny_plan(),))
        with pytest.raises(ValueError, match="not in the registry"):
            synthesize_round(config, 0, registry=[])

    def test_config_json_round_trip(self):
        config = default_synth_config()
        assert SynthConfig.from_json(config.to_json()) == config

    def test_malformed_config_is_an_error(self):
        with pytest.raises(ValueError, match="malformed synth config"):
            SynthConfig.from_json("{}")

    def test_duplicate_plans_are_an_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            SynthConfig((tiny_plan(), tiny_plan()))


@pytest.mark.parametrize("row, message, code", [
    ("01/A1,PHY,B", "area acronym 'PHY' does not match 'MCS' for area 01", "registry"),
    ("01/A1,MCS,NB", "01/A1 must be bibliometric, got non-bibliometric", "registry"),
    ("01/A1,MCS,X", "unknown kind 'X', expected B or NB", "kind"),
], ids=["acronym", "kind", "kind code"])
def test_a_damaged_registry_row_is_skipped_with_its_line(row, message, code):
    entries, diagnostics = parse_registry(io.StringIO(f"discipline,area_acronym,kind\n13/A5,ECS,NB\n{row}\n"))
    assert [entry.discipline.code for entry in entries] == ["13/A5"]
    assert diagnostics == [Diagnostic(3, message, code=code)]
    assert str(diagnostics[0]) == f"line 3: error: {message}"


@pytest.mark.parametrize("identity", ["abc", "a|b|c", "", "a\\|b", "a|b\\", "a\\|b|c\\", "a\\b|c"],
                         ids=["no bar", "two bars", "empty", "escaped bar", "lone backslash",
                              "escapes and two bars", "escaped letter"])
def test_split_applicant_id_rejects_a_string_that_is_no_id(identity):
    # the first three take the path for ids without a backslash, the others the regex
    with pytest.raises(ValueError, match=re.escape(f"not an applicant id: {identity!r}")):
        split_applicant_id(identity)
