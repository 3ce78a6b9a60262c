import contextlib
import csv
import dataclasses
import errno
import json
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from asnqual.cli import main
from asnqual.dominance import ApplicationRecord
from asnqual.indicators import IndicatorKind, IndicatorVector
from asnqual.ingest import (
    RoundDataset,
    applicant_id,
    load_default_registry,
    write_applications,
    write_medians,
    write_registry,
)
from asnqual import ingest as ingest_module
from asnqual import report as report_module
from asnqual.report import _na_histogram, analyze_round, emit
from asnqual.synth import (
    ComponentModel,
    DisciplinePlan,
    SynthConfig,
    default_synth_config,
    synthesize_round,
)
from asnqual.thresholds import DisciplineId, MedianSet, Role, Standing

GOLDEN_SEED = 7

B = IndicatorKind.BIBLIOMETRIC
NB = IndicatorKind.NON_BIBLIOMETRIC


def app(name, code, role, vector, kind, qualified):
    return ApplicationRecord(
        f"{name}|X",
        name,
        "X",
        DisciplineId.parse(code),
        role,
        IndicatorVector(*vector, kind),
        qualified,
    )


def small_round():
    """Three disciplines with hand-checked standings and rates.

    01/A1 full: 4 over (3 qualified), 6 under (0 qualified).
    01/A1 associate: 2 over (2 qualified), 2 under (0 qualified).
    10/A1 full: 2 over (1 qualified), 1 under.  10/A1 associate: 1/1.
    13/A5 full: 2 over (1 qualified), nobody under.
    """
    full_a1 = [
        (("11", (11, 15, 6)), True),
        (("12", (12, 14, 8)), True),
        (("13", (11, 14, 6)), True),
        (("14", (10.5, 13.5, 5)), False),
        (("15", (13, 12, 7)), False),
        (("16", (10, 13.2, 7)), False),
        (("17", (9, 12, 6)), False),
        (("18", (0, 0, 0)), False),
        (("19", (10.1, 13.2, 7)), False),
        (("20", (5, 20, 1)), False),
    ]
    assoc_a1 = [
        (("21", (9, 12, 6)), True),
        (("22", (8, 11, 5)), False),
        (("23", (7, 12, 4)), False),
        (("24", (10, 15, 7)), True),
    ]
    full_nb = [
        (("31", (2, 3, 1)), True),
        (("32", (1, 2, 0.5)), False),
        (("33", (0, 5, 0)), False),
    ]
    assoc_nb = [
        (("41", (1, 2, 0.3)), True),
        (("42", (0, 0, 0)), False),
    ]
    full_a5 = [
        (("51", (4, 7, 3)), True),
        (("52", (5, 8, 4)), False),
    ]
    applications = (
        [app(n, "01/A1", Role.FULL, v, B, q) for (n, v), q in full_a1]
        + [app(n, "01/A1", Role.ASSOCIATE, v, B, q) for (n, v), q in assoc_a1]
        + [app(n, "10/A1", Role.FULL, v, NB, q) for (n, v), q in full_nb]
        + [app(n, "10/A1", Role.ASSOCIATE, v, NB, q) for (n, v), q in assoc_nb]
        + [app(n, "13/A5", Role.FULL, v, NB, q) for (n, v), q in full_a5]
    )
    medians = [
        MedianSet(DisciplineId.parse("01/A1"), Role.FULL, 10, 13.2, 7, B),
        MedianSet(DisciplineId.parse("01/A1"), Role.ASSOCIATE, 8, 11, 5, B),
        MedianSet(DisciplineId.parse("10/A1"), Role.FULL, 1, 2, 0.5, NB),
        MedianSet(DisciplineId.parse("10/A1"), Role.ASSOCIATE, 0.5, 1.5, 0.2, NB),
        MedianSet(DisciplineId.parse("13/A5"), Role.FULL, 3, 6, 2, NB),
    ]
    return RoundDataset(applications, medians, load_default_registry())


def round_with_no_associate_under_median():
    """small_round() plus 01/A2, whose associates are all over-median, so PQU.A is NaN."""
    data = small_round()
    extra = [
        app("61", "01/A2", Role.FULL, (5, 5, 5), B, True),
        app("62", "01/A2", Role.FULL, (1, 1, 1), B, False),
        app("71", "01/A2", Role.ASSOCIATE, (5, 5, 5), B, True),
        app("72", "01/A2", Role.ASSOCIATE, (4, 4, 4), B, False),
    ]
    medians = [
        MedianSet(DisciplineId.parse("01/A2"), Role.FULL, 3, 3, 3, B),
        MedianSet(DisciplineId.parse("01/A2"), Role.ASSOCIATE, 2, 2, 2, B),
    ]
    return RoundDataset(
        list(data.applications) + extra, list(data.medians) + medians, data.registry
    )


def role_row(report, code, role):
    return next(
        r
        for r in report.discipline_role_rows
        if r.discipline == code and r.role is role
    )


@pytest.fixture(scope="module")
def report():
    return analyze_round(small_round())


class TestAnalyzeSmallRound:
    def test_conditional_rates_per_discipline_and_role(self, report):
        row = role_row(report, "01/A1", Role.FULL)
        assert row.applications == 10
        assert (row.over_median, row.under_median) == (4, 6)
        assert (row.qualified_over, row.qualified_under) == (3, 0)
        assert row.pq == pytest.approx(0.3)
        assert row.pqo == pytest.approx(0.75)
        assert row.pqu == 0.0

    def test_worked_vectors_get_their_exceed_counts(self, report):
        classified = {c.applicant_id: c for c in report.classified}
        over = classified["11|X"]
        under = classified["15|X"]
        assert (over.exceeds, over.standing) == (2, Standing.OVER_MEDIAN)
        assert (under.exceeds, under.standing) == (1, Standing.UNDER_MEDIAN)

    def test_pqu_is_nan_when_nobody_is_under_median(self, report):
        row = role_row(report, "13/A5", Role.FULL)
        assert row.under_median == 0
        assert math.isnan(row.pqu)

    def test_area_rows_aggregate_roles(self, report):
        area01 = next(r for r in report.area_rows if r.area == "01")
        assert area01.acronym == "MCS"
        assert area01.applications_full == 10
        assert area01.applications_associate == 4
        assert area01.qualified_total == 5
        assert area01.pq_full == pytest.approx(0.3)

    def test_totals_are_conserved_across_groupings(self, report):
        assert report.n_applications == 21
        assert report.n_applications == sum(
            r.applications for r in report.discipline_role_rows
        )
        assert report.n_applications == sum(
            r.applications for r in report.discipline_pooled_rows
        )
        assert report.n_applications == sum(
            r.applications_total for r in report.area_rows
        )
        assert report.n_qualified == sum(r.qualified for r in report.discipline_role_rows)
        assert report.n_qualified == sum(r.qualified_total for r in report.area_rows)

    def test_pooled_row_merges_roles(self, report):
        pooled = next(r for r in report.discipline_pooled_rows if r.discipline == "01/A1")
        assert pooled.applications == 14
        assert pooled.qualified == 5
        assert pooled.over_median == 6

    def test_group_rates_cover_all_eight_cells(self, report):
        assert len(report.group_rates) == 8
        cell = next(
            r
            for r in report.group_rates
            if r.role is Role.FULL and r.kind is B and r.standing is Standing.OVER_MEDIAN
        )
        assert (cell.applications, cell.qualified) == (4, 3)
        assert cell.rate == pytest.approx(0.75)
        nb_cell = next(
            r
            for r in report.group_rates
            if r.role is Role.FULL and r.kind is NB and r.standing is Standing.OVER_MEDIAN
        )
        assert (nb_cell.applications, nb_cell.qualified) == (4, 2)

    def test_rate_differences_have_four_rows(self, report):
        assert len(report.rate_differences) == 4
        row = next(
            r
            for r in report.rate_differences
            if r.role is Role.FULL and r.standing is Standing.OVER_MEDIAN
        )
        assert row.difference == pytest.approx(0.75 - 0.5)
        assert row.ci_low < row.difference < row.ci_high

    def test_min_qualified_counts(self, report):
        full = next(r for r in report.min_qualified if r.role is Role.FULL)
        assert full.disciplines == 3
        assert (full.above_m1, full.above_m2, full.above_m3) == (3, 3, 2)
        assoc = next(r for r in report.min_qualified if r.role is Role.ASSOCIATE)
        assert assoc.disciplines == 2
        assert (assoc.above_m1, assoc.above_m2, assoc.above_m3) == (2, 2, 2)

    def test_min_median_scatter_has_the_third_component_gap(self, report):
        row = next(
            r
            for r in report.min_median_rows
            if r.discipline == "01/A1" and r.role is Role.FULL and r.component == 3
        )
        assert row.median == 7
        assert row.min_qualified == 6

    def test_correlation_table_is_complete(self, report):
        assert len(report.correlations) == 27
        labels = {(c.x_label, c.y_label, c.group) for c in report.correlations}
        assert ("NA.F", "NA.A", "all") in labels
        assert ("PQ.F", "PQ.A", "all") in labels
        assert ("M1.F", "M1.A", "bibliometric") in labels
        assert ("PVR.F", "PVR.A", "all") in labels
        assert ("ind1.F", "ind2.F", "bibliometric") in labels
        assert ("ind2.A", "ind3.A", "non-bibliometric") in labels

    def test_histogram_uses_the_requested_bin_width(self):
        report = analyze_round(small_round(), hist_bin_width=5.0)
        bins = {(b.low, b.high): b.count for b in report.na_histogram}
        assert bins == {(0.0, 5.0): 1, (5.0, 10.0): 1, (10.0, 15.0): 1}
        assert report.hist_bin_width == 5.0

    @given(
        st.lists(st.integers(0, 400), max_size=30),
        st.floats(0.5, 5000, allow_nan=False) | st.sampled_from([0.1, 0.3, 0.7, 1 / 3, 2.2]),
    )
    def test_histogram_matches_the_edge_comparisons(self, na_values, width):
        expected = []
        if na_values:
            n_bins = max(1, math.ceil((max(na_values) + 1) / width))
            for b in range(n_bins):
                low, high = b * width, (b + 1) * width
                expected.append((low, high, sum(1 for v in na_values if low <= v < high)))
        got = [(h.low, h.high, h.count) for h in _na_histogram(na_values, width)]
        assert got == expected
        # np.histogram drops a value outside the edges without a word
        assert sum(count for _, _, count in got) == len(na_values)

    def test_extreme_pq_ranks_by_pooled_rate(self, report):
        top = [r for r in report.extreme_pq if r.position == "top"]
        assert top[0].rank == 1
        assert top[0].pq == max(r.pq for r in report.discipline_pooled_rows)

    def test_bad_bin_width_is_an_error(self):
        with pytest.raises(ValueError, match="bin width"):
            analyze_round(small_round(), hist_bin_width=0.0)

    def test_missing_median_set_is_an_error(self):
        data = small_round()
        broken = RoundDataset(data.applications, data.medians[:-1], data.registry)
        with pytest.raises(ValueError, match="invalid dataset"):
            analyze_round(broken)


# Both roles of a bibliometric and a non-bibliometric discipline.
GROUPS = [(DisciplineId.parse(code), role, kind) for code, kind in (("01/A1", B), ("13/A5", NB))
          for role in Role]
ESCAPED_NAMES = st.text(alphabet="ab|\\", min_size=1, max_size=3)


@given(st.lists(st.tuples(ESCAPED_NAMES, ESCAPED_NAMES, st.integers(0, len(GROUPS) - 1)), max_size=12))
@example([])
@example([("a", "b", 0)])
@example([("a", "b", 0), ("a", "b", 1), ("a", "b", 3)])  # one person in three groups
@example([("a|b", "a", 0), ("a", "b|a", 0)])  # joined with a bare `|`, both would be a|b|a
@example([("a\\", "|b", 2), ("a\\|", "b", 2)])  # a `\` beside the `|`
def test_distinct_names_counts_the_distinct_name_pairs(people):
    applications = [
        ApplicationRecord(applicant_id(last, first), last, first, discipline, role,
                          IndicatorVector(1.0, 2.0, 3.0, kind), True)
        for last, first, g in people for discipline, role, kind in [GROUPS[g]]
    ]
    medians = [MedianSet(discipline, role, 1, 1, 1, kind) for discipline, role, kind in GROUPS]
    report = analyze_round(RoundDataset(applications, medians, load_default_registry()))
    assert report.distinct_names == len({(last, first) for last, first, _ in people})


class TestFullAssociatePairing:
    """Correlations drop a pair holding a NaN, figure tables keep it, and a
    discipline with one role is in neither."""

    @pytest.fixture(scope="class")
    def document(self, tmp_path_factory):
        report = analyze_round(round_with_no_associate_under_median())
        out = tmp_path_factory.mktemp("paired")
        emit(report, "json", out)
        return json.loads((out / "report.json").read_text(encoding="utf-8"))

    @staticmethod
    def correlation_n(document, name, group):
        table = document["correlations"]
        row = next(r for r in table["rows"] if r[:3] == [f"{name}.F", f"{name}.A", group])
        return row[table["columns"].index("n")]

    def test_correlations_drop_the_nan_pair(self, document):
        assert self.correlation_n(document, "PQU", "bibliometric") == 1
        assert self.correlation_n(document, "PQO", "bibliometric") == 2

    def test_correlations_keep_the_discipline_when_its_metric_is_defined(self, document):
        assert self.correlation_n(document, "NA", "all") == 3
        assert self.correlation_n(document, "PVR", "all") == 3

    def test_conditional_scatter_keeps_the_nan(self, document):
        table = document["fig_conditional_scatter"]
        row = next(r for r in table["rows"] if r[0] == "01/A2")
        assert row[table["columns"].index("pqu_associate")] is None
        assert row[table["columns"].index("pqu_full")] == 0

    def test_one_role_discipline_is_never_paired(self, document):
        for name in ("fig_na_scatter", "fig_conditional_scatter", "fig_pvr_bars"):
            codes = sorted(r[0] for r in document[name]["rows"])
            assert codes == ["01/A1", "01/A2", "10/A1"], name
        for name in ("NA", "PQ", "PVR"):
            assert self.correlation_n(document, name, "all") == 3
        for name in ("M1", "PQO", "PQU", "PVR"):
            assert self.correlation_n(document, name, "non-bibliometric") == 1


class TestEmit:
    def test_csv_is_deterministic(self, tmp_path):
        report = analyze_round(small_round())
        first = emit(report, "csv", tmp_path / "a")
        second = emit(report, "csv", tmp_path / "b")
        assert [p.name for p in first] == [p.name for p in second]
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes()

    def test_csv_writes_every_table(self, tmp_path):
        report = analyze_round(small_round())
        written = emit(report, "csv", tmp_path)
        assert len(written) == 21
        assert [p.name for p in written] == sorted(p.name for p in written)

    def test_nan_prints_as_token_in_csv(self, tmp_path):
        report = analyze_round(small_round())
        emit(report, "csv", tmp_path)
        table = (tmp_path / "discipline_role_table.csv").read_text(encoding="utf-8")
        row = next(line for line in table.splitlines() if line.startswith("13/A5,full"))
        assert ",NaN," in row

    def test_nan_becomes_null_in_json(self, tmp_path):
        report = analyze_round(small_round())
        emit(report, "json", tmp_path)
        document = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        table = document["discipline_role_table"]
        pqu = table["columns"].index("pqu")
        row = next(r for r in table["rows"] if r[0] == "13/A5" and r[1] == "full")
        assert row[pqu] is None

    def test_json_emit_holds_a_block_of_rows_not_the_document(self, tmp_path):
        plans = tuple(
            dataclasses.replace(p, n_full=30 * p.n_full, n_associate=30 * p.n_associate)
            for p in default_synth_config().plans
        )
        report = analyze_round(synthesize_round(SynthConfig(plans), 3))
        assert report.n_applications >= 20_000
        tracemalloc.start()
        try:
            emit(report, "json", tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "report.json").stat().st_size / 2

    def test_unknown_format_is_an_error(self, tmp_path):
        report = analyze_round(small_round())
        target = tmp_path / "report"
        with pytest.raises(ValueError, match="unknown format"):
            emit(report, "parquet", target)
        assert not target.exists()

    def test_empty_round_still_yields_headed_tables(self, tmp_path):
        report = analyze_round(RoundDataset([], [], load_default_registry()))
        assert report.n_applications == 0
        written = emit(report, "csv", tmp_path)
        assert len(written) == 21
        area = (tmp_path / "area_table.csv").read_text(encoding="utf-8")
        assert area.startswith("area,")
        assert len(area.splitlines()) == 1


class TestSynthRoundProperties:
    def test_strict_round_has_no_violations_and_no_qualified_under(self):
        plans = tuple(
            DisciplinePlan(
                code,
                30,
                30,
                (
                    ComponentModel("lognormal", (1.0, 0.8)),
                    ComponentModel("gamma", (2.0, 3.0)),
                    ComponentModel("poisson", (5.0,)),
                ),
            )
            for code in ("01/A1", "03/A1", "10/B1", "14/A1")
        )
        dataset = synthesize_round(SynthConfig(plans), 13)
        report = analyze_round(dataset)
        for row in report.discipline_role_rows:
            assert row.pvr == 0.0
            assert row.qualified_under == 0
            assert row.pqu == 0.0 or math.isnan(row.pqu)

    def test_aggregation_conserves_on_a_synthetic_round(self):
        report = analyze_round(synthesize_round(default_synth_config(), 3))
        assert report.n_applications == sum(
            r.applications for r in report.discipline_role_rows
        )
        assert report.n_applications == sum(
            r.applications_total for r in report.area_rows
        )


@pytest.fixture(scope="module")
def golden_dir():
    import pathlib

    return pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    dataset = synthesize_round(default_synth_config(), GOLDEN_SEED)
    write_applications(dataset.applications, out / "applications.csv")
    write_medians(dataset.medians, out / "medians.csv")
    write_registry(dataset.registry, out / "registry.csv")
    report = analyze_round(dataset)
    emit(report, "csv", out / "report")
    emit(report, "json", out / "report")
    return out


class TestGolden:
    """Byte-level pin of one full synthesize→serialize→analyze→report run.

    Regenerate with scripts/regen_golden.py after an intentional output
    change, and review the diff.
    """

    def test_dataset_files_match(self, golden_dir, regenerated):
        for name in ("applications.csv", "medians.csv", "registry.csv"):
            assert (regenerated / name).read_bytes() == (golden_dir / name).read_bytes()

    def test_report_files_match(self, golden_dir, regenerated):
        golden_files = sorted(p.name for p in (golden_dir / "report").iterdir())
        new_files = sorted(p.name for p in (regenerated / "report").iterdir())
        assert new_files == golden_files
        for name in golden_files:
            assert (regenerated / "report" / name).read_bytes() == (
                golden_dir / "report" / name
            ).read_bytes(), f"report table {name} drifted"

    def test_shuffled_input_rows_give_the_golden_report(self, golden_dir, tmp_path):
        # The inter-indicator correlations read the rows in dataset order, so
        # this also pins them to the rows' values, not their order.
        rng = random.Random(1301)
        round_args = []
        for name in ("applications", "medians", "registry"):
            header, *rows = (golden_dir / f"{name}.csv").read_bytes().splitlines(keepends=True)
            shuffled = rng.sample(rows, len(rows))
            assert shuffled != rows
            (tmp_path / f"{name}.csv").write_bytes(header + b"".join(shuffled))
            round_args += [f"--{name}", str(tmp_path / f"{name}.csv")]
        out = tmp_path / "report"
        for fmt in ("csv", "json"):
            assert main(["analyze", *round_args, "--format", fmt, "--out", str(out)]) == 0
        golden_files = sorted(p.name for p in (golden_dir / "report").iterdir())
        assert sorted(p.name for p in out.iterdir()) == golden_files
        for name in golden_files:
            assert (out / name).read_bytes() == (golden_dir / "report" / name).read_bytes(), name


class TestCli:
    def test_synth_validate_analyze_pipeline(self, tmp_path, capsys):
        round_dir = tmp_path / "round"
        assert main(["synth", "--out", str(round_dir), "--seed", "3"]) == 0
        args = [
            "--applications",
            str(round_dir / "applications.csv"),
            "--medians",
            str(round_dir / "medians.csv"),
            "--registry",
            str(round_dir / "registry.csv"),
        ]
        assert main(["validate", *args]) == 0
        out = capsys.readouterr().out
        assert "ok: 680 applications, 16 median sets" in out
        report_dir = tmp_path / "report"
        assert main(["analyze", *args, "--out", str(report_dir)]) == 0
        out = capsys.readouterr().out
        assert "wrote 21 file(s)" in out
        assert (report_dir / "totals.csv").exists()

    def test_analyze_json_format(self, tmp_path):
        round_dir = tmp_path / "round"
        main(["synth", "--out", str(round_dir)])
        report_dir = tmp_path / "report"
        code = main(
            [
                "analyze",
                "--applications",
                str(round_dir / "applications.csv"),
                "--medians",
                str(round_dir / "medians.csv"),
                "--out",
                str(report_dir),
                "--format",
                "json",
            ]
        )
        assert code == 0
        document = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
        assert "totals" in document

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--applications",
                str(tmp_path / "absent.csv"),
                "--medians",
                str(tmp_path / "absent2.csv"),
                "--out",
                str(tmp_path / "report"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_json_write_failing_after_the_first_table_leaves_no_file(
        self, tmp_path, capsys, monkeypatch
    ):
        round_dir, out = tmp_path / "round", tmp_path / "report"
        assert main(["synth", "--out", str(round_dir)]) == 0
        written = []

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                if text.startswith(',\n  "'):  # the second table opens
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(text)
                return self.handle.write(text)

        write_json = report_module._write_json
        monkeypatch.setattr(
            report_module, "_write_json", lambda handle, tables: write_json(FullDisk(handle), tables)
        )
        code = main(["analyze", "--applications", str(round_dir / "applications.csv"),
                     "--medians", str(round_dir / "medians.csv"), "--out", str(out),
                     "--format", "json"])
        assert code == 2
        assert f"error: cannot write {out / 'report.json'}: " in capsys.readouterr().err
        assert '"area_table"' in "".join(written)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, earlier, failing", [
        ("synth", "applications.csv", "medians.csv"),
        ("analyze", "area_table.csv", "summaries.csv"),
    ])
    def test_csv_write_failing_partway_through_a_later_file_leaves_no_file(
        self, tmp_path, capsys, monkeypatch, command, earlier, failing
    ):
        round_dir, out = tmp_path / "round", tmp_path / "out"
        assert main(["synth", "--out", str(round_dir)]) == 0
        writes = []

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                writes.append(text)
                if len(writes) == 2:  # the header went through, the first rows do not
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.handle.write(text)

        output_file = ingest_module.output_file

        @contextlib.contextmanager
        def full_disk(path):
            with output_file(path) as handle:
                yield FullDisk(handle) if path.name == failing else handle

        monkeypatch.setattr(ingest_module, "output_file", full_disk)
        args = {
            "synth": ["synth", "--out", str(out)],
            "analyze": ["analyze", "--applications", str(round_dir / "applications.csv"),
                        "--medians", str(round_dir / "medians.csv"), "--out", str(out)],
        }[command]
        assert main(args) == 2
        assert f"error: cannot write {out / failing}: " in capsys.readouterr().err
        assert len(writes) == 2
        assert (out / earlier).exists() and not (out / failing).exists()
        assert list(out.rglob("*.part")) == []

    def test_out_directories_are_created(self, tmp_path):
        round_dir = tmp_path / "a" / "b" / "c"
        assert main(["synth", "--out", str(round_dir)]) == 0
        inputs = ["--applications", str(round_dir / "applications.csv"),
                  "--medians", str(round_dir / "medians.csv")]
        for format, name in (("csv", "totals.csv"), ("json", "report.json")):
            out = tmp_path / format / "b" / "c"
            assert main(["analyze", *inputs, "--out", str(out), "--format", format]) == 0
            assert (out / name).exists()

    @pytest.mark.parametrize("format", [None, "csv", "json"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, format):
        round_dir, blocker = tmp_path / "round", tmp_path / "file"
        assert main(["synth", "--out", str(round_dir)]) == 0
        capsys.readouterr()
        blocker.write_text("kept\n", encoding="utf-8")
        if format is None:
            args = ["synth", "--out", str(blocker)]
        else:
            args = ["analyze", "--applications", str(round_dir / "applications.csv"),
                    "--medians", str(round_dir / "medians.csv"), "--out", str(blocker),
                    "--format", format]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker}/") and "Traceback" not in err
        assert blocker.read_text(encoding="utf-8") == "kept\n"

    def test_validation_problems_exit_1(self, tmp_path, capsys):
        data = small_round()
        apps = tmp_path / "applications.csv"
        medians = tmp_path / "medians.csv"
        write_applications(data.applications, apps)
        write_medians(data.medians[:-1], medians)
        code = main(
            [
                "analyze",
                "--applications",
                str(apps),
                "--medians",
                str(medians),
                "--out",
                str(tmp_path / "report"),
            ]
        )
        assert code == 1
        assert "no median set" in capsys.readouterr().err

    def test_analyze_validates_once(self, tmp_path, monkeypatch):
        data = small_round()
        apps = tmp_path / "applications.csv"
        medians = tmp_path / "medians.csv"
        write_applications(data.applications, apps)
        write_medians(data.medians, medians)
        calls = []
        validate = RoundDataset.validate
        monkeypatch.setattr(RoundDataset, "validate", lambda self: calls.append(1) or validate(self))
        args = ["--applications", str(apps), "--medians", str(medians), "--out", str(tmp_path / "r")]
        assert main(["analyze", *args]) == 0
        assert len(calls) == 1

    def test_every_validation_problem_is_printed(self, tmp_path, capsys):
        data = small_round()
        apps = tmp_path / "applications.csv"
        medians = tmp_path / "medians.csv"
        write_applications(data.applications, apps)
        write_medians([m for m in data.medians if m.discipline.code != "13/A5"], medians)
        args = ["--applications", str(apps), "--medians", str(medians), "--out", str(tmp_path / "r")]
        assert main(["analyze", *args]) == 1
        err = capsys.readouterr().err
        # the two 13/A5 full professors in small_round, each on its own line
        assert err.count("error: application") == err.count("no median set for 13/A5") == 2
        assert not (tmp_path / "r").exists()

    def test_unvalidated_missing_median_set_exits_1(self, tmp_path, capsys, monkeypatch):
        # classification raises MissingMedianSetError if a dataset reaches it
        # unvalidated; main() reports it as invalid input, not a traceback
        data = small_round()
        apps = tmp_path / "applications.csv"
        medians = tmp_path / "medians.csv"
        write_applications(data.applications, apps)
        write_medians(data.medians[:-1], medians)
        monkeypatch.setattr(RoundDataset, "validate", lambda self: [])
        args = ["--applications", str(apps), "--medians", str(medians), "--out", str(tmp_path / "r")]
        assert main(["analyze", *args]) == 1
        err = capsys.readouterr().err
        assert "error: no median set for" in err
        assert "Traceback" not in err

    def test_validate_reports_row_damage(self, tmp_path, capsys):
        apps = tmp_path / "applications.csv"
        apps.write_text(
            "last_name,first_name,discipline,sub_discipline,role,ind1,ind2,ind3,qualified\n"
            "Rossi,Maria,01/A1,,9,1,1,1,true\n",
            encoding="utf-8",
        )
        medians = tmp_path / "medians.csv"
        data = small_round()
        write_medians(data.medians, medians)
        code = main(
            ["validate", "--applications", str(apps), "--medians", str(medians)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "unknown role" in out
        assert "1 error(s)" in out

    def test_bad_bin_width_exits_1(self, tmp_path, capsys):
        data = small_round()
        apps = tmp_path / "applications.csv"
        medians = tmp_path / "medians.csv"
        write_applications(data.applications, apps)
        write_medians(data.medians, medians)
        code = main(
            [
                "analyze",
                "--applications",
                str(apps),
                "--medians",
                str(medians),
                "--out",
                str(tmp_path / "report"),
                "--bin-width",
                "0",
            ]
        )
        assert code == 1
        assert "bin width" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["nan", "inf", "0", "-1", "1e-6"])
    def test_unusable_bin_width_exits_1_quickly(self, golden_dir, tmp_path, capsys, width):
        started = time.perf_counter()
        code = main(
            [
                "analyze",
                "--applications",
                str(golden_dir / "applications.csv"),
                "--medians",
                str(golden_dir / "medians.csv"),
                "--registry",
                str(golden_dir / "registry.csv"),
                "--out",
                str(tmp_path / "report"),
                f"--bin-width={width}",
            ]
        )
        assert code == 1
        assert time.perf_counter() - started < 10.0
        err = capsys.readouterr().err
        assert "--bin-width" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report").exists()

    def test_names_with_a_comma_or_a_quote_keep_their_columns(self, golden_dir, tmp_path):
        with open(golden_dir / "applications.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        rows[1][0] = "Rossi, Jr."
        rows[2][1] = 'Anna "Nina"'
        apps = tmp_path / "applications.csv"
        with open(apps, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        out = tmp_path / "report"
        code = main(
            [
                "analyze", "--applications", str(apps),
                "--medians", str(golden_dir / "medians.csv"), "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "classified_applications.csv", encoding="utf-8", newline="") as handle:
            table = list(csv.reader(handle))
        assert len(table) == len(rows)
        assert {len(row) for row in table} == {11}
        ids = {row[0] for row in table[1:]}
        assert f"Rossi, Jr.|{rows[1][1]}" in ids
        assert f'{rows[2][0]}|Anna "Nina"' in ids

    def test_latin1_input_exits_1_with_file_and_line(self, golden_dir, tmp_path, capsys):
        lines = (golden_dir / "applications.csv").read_bytes().split(b"\n")
        lines[9] = lines[9].replace(b",", "\u00e9,".encode("latin-1"), 1)
        apps = tmp_path / "applications.csv"
        apps.write_bytes(b"\n".join(lines))
        code = main(
            ["validate", "--applications", str(apps), "--medians", str(golden_dir / "medians.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{apps}: line 10: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["applications", "medians", "registry"])
    def test_a_hard_load_error_names_the_file(self, golden_dir, tmp_path, capsys, name):
        lines = (golden_dir / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        damages = {
            "missing columns: ": ["x" + lines[0], *lines[1:]],
            "input is empty, expected a header row": [],
            f"line {len(lines) + 1}: duplicate ": [*lines, lines[1]],
        }
        paths = {n: golden_dir / f"{n}.csv" for n in ("applications", "medians", "registry")}
        paths[name] = tmp_path / f"{name}.csv"
        args = [f"--{n}={path}" for n, path in paths.items()]
        for message, damaged in damages.items():
            paths[name].write_text("".join(line + "\n" for line in damaged), encoding="utf-8")
            for command in (["validate"], ["analyze", f"--out={tmp_path / 'report'}"]):
                assert main([*command, *args]) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"error: {paths[name]}: {message}"), err
                assert "Traceback" not in err
        assert not (tmp_path / "report").exists()

    def test_synth_accepts_a_config_file(self, tmp_path, capsys):
        config = SynthConfig(
            (
                DisciplinePlan(
                    "05/A1",
                    12,
                    18,
                    (
                        ComponentModel("uniform", (0.0, 9.0)),
                        ComponentModel("gamma", (2.0, 2.0)),
                        ComponentModel("poisson", (3.0,)),
                    ),
                ),
            )
        )
        config_path = tmp_path / "config.json"
        config.save(config_path)
        out = tmp_path / "round"
        code = main(
            ["synth", "--config", str(config_path), "--out", str(out), "--seed", "1"]
        )
        assert code == 0
        assert "wrote 30 applications" in capsys.readouterr().out
        text = (out / "applications.csv").read_text(encoding="utf-8")
        assert len(text.splitlines()) == 31

    def test_a_negative_seed_exits_1_naming_the_option(self, tmp_path, capsys):
        out = tmp_path / "round"
        assert main(["synth", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()
