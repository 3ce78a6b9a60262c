"""Each command imports only what it runs, and the package namespace is lazy.

`validate` runs no numpy code, so it must not pay numpy's import; `synth`
runs no analysis and `analyze` no generator.  The commands reach the
functions they call through `asnqual.cli`'s attributes, so a wrapper set
there (as perfbench/traced_cli.py does) runs.  An ApplicationTable holds
each numeric column once, as the parser's buffer, and its numpy columns
are views of it.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

import asnqual
from asnqual import cli
from asnqual.indicators import IndicatorKind
from asnqual.ingest import ApplicationTable, parse_applications
from asnqual.thresholds import DisciplineId, Role

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
ROUND = ["--applications", str(GOLDEN / "applications.csv"), "--medians", str(GOLDEN / "medians.csv")]

# Runs the CLI as `python -m asnqual.cli` does, or as the `asnqual` console
# script does, and prints the loaded module names as the last line of stderr.
LAUNCH = {
    "module": "import runpy; runpy.run_module('asnqual.cli', run_name='__main__', alter_sys=True)",
    "entry point": "from asnqual.cli import main; sys.exit(main())",
}
DRIVER = """
import atexit, json, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
sys.argv = ["asnqual", *sys.argv[1:]]
{launch}
"""


def loaded_modules(launch, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run(
        [sys.executable, "-c", DRIVER.format(launch=LAUNCH[launch]), *args],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1]))


@pytest.mark.parametrize("launch", sorted(LAUNCH))
def test_validate_loads_no_numpy(launch):
    modules = loaded_modules(launch, "validate", *ROUND)
    assert {"numpy", "statistics"} & modules == set()
    package = {m for m in modules if m.split(".")[0] == "asnqual"}
    assert package - {"asnqual.cli"} == {
        "asnqual", "asnqual.ingest", "asnqual.thresholds", "asnqual.indicators"
    }


@pytest.mark.parametrize("launch", sorted(LAUNCH))
def test_validate_loads_no_process_machinery(launch):
    # the parse forks its one child itself and reads its columns back by marshal
    modules = loaded_modules(launch, "validate", *ROUND)
    assert {"pickle", "multiprocessing", "subprocess"} & modules == set()


@pytest.mark.parametrize("launch", sorted(LAUNCH))
def test_synth_and_analyze_load_only_their_modules(launch, tmp_path):
    synth = loaded_modules(launch, "synth", "--out", str(tmp_path / "round"))
    assert {"asnqual.synth", "numpy"} <= synth
    assert {"asnqual.report", "asnqual.stats"} & synth == set()
    analyze = loaded_modules(launch, "analyze", *ROUND, "--out", str(tmp_path / "report"))
    assert {"asnqual.report", "asnqual.stats"} <= analyze
    assert "asnqual.synth" not in analyze


def test_import_asnqual_loads_no_submodule_until_a_name_is_used():
    code = (
        "import sys, asnqual\n"
        "print(sorted(m for m in sys.modules if m.startswith('asnqual') or m == 'numpy'))\n"
        "assert asnqual.report is sys.modules['asnqual.report']\n"
        "assert asnqual.RoundReport is asnqual.report.RoundReport\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['asnqual']\n"


def test_every_exported_name_is_the_object_of_its_module():
    assert len(asnqual.__all__) == len(set(asnqual.__all__)) == 68
    for name in asnqual.__all__:
        module = importlib.import_module(f"asnqual.{asnqual._MODULE_OF[name]}")
        assert getattr(asnqual, name) is getattr(module, name), name
    assert set(asnqual.__all__) <= set(dir(asnqual))
    assert asnqual.report is importlib.import_module("asnqual.report")
    assert asnqual.cli is cli


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        asnqual.nothing
    with pytest.raises(ImportError):
        from asnqual import nothing  # noqa: F401
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        cli.nothing


def test_every_traced_cli_name_is_called_through_the_module(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    names = {attr for owner, attr, _, _ in traced_cli.SPANS if owner == "asnqual.cli"}
    assert names >= {"load_round", "analyze_round", "emit", "synthesize_round", "write_applications"}
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    round_dir = tmp_path / "round"
    args = ["--applications", str(round_dir / "applications.csv"),
            "--medians", str(round_dir / "medians.csv")]
    assert cli.main(["synth", "--out", str(round_dir)]) == 0
    assert cli.main(["validate", *args]) == 0
    for format in ("csv", "json"):
        assert cli.main(["analyze", *args, "--out", str(tmp_path / format), "--format", format]) == 0
    assert [name for name, n in calls.items() if n == 0] == []
    assert calls["load_round"] == 3 and calls["emit"] == 2


def test_the_numpy_columns_are_views_of_the_parsers_buffers():
    table, _ = parse_applications(GOLDEN / "applications.csv")
    assert (type(table.group_buffer), table.group_buffer.typecode) == (array, "i")
    assert (type(table.ind_buffer), table.ind_buffer.typecode) == (array, "d")
    assert type(table.qualified_buffer) is bytearray
    assert np.shares_memory(table.group, table.group_buffer)
    assert np.shares_memory(table.ind, table.ind_buffer)
    assert np.shares_memory(table.qualified, table.qualified_buffer)
    assert table.ind is table.ind  # made once
    assert (table.group.dtype, table.group.shape) == (np.int32, (680,))
    assert (table.ind.dtype, table.ind.shape) == (np.float64, (680, 3))
    assert (table.qualified.dtype, table.qualified.shape) == (np.bool_, (680,))


GROUPS = [(DisciplineId.parse("01/A1"), Role.FULL, IndicatorKind.BIBLIOMETRIC),
          (DisciplineId.parse("10/A1"), Role.ASSOCIATE, IndicatorKind.NON_BIBLIOMETRIC),
          (DisciplineId.parse("13/A5"), Role.FULL, IndicatorKind.NON_BIBLIOMETRIC)]
NAMES = (["a", "b", "c"], ["X"] * 3)
GROUP = [2, 0, 2]
VALUES = [11.0, 15.0, 6.0, 0.5, -0.0, 2.0, 5e-324, 3.0, 1e300]
QUALIFIED = [True, False, True]


@pytest.mark.parametrize("columns", [
    (GROUP, VALUES, QUALIFIED),
    (GROUP, [tuple(VALUES[i:i + 3]) for i in range(0, 9, 3)], [1, 0, 1]),
    (array("i", GROUP), array("d", VALUES), bytearray([1, 0, 1])),
    (np.array(GROUP, dtype=np.int32), np.array(VALUES).reshape(3, 3), np.array(QUALIFIED)),
    (np.array(GROUP, dtype=np.int64), np.array(VALUES, dtype=object), np.array(QUALIFIED, dtype=np.int8)),
], ids=["lists", "rows", "typed buffers", "numpy", "numpy, other dtypes"])
def test_from_rows_builds_the_same_table_from_any_column_form(columns):
    expected = ApplicationTable.from_rows(
        *NAMES, GROUPS, array("i", GROUP), array("d", VALUES), bytearray([1, 0, 1])
    )
    table = ApplicationTable.from_rows(*NAMES, GROUPS, *columns)
    assert table == expected and table.groups == expected.groups == (GROUPS[0], GROUPS[2])
    assert table.group.dtype == np.int32 and table.group.tolist() == [1, 0, 1]
    assert table.ind.dtype == np.float64 and table.ind.tobytes() == expected.ind.tobytes()
    assert table.qualified.dtype == np.bool_ and table.qualified.tolist() == QUALIFIED


def test_from_rows_copies_a_buffer_even_of_the_columns_layout():
    group, values, flags = np.array([2, 0, 1], dtype=np.int32), np.array(VALUES).reshape(3, 3), np.array(QUALIFIED)
    table = ApplicationTable.from_rows(*NAMES, GROUPS, group, values, flags)
    assert (table.group_buffer.typecode, table.ind_buffer.typecode) == ("i", "d")
    assert type(table.qualified_buffer) is bytearray
    for column, given in ((table.group, group), (table.ind, values), (table.qualified, flags)):
        assert not np.shares_memory(column, given)
        assert column.tolist() == given.tolist()


def test_synth_keeps_its_drawn_arrays_as_the_tables_columns():
    from asnqual.synth import default_synth_config, synthesize_round

    table = synthesize_round(default_synth_config(), 7).applications
    buffers = (table.group_buffer, table.ind_buffer, table.qualified_buffer)
    assert [(type(b), b.dtype) for b in buffers] == [
        (np.ndarray, np.int32), (np.ndarray, np.float64), (np.ndarray, np.bool_)
    ]
    assert all(map(np.shares_memory, (table.group, table.ind, table.qualified), buffers))


@pytest.mark.parametrize("group, values, flags, message", [
    (GROUP[:2], VALUES, QUALIFIED, "unequal lengths"),
    (GROUP, VALUES[:8], QUALIFIED, "unequal lengths"),
    (GROUP, VALUES, QUALIFIED + [True], "unequal lengths"),
    ([2, 0, 3], VALUES, QUALIFIED, "group id outside the 3 groups"),
    ([2, 0, -1], VALUES, QUALIFIED, "group id outside the 3 groups"),
    # values the column's layout cannot hold, named with the column
    ([2**32, 0, 1], VALUES, QUALIFIED, "^application column group: "),
    (np.array([2**40, 0, 1]), VALUES, QUALIFIED, "^application column group: "),
    ([0.5, 0, 1], VALUES, QUALIFIED, "^application column group: "),
    (GROUP, ["a", *VALUES[1:]], QUALIFIED, "^application column ind: "),
    (GROUP, [("1", "2", "3")] * 3, QUALIFIED, "^application column ind: "),
    (GROUP, VALUES, 1, "^application column qualified: "),
])
def test_from_rows_rejects_columns_that_do_not_fit(group, values, flags, message):
    with pytest.raises(ValueError, match=message):
        ApplicationTable.from_rows(*NAMES, GROUPS, group, values, flags)
