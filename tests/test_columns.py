"""The columnar round from synth to report.

`synth` draws and classifies whole columns and writes them column by
column; the files it writes are pinned by sha256 for a config that mixes
every decision model, a zero flip probability (which draws nothing), a
signed-zero constant, small professor populations and empty roles.  The
CLI's `validate` and `analyze` read and analyze a round without building a
per-application record.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asnqual.cli import main
from asnqual.dominance import ApplicationRecord
from asnqual.indicators import IndicatorKind, IndicatorVector
from asnqual.ingest import ApplicationTable

GOLDEN = Path(__file__).parent / "golden"


def plan(discipline, n_full, n_associate, components, decision, flip=0.0, quantile=0.5,
         professors=31):
    return {
        "discipline": discipline, "n_full": n_full, "n_associate": n_associate,
        "components": [{"family": f, "params": list(p)} for f, p in components],
        "decision": decision, "professors": professors, "flip_probability": flip,
        "relaxed_quantile": quantile,
    }


SKEWED = (("lognormal", (1.2, 0.7)), ("gamma", (2.0, 3.0)), ("poisson", (6.0,)))
TIES = (("poisson", (3.0,)), ("uniform", (0.0, 4.0)), ("constant", (-0.0,)))
COUNTS = (("poisson", (3.0,)), ("poisson", (2.0,)), ("constant", (-0.0,)))
CONFIG = {"plans": [
    plan("01/A1", 40, 60, SKEWED, "strict-median"),
    # the median of 41 scores is one of them, tied with others
    plan("02/B1", 41, 0, COUNTS, "relaxed", quantile=0.5),
    plan("08/C1", 25, 35, TIES, "noisy-threshold", flip=0.0),
    plan("11/E1", 20, 45, SKEWED, "noisy-threshold", flip=0.15, professors=8),
    plan("13/A5", 0, 50, SKEWED, "relaxed", quantile=0.75),
    plan("14/C1", 35, 15, TIES, "strict-median"),
]}
REGISTRY_SHA256 = "b18dc522a7d9882e278832d1b120fe4bf3c03d618c8c74a10ab491d4f2b15d4b"
SYNTH_SHA256 = {
    0: {
        "applications.csv": "71eb1fa7c42a3e32a33b8b1bb91231f1aad7177c750e74d67d6af154c4d1a509",
        "medians.csv": "8ea4cdeb7db6f3767019a9e2013f35cefe292474d90ee2c53261e1b6742e0264",
        "registry.csv": REGISTRY_SHA256,
    },
    7: {
        "applications.csv": "125c1ac639a204d981992639ffaeecbde1dedcf4e474b8ca8447866d0f8a7e85",
        "medians.csv": "d9102434a75c81150be62b1f1a61ccc14c3b3abe44050d1e0f57a533430b727b",
        "registry.csv": REGISTRY_SHA256,
    },
}


def synth(tmp_path, config, seed):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return main(["synth", "--config", str(path), "--seed", str(seed), "--out", str(tmp_path / "round")])


@pytest.mark.parametrize("seed", sorted(SYNTH_SHA256))
def test_synth_files_keep_their_bytes(tmp_path, seed):
    assert synth(tmp_path, CONFIG, seed) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "round").iterdir())
    }
    assert written == SYNTH_SHA256[seed]


def test_synth_builds_its_table_without_the_name_scan(monkeypatch, tmp_path):
    # synth makes its own names, which hold no line break
    def refuse(*args, **kwargs):
        raise AssertionError("synth scanned its names through ApplicationTable.from_rows")

    monkeypatch.setattr(ApplicationTable, "from_rows", refuse)
    assert synth(tmp_path, CONFIG, min(SYNTH_SHA256)) == 0


def test_synth_does_not_import_statistics(tmp_path):
    code = ("import sys; from asnqual.cli import main; "
            "main(['synth', '--out', sys.argv[1]]); print('statistics' in sys.modules)")
    src = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, src))}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("component, message", [
    (0, "ind1 must be finite, got inf"),
    (1, "ind2 must be finite, got inf"),
])
def test_a_plan_that_draws_infinities_exits_1(tmp_path, capsys, component, message):
    components = [("gamma", (2.0, 3.0)), ("poisson", (6.0,))]
    # exp(705 + 3z) overflows for z above 1.6: the median stays finite, some draws do not
    components.insert(component, ("lognormal", (705.0, 3.0)))
    config = {"plans": [plan("01/A1", 5, 500, components, "strict-median", professors=101)]}
    assert synth(tmp_path, config, 0) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "round").exists()


def counting(init, calls):
    def wrapper(self, *args, **kwargs):
        calls.append(type(self).__name__)
        init(self, *args, **kwargs)
    return wrapper


def test_validate_and_analyze_build_no_records(monkeypatch, tmp_path):
    built = []
    for cls in (ApplicationRecord, IndicatorVector):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__, built))
    IndicatorVector(1.0, 2.0, 3.0, IndicatorKind.BIBLIOMETRIC)
    assert built == ["IndicatorVector"]
    built.clear()
    args = ["--applications", str(GOLDEN / "applications.csv"),
            "--medians", str(GOLDEN / "medians.csv"), "--registry", str(GOLDEN / "registry.csv")]
    assert main(["validate", *args]) == 0
    assert main(["analyze", *args, "--out", str(tmp_path / "csv")]) == 0
    assert main(["analyze", *args, "--out", str(tmp_path / "json"), "--format", "json"]) == 0
    assert built == []
