"""scripts/run_demo_round.py: synthesizes, validates and reports one demo round."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("run_demo_round", ROOT / "scripts" / "run_demo_round.py")
run_demo_round = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_demo_round)


def test_writes_the_round_and_every_report_table(tmp_path, capsys, monkeypatch):
    out = tmp_path / "demo"
    monkeypatch.setattr(sys, "argv", ["run_demo_round.py", "--out", str(out)])
    assert run_demo_round.main() == 0
    assert sorted(p.name for p in out.glob("*.csv")) == [
        "applications.csv", "medians.csv", "registry.csv"
    ]
    tables = sorted(p.name for p in (out / "report").iterdir())
    assert tables == sorted(p.name for p in (ROOT / "tests" / "golden" / "report").glob("*.csv"))
    assert len(tables) == 21
    assert f"wrote 21 report tables to {out / 'report'}" in capsys.readouterr().out
