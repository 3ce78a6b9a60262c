"""scripts/regen_golden.py --check: compares a fresh regeneration with the golden tree."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("regen_golden", ROOT / "scripts" / "regen_golden.py")
regen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_golden)


def snapshot(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_check_names_each_differing_file_and_writes_nothing(tmp_path, capsys, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(ROOT / "tests" / "golden", golden)
    monkeypatch.setattr(regen_golden, "GOLDEN_DIR", golden)
    assert regen_golden.main(["--check"]) == 0
    assert "ok: 25 files byte-identical" in capsys.readouterr().out

    (golden / "report" / "totals.csv").write_text("changed\n", encoding="utf-8")
    (golden / "report" / "report.json").unlink()
    (golden / "extra.csv").write_text("x\n", encoding="utf-8")
    before = snapshot(golden)
    assert regen_golden.main(["--check"]) == 1
    out = capsys.readouterr().out
    for name in ("extra.csv", "report/report.json", "report/totals.csv"):
        assert f"differs: {golden / name}\n" in out
    assert "3 of the golden files differ" in out
    assert snapshot(golden) == before
