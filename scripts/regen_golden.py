"""Regenerate the frozen end-to-end fixtures under tests/golden/.

The fixtures pin the byte-level output of the synthesizer and the report
writer for one fixed configuration and seed, as the asnqual command line
writes them: synth, then analyze in CSV and in JSON.  Rerun this script
only when an intentional change to serialization or analysis output is
made, and review the diff before committing.

    python scripts/regen_golden.py           # rewrite tests/golden/
    python scripts/regen_golden.py --check   # compare only; exit 1 on a difference

--check regenerates into a temporary directory, never writes to
tests/golden/, and names each file that differs, is missing or is extra.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asnqual.cli import main as asnqual

GOLDEN_SEED = 7
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def regenerate(out: Path) -> int:
    """Write the golden dataset and report files under `out`; returns the file count.

    Runs the asnqual commands with their stdout discarded; a command that
    fails stops the run with its exit status.
    """
    round_files = [f"--{name}={out / name}.csv" for name in ("applications", "medians", "registry")]
    for command in (
        ["synth", f"--seed={GOLDEN_SEED}", f"--out={out}"],
        ["analyze", *round_files, "--format=csv", f"--out={out / 'report'}"],
        ["analyze", *round_files, "--format=json", f"--out={out / 'report'}"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            status = asnqual(command)
        if status:
            raise SystemExit(f"asnqual {' '.join(command)} exited {status}")
    return sum(1 for p in out.rglob("*") if p.is_file())


def differing_files(new: Path, old: Path) -> list[str]:
    """Relative paths of the files that differ between two trees or are in one only."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    return [
        name for name in sorted(files(new) | files(old))
        if not ((new / name).is_file() and (old / name).is_file()
                and (new / name).read_bytes() == (old / name).read_bytes())
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check tests/golden/.")
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate into a temporary directory and compare it with tests/golden/",
    )
    args = parser.parse_args(argv)
    if args.check:
        with tempfile.TemporaryDirectory() as tmp:
            count = regenerate(Path(tmp))
            differing = differing_files(Path(tmp), GOLDEN_DIR)
        for name in differing:
            print(f"differs: {GOLDEN_DIR / name}")
        if differing:
            print(f"{len(differing)} of the golden files differ from a fresh regeneration")
            return 1
        print(f"ok: {count} files byte-identical to {GOLDEN_DIR}")
        return 0
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    count = regenerate(GOLDEN_DIR)
    print(f"wrote {count} files to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
