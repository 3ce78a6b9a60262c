"""Independent output check: recompute from the input CSVs what the reports claim.

Nothing here imports asnqual.  A mismatch is returned as a problem string;
the caller counts each problem against the operation that produced it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

REPORT_TABLES = 21
ROLE_LABELS = {"1": "full", "2": "associate"}
# Entries of the pair-comparison block, so a 1,600-row group stays in a few MB.
BLOCK_ENTRIES = 1 << 21


def digest(files: list[Path], base: Path) -> str:
    """sha256 over the files' names (relative to `base`) and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(base)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


class Round:
    """Applications and their resolved medians, as arrays."""

    def __init__(self, round_dir: Path) -> None:
        apps = _rows(round_dir / "applications.csv")
        medians = {}
        for row in _rows(round_dir / "medians.csv"):
            key = (row["discipline"], row["sub_discipline"], row["role"])
            medians[key] = ([float(row[c]) for c in ("m1", "m2", "m3")], row["kind"])
        self.n = len(apps)
        self.keys = []
        self.groups = []
        med, required = [], []
        for row in apps:
            code, sub, role = row["discipline"], row["sub_discipline"], row["role"]
            found = medians.get((code, sub, role)) or medians[(code, "", role)]
            med.append(found[0])
            required.append(2 if found[1] == "B" else 1)
            applicant = f"{row['last_name'].strip()}|{row['first_name'].strip()}"
            self.keys.append((code, sub, ROLE_LABELS[role], applicant))
            self.groups.append((code, ROLE_LABELS[role]))
        self.ind = np.array([[float(row[c]) for c in ("ind1", "ind2", "ind3")] for row in apps],
                            dtype=float).reshape(-1, 3)
        self.qualified = np.array([row["qualified"] == "true" for row in apps], dtype=bool)
        self.exceeds = (self.ind > np.array(med, dtype=float).reshape(-1, 3)).sum(axis=1)
        self.over = self.exceeds >= np.array(required, dtype=int)


def pair_counts(values: np.ndarray, qualified: np.ndarray) -> tuple[int, int]:
    """(dominating, violating) ordered pairs of one group, by blocked comparison."""
    n = len(values)
    step = max(1, BLOCK_ENTRIES // max(1, 3 * n))
    dominating = violating = 0
    for lo in range(0, n, step):
        block = values[lo:lo + step, None, :]
        dom = (block >= values[None]).all(axis=2) & (block > values[None]).any(axis=2)
        dominating += int(dom.sum())
        violating += int((dom & ~qualified[lo:lo + step, None] & qualified[None, :]).sum())
    return dominating, violating


def check_classified(data: Round, csv_dir: Path) -> list[str]:
    """`exceeds` and `standing` of every classified row against the recomputation."""
    index = {key: i for i, key in enumerate(data.keys)}
    rows = _rows(csv_dir / "classified_applications.csv")
    problems = []
    if len(rows) != data.n:
        problems.append(f"classified_applications has {len(rows)} rows, input has {data.n}")
    for row in rows:
        i = index.get((row["discipline"], row["sub_discipline"], row["role"], row["applicant_id"]))
        if i is None:
            problems.append(f"classified row {row['applicant_id']} is not in the input")
            continue
        standing = "over-median" if data.over[i] else "under-median"
        if int(row["exceeds"]) != data.exceeds[i] or row["standing"] != standing:
            problems.append(
                f"classified {row['applicant_id']}: exceeds {row['exceeds']} {row['standing']}, "
                f"expected {data.exceeds[i]} {standing}"
            )
    return problems


def check_pairs(data: Round, csv_dir: Path) -> list[str]:
    """dominating/violating pairs of every discipline x role group."""
    members: dict[tuple[str, str], list[int]] = {}
    for i, group in enumerate(data.groups):
        members.setdefault(group, []).append(i)
    rows = _rows(csv_dir / "discipline_role_table.csv")
    problems = []
    if len(rows) != len(members):
        problems.append(f"discipline_role_table has {len(rows)} rows, input has {len(members)} groups")
    for row in rows:
        idx = members.get((row["discipline"], row["role"]))
        if idx is None:
            problems.append(f"group {row['discipline']} {row['role']} is not in the input")
            continue
        expected = pair_counts(data.ind[idx], data.qualified[idx])
        got = (int(row["dominating_pairs"]), int(row["violating_pairs"]))
        if got != expected:
            problems.append(f"group {row['discipline']} {row['role']}: pairs {got}, expected {expected}")
    return problems


def check_tables(csv_dir: Path, json_path: Path) -> list[str]:
    """The CSV and JSON reports hold the same tables, columns and row counts."""
    document = json.loads(json_path.read_text(encoding="utf-8"))
    csv_tables = {}
    for path in csv_dir.glob("*.csv"):
        lines = path.read_text(encoding="utf-8").splitlines()
        csv_tables[path.stem] = (lines[0].split(","), len(lines) - 1)
    problems = []
    if len(csv_tables) != REPORT_TABLES or sorted(csv_tables) != sorted(document):
        problems.append(f"tables differ: csv {sorted(csv_tables)} json {sorted(document)}")
    for name in sorted(set(csv_tables) & set(document)):
        columns, count = csv_tables[name]
        if columns != document[name]["columns"] or count != len(document[name]["rows"]):
            problems.append(f"table {name}: csv and json disagree on columns or row count")
    return problems
