"""The benchmark's workloads: each is a synth config plus a base seed.

The benchmark writes the config JSON itself and hands the program only that
file and a seed, so a change to the program's bundled defaults does not
change a workload.  The synth seed of a run is ``base_seed + --seed``:
``--seed 0`` reproduces the reference rounds named in the README.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

REGISTRY_CSV = Path("src/asnqual/data/registry.csv")


def _plan(discipline, n_full, n_associate, components, decision="strict-median",
          flip_probability=0.0, relaxed_quantile=0.5):
    return {
        "discipline": discipline,
        "n_full": n_full,
        "n_associate": n_associate,
        "components": [{"family": f, "params": list(p)} for f, p in components],
        "decision": decision,
        "professors": 101,
        "flip_probability": flip_probability,
        "relaxed_quantile": relaxed_quantile,
    }


def _registry(root: Path) -> list[tuple[str, str]]:
    """(discipline code, kind B|NB) in bundled-registry order."""
    with open(root / REGISTRY_CSV, encoding="utf-8", newline="") as handle:
        return [(row["discipline"], row["kind"]) for row in csv.DictReader(handle)]


def national_300(root: Path) -> list[dict]:
    """Every registry discipline x (100 full + 200 associate), acceptance criterion 7."""
    components = (("lognormal", (1.2, 0.7)), ("gamma", (2.0, 3.0)), ("poisson", (6.0,)))
    return [
        _plan(code, 100, 200, components, "noisy-threshold", flip_probability=0.1)
        for code, _ in _registry(root)
    ]


def big_groups(root: Path) -> list[dict]:
    """Six bibliometric and six non-bibliometric disciplines of 800 + 1,600, tie-heavy."""
    components = {
        "B": (("poisson", (8.0,)), ("gamma", (2.0, 3.0)), ("poisson", (4.0,))),
        "NB": (("poisson", (3.0,)), ("poisson", (6.0,)), ("constant", (0.0,))),
    }
    registry = _registry(root)
    codes = [(c, k) for c, k in registry if k == "B"][:6]
    codes += [(c, k) for c, k in registry if k == "NB"][:6]
    return [
        _plan(code, 800, 1600, components[kind], "noisy-threshold", flip_probability=0.1)
        for code, kind in codes
    ]


WORKLOADS = {
    "national-300": (national_300, 1301),
    "big-groups": (big_groups, 1301),
}


def write_config(name: str, root: Path, path: Path) -> int:
    """Write the workload's synth config to `path`; returns its base seed."""
    build, base_seed = WORKLOADS[name]
    path.write_text(json.dumps({"plans": build(root)}, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return base_seed
