"""Synthetic qualification rounds for testing and demos.

A round is generated per discipline plan: indicator vectors are drawn
from per-component distributions, thresholds are the component medians
of a separately drawn professor population, and qualification decisions
follow one of three models:

- strict-median: qualified iff over-median;
- relaxed: qualified iff a monotone score (components scaled by their
  thresholds) exceeds a population quantile, so under-median applicants
  can qualify but Pareto violations cannot occur;
- noisy-threshold: strict-median decisions flipped independently with a
  fixed probability.

Generation is deterministic for a given config and seed.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .indicators import IndicatorKind, IndicatorVector
from .ingest import (
    ApplicationTable,
    DisciplineRegistryEntry,
    RoundDataset,
    load_default_registry,
)
from .thresholds import DisciplineId, MedianSet, Role, compute_median, required_exceedances

# Upper bounds on the sizes a config asks for, checked when it loads, so that a
# mistyped count fails at once instead of exhausting memory: all applications
# of a round, and the professor population drawn for each median set.
MAX_APPLICATIONS = 1_000_000
MAX_PROFESSORS = 100_000

_FAMILIES = {
    "lognormal": 2,  # (mean, sigma) of the underlying normal, sigma > 0
    "gamma": 2,      # (shape, scale), both > 0
    "uniform": 2,    # (low, high), 0 <= low < high
    "poisson": 1,    # (lam,), lam >= 0
    "constant": 1,   # (value,), value >= 0
}


@dataclass(frozen=True)
class ComponentModel:
    """Distribution of one indicator component."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError(f"{self.family} parameters must be finite, got {self.params}")
        arity = _FAMILIES.get(self.family)
        if arity is None:
            raise ValueError(f"unknown distribution family {self.family!r}")
        if len(self.params) != arity:
            raise ValueError(f"{self.family} takes {arity} parameters, got {len(self.params)}")
        p = self.params
        if self.family == "lognormal" and p[1] <= 0:
            raise ValueError("lognormal sigma must be positive")
        if self.family == "gamma" and (p[0] <= 0 or p[1] <= 0):
            raise ValueError("gamma shape and scale must be positive")
        if self.family == "uniform" and not (0 <= p[0] < p[1]):
            raise ValueError("uniform needs 0 <= low < high")
        if self.family == "poisson" and p[0] < 0:
            raise ValueError("poisson rate must be nonnegative")
        if self.family == "constant" and p[0] < 0:
            raise ValueError("constant value must be nonnegative")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        p = self.params
        if self.family == "lognormal":
            return rng.lognormal(p[0], p[1], n)
        if self.family == "gamma":
            return rng.gamma(p[0], p[1], n)
        if self.family == "uniform":
            return rng.uniform(p[0], p[1], n)
        if self.family == "poisson":
            return rng.poisson(p[0], n).astype(float)
        return np.full(n, p[0])


class DecisionModel(enum.Enum):
    STRICT_MEDIAN = "strict-median"
    RELAXED = "relaxed"
    NOISY_THRESHOLD = "noisy-threshold"


@dataclass(frozen=True)
class DisciplinePlan:
    """Applicant counts, indicator distributions and decision model for one discipline."""

    discipline: str
    n_full: int
    n_associate: int
    components: tuple[ComponentModel, ComponentModel, ComponentModel]
    decision: DecisionModel = DecisionModel.STRICT_MEDIAN
    professors: int = 101
    flip_probability: float = 0.0
    relaxed_quantile: float = 0.5

    def __post_init__(self) -> None:
        DisciplineId.parse(self.discipline)
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != 3:
            raise ValueError("exactly three component models are required")
        if self.n_full < 0 or self.n_associate < 0:
            raise ValueError("applicant counts must be nonnegative")
        if not 1 <= self.professors <= MAX_PROFESSORS:
            raise ValueError(
                f"professor population must lie in [1, {MAX_PROFESSORS}], got {self.professors}"
            )
        if not 0 <= self.flip_probability <= 1:
            raise ValueError("flip probability must lie in [0, 1]")
        if not 0 < self.relaxed_quantile < 1:
            raise ValueError("relaxed quantile must lie in (0, 1)")


@dataclass(frozen=True)
class SynthConfig:
    plans: tuple[DisciplinePlan, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plans", tuple(self.plans))
        codes = [p.discipline for p in self.plans]
        if len(set(codes)) != len(codes):
            raise ValueError("duplicate discipline plans")
        total = sum(p.n_full + p.n_associate for p in self.plans)
        if total > MAX_APPLICATIONS:
            raise ValueError(f"{total} applications in all, more than {MAX_APPLICATIONS}")

    def to_json(self) -> str:
        payload = {
            "plans": [
                {
                    "discipline": p.discipline,
                    "n_full": p.n_full,
                    "n_associate": p.n_associate,
                    "components": [
                        {"family": c.family, "params": list(c.params)} for c in p.components
                    ],
                    "decision": p.decision.value,
                    "professors": p.professors,
                    "flip_probability": p.flip_probability,
                    "relaxed_quantile": p.relaxed_quantile,
                }
                for p in self.plans
            ]
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> SynthConfig:
        try:
            return cls._from_payload(json.loads(text))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed synth config: {exc}") from exc

    @classmethod
    def _from_payload(cls, payload: dict) -> SynthConfig:
        plans = []
        for raw in payload["plans"]:
            components = tuple(
                ComponentModel(c["family"], tuple(c["params"])) for c in raw["components"]
            )
            plans.append(
                DisciplinePlan(
                    discipline=raw["discipline"],
                    n_full=_count(raw["n_full"], "n_full"),
                    n_associate=_count(raw["n_associate"], "n_associate"),
                    components=components,
                    decision=DecisionModel(raw.get("decision", "strict-median")),
                    professors=_count(raw.get("professors", 101), "professors"),
                    flip_probability=float(raw.get("flip_probability", 0.0)),
                    relaxed_quantile=float(raw.get("relaxed_quantile", 0.5)),
                )
            )
        return cls(tuple(plans))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> SynthConfig:
        text = Path(path).read_text(encoding="utf-8")
        try:
            return cls.from_json(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _count(value: object, name: str) -> int:
    """A whole-number count from a config; 2.0 passes, 2.5, true and "2" do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def default_synth_config() -> SynthConfig:
    """A small mixed round: both kinds, all three decision models."""
    lognorm = (ComponentModel("lognormal", (2.2, 0.6)),
               ComponentModel("lognormal", (1.8, 0.8)),
               ComponentModel("poisson", (6.0,)))
    gamma = (ComponentModel("gamma", (2.0, 1.5)),
             ComponentModel("gamma", (3.0, 2.0)),
             ComponentModel("gamma", (1.5, 1.0)))
    uniform = (ComponentModel("uniform", (0.0, 8.0)),
               ComponentModel("uniform", (0.0, 12.0)),
               ComponentModel("poisson", (2.0,)))
    sparse = (ComponentModel("gamma", (2.0, 1.0)),
              ComponentModel("poisson", (3.0,)),
              ComponentModel("constant", (0.0,)))
    plans = (
        DisciplinePlan("01/A1", 40, 80, lognorm),
        DisciplinePlan("01/B1", 35, 70, gamma,
                       decision=DecisionModel.RELAXED, relaxed_quantile=0.6),
        DisciplinePlan("02/A1", 30, 60, lognorm,
                       decision=DecisionModel.NOISY_THRESHOLD, flip_probability=0.05),
        DisciplinePlan("08/C1", 25, 50, uniform),
        DisciplinePlan("10/A1", 30, 45, gamma,
                       decision=DecisionModel.RELAXED, relaxed_quantile=0.55),
        DisciplinePlan("11/E1", 30, 55, lognorm,
                       decision=DecisionModel.NOISY_THRESHOLD, flip_probability=0.1),
        DisciplinePlan("12/A1", 20, 40, sparse),
        DisciplinePlan("13/A5", 25, 45, uniform,
                       decision=DecisionModel.NOISY_THRESHOLD, flip_probability=0.02),
    )
    return SynthConfig(plans)


def _decide(
    plan: DisciplinePlan, ind: np.ndarray, medians: MedianSet, rng: np.random.Generator
) -> np.ndarray:
    """The qualified flags of one group's n x 3 indicators."""
    strict = (ind > medians.as_tuple()).sum(axis=1) >= required_exceedances(medians.kind)
    if plan.decision is DecisionModel.STRICT_MEDIAN:
        return strict
    if plan.decision is DecisionModel.NOISY_THRESHOLD:
        # With zero flip probability, skip the draws so the stream matches
        # the strict model exactly.
        if plan.flip_probability == 0.0:
            return strict
        return strict ^ (rng.random(len(ind)) < plan.flip_probability)
    scales = [m if m > 0 else 1.0 for m in medians.as_tuple()]
    scores = ind[:, 0] / scales[0] + ind[:, 1] / scales[1] + ind[:, 2] / scales[2]
    if scores.size == 0:
        return strict
    return scores > np.quantile(scores, plan.relaxed_quantile)


def synthesize_round(
    config: SynthConfig,
    seed: int,
    registry: Iterable[DisciplineRegistryEntry] | None = None,
) -> RoundDataset:
    """Generate a full dataset; identical seeds yield identical rounds."""
    entries = list(registry) if registry is not None else load_default_registry()
    kinds = {e.discipline.code: e.kind for e in entries}
    rng = np.random.default_rng(seed)
    medians: list[MedianSet] = []
    groups: list[tuple[DisciplineId, Role, IndicatorKind]] = []
    sizes: list[int] = []
    indicators: list[np.ndarray] = []
    decisions: list[np.ndarray] = []
    for plan in config.plans:
        kind = kinds.get(plan.discipline)
        if kind is None:
            raise ValueError(f"discipline {plan.discipline} is not in the registry")
        discipline = DisciplineId.parse(plan.discipline)
        for role, n in ((Role.FULL, plan.n_full), (Role.ASSOCIATE, plan.n_associate)):
            professor_values = [c.sample(rng, plan.professors) for c in plan.components]
            m1, m2, m3 = (compute_median(values) for values in professor_values)
            median_set = MedianSet(discipline, role, m1, m2, m3, kind)
            medians.append(median_set)
            ind = np.column_stack([c.sample(rng, n) for c in plan.components])
            damaged = ~(np.isfinite(ind) & (ind >= 0)).all(axis=1)
            if damaged.any():
                # the vector of the first damaged row raises, naming its component
                IndicatorVector(*ind[damaged.argmax()].tolist(), kind)
            decisions.append(_decide(plan, ind, median_set, rng))
            indicators.append(ind)
            groups.append((discipline, role, kind))
            sizes.append(n)
    last = list(map("Applicant-{:05d}".format, range(1, sum(sizes) + 1)))
    first = ["Synth"] * len(last)
    # applicant_id escapes nothing here: no synthesized name holds | or \
    table = ApplicationTable.from_rows(
        list(map("{}|Synth".format, last)), last, first, groups,
        np.repeat(np.arange(len(groups), dtype=np.int32), sizes),
        np.concatenate(indicators) if indicators else [],
        np.concatenate(decisions) if decisions else [],
    )
    return RoundDataset(table, medians, entries)
