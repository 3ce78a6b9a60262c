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
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .indicators import IndicatorKind, IndicatorVector
from .ingest import (
    DisciplineRegistryEntry,
    RoundDataset,
    _table,
    load_default_registry,
    output_file,
)
from .thresholds import DisciplineId, MedianSet, Role, compute_median, required_exceedances

# Upper bounds on the sizes a config asks for, checked when it loads, so that a
# mistyped count fails at once instead of exhausting memory: all applications
# of a round, and the professor population drawn for each median set.
MAX_APPLICATIONS = 1_000_000
MAX_PROFESSORS = 100_000

# A distribution family: its parameter count, the check its parameters must
# pass with the message when they do not, and its draw of n values.
_Family = namedtuple("_Family", "arity valid message draw")
_FAMILIES = {
    # (mean, sigma) of the underlying normal, sigma > 0
    "lognormal": _Family(2, lambda p: p[1] > 0, "lognormal sigma must be positive",
                         lambda rng, p, n: rng.lognormal(p[0], p[1], n)),
    # (shape, scale), both > 0
    "gamma": _Family(2, lambda p: p[0] > 0 and p[1] > 0, "gamma shape and scale must be positive",
                     lambda rng, p, n: rng.gamma(p[0], p[1], n)),
    # (low, high), 0 <= low < high
    "uniform": _Family(2, lambda p: 0 <= p[0] < p[1], "uniform needs 0 <= low < high",
                       lambda rng, p, n: rng.uniform(p[0], p[1], n)),
    # (lam,), lam >= 0
    "poisson": _Family(1, lambda p: p[0] >= 0, "poisson rate must be nonnegative",
                       lambda rng, p, n: rng.poisson(p[0], n).astype(float)),
    # (value,), value >= 0
    "constant": _Family(1, lambda p: p[0] >= 0, "constant value must be nonnegative",
                        lambda rng, p, n: np.full(n, p[0])),
}


@dataclass(frozen=True)
class ComponentModel:
    """Distribution of one indicator component."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        # a str or bytes is one parameter, not a sequence of them; float() would take "2" and True
        params = (self.params,) if isinstance(self.params, (str, bytes)) else tuple(self.params)
        if not all(isinstance(p, numbers.Real) and not isinstance(p, bool) for p in params):
            raise ValueError(f"{self.family} parameters must be numbers, got {params!r}")
        object.__setattr__(self, "params", tuple(map(float, params)))
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError(f"{self.family} parameters must be finite, got {self.params}")
        spec = _FAMILIES.get(self.family)
        if spec is None:
            raise ValueError(f"unknown distribution family {self.family!r}")
        if len(self.params) != spec.arity:
            raise ValueError(f"{self.family} takes {spec.arity} parameters, got {len(self.params)}")
        if not spec.valid(self.params):
            raise ValueError(spec.message)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _FAMILIES[self.family].draw(rng, self.params, n)


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
        # stripped, as the CSV parsers strip codes
        object.__setattr__(self, "discipline", DisciplineId.parse(self.discipline).code)
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
        plans = [{**asdict(p), "decision": p.decision.value} for p in self.plans]
        return json.dumps({"plans": plans}, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> SynthConfig:
        plans = []
        try:
            for raw in json.loads(text)["plans"]:
                unknown = sorted(raw.keys() - _PLAN_READERS.keys())
                if unknown:
                    raise ValueError(f"unknown plan key(s) {', '.join(map(repr, unknown))}")
                # a key left out takes the field's default
                plans.append(DisciplinePlan(**{k: _PLAN_READERS[k](v, k) for k, v in raw.items()}))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed synth config: {exc}") from exc
        return cls(tuple(plans))

    def save(self, path: str | Path) -> None:
        with output_file(path) as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> SynthConfig:
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _number(value: object, name: str) -> int | float:
    """A JSON number from a config; true and "2" are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _count(value: object, name: str) -> int:
    """A whole-number count from a config; 2.0 passes, 2.5, true and "2" do not."""
    if isinstance(_number(value, name), float) and not value.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _component(raw: dict, name: str) -> ComponentModel:
    """A component model from a config; its params must be a JSON array of numbers."""
    if not isinstance(raw["params"], list):
        raise ValueError(f"{name} params must be a JSON array, got {raw['params']!r}")
    return ComponentModel(**{**raw, "params": [_number(p, f"{name} params") for p in raw["params"]]})


# The reader of each DisciplinePlan field's config value, by the field's type.
_TYPE_READERS: dict[str, Callable[[Any, str], Any]] = {
    "str": lambda value, name: value,
    "int": _count,
    "float": lambda value, name: float(_number(value, name)),
    "DecisionModel": lambda value, name: DecisionModel(value),
    "tuple[ComponentModel, ComponentModel, ComponentModel]":
        lambda value, name: tuple(_component(c, name) for c in value),
}
_PLAN_READERS = {f.name: _TYPE_READERS[f.type] for f in fields(DisciplinePlan)}


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
            m1, m2, m3 = (compute_median(values.tolist()) for values in professor_values)
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
    # applicant_id escapes nothing here, and from_rows' line-break scan has
    # nothing to find: no synthesized name holds |, \ or a line break
    table = _table(
        list(map("{}|Synth".format, last)), last, first, groups,
        np.repeat(np.arange(len(groups), dtype=np.int32), sizes),
        np.concatenate(indicators) if indicators else [],
        np.concatenate(decisions) if decisions else [],
    )
    return RoundDataset(table, medians, entries)
