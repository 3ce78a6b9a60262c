"""Median thresholds per discipline and role, and checks against them.

Each discipline/role pair carries a triple of medians (M1, M2, M3) computed
from tenured professors' indicators.  An applicant is over-median when the
indicator vector strictly exceeds at least two of the three thresholds (at
least one, in non-bibliometric disciplines); a value equal to its median
does not count as exceeding it.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .indicators import IndicatorKind, IndicatorVector, store_finite_nonnegative

# .dominance (which loads numpy) is imported by the function that uses it, so
# that validating a round does not load it.

AREA_ACRONYMS = {
    "01": "MCS",
    "02": "PHY",
    "03": "CHE",
    "04": "EAS",
    "05": "BIO",
    "06": "MED",
    "07": "AVM",
    "08": "CEA",
    "09": "IIE",
    "10": "APL",
    "11": "HPP",
    "12": "LAW",
    "13": "ECS",
    "14": "PSS",
}
AREA_CODES = tuple(AREA_ACRONYMS)

_CODE_RE = re.compile(r"^(\d{2})/([A-Z])(\d)$")


class Role(enum.Enum):
    """Professor role applied for; file formats encode 1=full, 2=associate."""

    FULL = 1
    ASSOCIATE = 2


@dataclass(frozen=True)
class DisciplineId:
    """A scientific discipline code of the form AA/MC.

    AA is the two-digit area (01-14), M the macro-sector letter, C the
    digit within the macro-sector.  Thresholds may additionally be split
    at a finer grain; the optional sub-discipline code names that split.
    """

    area: str
    macro_sector: str
    digit: str
    sub_discipline: str | None = None

    def __post_init__(self) -> None:
        if self.area not in AREA_CODES:
            raise ValueError(f"unknown area code {self.area!r}")
        if len(self.macro_sector) != 1 or not self.macro_sector.isupper():
            raise ValueError(f"macro sector must be a single capital letter, got {self.macro_sector!r}")
        if len(self.digit) != 1 or not self.digit.isdigit():
            raise ValueError(f"discipline digit must be a single digit, got {self.digit!r}")
        if self.sub_discipline and ("\n" in self.sub_discipline or "\r" in self.sub_discipline):
            raise ValueError(f"line break in sub-discipline {self.sub_discipline!r}")

    @classmethod
    def parse(cls, code: str, sub_discipline: str | None = None) -> DisciplineId:
        m = _CODE_RE.match(code.strip())
        if m is None:
            raise ValueError(f"malformed discipline code {code!r}, expected AA/MC")
        return cls(m.group(1), m.group(2), m.group(3), sub_discipline)

    @property
    def code(self) -> str:
        return f"{self.area}/{self.macro_sector}{self.digit}"


class MissingMedianSetError(KeyError, ValueError):
    """No median set covers a discipline and role.

    A KeyError as a failed lookup, and a ValueError as invalid input, which
    the CLI reports with exit code 1.
    """

    def __str__(self) -> str:
        # KeyError would print the repr of the message
        return str(self.args[0])


@dataclass(frozen=True)
class MedianSet:
    """The threshold triple for one (discipline, sub-discipline?, role).

    Bibliometric median sets are expected to be strictly positive; a zero
    component there is suspicious but tolerated (ingestion flags it as a
    warning rather than rejecting the row).
    """

    discipline: DisciplineId
    role: Role
    m1: float
    m2: float
    m3: float
    kind: IndicatorKind

    def __post_init__(self) -> None:
        store_finite_nonnegative(self, ("m1", "m2", "m3"))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.m1, self.m2, self.m3)

    def zero_components(self) -> int:
        return sum(1 for m in self.as_tuple() if m == 0)


class MedianTag(enum.Enum):
    """Anomaly tag of a full/associate median pair.

    A capital O marks zero medians on the full-professor side, a lowercase
    o on the associate side (doubled when two components are zero).  The
    star marks the inverted case where the associate thresholds dominate
    the full ones; it wins over the zero tags when both apply.
    """

    NONE = ""
    FULL_ONE_ZERO = "O"
    FULL_TWO_ZERO = "OO"
    ASSOCIATE_ONE_ZERO = "o"
    ASSOCIATE_TWO_ZERO = "oo"
    ASSOCIATE_DOMINATES = "*"


class Standing(enum.Enum):
    OVER_MEDIAN = "over-median"
    UNDER_MEDIAN = "under-median"


def compute_median(values: Iterable[float]) -> float:
    """Sample median; the midpoint of the two central order statistics for even n."""
    data = sorted(values)
    if not data:
        raise ValueError("cannot take the median of an empty population")
    mid = len(data) // 2
    return float(data[mid] if len(data) % 2 else (data[mid - 1] + data[mid]) / 2)


def exceeds_count(v: IndicatorVector, m: MedianSet) -> int:
    """How many thresholds the vector strictly exceeds (equality does not count)."""
    if v.kind is not m.kind:
        raise ValueError(
            f"indicator/threshold kind mismatch: {v.kind.value} vs {m.kind.value}"
        )
    return sum(1 for value, median in zip(v.as_tuple(), m.as_tuple()) if value > median)


def required_exceedances(kind: IndicatorKind) -> int:
    return 2 if kind is IndicatorKind.BIBLIOMETRIC else 1


def classify(v: IndicatorVector, m: MedianSet) -> Standing:
    """Over-median needs two exceeded thresholds (one for non-bibliometric)."""
    if exceeds_count(v, m) >= required_exceedances(m.kind):
        return Standing.OVER_MEDIAN
    return Standing.UNDER_MEDIAN


# The (role, zero components) of each ZeroMedianCensus field, in field order.
CENSUS_CELLS = tuple(itertools.product(Role, (1, 2)))


@dataclass(frozen=True)
class ZeroMedianCensus:
    full_one_zero: int
    full_two_zero: int
    associate_one_zero: int
    associate_two_zero: int


def zero_median_census(sets: Iterable[MedianSet]) -> ZeroMedianCensus:
    """Count disciplines with exactly one / exactly two zero medians per role.

    Expects one set per (discipline, role); duplicates are rejected.
    """
    counts = dict.fromkeys(CENSUS_CELLS, 0)
    seen: set[tuple[str, Role]] = set()
    for s in sets:
        key = (s.discipline.code, s.role)
        if key in seen:
            raise ValueError(f"duplicate median set for {key[0]} role {s.role.name.lower()}")
        seen.add(key)
        zeros = s.zero_components()
        if (s.role, zeros) in counts:
            counts[(s.role, zeros)] += 1
    return ZeroMedianCensus(*counts.values())


def tag_median_pair(full: MedianSet, assoc: MedianSet) -> MedianTag:
    """Anomaly tag for the (full, associate) median sets of one discipline."""
    from .dominance import dominates

    if full.discipline != assoc.discipline:
        raise ValueError(
            f"discipline mismatch: {full.discipline.code} vs {assoc.discipline.code}"
        )
    if full.role is not Role.FULL or assoc.role is not Role.ASSOCIATE:
        raise ValueError("expected a full-professor set and an associate-professor set")
    if dominates(assoc.as_tuple(), full.as_tuple()):
        return MedianTag.ASSOCIATE_DOMINATES
    full_zeros = full.zero_components()
    assoc_zeros = assoc.zero_components()
    if full_zeros >= 2:
        return MedianTag.FULL_TWO_ZERO
    if full_zeros == 1:
        return MedianTag.FULL_ONE_ZERO
    if assoc_zeros >= 2:
        return MedianTag.ASSOCIATE_TWO_ZERO
    if assoc_zeros == 1:
        return MedianTag.ASSOCIATE_ONE_ZERO
    return MedianTag.NONE


class MedianIndex:
    """Threshold lookup keyed by (discipline code, sub-discipline, role).

    Resolution is most-specific-wins: an application carrying a
    sub-discipline code is matched against the sub-discipline thresholds
    when they exist, falling back to the discipline-level set.
    """

    def __init__(self, sets: Iterable[MedianSet]) -> None:
        self._by_key: dict[tuple[str, str | None, Role], MedianSet] = {}
        for s in sets:
            key = (s.discipline.code, s.discipline.sub_discipline, s.role)
            if key in self._by_key:
                raise ValueError(
                    f"duplicate median set for {key[0]} sub={key[1] or '-'} role {s.role.name.lower()}"
                )
            self._by_key[key] = s

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[MedianSet]:
        return iter(self._by_key.values())

    def get(self, code: str, sub_discipline: str | None, role: Role) -> MedianSet | None:
        return self._by_key.get((code, sub_discipline, role))

    def resolve(self, discipline: DisciplineId, role: Role) -> MedianSet:
        found = self.get(discipline.code, discipline.sub_discipline, role)
        if found is None and discipline.sub_discipline is not None:
            found = self.get(discipline.code, None, role)
        if found is None:
            raise MissingMedianSetError(
                f"no median set for {discipline.code} role {role.name.lower()}"
            )
        return found

    def top_level(self) -> list[MedianSet]:
        """Discipline-level sets only (no sub-discipline split)."""
        return [s for s in self if s.discipline.sub_discipline is None]
