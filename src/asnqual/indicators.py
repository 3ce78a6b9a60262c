"""Age-normalized quantitative indicators computed from publication records.

Applicants to the national qualification are scored on a triple of
indicators: citation-based (B1, B2, B3) in disciplines with good citation
database coverage, paper-count based (N1, N2, N3) elsewhere.  Every raw
count is normalized by the applicant's scientific age so that early-career
researchers are not penalized by cumulative metrics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

# Reference age of the normalization: raw counts are scaled by 10/SA and the
# scientific age itself is clamped below at 10 years.
REFERENCE_AGE_YEARS = 10

# Weight of a citation accrued over the life of a paper, per the normalized
# citation rule S(p, t) = 4 * C(p, t) / (t - year(p) + 1).
CITATION_AGE_WEIGHT = 4


class PublicationKind(enum.Enum):
    JOURNAL_PAPER = "journal-paper"
    BOOK = "book"
    BOOK_CHAPTER = "book-chapter"
    TOP_JOURNAL_PAPER = "top-journal-paper"
    OTHER = "other"


# A paper in a "top" journal is still a journal paper; it counts toward the
# plain journal-paper tallies and additionally toward N3.
JOURNAL_PAPER_KINDS = frozenset(
    {PublicationKind.JOURNAL_PAPER, PublicationKind.TOP_JOURNAL_PAPER}
)


class IndicatorKind(enum.Enum):
    BIBLIOMETRIC = "bibliometric"
    NON_BIBLIOMETRIC = "non-bibliometric"


@dataclass(frozen=True)
class YearWindow:
    """Inclusive range of publication years counted by the indicators."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"malformed year window {self.start}..{self.end}")

    def __contains__(self, year: int) -> bool:
        return self.start <= year <= self.end


# Counting window of the first qualification round.
OFFICIAL_WINDOW = YearWindow(2002, 2012)


@dataclass(frozen=True)
class Publication:
    """One scholarly output with per-source citation counts.

    Citation counts come from two databases; the effective count of a paper
    is the maximum of the two (see :func:`citation_count`).
    """

    id: str
    year: int
    kind: PublicationKind
    citations_source_a: int = 0
    citations_source_b: int = 0

    def __post_init__(self) -> None:
        if self.year <= 0:
            raise ValueError(f"publication year must be positive, got {self.year}")
        if self.citations_source_a < 0 or self.citations_source_b < 0:
            raise ValueError("citation counts must be nonnegative")


@dataclass(frozen=True)
class PublicationRecord:
    """The full publication list of one applicant.

    The first publication year is taken over *all* publications, including
    ones older than the counting window; only the indicator numerators are
    restricted to the window.
    """

    publications: tuple[Publication, ...]

    def __init__(self, publications: Iterable[Publication]) -> None:
        object.__setattr__(self, "publications", tuple(publications))

    @property
    def first_publication_year(self) -> int:
        if not self.publications:
            raise ValueError("record has no publications")
        return min(p.year for p in self.publications)

    def in_window(self, window: YearWindow) -> tuple[Publication, ...]:
        return tuple(p for p in self.publications if p.year in window)


def store_finite_nonnegative(instance: object, names: tuple[str, str, str]) -> None:
    """Store the named fields of a frozen dataclass as floats, each finite and non-negative."""
    for name in names:
        value = float(getattr(instance, name))
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value!r}")
        object.__setattr__(instance, name, value)


@dataclass(frozen=True)
class IndicatorVector:
    """The indicator triple attached to an applicant for one discipline/role."""

    ind1: float
    ind2: float
    ind3: float
    kind: IndicatorKind

    def __post_init__(self) -> None:
        store_finite_nonnegative(self, ("ind1", "ind2", "ind3"))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.ind1, self.ind2, self.ind3)


def scientific_age(record: PublicationRecord, evaluation_year: int) -> int:
    """Years since the first publication, inclusive, clamped below at 10."""
    first = record.first_publication_year
    if evaluation_year < first:
        raise ValueError(
            f"evaluation year {evaluation_year} precedes first publication year {first}"
        )
    return max(REFERENCE_AGE_YEARS, evaluation_year - first + 1)


def citation_count(p: Publication) -> int:
    """Effective citation count: the maximum over the two source databases."""
    return max(p.citations_source_a, p.citations_source_b)


def normalized_citations(p: Publication, t: int) -> float:
    """Age-normalized citations S(p, t) = 4 * C(p, t) / (t - year + 1)."""
    if t < p.year:
        raise ValueError(f"citation time {t} precedes publication year {p.year}")
    return CITATION_AGE_WEIGHT / (t - p.year + 1) * citation_count(p)


def hc_index(record: PublicationRecord, t: int) -> int:
    """Normalized h-index at time t.

    Largest integer h such that at least h publications have at least h
    normalized citations each.  An empty record scores 0.
    """
    svalues = sorted((normalized_citations(p, t) for p in record.publications), reverse=True)
    h = 0
    for rank, s in enumerate(svalues, start=1):
        if s >= rank:
            h = rank
        else:
            break
    return h


def _age_factor(record: PublicationRecord, evaluation_year: int) -> float:
    return REFERENCE_AGE_YEARS / scientific_age(record, evaluation_year)


def compute_bibliometric(
    record: PublicationRecord,
    evaluation_year: int,
    window: YearWindow = OFFICIAL_WINDOW,
) -> IndicatorVector:
    """Citation-based indicator triple (B1, B2, B3) of a record.

    B1: journal papers in the window, scaled by 10/SA.
    B2: total citations of windowed publications, divided by SA.
    B3: normalized h-index of windowed publications at the evaluation year.
    """
    counted = record.in_window(window)
    sa = scientific_age(record, evaluation_year)
    papers = sum(1 for p in counted if p.kind in JOURNAL_PAPER_KINDS)
    b1 = papers * REFERENCE_AGE_YEARS / sa
    b2 = sum(citation_count(p) for p in counted) / sa
    b3 = hc_index(PublicationRecord(counted), evaluation_year)
    return IndicatorVector(b1, b2, float(b3), IndicatorKind.BIBLIOMETRIC)


def compute_non_bibliometric(
    record: PublicationRecord,
    evaluation_year: int,
    window: YearWindow = OFFICIAL_WINDOW,
) -> IndicatorVector:
    """Paper-count indicator triple (N1, N2, N3) of a record.

    N1: books, N2: journal papers plus book chapters, N3: top-journal
    papers; all restricted to the window and scaled by 10/SA.
    """
    counted = record.in_window(window)
    factor = _age_factor(record, evaluation_year)
    books = sum(1 for p in counted if p.kind is PublicationKind.BOOK)
    papers_and_chapters = sum(
        1
        for p in counted
        if p.kind in JOURNAL_PAPER_KINDS or p.kind is PublicationKind.BOOK_CHAPTER
    )
    top_papers = sum(1 for p in counted if p.kind is PublicationKind.TOP_JOURNAL_PAPER)
    return IndicatorVector(
        books * factor,
        papers_and_chapters * factor,
        top_papers * factor,
        IndicatorKind.NON_BIBLIOMETRIC,
    )
