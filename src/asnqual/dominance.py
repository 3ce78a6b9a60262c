"""Pareto dominance between applicants and the Pareto violation ratio.

A committee decision is "Pareto consistent" when no denied applicant
dominates a qualified one on all three indicators.  The violation ratio of
a (discipline, role) group is the fraction of dominating ordered pairs
whose outcome breaks that expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .indicators import IndicatorVector

if TYPE_CHECKING:
    from .thresholds import DisciplineId, Role


def dominates(x: Sequence[float], y: Sequence[float]) -> bool:
    """Componentwise no-lower with at least one strictly higher component."""
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    return all(a >= b for a, b in zip(x, y)) and any(a > b for a, b in zip(x, y))


def pareto_dominates(x: IndicatorVector, y: IndicatorVector) -> bool:
    if x.kind is not y.kind:
        raise ValueError(f"indicator kind mismatch: {x.kind.value} vs {y.kind.value}")
    return dominates(x.as_tuple(), y.as_tuple())


@dataclass(frozen=True)
class ApplicationRecord:
    """One application: who applied, where, with what indicators and outcome."""

    applicant_id: str
    last_name: str
    first_name: str
    discipline: DisciplineId
    role: Role
    indicators: IndicatorVector
    qualified: bool


@dataclass
class PvrResult:
    """Violation ratio of one applicant group, with its pair counts.

    When the group admits no dominating pair at all (too small, or fully
    incomparable) the ratio is reported as 0 and ``no_comparable_pairs``
    is set so tables stay total without hiding the degenerate case.  The
    offending pairs themselves come from ``violating_pairs``.
    """

    ratio: float
    dominating_pairs: int
    violations: int
    no_comparable_pairs: bool = False


# Cells of one row block of the n x n dominance matrix: a block of
# max(1, _BLOCK_CELLS // n) rows keeps each boolean temporary under 256 KiB
# whatever the group size.  That fits in a core's L2 cache, and malloc hands
# the same heap memory from one block to the next; blocks of a few MB are
# mapped and faulted in afresh for every group, a cost set by the host.
_BLOCK_CELLS = 1 << 18


def _group_arrays(apps: Sequence[ApplicationRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Indicator matrix (n x 3) and qualified flags of one (discipline, role) group."""
    if apps:
        key = (apps[0].discipline.code, apps[0].role)
        for a in apps:
            if (a.discipline.code, a.role) != key:
                raise ValueError("applications must share one discipline and role")
    values = np.array([a.indicators.as_tuple() for a in apps], dtype=float).reshape(-1, 3)
    qualified = np.array([a.qualified for a in apps], dtype=bool)
    return values, qualified


def _dominance_blocks(values: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, dom) per row block, where dom[r, j]: applicant first+r dominates j.

    i dominates j when i is no lower on every component and j is not no
    lower on every component, i.e. i is strictly higher somewhere.
    """
    n = len(values)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    columns = values.T
    for lo in range(0, n, step):
        rows = columns[:, lo:lo + step]
        ge = rows[0][:, None] >= columns[0]
        le = rows[0][:, None] <= columns[0]
        for k in (1, 2):
            ge &= rows[k][:, None] >= columns[k]
            le &= rows[k][:, None] <= columns[k]
        yield lo, ge & ~le


def pareto_violation_ratio(
    apps: Sequence[ApplicationRecord] | np.ndarray, qualified: np.ndarray | None = None
) -> PvrResult:
    """Fraction of dominating pairs (p, q) where p was denied but q qualified.

    Takes the records of one (discipline, role) group, or the group's n x 3
    indicator array and its qualified flags.  The n x n dominance matrix is
    never held whole: it is built and counted one row block at a time, so
    the work is O(n^2) comparisons and the extra memory O(block x n), a few
    boolean matrices of about ``_BLOCK_CELLS`` cells.
    """
    values = apps
    if qualified is None:
        values, qualified = _group_arrays(apps)
    dominating = violating = 0
    for lo, dom in _dominance_blocks(values):
        dominating += int(np.count_nonzero(dom))
        denied = ~qualified[lo:lo + len(dom)]
        violating += int(np.count_nonzero(dom[denied][:, qualified]))
    if dominating == 0:
        return PvrResult(0.0, 0, 0, no_comparable_pairs=True)
    return PvrResult(violating / dominating, dominating, violating)


def violating_pairs(
    apps: Sequence[ApplicationRecord], limit: int | None = None
) -> list[tuple[ApplicationRecord, ApplicationRecord]]:
    """The dominating pairs (p, q) of one group where p was denied but q qualified.

    Pairs come in row-major order of the group's indices; ``limit`` stops the
    scan after that many.  The memory bound is that of
    ``pareto_violation_ratio`` plus the pairs returned.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    values, qualified = _group_arrays(apps)
    pairs: list[tuple[ApplicationRecord, ApplicationRecord]] = []
    for lo, dom in _dominance_blocks(values):
        room = None if limit is None else limit - len(pairs)
        if room == 0:
            break
        dom &= ~qualified[lo:lo + len(dom), None]
        dom &= qualified
        rows, cols = np.nonzero(dom)
        pairs.extend((apps[lo + i], apps[j]) for i, j in zip(rows[:room], cols[:room]))
    return pairs


pvr = pareto_violation_ratio
