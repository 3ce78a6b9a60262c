"""Pareto dominance between applicants and the Pareto violation ratio.

A committee decision is "Pareto consistent" when no denied applicant
dominates a qualified one on all three indicators.  The violation ratio of
a (discipline, role) group is the fraction of dominating ordered pairs
whose outcome breaks that expectation.

One kernel serves both the ratio and the listing of the offending pairs.
A row's ">=-set" (the rows it is no lower than on every component) is a
bitset over the group's rows, the AND of three prefix sets of the
per-component sort orders; the ratio's counts are popcounts of those sets
and the listing unpacks them, both less the pairs of equal vectors.  That is
O(n^2 / 64) word operations per group.
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


# One budget, in bytes, for the kernel's temporaries whatever the group size:
# each prefix table of a word block holds about _BLOCK_CELLS bytes, and so do
# the unpacked bits of a block listed by violating_pairs.  256 KiB fits in a
# core's L2 cache, and malloc hands the same heap memory from one block to the
# next; blocks of a few MB are mapped and faulted in afresh for every group.
_BLOCK_CELLS = 1 << 18

# Set bits of each byte value, for numpy releases without np.bitwise_count.
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _table_popcount(words: np.ndarray) -> int:
    """Set bits in a contiguous uint64 array, counted byte by byte."""
    return int(np.add.reduce(_BYTE_BITS[words.view(np.uint8)], axis=None, dtype=np.int64))


def _numpy_popcount(words: np.ndarray) -> int:
    """Set bits in a uint64 array (numpy 2.0 or later)."""
    return int(np.add.reduce(np.bitwise_count(words), axis=None, dtype=np.int64))


_popcount = _numpy_popcount if hasattr(np, "bitwise_count") else _table_popcount
# The bit of row j within its 64-bit word j >> 6 is _BITS[j & 63].
_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
_COMPONENTS = np.arange(3)[:, None]


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


def _tied_pairs(columns: np.ndarray, qualified: np.ndarray) -> tuple[int, int]:
    """Ordered pairs (i, j) of equal vectors, i = j included, and those with i denied, j qualified.

    ``columns`` is the group's 3 x n indicator matrix.
    """
    order = np.lexsort(columns)
    runs = columns[:, order]
    edges = np.empty(len(order) + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.logical_or.reduce(runs[:, 1:] != runs[:, :-1], axis=0, out=edges[1:-1])
    edges = edges.nonzero()[0]
    sizes = edges[1:] - edges[:-1]
    n_qualified = np.add.reduceat(qualified[order], edges[:-1], dtype=np.int64)
    return int(sizes @ sizes), int(n_qualified @ (sizes - n_qualified))


def _sort_positions(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(upper, rank) of a 3 x n matrix, per component k and row i.

    upper[k, i] counts the rows whose component k is at most row i's, and
    rank[k, i] is 1 + row i's position in the stable sort of component k.
    """
    order = columns.argsort(axis=1, kind="stable")
    ranked = columns[_COMPONENTS, order]
    upper = np.empty_like(order)
    for k in range(3):
        upper[k] = ranked[k].searchsorted(columns[k], side="right")
    rank = np.empty_like(order)
    rank[_COMPONENTS, order] = np.arange(1, columns.shape[1] + 1)
    return upper, rank


def _ge_sets(
    columns: np.ndarray, qualified: np.ndarray, budget: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(first word, >=-sets, the denied rows' >=-sets AND the qualified rows) per word block.

    ``columns`` is the group's 3 x n indicator matrix.  Row i's >=-set, the
    rows j it is no lower than, is a bitset over the rows: the AND over
    components k of the first upper[k, i] rows in the order of component k,
    where upper[k, i] counts the rows whose component k is at most row i's.
    Those prefix sets are one table per component, whose row t holds the
    bits of the first t sorted rows (row j's bit enters at rank[k, j]), built
    for one block of 64-bit column words at a time, about ``budget`` bytes.
    """
    n = columns.shape[1]
    upper, rank = _sort_positions(columns)
    rows = np.arange(n)
    word = rows >> 6
    bits = _BITS[rows & 63]
    qualified_words = np.bitwise_or.reduceat(bits * qualified, rows[::64])
    denied = (~qualified).nonzero()[0]
    n_words = len(qualified_words)
    step = max(1, min(n_words, budget // 8 // (n + 1)))
    tables = np.empty((3, n + 1, step), dtype=np.uint64)
    for first in range(0, n_words, step):
        width = min(step, n_words - first)
        block = slice(64 * first, 64 * (first + width))
        prefix = tables[:, :, :width]
        prefix.fill(0)
        prefix[_COMPONENTS, rank[:, block], word[block] - first] = bits[block]
        np.bitwise_or.accumulate(prefix, axis=1, out=prefix)
        ge = prefix[0].take(upper[0], axis=0)
        ge &= prefix[1].take(upper[1], axis=0)
        ge &= prefix[2].take(upper[2], axis=0)
        violating = ge[denied]
        violating &= qualified_words[first:first + width]
        yield first, ge, violating


def pareto_violation_ratio(
    apps: Sequence[ApplicationRecord] | np.ndarray, qualified: np.ndarray | None = None
) -> PvrResult:
    """Fraction of dominating pairs (p, q) where p was denied but q qualified.

    Takes the records of one (discipline, role) group, or the group's n x 3
    indicator array and its qualified flags; indicators must be finite.
    i dominates j when i is no lower than j on every component and the two
    vectors differ, so each count is a popcount of the rows' >=-sets (see
    ``_ge_sets``) less the pairs of equal vectors.  That is O(n^2 / 64)
    word operations after a few sorts, and O(``_BLOCK_CELLS`` + n) extra
    memory.
    """
    if qualified is None:
        values, qualified = _group_arrays(apps)
    else:
        # Records and ingest reject non-finite values; a NaN would sort last and
        # count as no lower than every row.
        values = np.asarray(apps, dtype=float)
        qualified = np.asarray(qualified, dtype=bool)
        if not np.isfinite(values).all():
            raise ValueError("indicator values must be finite")
    if len(values) == 0:
        return PvrResult(0.0, 0, 0, no_comparable_pairs=True)
    columns = values.T
    ge_pairs = ge_violating = 0
    for _, ge, violating in _ge_sets(columns, qualified, _BLOCK_CELLS):
        ge_pairs += _popcount(ge)
        ge_violating += _popcount(violating)
    tied, tied_violating = _tied_pairs(columns, qualified)
    dominating = ge_pairs - tied
    violating = ge_violating - tied_violating
    if dominating == 0:
        return PvrResult(0.0, 0, 0, no_comparable_pairs=True)
    return PvrResult(violating / dominating, dominating, violating)


def violating_pairs(
    apps: Sequence[ApplicationRecord], limit: int | None = None
) -> list[tuple[ApplicationRecord, ApplicationRecord]]:
    """The dominating pairs (p, q) of one group where p was denied but q qualified.

    Pairs come in row-major order of the group's indices; ``limit`` stops the
    scan after that many.  The >=-sets of the negated components, with the
    outcomes swapped, give each qualified q the denied rows p no lower than
    it; a block of column words is a range of p, so its pairs are listed in
    order before the next block is built.  The extra memory is a few blocks
    of about ``_BLOCK_CELLS`` bytes plus the pairs returned.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    values, qualified = _group_arrays(apps)
    targets = qualified.nonzero()[0]
    pairs: list[tuple[ApplicationRecord, ApplicationRecord]] = []
    for first, _, sets in _ge_sets(-values.T, ~qualified, _BLOCK_CELLS // 8):
        # Bit j of word w is row 64 w + j, on a host of either byte order.
        octets = sets.astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(octets, axis=1, bitorder="little")
        p, q = bits.T.nonzero()  # ordered by p, then q
        p, q = p + 64 * first, targets[q]
        keep = np.logical_or.reduce([column[p] != column[q] for column in values.T])
        room = None if limit is None else limit - len(pairs)
        p, q = p[keep][:room].tolist(), q[keep][:room].tolist()
        pairs.extend((apps[i], apps[j]) for i, j in zip(p, q))
        if len(pairs) == limit:
            break
    return pairs


pvr = pareto_violation_ratio
