import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asnqual import dominance
from asnqual.dominance import (
    ApplicationRecord,
    dominates,
    pareto_dominates,
    pareto_violation_ratio,
    violating_pairs,
)
from asnqual.indicators import IndicatorKind, IndicatorVector
from asnqual.thresholds import DisciplineId, Role

D = DisciplineId.parse("01/A1")


def vec(i1, i2, i3, kind=IndicatorKind.BIBLIOMETRIC):
    return IndicatorVector(i1, i2, i3, kind)


def app(values, qualified, n=[0]):
    n[0] += 1
    return ApplicationRecord(
        f"a{n[0]}", f"Last{n[0]}", "First", D, Role.FULL, vec(*values), qualified
    )


def population(rows):
    return [app(values, qualified) for values, qualified in rows]


def pvr_oracle(apps):
    """Independent all-pairs enumeration of dominating and violating pairs."""
    dominating = 0
    violating = 0
    for p, q in itertools.permutations(apps, 2):
        xp, xq = p.indicators.as_tuple(), q.indicators.as_tuple()
        if all(a >= b for a, b in zip(xp, xq)) and any(a > b for a, b in zip(xp, xq)):
            dominating += 1
            if not p.qualified and q.qualified:
                violating += 1
    if dominating == 0:
        return 0.0, 0, 0
    return violating / dominating, dominating, violating


def pvr_reference(apps):
    """The whole-matrix formula: n x n x 3 comparison tensors reduced over components.

    Returns (ratio, dominating, violating, no_comparable_pairs, violating index pairs).
    """
    values = np.array([a.indicators.as_tuple() for a in apps], dtype=float).reshape(-1, 3)
    qualified = np.array([a.qualified for a in apps], dtype=bool)
    ge = (values[:, None, :] >= values[None, :, :]).all(axis=2)
    gt = (values[:, None, :] > values[None, :, :]).any(axis=2)
    dom = ge & gt
    dominating = int(dom.sum())
    violation = dom & ~qualified[:, None] & qualified[None, :]
    pairs = [(int(i), int(j)) for i, j in np.argwhere(violation)]
    if dominating == 0:
        return 0.0, 0, 0, True, pairs
    return len(pairs) / dominating, dominating, len(pairs), False, pairs


@st.composite
def tied_groups(draw, max_size=40):
    """Rows with components in {0, 1, 2}; each column may be constant."""
    n = draw(st.integers(0, max_size))
    columns = []
    for _ in range(3):
        if draw(st.booleans()):
            columns.append([draw(st.integers(0, 2))] * n)
        else:
            columns.append(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    qualified = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [((c1, c2, c3), q) for c1, c2, c3, q in zip(*columns, qualified)]


@st.composite
def bitset_groups(draw):
    """(values, qualified) of up to 200 rows: several 64-bit words, the last one partial.

    Components come from {-0.0, 0.0, 1, 2}, so ties are everywhere and signed
    zeros must count as equal; a column may be constant, and a group may be
    all qualified or all denied.
    """
    n = draw(st.sampled_from([1, 63, 64, 65, 128, 129, 200]) | st.integers(0, 200))
    levels = st.sampled_from([-0.0, 0.0, 1.0, 2.0])
    columns = []
    for _ in range(3):
        if draw(st.booleans()):
            columns.append([draw(levels)] * n)
        else:
            columns.append(draw(st.lists(levels, min_size=n, max_size=n)))
    outcome = draw(st.sampled_from(["mixed", "all", "none"]))
    if outcome == "mixed":
        qualified = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        qualified = [outcome == "all"] * n
    values = np.array(columns, dtype=float).T.reshape(-1, 3)
    return values, np.array(qualified, dtype=bool)


POPCOUNTS = [dominance._table_popcount]
if hasattr(np, "bitwise_count"):
    POPCOUNTS.append(dominance._numpy_popcount)


class TestParetoDominates:
    def test_componentwise_example(self):
        assert pareto_dominates(vec(11, 8, 15), vec(10, 8, 13))

    def test_equal_vectors_do_not_dominate(self):
        assert not pareto_dominates(vec(3, 3, 3), vec(3, 3, 3))

    def test_incomparable_vectors(self):
        assert not pareto_dominates(vec(2, 1, 1), vec(1, 2, 1))
        assert not pareto_dominates(vec(1, 2, 1), vec(2, 1, 1))

    def test_kind_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="kind mismatch"):
            pareto_dominates(vec(1, 1, 1), vec(0, 0, 0, IndicatorKind.NON_BIBLIOMETRIC))

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="equal length"):
            dominates((1.0, 2.0), (1.0, 2.0, 3.0))

    @given(st.lists(st.tuples(*[st.integers(0, 5) for _ in range(3)]), min_size=3, max_size=3))
    def test_irreflexive_antisymmetric_transitive(self, triple):
        x, y, z = triple
        assert not dominates(x, x)
        if dominates(x, y):
            assert not dominates(y, x)
        if dominates(x, y) and dominates(y, z):
            assert dominates(x, z)


class TestPvr:
    def test_three_applicant_example(self):
        apps = population([((3, 3, 3), True), ((2, 2, 2), False), ((1, 1, 1), True)])
        result = pareto_violation_ratio(apps)
        assert result.dominating_pairs == 3
        assert result.violations == 1
        assert result.ratio == pytest.approx(1 / 3)
        ((p, q),) = violating_pairs(apps)
        assert p.indicators.as_tuple() == (2, 2, 2)
        assert q.indicators.as_tuple() == (1, 1, 1)

    @pytest.mark.parametrize(
        "p_qualified,q_qualified,is_violation",
        [
            (True, True, False),
            (True, False, False),
            (False, True, True),
            (False, False, False),
        ],
    )
    def test_single_pair_outcome_grid(self, p_qualified, q_qualified, is_violation):
        apps = population([((2, 2, 2), p_qualified), ((1, 1, 1), q_qualified)])
        result = pareto_violation_ratio(apps)
        assert result.dominating_pairs == 1
        assert result.violations == (1 if is_violation else 0)
        assert result.ratio == (1.0 if is_violation else 0.0)

    def test_empty_population(self):
        result = pareto_violation_ratio([])
        assert result.ratio == 0.0
        assert result.no_comparable_pairs

    def test_all_equal_vectors_have_no_comparable_pairs(self):
        apps = population([((1, 1, 1), True), ((1, 1, 1), False)])
        result = pareto_violation_ratio(apps)
        assert result.dominating_pairs == 0
        assert result.ratio == 0.0
        assert result.no_comparable_pairs

    def test_monotone_sum_rule_has_no_violations(self):
        rows = [((i, 2 * i, i % 3), i + 2 * i + i % 3 > 6) for i in range(8)]
        result = pareto_violation_ratio(population(rows))
        assert result.ratio == 0.0
        assert not result.no_comparable_pairs

    def test_mixed_roles_are_an_error(self):
        a = ApplicationRecord("a", "A", "A", D, Role.FULL, vec(1, 1, 1), True)
        b = ApplicationRecord("b", "B", "B", D, Role.ASSOCIATE, vec(1, 1, 1), True)
        with pytest.raises(ValueError, match="share one discipline and role"):
            pareto_violation_ratio([a, b])

    def test_mixed_disciplines_are_an_error(self):
        other = DisciplineId.parse("01/A2")
        a = ApplicationRecord("a", "A", "A", D, Role.FULL, vec(1, 1, 1), True)
        b = ApplicationRecord("b", "B", "B", other, Role.FULL, vec(1, 1, 1), True)
        with pytest.raises(ValueError):
            pareto_violation_ratio([a, b])

    @given(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 4) for _ in range(3)]),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    def test_matches_enumeration_oracle(self, rows):
        apps = population(rows)
        result = pareto_violation_ratio(apps)
        ratio, dominating, violating = pvr_oracle(apps)
        assert result.dominating_pairs == dominating
        assert result.violations == violating
        assert result.ratio == pytest.approx(ratio)
        assert 0.0 <= result.ratio <= 1.0

    @given(
        st.lists(st.tuples(*[st.floats(0, 10) for _ in range(3)]), max_size=40),
        st.tuples(*[st.floats(0.1, 5) for _ in range(3)]),
        st.floats(0, 60),
    )
    def test_monotone_weighted_rules_never_violate(self, values, weights, cut):
        rows = [
            (v, sum(w * x for w, x in zip(weights, v)) > cut)
            for v in values
        ]
        assert pareto_violation_ratio(population(rows)).ratio == 0.0


def random_population(n, seed=5):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 6, (n, 3))
    qualified = rng.random(n) < 0.5
    return population([(tuple(v), bool(q)) for v, q in zip(values, qualified)])


class TestBlockKernel:
    """The blocked counts and listings against the whole-matrix reference."""

    @given(tied_groups(), st.integers(1, 64))
    def test_matches_whole_matrix_reference(self, rows, block_cells):
        apps = population(rows)
        ratio, dominating, violating, none_comparable, pairs = pvr_reference(apps)
        # A few dozen cells split every group of more than one row into blocks,
        # down to blocks of a single row when block_cells < 2n.
        with mock.patch.object(dominance, "_BLOCK_CELLS", block_cells):
            result = pareto_violation_ratio(apps)
            listed = violating_pairs(apps)
        assert result.dominating_pairs == dominating
        assert result.violations == violating
        assert result.ratio == ratio
        assert result.no_comparable_pairs == none_comparable
        assert listed == [(apps[i], apps[j]) for i, j in pairs]

    @given(tied_groups(), st.integers(0, 12), st.integers(1, 64))
    def test_limit_returns_the_first_pairs(self, rows, limit, block_cells):
        apps = population(rows)
        every = [(apps[i], apps[j]) for i, j in pvr_reference(apps)[4]]
        with mock.patch.object(dominance, "_BLOCK_CELLS", block_cells):
            assert violating_pairs(apps, limit=limit) == every[:limit]
            assert violating_pairs(apps, limit=None) == every

    def test_negative_limit_is_an_error(self):
        apps = population([((2, 2, 2), False), ((1, 1, 1), True)])
        with pytest.raises(ValueError, match="limit"):
            violating_pairs(apps, limit=-1)

    def test_violating_pairs_rejects_mixed_groups(self):
        a = ApplicationRecord("a", "A", "A", D, Role.FULL, vec(1, 1, 1), True)
        b = ApplicationRecord("b", "B", "B", D, Role.ASSOCIATE, vec(1, 1, 1), True)
        with pytest.raises(ValueError, match="share one discipline and role"):
            violating_pairs([a, b])

    def test_memory_stays_within_a_few_blocks(self):
        # The whole-matrix formula needs 3 * n^2 bytes per comparison tensor
        # (108 MB at n = 6,000); the kernel holds a few block-sized matrices
        # besides the n x 3 indicator matrix, which is built from one tuple
        # per row (about 110 bytes a row).
        n = 6000
        apps = random_population(n)
        tracemalloc.start()
        try:
            result = pareto_violation_ratio(apps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.dominating_pairs > 0
        assert peak < 6 * dominance._BLOCK_CELLS + 160 * n

    def test_a_limited_listing_stops_at_the_block_that_fills_it(self):
        # The first block of column words, one word at n = 6,000, holds more
        # than ten pairs; its unpacked bits take about _BLOCK_CELLS bytes.
        n = 6000
        apps = random_population(n)
        ge_sets, firsts = dominance._ge_sets, []

        def counted(*args):
            for block in ge_sets(*args):
                firsts.append(block[0])
                yield block

        tracemalloc.start()
        try:
            with mock.patch.object(dominance, "_ge_sets", counted):
                listed = violating_pairs(apps, limit=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(listed) == 10
        assert firsts == [0]
        assert peak < 6 * dominance._BLOCK_CELLS + 160 * n


class TestBitsetKernel:
    """The bitset pair counts and listings against the whole-matrix reference."""

    @pytest.mark.parametrize("popcount", POPCOUNTS, ids=lambda f: f.__name__)
    @given(bitset_groups())
    def test_matches_whole_matrix_reference(self, popcount, group):
        values, qualified = group
        apps = population([(tuple(v), bool(q)) for v, q in zip(values.tolist(), qualified)])
        ratio, dominating, violating, none_comparable, _ = pvr_reference(apps)
        # _BLOCK_CELLS = 1 makes every 64-bit column word a block of its own.
        with mock.patch.object(dominance, "_BLOCK_CELLS", 1), \
                mock.patch.object(dominance, "_popcount", popcount):
            result = pareto_violation_ratio(values, qualified)
        assert result.dominating_pairs == dominating
        assert result.violations == violating
        assert result.ratio == ratio
        assert result.no_comparable_pairs == none_comparable

    @pytest.mark.parametrize("block_cells", [1, dominance._BLOCK_CELLS])
    @given(bitset_groups())
    def test_listings_over_several_words_match_the_reference(self, block_cells, group):
        values, qualified = group
        apps = population([(tuple(v), bool(q)) for v, q in zip(values.tolist(), qualified)])
        every = [(apps[i], apps[j]) for i, j in pvr_reference(apps)[4]]
        # _BLOCK_CELLS = 1 lists one 64-bit word of dominators p at a time.
        with mock.patch.object(dominance, "_BLOCK_CELLS", block_cells):
            for limit in (0, 1, 7, None):
                assert violating_pairs(apps, limit=limit) == every[:limit]

    def test_popcounts_count_every_bit(self):
        rng = np.random.default_rng(2)
        words = np.concatenate([
            np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**64 - 1, 200, dtype=np.uint64, endpoint=True),
        ]).reshape(-1, 4)
        expected = sum(bin(w).count("1") for w in words.ravel().tolist())
        for popcount in POPCOUNTS:
            assert popcount(words) == expected

    def test_large_tied_group_matches_the_whole_matrix_reference(self):
        # The non-bibliometric components of the big-groups benchmark round:
        # 25 words, so the counts and the listing span several blocks.
        rng = np.random.default_rng(11)
        n = 1600
        values = np.column_stack([rng.poisson(3, n), rng.poisson(6, n), np.zeros(n)]).astype(float)
        qualified = rng.random(n) < 0.3
        apps = population([(tuple(v), bool(q)) for v, q in zip(values.tolist(), qualified)])
        _, dominating, violating, _, pairs = pvr_reference(apps)
        result = pareto_violation_ratio(values, qualified)
        assert (result.dominating_pairs, result.violations) == (dominating, violating)
        assert dominating > 0 and violating > 0
        assert violating_pairs(apps) == [(apps[i], apps[j]) for i, j in pairs]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_indicators_are_an_error(self, bad):
        values = np.array([[1.0, 2.0, 3.0], [0.0, bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            pareto_violation_ratio(values, np.array([True, False]))

    def test_array_entry_memory_stays_within_a_few_blocks(self):
        # Prefix tables over all the columns at once would take
        # 3 * (n + 1) * n / 8 bytes, 150 MB at n = 20,000.
        rng = np.random.default_rng(5)
        n = 20_000
        values = rng.integers(0, 6, (n, 3)).astype(float)
        qualified = rng.random(n) < 0.5
        tracemalloc.start()
        try:
            result = pareto_violation_ratio(values, qualified)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.dominating_pairs > 0
        assert peak < 6 * dominance._BLOCK_CELLS + 160 * n
