import statistics
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asnqual.indicators import IndicatorKind, IndicatorVector
from asnqual.thresholds import (
    CENSUS_CELLS,
    DisciplineId,
    MedianIndex,
    MedianSet,
    MedianTag,
    MissingMedianSetError,
    Role,
    Standing,
    ZeroMedianCensus,
    classify,
    compute_median,
    exceeds_count,
    required_exceedances,
    tag_median_pair,
    zero_median_census,
)

D = DisciplineId.parse("01/A1")


def mset(m1, m2, m3, role=Role.FULL, kind=IndicatorKind.BIBLIOMETRIC, code="01/A1", sub=None):
    return MedianSet(DisciplineId.parse(code, sub), role, m1, m2, m3, kind)


def vec(i1, i2, i3, kind=IndicatorKind.BIBLIOMETRIC):
    return IndicatorVector(i1, i2, i3, kind)


class TestDisciplineId:
    def test_parse_and_render(self):
        d = DisciplineId.parse("09/H1")
        assert (d.area, d.macro_sector, d.digit) == ("09", "H", "1")
        assert d.code == "09/H1"

    def test_sub_discipline_is_carried(self):
        d = DisciplineId.parse("13/A1", "13/A1-eco")
        assert d.sub_discipline == "13/A1-eco"

    @pytest.mark.parametrize("bad", ["9/A1", "15/A1", "01-A1", "01/a1", "01/AA", "01/A12"])
    def test_malformed_codes_rejected(self, bad):
        with pytest.raises(ValueError):
            DisciplineId.parse(bad)

    @pytest.mark.parametrize("sub", ["x\ry", "x\ny", "x\r\ny", "\n"])
    def test_a_line_break_in_a_sub_discipline_is_rejected(self, sub):
        # a CSV writer leaves a bare \r unquoted, and the file would not read back
        with pytest.raises(ValueError, match="^line break in sub-discipline "):
            DisciplineId.parse("01/A1", sub)


class TestComputeMedian:
    def test_odd(self):
        assert compute_median([1, 2, 3]) == 2

    def test_even_midpoint(self):
        assert compute_median([1, 2, 3, 4]) == 2.5

    def test_singleton(self):
        assert compute_median([5]) == 5

    def test_empty_population_is_an_error(self):
        with pytest.raises(ValueError, match="empty population"):
            compute_median([])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
    def test_permutation_invariant_and_bounded(self, values):
        m = compute_median(values)
        assert compute_median(list(reversed(values))) == m
        assert min(values) <= m <= max(values)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60))
    def test_at_most_half_strictly_exceed_the_median(self, values):
        m = compute_median(values)
        assert sum(1 for v in values if v > m) <= len(values) / 2

    # the same bits: signed zeros, infinities and ints past 2**53 included
    @given(st.lists(st.floats(allow_nan=False) | st.integers(-(2**60), 2**60), min_size=1, max_size=40))
    def test_agrees_with_stdlib(self, values):
        assert repr(compute_median(values)) == repr(float(statistics.median(values)))


class TestExceedsCount:
    WORKED_MEDIANS = mset(10, 13.2, 7)

    def test_exceeds_first_and_second(self):
        assert exceeds_count(vec(11, 15, 6), self.WORKED_MEDIANS) == 2

    def test_exceeds_only_first_with_equality_not_counting(self):
        assert exceeds_count(vec(13, 12, 7), self.WORKED_MEDIANS) == 1

    def test_componentwise_equality_counts_zero(self):
        assert exceeds_count(vec(10, 13.2, 7), self.WORKED_MEDIANS) == 0

    def test_kind_mismatch_is_an_error(self):
        v = vec(1, 1, 1, IndicatorKind.NON_BIBLIOMETRIC)
        with pytest.raises(ValueError, match="kind mismatch"):
            exceeds_count(v, self.WORKED_MEDIANS)

    @given(
        st.tuples(*[st.floats(min_value=0, max_value=100) for _ in range(3)]),
        st.tuples(*[st.floats(min_value=0, max_value=100) for _ in range(3)]),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.001, max_value=50),
    )
    def test_monotone_in_the_vector(self, values, medians, i, bump):
        m = mset(*medians)
        base = exceeds_count(vec(*values), m)
        raised = list(values)
        raised[i] += bump
        assert exceeds_count(vec(*raised), m) >= base

    @given(
        st.tuples(*[st.floats(min_value=0, max_value=100) for _ in range(3)]),
        st.tuples(*[st.floats(min_value=0, max_value=100) for _ in range(3)]),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.001, max_value=50),
    )
    def test_antitone_in_the_medians(self, values, medians, i, bump):
        base = exceeds_count(vec(*values), mset(*medians))
        raised = list(medians)
        raised[i] += bump
        assert exceeds_count(vec(*values), mset(*raised)) <= base


class TestClassify:
    def test_bibliometric_needs_two(self):
        m = mset(10, 13.2, 7)
        assert classify(vec(11, 15, 6), m) is Standing.OVER_MEDIAN
        assert classify(vec(13, 12, 7), m) is Standing.UNDER_MEDIAN

    def test_non_bibliometric_needs_one(self):
        m = mset(10, 13.2, 7, kind=IndicatorKind.NON_BIBLIOMETRIC, code="10/A1")
        v = vec(13, 12, 7, IndicatorKind.NON_BIBLIOMETRIC)
        assert classify(v, m) is Standing.OVER_MEDIAN

    def test_required_exceedances(self):
        assert required_exceedances(IndicatorKind.BIBLIOMETRIC) == 2
        assert required_exceedances(IndicatorKind.NON_BIBLIOMETRIC) == 1

    @given(
        st.tuples(*[st.floats(min_value=0, max_value=100) for _ in range(3)]),
        st.tuples(*[st.floats(min_value=0, max_value=100) for _ in range(3)]),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.001, max_value=50),
    )
    def test_raising_a_component_never_flips_over_to_under(self, values, medians, i, bump):
        m = mset(*medians)
        if classify(vec(*values), m) is Standing.OVER_MEDIAN:
            raised = list(values)
            raised[i] += bump
            assert classify(vec(*raised), m) is Standing.OVER_MEDIAN


class TestZeroMedianCensus:
    def test_one_zero_full(self):
        census = zero_median_census([mset(0, 2, 3)])
        assert (census.full_one_zero, census.full_two_zero) == (1, 0)
        assert (census.associate_one_zero, census.associate_two_zero) == (0, 0)

    def test_two_zero_associate(self):
        census = zero_median_census([mset(0, 0, 3, role=Role.ASSOCIATE)])
        assert census.associate_two_zero == 1
        assert census.full_one_zero == census.full_two_zero == census.associate_one_zero == 0

    def test_all_positive(self):
        sets = [mset(1, 2, 3), mset(1, 2, 3, role=Role.ASSOCIATE)]
        census = zero_median_census(sets)
        assert (
            census.full_one_zero,
            census.full_two_zero,
            census.associate_one_zero,
            census.associate_two_zero,
        ) == (0, 0, 0, 0)

    def test_three_zeros_not_counted_in_either_bucket(self):
        census = zero_median_census([mset(0, 0, 0, kind=IndicatorKind.NON_BIBLIOMETRIC)])
        assert census.full_one_zero == 0
        assert census.full_two_zero == 0

    def test_duplicate_discipline_role_is_an_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            zero_median_census([mset(1, 2, 3), mset(4, 5, 6)])

    def test_census_cells_are_the_census_fields_in_order(self):
        names = [f"{role.name.lower()}_{('one', 'two')[zeros - 1]}_zero" for role, zeros in CENSUS_CELLS]
        assert names == [f.name for f in fields(ZeroMedianCensus)]


class TestTagMedianPair:
    def test_associate_dominating_full_gets_the_star(self):
        full = mset(10, 13.2, 7)
        assoc = mset(10, 14, 7, role=Role.ASSOCIATE)
        assert tag_median_pair(full, assoc) is MedianTag.ASSOCIATE_DOMINATES

    def test_one_zero_full_median(self):
        full = mset(0, 2, 3)
        assoc = mset(1, 1, 1, role=Role.ASSOCIATE)
        assert tag_median_pair(full, assoc) is MedianTag.FULL_ONE_ZERO

    def test_plain_pair(self):
        full = mset(5, 5, 5)
        assoc = mset(1, 1, 1, role=Role.ASSOCIATE)
        assert tag_median_pair(full, assoc) is MedianTag.NONE

    def test_star_takes_precedence_over_zero_tags(self):
        full = mset(0, 2, 3)
        assoc = mset(0, 2, 4, role=Role.ASSOCIATE)
        assert tag_median_pair(full, assoc) is MedianTag.ASSOCIATE_DOMINATES

    def test_two_zero_full_medians(self):
        full = mset(0, 0, 3)
        assoc = mset(1, 0, 1, role=Role.ASSOCIATE)
        assert tag_median_pair(full, assoc) is MedianTag.FULL_TWO_ZERO

    def test_zero_associate_medians(self):
        assert (
            tag_median_pair(mset(1, 2, 3), mset(0, 1, 1, role=Role.ASSOCIATE))
            is MedianTag.ASSOCIATE_ONE_ZERO
        )
        assert (
            tag_median_pair(mset(1, 2, 3), mset(0, 0, 1, role=Role.ASSOCIATE))
            is MedianTag.ASSOCIATE_TWO_ZERO
        )

    def test_discipline_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="discipline mismatch"):
            tag_median_pair(mset(1, 1, 1), mset(1, 1, 1, role=Role.ASSOCIATE, code="01/A2"))

    def test_role_order_is_enforced(self):
        with pytest.raises(ValueError, match="full-professor"):
            tag_median_pair(mset(1, 1, 1, role=Role.ASSOCIATE), mset(1, 1, 1))

    @given(
        st.tuples(*[st.floats(min_value=0, max_value=20) for _ in range(3)]),
        st.tuples(*[st.floats(min_value=0, max_value=20) for _ in range(3)]),
    )
    def test_star_only_under_the_dominance_conditions(self, f, a):
        tag = tag_median_pair(mset(*f), mset(*a, role=Role.ASSOCIATE))
        dominated = all(x >= y for x, y in zip(a, f)) and any(x > y for x, y in zip(a, f))
        assert (tag is MedianTag.ASSOCIATE_DOMINATES) == dominated


class TestMedianSet:
    def test_negative_median_rejected(self):
        with pytest.raises(ValueError):
            mset(-1, 2, 3)

    def test_zero_component_count(self):
        assert mset(0, 0, 3).zero_components() == 2


class TestMedianIndex:
    def build(self):
        return MedianIndex(
            [
                mset(1, 2, 3),
                mset(1, 1, 1, role=Role.ASSOCIATE),
                mset(9, 9, 9, sub="01/A1-x"),
            ]
        )

    def test_resolve_prefers_the_sub_discipline_set(self):
        index = self.build()
        best = index.resolve(DisciplineId.parse("01/A1", "01/A1-x"), Role.FULL)
        assert best.m1 == 9

    def test_resolve_falls_back_to_discipline_level(self):
        index = self.build()
        best = index.resolve(DisciplineId.parse("01/A1", "01/A1-y"), Role.FULL)
        assert best.m1 == 1

    def test_resolve_without_sub_discipline(self):
        index = self.build()
        assert index.resolve(D, Role.ASSOCIATE).m1 == 1

    def test_missing_set_is_an_error(self):
        with pytest.raises(KeyError):
            self.build().resolve(DisciplineId.parse("02/A1"), Role.FULL)

    def test_missing_set_is_also_invalid_input(self):
        with pytest.raises(ValueError, match="^no median set for 02/A1 role full$") as info:
            self.build().resolve(DisciplineId.parse("02/A1"), Role.FULL)
        assert isinstance(info.value, MissingMedianSetError)

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            MedianIndex([mset(1, 2, 3), mset(4, 5, 6)])

    def test_top_level_excludes_sub_discipline_sets(self):
        index = self.build()
        assert len(index.top_level()) == 2
        assert len(index) == 3
