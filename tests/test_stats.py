import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from asnqual import stats
from asnqual.dominance import ApplicationRecord
from asnqual.indicators import IndicatorKind, IndicatorVector
from asnqual.stats import (
    Z95,
    conditional_rates,
    five_number_summary,
    proportion_diff_ci,
    rates_from_flags,
    spearman_rho,
    zero_corr_p_value,
)
from asnqual.thresholds import DisciplineId, MedianSet, Role

D = DisciplineId.parse("01/A1")
floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestFiveNumberSummary:
    def test_symmetric_sample(self):
        assert five_number_summary([1, 2, 3, 4, 5]).as_tuple() == (1, 2, 3, 4, 5)

    def test_two_point_interpolation(self):
        assert five_number_summary([0, 10]).as_tuple() == (0, 2.5, 5, 7.5, 10)

    def test_constant_sample(self):
        assert five_number_summary([7, 7, 7]).as_tuple() == (7, 7, 7, 7, 7)

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            five_number_summary([])

    def test_non_finite_sample_is_an_error(self):
        with pytest.raises(ValueError, match="non-finite"):
            five_number_summary([1.0, math.nan])

    @given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, 1.0, 5e-324]),
                    min_size=1, max_size=50))
    def test_each_value_is_the_np_percentile_value(self, values):
        expected = np.percentile(np.array(values), [0, 25, 50, 75, 100]).tolist()
        # == is bit equality here, but for the sign of a zero
        assert list(five_number_summary(values).as_tuple()) == expected

    def test_no_numpy_ma_import(self):
        # numpy 2 imports numpy.ma on first use, numpy 1 with numpy itself
        code = "import sys; from asnqual.stats import five_number_summary as f; " \
               "loaded = 'numpy.ma' in sys.modules; f([1.0, 2.0, 4.0]); " \
               "sys.exit(('numpy.ma' in sys.modules) != loaded)"
        env = {**os.environ, "PYTHONPATH": str(Path(stats.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @given(st.lists(floats, min_size=1, max_size=50))
    def test_ordered_components(self, values):
        s = five_number_summary(values)
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum

    @given(st.lists(floats, min_size=1, max_size=50), st.randoms())
    def test_permutation_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert five_number_summary(shuffled) == five_number_summary(values)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50),
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_affine_equivariance(self, values, a, b):
        base = five_number_summary(values).as_tuple()
        mapped = five_number_summary([a * v + b for v in values]).as_tuple()
        for m, v in zip(mapped, base):
            assert m == pytest.approx(a * v + b, abs=1e-6)


def rank_preserving_map(values, rng):
    """A random strictly increasing map applied pointwise to the sample."""
    unique = sorted(set(values))
    outputs = np.cumsum(rng.uniform(0.1, 2.0, len(unique)))
    lookup = dict(zip(unique, outputs))
    return [float(lookup[v]) for v in values]


class TestSpearman:
    def test_identical_distinct_samples(self):
        r = spearman_rho([1, 5, 3, 8], [1, 5, 3, 8])
        assert r.rho == 1.0
        assert r.ci_low == r.ci_high == 1.0
        assert r.p_value_zero_corr == 0.0

    def test_reversed_distinct_samples(self):
        r = spearman_rho([1, 2, 3, 4], [9, 7, 5, 1])
        assert r.rho == -1.0

    def test_tied_sample_against_hand_ranking(self):
        # y-ranks are (1, 2.5, 2.5, 4); the product-moment correlation of
        # ranks works out to 4.5/sqrt(5*4.5) = 3/sqrt(10)
        r = spearman_rho([1, 2, 3, 4], [1, 2, 2, 4])
        assert r.rho == pytest.approx(3 / math.sqrt(10), abs=1e-12)
        scipy_stats = pytest.importorskip("scipy.stats")
        reference = scipy_stats.spearmanr([1, 2, 3, 4], [1, 2, 2, 4]).statistic
        assert r.rho == pytest.approx(reference, abs=1e-12)

    def test_too_short_is_an_error(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman_rho([1, 2], [1, 2])

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            spearman_rho([1, 2, 3], [1, 2])

    def test_constant_sample_is_an_error(self):
        with pytest.raises(ValueError, match="rank variance"):
            spearman_rho([1, 1, 1, 1], [1, 2, 3, 4])

    def test_three_pairs_have_no_interval(self):
        r = spearman_rho([1, 2, 3], [1, 3, 2])
        assert math.isnan(r.ci_low) and math.isnan(r.ci_high)
        assert not math.isnan(r.rho)

    def test_interval_brackets_the_estimate(self):
        r = spearman_rho([1, 2, 3, 4, 6], [2, 1, 4, 3, 6])
        assert r.ci_low <= r.rho <= r.ci_high

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=4, max_size=30),
        st.lists(st.integers(min_value=0, max_value=30), min_size=4, max_size=30),
    )
    def test_symmetry(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        a = spearman_rho(x, y)
        b = spearman_rho(y, x)
        assert a.rho == pytest.approx(b.rho, abs=1e-12)

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=4, max_size=30),
        st.lists(st.integers(min_value=0, max_value=30), min_size=4, max_size=30),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_invariant_under_strictly_increasing_transforms(self, x, y, seed):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        rng = np.random.default_rng(seed)
        base = spearman_rho(x, y).rho
        mapped = spearman_rho(rank_preserving_map(x, rng), rank_preserving_map(y, rng)).rho
        assert mapped == pytest.approx(base, abs=1e-12)

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=4, max_size=40),
        st.lists(st.integers(min_value=0, max_value=20), min_size=4, max_size=40),
    )
    def test_matches_scipy_on_tied_data(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        scipy_stats = pytest.importorskip("scipy.stats")
        ours = spearman_rho(x, y).rho
        reference = scipy_stats.spearmanr(x, y).statistic
        assert ours == pytest.approx(reference, abs=1e-9)


def average_ranks_reference(values):
    """The per-run loop that _average_ranks replaced, kept as its oracle."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    # a few distinct values, so that most draws tie, plus NaN, signed zeros
    # and infinities
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e308, math.inf, -math.inf, math.nan])
            | st.floats(allow_nan=True),
            max_size=60,
        )
    )
    def test_matches_the_loop_exactly(self, values):
        a = np.asarray(values, dtype=float)
        ours = stats._average_ranks(a)
        reference = average_ranks_reference(a)
        assert ours.dtype == reference.dtype
        assert ours.tobytes() == reference.tobytes()

    def test_each_nan_is_its_own_run(self):
        ranks = stats._average_ranks(np.array([math.nan, 1.0, math.nan, 1.0]))
        assert ranks.tolist() == [3.0, 1.5, 4.0, 1.5]


GOLDEN_CORRELATIONS = Path(__file__).parent / "golden" / "report" / "correlations.csv"


def exact_p_value(rho, n):
    """I_x((n-2)/2, 1/2) at x = (1-|rho|)(1+|rho|) for the double rho, in 300 bits.

    Returns None when the value lies below the normal double range; there
    x^a / (a B(a, 1/2) sqrt(1-x)), which bounds it from above, is checked
    instead, since mpmath's series do not converge that deep in the tail.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(300):
        r = abs(mpmath.mpf(rho))
        a = mpmath.mpf(n - 2) / 2
        x = (1 - r) * (1 + r)
        if 0 < x < 1 and x**a / (a * mpmath.beta(a, 0.5) * mpmath.sqrt(1 - x)) < sys.float_info.min:
            return None
        return mpmath.betainc(a, 0.5, 0, x, regularized=True)


def rounded_10(value):
    """The double nearest the 10-significant-digit rounding of an mpmath value."""
    mpmath = pytest.importorskip("mpmath")
    return float(mpmath.nstr(value, 10))


class TestZeroCorrPValue:
    """The t-approximation p-value against mpmath as an exact oracle."""

    def test_golden_p_values_are_correctly_rounded(self):
        with GOLDEN_CORRELATIONS.open(newline="") as f:
            rows = [r for r in csv.DictReader(f) if r["p_value"] != "NaN"]
        assert len(rows) == 23
        for row in rows:
            exact = exact_p_value(float(row["rho"]), int(row["n"]))
            assert float(row["p_value"]) == rounded_10(exact), row

    @pytest.mark.parametrize(
        "rho, p",
        [
            (0.4, 0.6),
            (-0.4, 0.6),
            (0.2, 0.8),
            (0.75, 0.25),
            (0.816496580927726, 0.1835034191),
            (0.999999, 1e-06),
            (0.0, 1.0),
            (1.0, 0.0),
        ],
    )
    def test_four_pairs_give_one_minus_abs_rho(self, rho, p):
        assert zero_corr_p_value(rho, 4) == p

    def test_spearman_at_four_pairs(self):
        r = spearman_rho([1, 2, 3, 4], [1, 3, 4, 2])
        assert r.rho == 0.4
        assert r.p_value_zero_corr == 0.6

    @staticmethod
    def assert_within_half_a_unit_in_the_tenth_digit(rho, n):
        p = zero_corr_p_value(rho, n)
        exact = exact_p_value(rho, n)
        if exact is None or exact < sys.float_info.min:
            # a double below the normal range holds no 10 digits
            assert 0.0 <= p <= sys.float_info.min
            return
        mpmath = pytest.importorskip("mpmath")
        half_unit = 0.5 * 10.0 ** (int(mpmath.floor(mpmath.log10(exact))) - 9)
        assert abs(mpmath.mpf(p) - exact) <= half_unit + 1e-13 * exact

    @given(
        st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.integers(min_value=4, max_value=200_000),
    )
    def test_within_half_a_unit_in_the_tenth_digit(self, rho, n):
        self.assert_within_half_a_unit_in_the_tenth_digit(rho, n)

    # |rho| = 1 - m*2^-k at every scale k, where 1 - rho*rho loses digits; past
    # n = 2046 every p-value with rho^2 > 1/2 is below the normal double range
    @given(
        st.integers(min_value=1, max_value=52),
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        st.integers(min_value=4, max_value=2046),
    )
    def test_within_half_a_unit_in_the_tenth_digit_near_one(self, k, m, n):
        self.assert_within_half_a_unit_in_the_tenth_digit(1.0 - m * 2.0**-k, n)

    @pytest.mark.parametrize(
        "rho, n",
        [
            # a continued fraction on the rounded x = 1 - rho^2 was 7e-12 off here
            (0.005115669088944269, 190938),
            # rho^2 near 1/2 at n near 2,000, where the tail from a rounded x
            # was 1.9e-13 off
            (0.7275, 1819),
            # the largest n the properties draw, p = 4.4e-268
            (0.0781, 200000),
            # p = 8.9959686515009e-294: a log x rounded to one double gave
            # 1.3e-13 too little and the 10th digit rounded down
            (0.3851393136819746, 8360),
            # u = 670 in the BGRAT expansion: erfc of a rounded sqrt(u) was
            # 2.2e-13 off
            (0.26493236930986047, 16851),
            # p = 5.6e-299 without the low part of u = -T ln x: 1.3e-13 off
            (0.12711077476950547, 83851),
            # p = 2.6e-280 from the continued fraction, with the exponent of
            # its front factor rounded to one double: 1.2e-13 off
            (0.9918452514426351, 313),
            # n = 31 and 32 on either side of the switch to the BGRAT expansion
            (0.3, 31),
            (0.3, 32),
            (0.6, 31),
        ],
    )
    def test_cases_that_broke_earlier_tails(self, rho, n):
        exact = exact_p_value(rho, n)
        tail = stats._t_tail(abs(rho), 0.5 * (n - 2))
        assert abs(tail - exact) <= 1e-13 * exact
        assert zero_corr_p_value(rho, n) == rounded_10(exact)

    def test_out_of_range_arguments_are_errors(self):
        with pytest.raises(ValueError, match="at least 3"):
            zero_corr_p_value(0.5, 2)
        with pytest.raises(ValueError, match="outside"):
            zero_corr_p_value(1.5, 10)
        with pytest.raises(ValueError, match="outside"):
            zero_corr_p_value(math.nan, 10)


def test_import_loads_no_scipy():
    code = "import sys, asnqual, asnqual.cli; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


def build_apps(over, qualified_flags, medians):
    """Applicants whose standing against `medians` is forced by `over`."""
    apps = []
    for i, (is_over, q) in enumerate(zip(over, qualified_flags)):
        if is_over:
            v = IndicatorVector(medians.m1 + 1, medians.m2 + 1, medians.m3, medians.kind)
        else:
            v = IndicatorVector(0, 0, 0, medians.kind)
        apps.append(ApplicationRecord(f"a{i}", f"L{i}", "F", D, Role.FULL, v, q))
    return apps


class TestConditionalRates:
    MEDIANS = MedianSet(D, Role.FULL, 1, 1, 1, IndicatorKind.BIBLIOMETRIC)

    def test_direct_counting(self):
        over = [True] * 4 + [False] * 6
        qualified = [True, True, True, False] + [False] * 6
        rates = conditional_rates(build_apps(over, qualified, self.MEDIANS), self.MEDIANS)
        assert rates.pq == pytest.approx(0.3)
        assert rates.pqo == pytest.approx(0.75)
        assert rates.pqu == 0.0
        assert (rates.n_total, rates.n_over, rates.n_under) == (10, 4, 6)

    def test_no_under_median_applicants_yield_nan(self):
        rates = conditional_rates(build_apps([True], [True], self.MEDIANS), self.MEDIANS)
        assert math.isnan(rates.pqu)
        assert rates.pqo == 1.0

    def test_no_over_median_applicants_yield_nan(self):
        rates = conditional_rates(build_apps([False], [False], self.MEDIANS), self.MEDIANS)
        assert math.isnan(rates.pqo)

    def test_under_rate_may_exceed_over_rate(self):
        over = [True, True, False, False]
        qualified = [False, False, True, True]
        rates = conditional_rates(build_apps(over, qualified, self.MEDIANS), self.MEDIANS)
        assert rates.pqu > rates.pqo

    def test_group_mismatch_is_an_error(self):
        other = MedianSet(DisciplineId.parse("01/A2"), Role.FULL, 1, 1, 1, IndicatorKind.BIBLIOMETRIC)
        apps = build_apps([True], [True], self.MEDIANS)
        with pytest.raises(ValueError, match="does not belong"):
            conditional_rates(apps, other)

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=200))
    def test_mixture_identity(self, flags):
        qualified = [q for q, _ in flags]
        over = [o for _, o in flags]
        rates = rates_from_flags(qualified, over)
        if rates.n_over and rates.n_under:
            w = rates.n_over / rates.n_total
            assert rates.pq == pytest.approx(w * rates.pqo + (1 - w) * rates.pqu, abs=1e-12)


class TestProportionDiffCi:
    def test_degenerate_proportions_collapse_to_a_point(self):
        diff, low, high = proportion_diff_ci(100, 100, 0, 100)
        assert (diff, low, high) == (1.0, 1.0, 1.0)

    def test_near_extreme_difference_clamps_to_one(self):
        diff, low, high = proportion_diff_ci(29, 30, 1, 30)
        assert high == 1.0
        assert low < diff < high

    def test_identical_proportions_center_at_zero(self):
        diff, low, high = proportion_diff_ci(40, 100, 40, 100)
        assert diff == 0.0
        assert low == pytest.approx(-high, abs=1e-12)

    def test_frozen_interval(self):
        diff, low, high = proportion_diff_ci(568, 1000, 440, 1000)
        assert diff == pytest.approx(0.128, abs=1e-12)
        se = math.sqrt(0.568 * 0.432 / 1000 + 0.44 * 0.56 / 1000)
        assert low == pytest.approx(0.128 - Z95 * se, abs=1e-12)
        assert high == pytest.approx(0.128 + Z95 * se, abs=1e-12)

    def test_interval_against_bootstrap_oracle(self):
        rng = np.random.default_rng(20130215)
        resamples = 100_000
        pa = rng.binomial(1000, 0.568, resamples) / 1000
        pb = rng.binomial(1000, 0.440, resamples) / 1000
        boot_low, boot_high = np.percentile(pa - pb, [2.5, 97.5])
        _, low, high = proportion_diff_ci(568, 1000, 440, 1000)
        assert low == pytest.approx(boot_low, abs=0.01)
        assert high == pytest.approx(boot_high, abs=0.01)

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            proportion_diff_ci(1, 0, 1, 2)

    def test_successes_above_sample_size_are_an_error(self):
        with pytest.raises(ValueError):
            proportion_diff_ci(3, 2, 1, 2)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.data(),
    )
    def test_endpoints_bracket_the_difference(self, n1, n2, data):
        k1 = data.draw(st.integers(min_value=0, max_value=n1))
        k2 = data.draw(st.integers(min_value=0, max_value=n2))
        diff, low, high = proportion_diff_ci(k1, n1, k2, n2)
        assert low <= diff <= high
        assert -1.0 <= low and high <= 1.0


def test_z95_value():
    assert Z95 == pytest.approx(1.959963984540054, abs=1e-12)
