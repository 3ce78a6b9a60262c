"""Descriptive statistics for qualification-round analyses.

Five-number summaries, Spearman rank correlation with a Fisher-z interval,
and conditional qualification rates with a two-proportion difference CI.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dominance import ApplicationRecord
from .thresholds import MedianSet, Standing, classify

# The two-sided 95% normal quantile, one ULP above 1.9599639845400538, the
# correctly rounded inverse normal CDF at the double nearest 0.975. It is the
# value the golden report was produced with, written out so that no output
# depends on a library's last bits and the ci_low, ci_high and
# rate-difference columns stay byte-identical.
Z95 = 1.959963984540054


@dataclass(frozen=True)
class FiveNumberSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.minimum, self.q1, self.median, self.q3, self.maximum)


def five_number_summary(values: Iterable[float]) -> FiveNumberSummary:
    """Min, quartiles and max; quartiles by linear interpolation of order statistics.

    Quartile q sits at position p = q(n - 1) of the sorted sample.  With a
    and b the order statistics at floor(p) and the next one, and t the
    fraction of p, it is a + (b - a)t, or b - (b - a)(1 - t) from t = 0.5
    on: the value np.percentile gives, but for the sign of a zero.
    np.percentile itself would import numpy.ma, through np.unique, in the
    middle of an analysis.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if not np.isfinite(data).all():
        raise ValueError("sample contains non-finite values")
    ordered = np.sort(data).tolist()
    last = len(ordered) - 1
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        position = q * last  # exact in binary
        below = math.floor(position)
        a, b = ordered[below], ordered[min(below + 1, last)]
        t = position - below
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return FiveNumberSummary(ordered[0], *quartiles, ordered[last])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the average of their rank positions.

    A run of equal values in sorted order spans positions i..j and gets
    0.5*(i+j) + 1; NaN equals nothing, so each NaN is a run of its own.
    """
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    cuts = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [values.size])) - 1
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    n: int
    ci_low: float
    ci_high: float
    p_value_zero_corr: float


def zero_corr_p_value(rho: float, n: int) -> float:
    """Two-sided p-value of a zero-correlation null, to 10 significant digits.

    This is the Student-t tail at t = rho*sqrt((n-2)/(1-rho^2)) with n-2
    degrees of freedom, p = I_x((n-2)/2, 1/2) with x = (1-|rho|)(1+|rho|).
    It is evaluated from rho directly, never through t or a rounded
    1 - rho*rho: the tail magnifies the rounding of its argument about
    (n-2)/2 times, and near |rho| = 1 the route through t loses up to 1e-7
    relative accuracy.

    The unrounded tail was within 7.2e-14 relative of mpmath (300 bits) at
    11,169 points with n up to 200,000, while the t approximation to the
    Spearman null is far coarser than that, so only the digits that hold
    are written.
    """
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation {rho} outside [-1, 1]")
    return float(f"{_t_tail(abs(rho), 0.5 * (n - 2)):.10g}")


# BGRAT (see _bgrat_tail) is used for a >= 15 and rho^2 below 0.35, where
# 1 - rho^2 is too close to 1 for the continued fraction's front factor.
_BGRAT_MIN_A = 15.0
_BGRAT_MAX_RHO2 = 0.35
_HALF_LOG_PI = 0.5 * math.log(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_EPS = sys.float_info.epsilon
_TINY = 1e-300
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant


def _t_tail(r: float, a: float) -> float:
    """I_x(a, 1/2) at x = (1-r)(1+r) for 0 <= r <= 1 and a >= 1/2.

    The tail is about x^a, so it magnifies the relative error of log x
    about -a log x times, which reaches 700 before the tail underflows.
    log x is therefore kept as an unevaluated sum of two doubles, and the
    products with a that follow are formed exactly.
    """
    y = r * r
    if y == 0.0:
        # below r = 1.5e-162, 1 - p is far below half an ulp of 1
        return 1.0
    if r == 1.0:
        return 0.0
    log_x, log_x_lo = _log_one_minus_square(r)
    if a >= _BGRAT_MIN_A and y < _BGRAT_MAX_RHO2:
        return _bgrat_tail(a, log_x, log_x_lo)
    # Continued fraction (Numerical Recipes, section 6.4) behind the front
    # factor x^a * r / (a * B(a, 1/2)), taken in log space, with
    # ln B(a, 1/2) = ln Gamma(1/2) - (ln Gamma(a + 1/2) - ln Gamma(a)).
    log_beta = _HALF_LOG_PI - _log_gamma_half_ratio(a)
    head, tail = _two_prod(a, log_x)
    head, rest = _two_sum(head, tail + a * log_x_lo + math.log(r) - log_beta)
    front = math.exp(head) * (1.0 + rest)
    if y * (a + 2.5) < 1.5:
        # near x = 1 the fraction converges for 1 - I_y(1/2, a) instead
        return 1.0 - 2.0 * front * _beta_cf(0.5, a, y)
    return front / a * _beta_cf(a, 0.5, (1.0 - r) * (1.0 + r))


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """p, e with p = fl(a*b) and p + e = a*b exactly (Dekker)."""
    p = a * b
    big = _SPLIT * a
    a_hi = big - (big - a)
    a_lo = a - a_hi
    big = _SPLIT * b
    b_hi = big - (big - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """s, e with s = fl(a+b) and s + e = a+b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _log_one_minus_square(r: float) -> tuple[float, float]:
    """ln(1 - r^2) as a sum of two doubles, for 0 < r < 1."""
    y, y_lo = _two_prod(r, r)
    x, x_lo = _two_sum(1.0, -y)
    x_lo -= y_lo
    return _two_sum(math.log(x), x_lo / x)


def _log_gamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a), free of the lgamma cancellation.

    a is shifted up to 20 or more by the recurrence, then the asymptotic
    series in 1/a is summed up to the a^-7 term.
    """
    shift = 1.0
    while a < 20.0:
        shift *= (a + 0.5) / a
        a += 1.0
    w = 1.0 / (a * a)
    series = (-1.0 / 8 + w * (1.0 / 192 + w * (-1.0 / 640 + w * (17.0 / 14336)))) / a
    return 0.5 * math.log(a) + series - math.log(shift)


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    c = 1.0
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        for coef in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 / _nonzero(1.0 + coef * d)
            c = _nonzero(1.0 + coef / c)
            delta = c * d
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _nonzero(v: float) -> float:
    return v if abs(v) >= _TINY else _TINY


def _bgrat_tail(a: float, log_x: float, log_x_lo: float) -> float:
    """I_x(a, 1/2) by the BGRAT expansion for large a; ln x = log_x + log_x_lo.

    DiDonato & Morris, ACM TOMS 18(3), 1992, Algorithm 708, eq. 9-9.6 with
    b = 1/2: with T = a - 1/4 and u = -T ln x,
    I_x(a, 1/2) = Gamma(a + 1/2) / (Gamma(a) sqrt(T)) * (Q(1/2, u) + r * sum d_n J_n),
    where Q(1/2, u) = erfc(sqrt(u)) and r = sqrt(u/pi) e^-u.  The J_n
    below are divided by r, as in the algorithm.
    """
    t = a - 0.25
    u, u_lo = _two_prod(-t, log_x)
    u_lo -= t * log_x_lo
    # erfc(sqrt(u + u_lo)), with the rounding of the square root corrected
    # to first order: d erfc(s)/ds = -2/sqrt(pi) e^-s^2
    root = math.sqrt(u)
    square, square_lo = _two_prod(root, root)
    root_lo = ((u - square) - square_lo + u_lo) / (2.0 * root)
    q = math.erfc(root) - _TWO_OVER_SQRT_PI * math.exp(-u) * root_lo
    if q < sys.float_info.min:
        # u > 700 here, where the corrections outweigh the factor in front
        # (about 1 + 1/(64 a^2)), so the tail is below q as well
        return 0.0
    r = math.sqrt(u / math.pi) * math.exp(-u)
    j0 = j = q / r
    correction = 0.0
    v = 0.25 / (t * t)
    l2 = 0.25 * log_x * log_x
    l2_power = 1.0
    cn = 1.0
    c: list[float] = []
    d: list[float] = []
    for n in range(1, 31):
        b2n = 2.0 * n - 1.5  # b + 2n - 2
        j = (b2n * (b2n + 1.0) * j + (u + b2n + 1.0) * l2_power) * v
        l2_power *= l2
        cn /= (2.0 * n) * (2.0 * n + 1.0)
        c.append(cn)
        s = sum((0.5 * (i + 1) - n) * c[i] * d[n - 2 - i] for i in range(n - 1))
        d.append(-0.5 * cn + s / n)
        term = d[-1] * j
        correction += term
        if abs(term) <= _EPS * (j0 + correction):
            break
    return math.exp(_log_gamma_half_ratio(a) - 0.5 * math.log(t)) * (q + r * correction)


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman correlation: Pearson correlation of average ranks.

    The 95% interval comes from the Fisher z-transform with standard error
    1/sqrt(n-3), so it is NaN for n = 3; the p-value for the
    zero-correlation null from the t approximation with n-2 degrees of
    freedom, rounded to 10 significant digits (see zero_corr_p_value).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be one-dimensional and equally long")
    n = xa.size
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    rx = _average_ranks(xa)
    ry = _average_ranks(ya)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0:
        raise ValueError("rank variance is zero, correlation undefined")
    rho = float(rx @ ry) / denom
    rho = max(-1.0, min(1.0, rho))
    if n < 4:
        ci_low = ci_high = math.nan
    elif abs(rho) == 1.0:
        ci_low = ci_high = rho
    else:
        z = math.atanh(rho)
        half = Z95 / math.sqrt(n - 3)
        ci_low = math.tanh(z - half)
        ci_high = math.tanh(z + half)
    return CorrelationResult(rho, n, ci_low, ci_high, zero_corr_p_value(rho, n))


@dataclass(frozen=True)
class ConditionalRates:
    """Qualification rates split by median standing.

    pq is the overall rate, pqo the rate among over-median applicants and
    pqu among under-median ones; a rate over an empty subset is NaN.
    """

    n_total: int
    n_over: int
    n_under: int
    pq: float
    pqo: float
    pqu: float


def rates_from_flags(qualified: Sequence[bool], over_median: Sequence[bool]) -> ConditionalRates:
    q = np.asarray(qualified, dtype=bool)
    o = np.asarray(over_median, dtype=bool)
    if q.shape != o.shape or q.ndim != 1:
        raise ValueError("flag sequences must be one-dimensional and equally long")
    n = q.size
    n_over = int(o.sum())
    n_under = n - n_over
    pq = float(q.mean()) if n else math.nan
    pqo = float(q[o].mean()) if n_over else math.nan
    pqu = float(q[~o].mean()) if n_under else math.nan
    return ConditionalRates(n, n_over, n_under, pq, pqo, pqu)


def conditional_rates(apps: Sequence[ApplicationRecord], m: MedianSet) -> ConditionalRates:
    """Overall and per-standing qualification rates against one median set."""
    for app in apps:
        if app.discipline.code != m.discipline.code or app.role is not m.role:
            raise ValueError(
                f"application {app.applicant_id} does not belong to "
                f"{m.discipline.code} role {m.role.name.lower()}"
            )
    qualified = [app.qualified for app in apps]
    over = [classify(app.indicators, m) is Standing.OVER_MEDIAN for app in apps]
    return rates_from_flags(qualified, over)


def proportion_diff_ci(
    successes_a: int, n_a: int, successes_b: int, n_b: int
) -> tuple[float, float, float]:
    """Wald 95% interval for the difference of two independent proportions.

    Returns (difference, low, high) for p_a - p_b, clamped to [-1, 1].
    """
    for label, k, n in (("a", successes_a, n_a), ("b", successes_b, n_b)):
        if n <= 0:
            raise ValueError(f"sample {label} is empty")
        if not 0 <= k <= n:
            raise ValueError(f"sample {label}: successes {k} outside 0..{n}")
    pa = successes_a / n_a
    pb = successes_b / n_b
    diff = pa - pb
    se = math.sqrt(pa * (1 - pa) / n_a + pb * (1 - pb) / n_b)
    low = max(-1.0, diff - Z95 * se)
    high = min(1.0, diff + Z95 * se)
    return (diff, low, high)
