"""Aggregation critical density and the aggregated/random/regular call.

The fitted exponent of V = a*M^b drives the classical taxonomy: slopes
above 1 indicate aggregation, below 1 regularity, and a slope
indistinguishable from 1 randomness. "Indistinguishable" is decided by a
two-sided t-test on the slope at a caller-chosen significance level. The
aggregation critical density m0 = exp(ln a / (1 - b)) is the density at
which variance equals the mean.

Everything here needs ``math`` alone, so ``pacd --a/--b`` runs without
loading numpy or the fits in ``fitting``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegenerateDesignError, DomainError, InsufficientDataError, UsageError

if TYPE_CHECKING:
    from .fitting import PowerLawFit

PATTERNS = ("aggregated", "random", "regular")

_B_ONE_TOL = 1e-9
_HALF_LN_PI = 0.5 * math.log(math.pi)


class PacdResult(NamedTuple):
    """Aggregation critical density, or the reason it is undefined."""

    m0: float | None
    defined: bool
    reason: str = ""


class Classification(NamedTuple):
    pattern: str
    t_statistic: float
    p_value: float
    alpha: float
    dof: int


def pacd_from_params(a: float, b: float) -> PacdResult:
    """Critical density where variance crosses the mean, from (a, b)."""
    if not a > 0:
        raise DomainError("coefficient a must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("coefficient a and exponent b must be finite")
    if abs(b - 1.0) <= _B_ONE_TOL:
        return PacdResult(None, False, "b = 1: crossover density undefined")
    try:
        m0 = math.exp(math.log(a) / (1.0 - b))
    except OverflowError:
        return PacdResult(None, False, "crossover density overflows")
    if m0 == 0.0:
        return PacdResult(None, False, "crossover density underflows")
    return PacdResult(m0, True)


def pacd(fit: PowerLawFit) -> PacdResult:
    """Critical density of a fit; undefined when its exponent is not identified."""
    if not fit.converged:
        return PacdResult(None, False, "exponent b not identified")
    return pacd_from_params(fit.a, fit.b)


def classify_from_params(
    b: float, se_b: float, n_used: int, alpha: float = 0.05
) -> Classification:
    """Slope t-test against 1 deciding aggregated / random / regular."""
    if not 0.0 < alpha < 1.0:
        raise UsageError("alpha must lie in (0, 1)")
    if n_used < 3:
        raise InsufficientDataError("classification needs at least 3 fitted pairs")
    dof = n_used - 2
    if se_b == 0.0:
        if b == 1.0:
            return Classification("random", 0.0, 1.0, alpha, dof)
        raise DegenerateDesignError(
            "degenerate fit: zero slope standard error with b != 1"
        )
    t = (b - 1.0) / se_b
    p = t_tail_probability(t, dof)
    if p >= alpha:
        pattern = "random"
    else:
        pattern = "aggregated" if b > 1.0 else "regular"
    return Classification(pattern, t, p, alpha, dof)


def classify(fit: PowerLawFit, alpha: float = 0.05) -> Classification:
    return classify_from_params(fit.b, fit.se_b, fit.n_used, alpha)


def t_tail_probability(t: float, dof: int) -> float:
    """Two-sided tail P(|T| >= |t|) for Student's t with ``dof`` d.o.f.

    The tail is the regularized incomplete beta I_x(a, 1/2) with a = dof/2
    and x = dof/(dof + t^2) (Abramowitz & Stegun 26.7.1), evaluated with
    ``math`` alone. Below the usual switch x = (a+1)/(a+5/2) (Press et al.,
    Numerical Recipes, 3rd ed., 6.4) it is written as
    x^a (1-x)^(-1/2) / (a B(a, 1/2)) * 2F1(1, 1/2; a+1; -dof/t^2)
    (A&S 26.5.23 with the Pfaff transformation 15.3.5), whose Gauss
    continued fraction has positive terms. Above it the tail is
    1 - I_{1-x}(1/2, a), whose series (A&S 26.5.4) has positive terms.
    Neither route cancels where the tail is small.
    """
    if dof < 1:
        raise DomainError("degrees of freedom must be at least 1")
    if not math.isfinite(t):
        raise DomainError("t statistic must be finite")
    if t == 0.0:
        return 1.0
    a = dof / 2.0
    ln_inv_beta = _ln_gamma_half_ratio(a) - _HALF_LN_PI  # -ln B(a, 1/2)
    u, u_lo = _square_over(t, dof)  # (1 - x) / x = u + u_lo
    if u <= 1.5 / (a + 1.0):  # x >= (a + 1) / (a + 5/2)
        # x^a (1-x)^(1/2) / B(a, 1/2) = u^(1/2) (1+u)^(-a-1/2) / B(a, 1/2)
        front = math.sqrt(u) * math.exp(ln_inv_beta - (a + 0.5) * math.log1p(u))
        p = 1.0 - 2.0 * front * _beta_half_series(a, u / (1.0 + u))
    else:
        # x^a (1-x)^(-1/2) / B(a, 1/2) = u^(-1/2) (1+u)^(1/2-a) / B(a, 1/2).
        # The exponent multiplies the rounding of 1 + u by a, so 1 + u is
        # carried as two doubles and taken in to first order.
        if abs(t) < 2.0**480:  # the splits in _square_over stay finite
            s, s_lo = _two_sum(1.0, u)
            s_lo += u_lo
            front = s ** (0.5 - a) / math.sqrt(u) * (
                1.0 + (0.5 - a) * s_lo / s - 0.5 * u_lo / u
            )
        else:  # t*t overflows; dof = 1 reaches p = 1e-300 at |t| = 6e299
            front = (abs(t) / math.sqrt(dof)) ** -dof
        front *= _inv_beta_half(dof)
        p = front / (a * _gauss_fraction(a, 1.0 / u))
    return min(1.0, max(p, 5e-324))


def _square_over(t: float, dof: int) -> tuple[float, float]:
    """t^2/dof as the rounded quotient and the residual it leaves.

    t*t is split exactly into its rounded value and error (Dekker's
    product), and the residual of the division is exact too, so the sum
    is good to about 1e-32 relative while |t| < 2^480.
    """
    square = t * t
    u = square / dof
    q = u * dof
    residual = (square - q) - _product_error(u, dof, q) + _product_error(t, t, square)
    return u, residual / dof


def _two_sum(x: float, y: float) -> tuple[float, float]:
    """x + y as the rounded sum and its exact error (Knuth's two-sum)."""
    s = x + y
    y_part = s - x
    return s, (x - (s - y_part)) + (y - y_part)


def _product_error(x: float, y: float, p: float) -> float:
    """x*y - p exactly, where p is the rounded x*y (Dekker 1971): each
    factor splits into two halves whose products are exact."""

    def halves(v: float) -> tuple[float, float]:
        c = 134217729.0 * v  # 2^27 + 1
        high = c - (c - v)
        return high, v - high

    (x1, x2), (y1, y2) = halves(x), halves(y)
    return ((x1 * y1 - p) + x1 * y2 + x2 * y1) + x2 * y2


def _ln_gamma_half_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)), without the cancellation of a
    difference of ``lgamma`` values (up to 7e-15 absolute below a = 20).

    From a = 20 on it is the expansion of ln Gamma(z + h) in Bernoulli
    polynomials (DLMF 5.11.8) at h = 1/2 less h = 0; the first omitted
    term is below 2e-17.
    """
    if a < 20.0:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    z = 1.0 / (a * a)
    series = -1 / 8 + z * (1 / 192 + z * (-1 / 640 + z * (17 / 14336 - z * 31 / 18432)))
    return 0.5 * math.log(a) + series / a


def _inv_beta_half(dof: int) -> float:
    """1 / B(dof/2, 1/2), with no round trip through a logarithm below
    dof = 40: k C(2k, k) / 4^k at dof = 2k, correctly rounded, and
    4^k / (C(2k, k) pi) at dof = 2k + 1, within about an ulp, each a ratio
    of exact integers. From dof = 40 on, exp of ``_ln_gamma_half_ratio``."""
    k = dof // 2
    if dof >= 40:
        return math.exp(_ln_gamma_half_ratio(dof / 2.0) - _HALF_LN_PI)
    if dof % 2:
        return 4**k / math.comb(2 * k, k) / math.pi
    return k * math.comb(2 * k, k) / 4**k


def _gauss_fraction(a: float, w: float) -> float:
    """1 / 2F1(1, 1/2; a+1; -w) by Gauss's continued fraction.

    Every partial numerator is positive, so the modified Lentz method
    (Numerical Recipes, 5.2) needs no guard against a zero denominator.
    Past the switch in ``t_tail_probability`` it converges within about
    140 terms whatever the degrees of freedom. Lentz's running product
    gathers one rounding per term, so it only finds the depth; the
    fraction is then summed backward over the same numerators, where each
    step adds a positive term and the roundings do not pile up.
    """
    numerators = []
    c = 1.0
    d = 0.0
    for n in range(1, 1000):
        m = n // 2
        if n % 2:
            e = (a + m) * (m + 0.5) / ((a + 2 * m) * (a + 2 * m + 1)) * w
        else:
            e = m * (a + m - 0.5) / ((a + 2 * m - 1) * (a + 2 * m)) * w
        numerators.append(e)
        d = 1.0 / (1.0 + e * d)
        c = 1.0 + e / c
        if abs(c * d - 1.0) < 4e-16:
            break
    f = 1.0
    for e in reversed(numerators):
        f = 1.0 + e / f
    return f


def _beta_half_series(a: float, y: float) -> float:
    """S in I_y(1/2, a) = 2 y^(1/2) (1-y)^a S / B(a, 1/2) (A&S 26.5.4).

    The terms are positive, and the series is only used for y below
    3 / (2a + 5), where they fall off quickly.
    """
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= (a + n - 0.5) / (n + 0.5) * y
        total += term
    return total
