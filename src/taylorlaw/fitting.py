"""Power-law fitting of mean-variance series and pattern classification.

The variance-mean relation V = a*M^b is fitted two ways: ordinary least
squares on ln V = ln a + b ln M, and least squares on the raw pairs by a
profile over b alone, a being solved exactly at each b (variable
projection, Golub & Pereyra 1973), scanned on a grid and finished by
safeguarded Newton steps on the profile's exact derivatives; that fit is
``converged`` only when the profile's minimum lies inside its bracket and
the profile is not flat. The fitted exponent
drives the classical taxonomy: slopes above 1 indicate aggregation, below
1 regularity, and a slope indistinguishable from 1 randomness.
"Indistinguishable" is decided by a two-sided t-test on the slope at a
caller-chosen significance level.

The aggregation critical density m0 = exp(ln a / (1 - b)) is the density
at which variance equals the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    UsageError,
)
from .extraction import MVPair, MVSeries

PATTERNS = ("aggregated", "random", "regular")

_B_ONE_TOL = 1e-9
_HALF_LN_PI = 0.5 * math.log(math.pi)
_B_GRID_POINTS = 161
_B_HALF_WIDTH = 3.0
_NEWTON_RTOL = 1e-11
_NEWTON_STEPS = 30


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted coefficient ``a`` and exponent ``b`` with diagnostics.

    ``rss_log`` is set by the log-space OLS fit, ``rss_raw`` by the direct
    nonlinear fit; the other is None.
    """

    a: float
    b: float
    se_ln_a: float
    se_b: float
    r_squared: float
    n_used: int
    n_dropped: int
    method: str
    rss_log: float | None = None
    rss_raw: float | None = None
    converged: bool = True

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("coefficient a must be positive")
        if self.n_used < 3:
            raise ValueError("a fit needs at least 3 pairs")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")
        if self.se_b < 0 or self.se_ln_a < 0:
            raise ValueError("standard errors must be non-negative")
        if self.method not in ("log_ols", "nls"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class PacdResult:
    """Aggregation critical density, or the reason it is undefined."""

    m0: float | None
    defined: bool
    reason: str = ""


@dataclass(frozen=True)
class Classification:
    pattern: str
    t_statistic: float
    p_value: float
    alpha: float
    dof: int


def split_usable(
    series: MVSeries, method: str = "log_ols"
) -> tuple[list[MVPair], list[MVPair]]:
    """Partition pairs into (usable, dropped): log_ols needs M>0 and V>0, nls M>0."""
    used: list[MVPair] = []
    dropped: list[MVPair] = []
    for p in series.pairs:
        usable = p.mean > 0 and (p.variance > 0 or method == "nls")
        (used if usable else dropped).append(p)
    return used, dropped


class _OlsLine(NamedTuple):
    """Least-squares line y = intercept + slope*x, with the sums behind it."""

    slope: float
    intercept: float
    rss: float
    r_squared: float
    xbar: float
    sxx: float


def _ols_line(x: np.ndarray, y: np.ndarray) -> _OlsLine:
    """Ordinary least squares of y on x; x must not be constant."""
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    rss = float(resid @ resid)
    tss = float(np.sum((y - ybar) ** 2))
    r_squared = 1.0 if tss == 0.0 else _clamp_unit(1.0 - rss / tss)
    return _OlsLine(slope, intercept, rss, r_squared, xbar, sxx)


def _clamp_unit(x: float) -> float:
    return min(1.0, max(0.0, x))


def fit_log_ols(series: MVSeries, min_pairs: int = 3) -> PowerLawFit:
    """Least squares of ln V on ln M after dropping non-positive pairs.

    ``min_pairs`` below 3 is treated as 3 (two parameters need a residual
    degree of freedom).
    """
    min_pairs = max(int(min_pairs), 3)
    used, dropped = split_usable(series)
    if len(used) < min_pairs:
        raise InsufficientDataError(
            f"insufficient data: {len(used)} usable pairs, need {min_pairs}"
        )
    x = np.log([p.mean for p in used])
    y = np.log([p.variance for p in used])
    if np.all(x == x[0]):
        raise DegenerateDesignError("degenerate design: all retained means are equal")
    line = _ols_line(x, y)
    # Means equal but for rounding give a near-vertical line whose
    # intercept can leave the range where exp is a positive float.
    try:
        a = math.exp(line.intercept)
    except OverflowError:
        a = math.inf
    if not 0.0 < a < math.inf:
        raise DegenerateDesignError(
            f"degenerate design: coefficient a = exp({line.intercept:.6g}) "
            "is outside the float range"
        )
    n = len(used)
    sigma2 = line.rss / (n - 2)
    return PowerLawFit(
        a=a,
        b=line.slope,
        se_ln_a=math.sqrt(sigma2 * (1.0 / n + line.xbar**2 / line.sxx)),
        se_b=math.sqrt(sigma2 / line.sxx),
        r_squared=line.r_squared,
        n_used=n,
        n_dropped=len(series.pairs) - n,
        method="log_ols",
        rss_log=line.rss,
    )


def _profile_minimum(grid: np.ndarray, profile: np.ndarray, objective) -> tuple:
    """Minimizer of a one-dimensional profile sampled as ``profile`` on ``grid``.

    ``objective(x)`` returns a tuple that starts with the profile's value,
    slope and curvature at x. Newton steps start at the grid's argmin and
    stay inside the bracket one grid step to either side: the sign of each
    slope moves one end of the bracket to the current point, and a step
    that would leave the bracket, or a curvature that is not positive, is
    replaced by bisection. A slope pointing out of the grid at a grid edge
    does not close the bracket: the grid step can hide a lower minimum
    inside it, and near the c floor of the dispersion fit that slope is
    rounding noise. The steps stop once one is below ``_NEWTON_RTOL`` of
    |x|, at a zero slope, or after ``_NEWTON_STEPS``. The grid point is kept
    when its value is lower than at the last point, as when the profile is
    flat to rounding. Returns the minimizer and ``objective``'s tuple there.
    """
    best = int(np.argmin(profile))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, len(grid) - 1)])
    x = float(grid[best])
    start = here = objective(x)
    for _ in range(_NEWTON_STEPS):
        _, slope, curvature = here[:3]
        if slope == 0 or math.isnan(slope):  # stationary, or not a number
            break
        # The end on the slope's downhill side stays; the other moves to x,
        # unless x is that end, at a grid edge (see the docstring).
        if slope > 0 and x > lo:
            hi = x
        elif slope < 0 and x < hi:
            lo = x
        newton = x - slope / curvature if curvature > 0 else math.nan
        step = newton if lo < newton < hi else 0.5 * (lo + hi)
        tol = _NEWTON_RTOL * abs(x)
        if abs(newton - x) <= tol or abs(step - x) <= tol:
            break
        x = step
        here = objective(x)
    if here[0] <= start[0]:
        return x, here
    return float(grid[best]), start


def _raw_profile(b, m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RSS of V on a*M^b at each exponent in ``b``, with a = sum(v m^b) /
    sum(m^2b) exact for that b, and the a. The RSS is summed from the
    residuals, not from sum(v^2) - a sum(v m^b), which cancels; it is inf
    where a value leaves the float range. Call under ``np.errstate``."""
    powers = m ** np.asarray(b)[..., None]
    a = powers @ v / np.einsum("...i,...i->...", powers, powers)
    powers *= -a[..., None]
    powers += v
    rss = np.einsum("...i,...i->...", powers, powers)
    return np.where(np.isfinite(rss), rss, np.inf), a


def _raw_objective(
    b: float, m: np.ndarray, v: np.ndarray, log_m: np.ndarray
) -> tuple[float, float, float, float]:
    """The profile R(b) = min_a sum((v - a m^b)^2) at one exponent, with its
    exact first and second derivatives and the a: the Newton objective.

    R is ``_raw_profile``'s RSS bit for bit (``np.power``, not ``**``, whose
    fast paths for b = 2, 0.5, -1, ... could round differently). With
    p = m^b, r = v - a p and w = p (ln m - l), where l = sum(p^2 ln m) /
    sum(p^2) makes w orthogonal to p, R' = -2a r.w is the variable
    projection gradient, and R'' = 2a^2 w.w - 2a sum(r w (ln m - l))
    - 2 (r.w)^2 / sum(p^2). As r is orthogonal to p, these equal the
    plain forms in p ln m, but they do not cancel where one pair's p
    dwarfs the rest.
    """
    p = np.power(m, b)
    s2 = np.einsum("i,i->", p, p)
    a = float(p @ v / s2)
    r = v - a * p
    rss = float(np.einsum("i,i->", r, r))
    if not math.isfinite(rss):
        return math.inf, math.nan, math.nan, a
    d = log_m - float(p @ (p * log_m) / s2)
    w = p * d
    rw = float(r @ w)
    curvature = 2.0 * a * (a * float(w @ w) - float(r @ (w * d))) - 2.0 * rw * rw / s2
    return rss, -2.0 * a * rw, float(curvature), a


def fit_nls(series: MVSeries) -> PowerLawFit:
    """Least squares of V on a*M^b in raw space, by a profile over b.

    Pairs with non-positive mean are dropped; zero variances are kept.
    a is solved exactly for each b, so only b is searched: 161 points over
    the log-space slope +- 3 (1 +- 3 when that fit fails), refined by Newton
    steps on the profile's exact derivatives (``_profile_minimum``).
    ``converged`` is True only when the minimum lies inside that
    bracket and the profile is not flat to one part in 1e6; otherwise b is
    not identified and (a, b) is arbitrary. A profile with no finite value,
    or an a that is not a positive float, raises ``DegenerateDesignError``.
    """
    kept = split_usable(series, "nls")[0]
    if len(kept) < 3:
        raise InsufficientDataError(
            f"insufficient data: {len(kept)} pairs with positive mean, need 3"
        )
    m = np.array([p.mean for p in kept])
    v = np.array([p.variance for p in kept])
    try:
        b0 = fit_log_ols(series).b
    except (InsufficientDataError, DegenerateDesignError):
        b0 = 1.0

    with np.errstate(all="ignore"):
        grid = b0 + _B_HALF_WIDTH * np.linspace(-1.0, 1.0, _B_GRID_POINTS)
        profile = _raw_profile(grid, m, v)[0]
        if np.isinf(profile.min()):
            raise DegenerateDesignError(
                "degenerate design: the raw-space residuals overflow at every b"
            )
        log_m = np.log(m)
        b, (_, _, _, a) = _profile_minimum(
            grid, profile, lambda x: _raw_objective(x, m, v, log_m)
        )
        if not 0.0 < a < math.inf:
            raise DegenerateDesignError(
                f"degenerate design: coefficient a = {a:.6g} is not a positive float"
            )
        inside = grid[0] < b < grid[-1]
        flat = np.ptp(profile) <= 1e-6 * profile.min()

        model = a * np.power(m, b)
        resid = v - model
        rss = float(resid @ resid)
        n = len(kept)
        jac = np.column_stack([model / a, model * log_m])
        sigma2 = rss / (n - 2)
        try:
            cov = sigma2 * np.linalg.inv(jac.T @ jac)
            se_a = math.sqrt(max(cov[0, 0], 0.0))
            se_b = math.sqrt(max(cov[1, 1], 0.0))
        except np.linalg.LinAlgError:
            se_a = se_b = 0.0
        tss = float(np.sum((v - v.mean()) ** 2))
    return PowerLawFit(
        a=a,
        b=b,
        se_ln_a=se_a / a,
        se_b=se_b,
        r_squared=1.0 if tss == 0.0 else _clamp_unit(1.0 - rss / tss),
        n_used=n,
        n_dropped=len(series.pairs) - n,
        method="nls",
        rss_raw=rss,
        converged=bool(inside and not flat),
    )


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
    fraction is then summed backward from there, where each step adds a
    positive term and the roundings do not pile up.
    """

    def numerator(n: int) -> float:
        m = n // 2
        if n % 2:
            return (a + m) * (m + 0.5) / ((a + 2 * m) * (a + 2 * m + 1)) * w
        return m * (a + m - 0.5) / ((a + 2 * m - 1) * (a + 2 * m)) * w

    c = 1.0
    d = 0.0
    for depth in range(1, 1000):
        e = numerator(depth)
        d = 1.0 / (1.0 + e * d)
        c = 1.0 + e / c
        if abs(c * d - 1.0) < 4e-16:
            break
    f = 1.0
    for n in range(depth, 0, -1):
        f = 1.0 + numerator(n) / f
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
