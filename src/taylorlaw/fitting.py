"""Power-law fitting of mean-variance series and pattern classification.

The variance-mean relation V = a*M^b is fitted two ways: ordinary least
squares on ln V = ln a + b ln M, and direct Levenberg-Marquardt least
squares on the raw pairs. The fitted exponent drives the classical
taxonomy: slopes above 1 indicate aggregation, below 1 regularity, and a
slope indistinguishable from 1 randomness. "Indistinguishable" is decided
by a two-sided t-test on the slope at a caller-chosen significance level.

The aggregation critical density m0 = exp(ln a / (1 - b)) is the density
at which variance equals the mean; a density-aware classification based on
the ratio V/M = a*density^(b-1) is provided alongside the slope test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from .errors import (
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    UsageError,
)
from .extraction import MVPair, MVSeries

PATTERNS = ("aggregated", "random", "regular")

_B_ONE_TOL = 1e-9
_RATIO_TOL = 1e-9


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


def split_usable(series: MVSeries) -> tuple[list[MVPair], list[MVPair]]:
    """Partition pairs into (usable for log fitting, dropped M<=0 or V<=0)."""
    used: list[MVPair] = []
    dropped: list[MVPair] = []
    for p in series.pairs:
        (used if p.mean > 0 and p.variance > 0 else dropped).append(p)
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
    n = len(used)
    sigma2 = line.rss / (n - 2)
    return PowerLawFit(
        a=math.exp(line.intercept),
        b=line.slope,
        se_ln_a=math.sqrt(sigma2 * (1.0 / n + line.xbar**2 / line.sxx)),
        se_b=math.sqrt(sigma2 / line.sxx),
        r_squared=line.r_squared,
        n_used=n,
        n_dropped=len(series.pairs) - n,
        method="log_ols",
        rss_log=line.rss,
    )


def _nls_objective(a: float, b: float, m: np.ndarray, v: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        resid = v - a * np.power(m, b)
        return float(resid @ resid)


def fit_nls(
    series: MVSeries,
    init: tuple[float, float] | None = None,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> PowerLawFit:
    """Marquardt-damped least squares of V on a*M^b in raw space.

    Pairs with non-positive mean are dropped; zero variances are kept.
    Initialized from the log-space fit unless ``init`` is given. Damping is
    multiplied by 10 on a rejected step and divided by 10 on an accepted
    one, starting from 1e-3; the fit is converged once an accepted step
    reduces the objective by a relative amount below ``tol``.
    Non-convergence is reported via ``converged=False``, not an exception.
    """
    kept = [p for p in series.pairs if p.mean > 0]
    if len(kept) < 3:
        raise InsufficientDataError(
            f"insufficient data: {len(kept)} pairs with positive mean, need 3"
        )
    m = np.array([p.mean for p in kept])
    v = np.array([p.variance for p in kept])

    if init is not None:
        a, b = float(init[0]), float(init[1])
        if a <= 0:
            raise UsageError("initial coefficient must be positive")
    else:
        try:
            start = fit_log_ols(series)
            a, b = start.a, start.b
        except (InsufficientDataError, DegenerateDesignError):
            a, b = 1.0, 1.0

    lam = 1e-3
    obj = _nls_objective(a, b, m, v)
    converged = False
    log_m = np.log(m)
    for _ in range(max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            model = a * np.power(m, b)
            resid = v - model
            jac = np.column_stack([model / a, model * log_m])
            jtj = jac.T @ jac
            jtr = jac.T @ resid
        if not (np.all(np.isfinite(jtj)) and np.all(np.isfinite(jtr))):
            break
        damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-300))
        try:
            step = np.linalg.solve(damped, jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        cand_a, cand_b = a + step[0], b + step[1]
        cand_obj = (
            _nls_objective(cand_a, cand_b, m, v) if cand_a > 0 else math.inf
        )
        if math.isfinite(cand_obj) and cand_obj <= obj:
            decrease = obj - cand_obj
            a, b, obj = float(cand_a), float(cand_b), cand_obj
            lam = max(lam / 10.0, 1e-15)
            if decrease <= tol * max(obj + decrease, 1e-300):
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e15:
                break

    model = a * np.power(m, b)
    resid = v - model
    rss = float(resid @ resid)
    n = len(kept)
    jac = np.column_stack([model / a, model * np.log(m)])
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
        converged=converged,
    )


def pacd_from_params(a: float, b: float) -> PacdResult:
    """Critical density where variance crosses the mean, from (a, b)."""
    if not a > 0:
        raise DomainError("coefficient a must be positive")
    if abs(b - 1.0) <= _B_ONE_TOL:
        return PacdResult(None, False, "b = 1: crossover density undefined")
    try:
        m0 = math.exp(math.log(a) / (1.0 - b))
    except OverflowError:
        return PacdResult(None, False, "crossover density overflows")
    return PacdResult(m0, True)


def pacd(fit: PowerLawFit) -> PacdResult:
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


def classify_at_density(fit: PowerLawFit, density: float) -> str:
    """Density-dependent pattern call from the variance-to-mean ratio.

    The fitted law forces V/M = a*density^(b-1), so the pattern at a given
    density is decided by whether that ratio exceeds 1; the crossover sits
    exactly at the critical density m0.
    """
    if not density > 0:
        raise DomainError("density must be positive")
    ratio = fit.a * density ** (fit.b - 1.0)
    if abs(ratio - 1.0) <= _RATIO_TOL:
        return "random"
    return "aggregated" if ratio > 1.0 else "regular"


def t_tail_probability(t: float, dof: int) -> float:
    """Two-sided tail P(|T| >= |t|) for Student's t with ``dof`` d.o.f.

    Evaluated through the regularized incomplete beta function.
    """
    if dof < 1:
        raise DomainError("degrees of freedom must be at least 1")
    if not math.isfinite(t):
        raise DomainError("t statistic must be finite")
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    p = float(betainc(dof / 2.0, 0.5, x))
    return min(1.0, max(p, 5e-324))
