"""Distance-dependent abundance models.

Two small models for how abundance changes with distance from a source:

* a decay law ln N = a + b*x^c + d*ln x fitted to (distance, abundance)
  data by profiling the inner exponent c, with the remaining parameters
  solved exactly by linear least squares at each candidate c;
* a displacement rule delta = epsilon*[(r0/R)^s - (r0/R)^t] whose single
  positive equilibrium sits at R = r0.

The c profile over a bounded interval can be flat in two well-known ways:
as c -> 0 the b*x^c term collapses into the intercept, and data that is an
exact power law is fitted perfectly at every c. Both cases are reported
through ``profile_flat`` instead of being resolved arbitrarily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    UsageError,
)

_GRID_POINTS = 161
_GOLDEN_TOL = 1e-8
_C_FLOOR = 1e-6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DispersionFit:
    """Parameters of ln N = a + b*x^c + d*ln x with fit diagnostics.

    ``profile_flat`` is True when the residual profile over c is level to
    within one part in 1e6 across the whole search interval, meaning c is
    not identified by the data and the reported value is arbitrary.
    """

    a: float
    b: float
    c: float
    d: float
    rss_log: float
    n_used: int
    profile_flat: bool

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("exponent c must be positive")
        if self.n_used < 4:
            raise ValueError("a dispersion fit needs at least 4 points")
        if self.rss_log < 0:
            raise ValueError("rss_log must be non-negative")


@dataclass(frozen=True)
class DeltaParams:
    """Displacement rule delta(R) = epsilon*[(r0/R)^s - (r0/R)^t]."""

    epsilon: float
    s: float
    t: float
    r0: float

    def __post_init__(self):
        if not self.r0 > 0:
            raise ValueError("r0 must be positive")
        if self.s == self.t:
            raise ValueError("exponents s and t must differ")


def _inner_solve(
    log_x: np.ndarray, x: np.ndarray, log_n: np.ndarray, c: float
) -> tuple[np.ndarray, float, int]:
    """Exact least squares in (a, b, d) for fixed c; returns coef, rss, rank."""
    design = np.column_stack([np.ones_like(x), np.power(x, c), log_x])
    coef, _, rank, _ = np.linalg.lstsq(design, log_n, rcond=None)
    resid = log_n - design @ coef
    return coef, float(resid @ resid), int(rank)


def fit_dispersion(
    xs: list[float],
    ns: list[float],
    c_interval: tuple[float, float] = (0.0, 5.0),
) -> DispersionFit:
    """Fit ln N = a + b*x^c + d*ln x by a one-dimensional profile over c.

    A coarse scan over ``c_interval`` locates the best bracket, then a
    golden-section refinement (tolerance 1e-8 on c) pins the minimizer;
    (a, b, d) are always the exact linear least-squares solution at the
    current c. The interval's lower end is open: values at or below 0 are
    clipped to 1e-6, below which x^c is indistinguishable from the
    intercept anyway.
    """
    if len(xs) != len(ns):
        raise UsageError(
            f"distance and abundance lists differ in length ({len(xs)} vs {len(ns)})"
        )
    if len(xs) < 4:
        raise InsufficientDataError(
            f"insufficient data: {len(xs)} points, need at least 4"
        )
    x = np.asarray(xs, dtype=float)
    n = np.asarray(ns, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(n))):
        raise DomainError("distances and abundances must be finite")
    if np.any(x <= 0) or np.any(n <= 0):
        raise DomainError("ln undefined: distances and abundances must be positive")
    if len(np.unique(x)) < 4:
        raise DegenerateDesignError(
            "degenerate design: need at least 4 distinct distances"
        )
    lo, hi = float(c_interval[0]), float(c_interval[1])
    if not hi > lo:
        raise UsageError("c interval must have positive width")
    lo = max(lo, _C_FLOOR)
    if not hi > lo:
        raise UsageError(f"c interval must extend above {_C_FLOOR}")

    log_x = np.log(x)
    log_n = np.log(n)

    grid = np.linspace(lo, hi, _GRID_POINTS)
    profile = np.array(
        [_inner_solve(log_x, x, log_n, c)[1] for c in grid]
    )
    best = int(np.argmin(profile))
    flat = float(profile.max() - profile.min()) <= max(
        1e-6 * float(profile.min()), 1e-12
    )

    a_br = grid[max(best - 1, 0)]
    b_br = grid[min(best + 1, len(grid) - 1)]
    c1 = b_br - _INV_PHI * (b_br - a_br)
    c2 = a_br + _INV_PHI * (b_br - a_br)
    f1 = _inner_solve(log_x, x, log_n, c1)[1]
    f2 = _inner_solve(log_x, x, log_n, c2)[1]
    while b_br - a_br > _GOLDEN_TOL:
        if f1 <= f2:
            b_br, c2, f2 = c2, c1, f1
            c1 = b_br - _INV_PHI * (b_br - a_br)
            f1 = _inner_solve(log_x, x, log_n, c1)[1]
        else:
            a_br, c1, f1 = c1, c2, f2
            c2 = a_br + _INV_PHI * (b_br - a_br)
            f2 = _inner_solve(log_x, x, log_n, c2)[1]
    c_hat = (a_br + b_br) / 2.0
    coef, rss, rank = _inner_solve(log_x, x, log_n, c_hat)
    if rank < 3:
        raise DegenerateDesignError(
            "degenerate design: distance layout leaves the model underdetermined"
        )
    # The gridded minimum can beat the refined bracket when the profile is
    # flat to rounding; keep whichever evaluation came out lower.
    if profile[best] < rss:
        c_hat = float(grid[best])
        coef, rss, rank = _inner_solve(log_x, x, log_n, c_hat)
    return DispersionFit(
        a=float(coef[0]),
        b=float(coef[1]),
        c=float(c_hat),
        d=float(coef[2]),
        rss_log=rss,
        n_used=len(xs),
        profile_flat=bool(flat),
    )


def predict_dispersion(fit: DispersionFit, x: float) -> float:
    """Abundance exp(a + b*x^c + d*ln x) at distance x > 0."""
    if not x > 0:
        raise DomainError("distance must be positive")
    return math.exp(fit.a + fit.b * x**fit.c + fit.d * math.log(x))


def delta_displacement(p: DeltaParams, big_r: float) -> float:
    """Displacement at range ``big_r``; zero exactly at big_r = r0."""
    if not big_r > 0:
        raise DomainError("range must be positive")
    ratio = p.r0 / big_r
    return p.epsilon * (ratio**p.s - ratio**p.t)


def delta_equilibrium(p: DeltaParams) -> float:
    """The unique positive root of the displacement rule, which is r0."""
    return p.r0
