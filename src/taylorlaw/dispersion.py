"""Distance-dependent abundance.

A decay law ln N = a + b*x^c + d*ln x is fitted to (distance, abundance)
data by profiling the inner exponent c, with the remaining parameters
solved exactly by linear least squares at each candidate c. The columns
1 and ln x do not change with c, so only x^c is projected off their fixed
basis, for the c grid and each Newton step alike. Every sum runs over the
distances in order, so a species' fit does not depend on the species
beside it, the BLAS kernel or the thread count.

The c profile over a bounded interval can be flat in two well-known ways:
as c -> 0 the b*x^c term collapses into the intercept, and data that is an
exact power law is fitted perfectly at every c. Both cases are reported
through ``profile_flat`` instead of being resolved arbitrarily.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from ._records import _Checked
from .errors import (
    DataError,
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    UsageError,
    fresh_copy,
)
from .fitting import _newton_minima, _powers

_GRID_POINTS = 161
_C_FLOOR = 1e-6
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)


class _DispersionFitFields(NamedTuple):
    a: float
    b: float
    c: float
    d: float
    rss_log: float
    n_used: int
    profile_flat: bool


class DispersionFit(_Checked, _DispersionFitFields):
    """Parameters of ln N = a + b*x^c + d*ln x with fit diagnostics.

    ``profile_flat`` is True when the residual profile over c is level to
    within one part in 1e6 across the whole search interval, meaning c is
    not identified by the data and the reported value is arbitrary.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not self.c > 0:
            raise ValueError("exponent c must be positive")
        if self.n_used < 4:
            raise ValueError("a dispersion fit needs at least 4 points")
        if self.rss_log < 0:
            raise ValueError("rss_log must be non-negative")


def _dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum(p * q) over the last axis, the distances, one elementwise step
    per distance in distance order. So a row's sum does not depend on the
    rows broadcast beside it, on the BLAS kernel or on the thread count."""
    return sum(p[..., i] * q[..., i] for i in range(p.shape[-1]))


def _off(q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v (..., n) less its projection on the orthonormal rows of ``q``
    (2, n), and the projection's coefficients (2, ...)."""
    w = np.stack([_dot(q[0], v), _dot(q[1], v)])
    return v - w[0, ..., None] * q[0] - w[1, ..., None] * q[1], w


def _is_normal(x_top: float, c: float) -> bool:
    """Whether x_top**c is a normal float, neither overflowing nor underflowing."""
    return bool(_TINY <= np.power(x_top, c) <= _HUGE)


def _last_normal_c(x_top: float, lo: float, hi: float) -> float:
    """Largest c in [lo, hi] with x_top**c a normal float, given x_top**lo is.

    Above 1 x_top**c leaves the normal range by overflow, below 1 by
    underflow. The search starts from log(max float) / log(x_top), or
    log(tiny) / log(x_top), and steps by single ulps, since rounding can
    leave that estimate a few ulps to either side. Call under
    ``np.errstate(over="ignore", under="ignore")``.
    """
    if _is_normal(x_top, hi):
        return hi
    c = min(hi, math.log(_HUGE if x_top > 1 else _TINY) / math.log(x_top))
    while not _is_normal(x_top, c):
        c = math.nextafter(c, lo)
    while c < hi and _is_normal(x_top, math.nextafter(c, hi)):
        c = math.nextafter(c, hi)
    return c


def fit_dispersion_table(
    xs: Sequence[float],
    counts,
    c_interval: tuple[float, float] = (0.0, 5.0),
) -> list[DispersionFit | DataError]:
    """Fit ln N = a + b*x^c + d*ln x to each row of ``counts`` at the
    distances ``xs``, by a one-dimensional profile over c.

    Each row gets the fit ``fit_dispersion`` gives it, or in its place the
    data error that it raises. A bad ``c_interval`` raises ``UsageError``
    whatever the table holds. The distance row is checked, and the 161
    columns x^c of the c grid are projected off its basis of [1, ln x],
    once for the whole table; each Newton step solves every species still
    stepping together. A design below rank 3 at the fitted c (see
    ``solve``) gives ``DegenerateDesignError``.
    """
    x = np.asarray(xs, dtype=float)
    ns = np.asarray(counts, dtype=float)
    if ns.ndim != 2 or ns.shape[1] != len(x):
        raise UsageError(f"counts must be a table with one column per distance ({len(x)})")
    lo, hi = float(c_interval[0]), float(c_interval[1])
    if not -math.inf < lo < hi < math.inf:
        raise UsageError("c interval must have finite ends and positive width")
    if not hi > _C_FLOOR:
        raise UsageError(f"c interval must extend above {_C_FLOOR}")
    if len(x) < 4:
        error = InsufficientDataError(f"insufficient data: {len(x)} points, need at least 4")
        return [error] * len(ns)
    finite = np.isfinite(x).all() & np.isfinite(ns).all(axis=1)
    positive = (x > 0).all() & (ns > 0).all(axis=1)
    results: list = [None] * len(ns)
    for i in np.flatnonzero(~finite):
        results[i] = DomainError("distances and abundances must be finite")
    for i in np.flatnonzero(finite & ~positive):
        results[i] = DomainError("ln undefined: distances and abundances must be positive")
    todo = np.flatnonzero(finite & positive)
    if not todo.size:
        return results
    try:
        grid = _c_grid(x, c_interval)
    except DataError as error:
        for i in todo:
            results[i] = error
        return results

    # The orthonormal basis q of [1, ln x]: 1/sqrt(n), and ln x less its
    # mean, divided by that vector's norm. Each species' ln N is taken off
    # it once, leaving r0.
    n, log_x = len(x), np.log(x)
    mean = float(log_x.mean())
    norm = math.sqrt(_dot(log_x - mean, log_x - mean))
    q = np.stack([np.full(n, n**-0.5), (log_x - mean) / norm])
    r0, alpha = _off(q, np.log(ns[todo]))
    log_top = float(np.abs(log_x).max())

    def lines(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The coefficients of 1 and of ln x in w[0] q[0] + w[1] q[1].
        return w[0] * q[0, 0] - w[1] / norm * mean, w[1] / norm

    def solve(cs: np.ndarray, r0: np.ndarray, alpha: np.ndarray | None = None) -> tuple:
        """The fit at each c of ``cs`` of ln N = alpha.q + r0, broadcast
        against cs: x^c, scaled to a largest value of 1 (s), is projected
        off q twice ("twice is enough", Giraud, Langou & Rozloznik 2005),
        leaving u; b_s = r0.u / u.u, b = b_s / max(x^c), and a + d ln x
        is the basis part of ln N - b_s s. The design is below rank 3, and
        b_s 0, where with each column divided by its largest magnitude its
        condition number reaches 1/(eps*max(n, 3)), numpy's least-squares
        cut: its largest singular value is at most its Frobenius norm F,
        its smallest |u|/|v| to rounding, with v 1 at s and minus the
        coefficients of s - u on the other two columns. x^c is taken by
        ``fitting._powers``, so it rounds alike for every shape of ``cs``.
        Returns the RSS and the rank-3 mask, or given ``alpha``, the RSS,
        its slope and Gauss-Newton curvature in c, and the columns RSS, a,
        b, d and rank-3 mask.
        """
        s = _powers(x, cs)
        top = s.max(axis=-1)
        s /= top[..., None]
        u, beta = _off(q, s)
        u, again = _off(q, u)
        beta += again
        uu = _dot(u, u)
        one, slope = lines(beta)
        f2 = n + _dot(log_x, log_x) / log_top**2 + _dot(s, s)
        v2 = 1 + one * one + (slope * log_top) ** 2
        full = uu > (np.finfo(float).eps * max(n, 3)) ** 2 * f2 * v2
        with np.errstate(divide="ignore", invalid="ignore"):
            b_s = np.where(full, _dot(r0, u) / uu, 0.0)
            r = r0 - b_s[..., None] * u
            rss = _dot(r, r)
            if alpha is None:
                return rss, full
            # Kaufman's variable projection (BIT 15:49, 1975): with
            # z = x^c ln x the RSS has slope -2b r.z and Gauss-Newton
            # curvature 2b^2 |Pz|^2 in c, P projecting off the design's
            # columns. In the scaled column b z is b_s s ln x, finite where
            # max(x)^c nears the largest float; as r is orthogonal to the
            # columns, r.z = r.Pz.
            pz = _off(q, s * log_x)[0]
            pz -= np.where(full, _dot(pz, u) / uu, 0.0)[..., None] * u
        a, d = lines(alpha - b_s * beta)
        fit = np.column_stack([rss, a, b_s / top, d, full])
        return rss, -2.0 * b_s * _dot(r, pz), 2.0 * b_s * b_s * _dot(pz, pz), fit

    profiles, full = solve(grid[:, None], r0)
    c_hats, fits = _newton_minima(
        np.broadcast_to(grid, (len(todo), len(grid))),
        # A full-rank point fits at least as well as one below rank 3; its
        # RSS can be larger by rounding alone.
        np.where(full, profiles, np.inf).argmin(axis=0),
        lambda cs, rows: solve(cs, r0[rows], alpha[:, rows]),
    )
    flats = np.ptp(profiles, axis=0) <= np.maximum(1e-6 * profiles.min(axis=0), 1e-12)
    for i, flat, c_hat, (rss, a, b, d, full) in zip(
        todo, flats.tolist(), c_hats.tolist(), fits.tolist()
    ):
        if not full:
            results[i] = DegenerateDesignError(
                "degenerate design: distance layout leaves the model underdetermined"
            )
            continue
        results[i] = DispersionFit(
            a=a, b=b, c=c_hat, d=d, rss_log=rss, n_used=n, profile_flat=flat
        )
    return results


def _c_grid(x: np.ndarray, c_interval: tuple[float, float]) -> np.ndarray:
    """The 161 values of c searched at distances ``x``.

    The interval's lower end is open: values at or below 0 are clipped to
    1e-6, below which x^c is indistinguishable from the intercept anyway.
    An upper end at which max(x)^c overflows, or with every distance below 1
    underflows below the smallest normal float, is lowered to the largest c
    for which it is a normal float.
    """
    if len(set(x.tolist())) < 4:  # np.unique would import numpy.ma
        raise DegenerateDesignError(
            "degenerate design: need at least 4 distinct distances"
        )
    # x**c moves away from 1 with c, the largest x fastest above 1 and
    # slowest below it; where max(x)**c overflows or underflows inside the
    # interval, the search ends at the last c where it is a normal float.
    lo, hi = max(float(c_interval[0]), _C_FLOOR), float(c_interval[1])
    x_top = float(x.max())
    with np.errstate(over="ignore", under="ignore"):
        if not _is_normal(x_top, lo):
            leaves = "overflows" if x_top > 1 else "underflows"
            raise DegenerateDesignError(f"degenerate design: x**c {leaves} at c = {lo:g}")
        hi = _last_normal_c(x_top, lo, hi)
    return np.linspace(lo, hi, _GRID_POINTS)


def fit_dispersion(
    xs: list[float],
    ns: list[float],
    c_interval: tuple[float, float] = (0.0, 5.0),
) -> DispersionFit:
    """Fit ln N = a + b*x^c + d*ln x by a one-dimensional profile over c.

    A scan of 161 points over ``c_interval`` (see ``_c_grid`` for its ends)
    locates the best bracket, then Newton steps with Kaufman's
    Gauss-Newton curvature pin the minimizer (``_newton_minima``);
    (a, b, d) are always the exact linear least-squares solution at the
    current c. This is ``fit_dispersion_table`` for one species, bit for
    bit.
    """
    if len(xs) != len(ns):
        raise UsageError(
            f"distance and abundance lists differ in length ({len(xs)} vs {len(ns)})"
        )
    result = fit_dispersion_table(xs, [ns], c_interval)[0]
    if isinstance(result, DataError):
        raise fresh_copy(result)
    return result

