"""Distance-dependent abundance.

A decay law ln N = a + b*x^c + d*ln x is fitted to (distance, abundance)
data by profiling the inner exponent c, with the remaining parameters
solved exactly by linear least squares at each candidate c: a grid whose
designs are factored once per distance row, so once for a whole location
table, then Newton steps with a Gauss-Newton curvature.

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
from .fitting import _newton_minima

_GRID_POINTS = 161
_C_FLOOR = 1e-6
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)
_BLOCK = 2**20


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


class _Solve(NamedTuple):
    """The exact fit at one c: the RSS with its slope and Gauss-Newton
    curvature in c, then (a, b, d) and the rank of the design."""

    rss: float
    slope: float
    curvature: float
    coef: np.ndarray
    rank: int


def _inner_solve(
    log_x: np.ndarray, x: np.ndarray, log_n: np.ndarray, c: float
) -> _Solve:
    """Exact least squares in (a, b, d) for fixed c, and the profile's
    derivatives in c.

    With z = x^c ln x the variable-projection gradient of the RSS is
    -2b r.z, and Kaufman's Gauss-Newton curvature is 2b^2 |Pz|^2, where P
    projects onto the complement of the design's columns (Kaufman 1975,
    BIT 15:49). One lstsq with the right-hand sides [ln N, z/max(x^c)]
    gives both the residual r and Pz; as r is orthogonal to the columns,
    r.z = r.Pz. The scaling keeps z finite where max(x)^c nears the largest
    float, while b*max(x^c), the fitted term at its largest, stays finite.
    """
    power = np.power(x, c)
    top = power.max()
    design = np.column_stack([np.ones_like(x), power, log_x])
    rhs = np.column_stack([log_n, power / top * log_x])
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    r, pz = (rhs - design @ coef).T
    b_top = float(coef[1, 0] * top)
    return _Solve(
        float(r @ r),
        -2.0 * b_top * float(r @ pz),
        2.0 * b_top * b_top * float(pz @ pz),
        coef[:, 0],
        int(rank),
    )


def _grid_profile(
    log_x: np.ndarray, x: np.ndarray, log_n: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """The RSS profiles over ``grid`` of every row of ``log_n``, one column
    per row, exactly ``_inner_solve``'s where it counts.

    One stacked SVD of the designs [1, x^c, ln x] serves every row, and
    U(U^T Y) gives all their residuals, leaving out the singular values that
    lstsq's rcond=None rule drops. Each RSS carries an error bound
    4*delta*(sqrt(rss) + delta) that covers both it and lstsq's.
    delta = 64*n*eps*(1 + 2*kappa)*|ln N| bounds the residual error of
    either solve, kappa = s_max/s_min (Golub & Van Loan, Matrix
    Computations, Thm 5.3.1); 64*n*eps is some 40 times the largest
    backward error measured on 3,600 generated tables. In each column,
    every point whose bound reaches the lowest upper or the highest lower
    bound is solved again by ``_inner_solve``, as is any point whose rank
    is in doubt or whose bound is not finite. Each column's argmin, minimum
    and maximum are then those of a loop over ``_inner_solve``, bit for bit.
    """
    n = len(x)
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        design = np.empty((len(grid), n, 3))
        design[:, :, 0] = 1.0
        design[:, :, 1] = np.power(x, grid[:, None])
        design[:, :, 2] = log_x
        finite = np.isfinite(design).all(axis=(1, 2))
        design[~finite] = 0.0
        u, s, _ = np.linalg.svd(design, full_matrices=False)
        cut = eps * max(n, 3) * s[:, :1]
        keep = s > cut
        u *= keep[:, None, :]
        rss = np.empty((len(grid), len(log_n)))
        rows = max(1, _BLOCK // (len(grid) * n))  # bounds the (grid, n, rows) blocks
        for j in range(0, len(log_n), rows):
            y = log_n[j : j + rows].T
            resid = y - u @ (u.swapaxes(1, 2) @ y)
            rss[:, j : j + rows] = np.einsum("gic,gic->gc", resid, resid)
        kappa = s[:, 0] / np.where(keep, s, np.inf).min(axis=1)
        norm = np.sqrt(np.einsum("ki,ki->k", log_n, log_n))
        delta = 64 * n * eps * np.outer(1 + 2 * kappa, norm)
        err = 4 * delta * (np.sqrt(rss) + delta)
        rank_in_doubt = ((s > cut / 1e3) & (s < cut * 1e3)).any(axis=1)
        sure = (finite & ~rank_in_doubt)[:, None] & np.isfinite(err)
        low = np.where(sure, rss - err, -np.inf)
        high = np.where(sure, rss + err, np.inf)
    again = (low <= high.min(axis=0)) | (high >= low.max(axis=0))
    for g, j in zip(*np.nonzero(again)):
        rss[g, j] = _inner_solve(log_x, x, log_n[j], grid[g]).rss
    return rss


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
    data error that it raises. A bad ``c_interval`` raises ``UsageError`` as
    soon as one row passes its data checks. The distance row is checked, and
    the 161 designs of the c grid are factored, once for the whole table
    (``_grid_profile``).
    """
    x = np.asarray(xs, dtype=float)
    ns = np.asarray(counts, dtype=float)
    if ns.ndim != 2 or ns.shape[1] != len(x):
        raise UsageError(f"counts must be a table with one column per distance ({len(x)})")
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

    log_x = np.log(x)
    log_n = np.log(ns[todo])
    profiles = _grid_profile(log_x, x, log_n, grid)
    best = profiles.argmin(axis=0)

    def objective(cs: np.ndarray, rows) -> tuple:
        solves = np.empty(len(cs), dtype=object)
        for j, (y, c) in enumerate(zip(log_n[rows], cs.tolist())):
            solves[j] = _inner_solve(log_x, x, y, c)
        return (*np.array([solve[:3] for solve in solves]).T, solves)

    c_hats, solves = _newton_minima(
        np.broadcast_to(grid, (len(todo), len(grid))), best, objective
    )
    for i, profile, c_hat, solve in zip(todo, profiles.T, c_hats.tolist(), solves):
        flat = float(profile.max() - profile.min()) <= max(
            1e-6 * float(profile.min()), 1e-12
        )
        if solve.rank < 3:
            results[i] = DegenerateDesignError(
                "degenerate design: distance layout leaves the model underdetermined"
            )
            continue
        results[i] = DispersionFit(
            a=float(solve.coef[0]),
            b=float(solve.coef[1]),
            c=c_hat,
            d=float(solve.coef[2]),
            rss_log=solve.rss,
            n_used=len(x),
            profile_flat=bool(flat),
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
    lo, hi = float(c_interval[0]), float(c_interval[1])
    if not -math.inf < lo < hi < math.inf:
        raise UsageError("c interval must have finite ends and positive width")
    lo = max(lo, _C_FLOOR)
    if not hi > lo:
        raise UsageError(f"c interval must extend above {_C_FLOOR}")
    # x**c moves away from 1 with c, the largest x fastest above 1 and
    # slowest below it; where max(x)**c overflows or underflows inside the
    # interval, the search ends at the last c where it is a normal float.
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
    current c. This is ``fit_dispersion_table`` for one species.
    """
    if len(xs) != len(ns):
        raise UsageError(
            f"distance and abundance lists differ in length ({len(xs)} vs {len(ns)})"
        )
    result = fit_dispersion_table(xs, [ns], c_interval)[0]
    if isinstance(result, DataError):
        raise fresh_copy(result)
    return result

