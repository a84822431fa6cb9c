"""Distance-dependent abundance.

A decay law ln N = a + b*x^c + d*ln x is fitted to (distance, abundance)
data by profiling the inner exponent c, with the remaining parameters
solved exactly by linear least squares at each candidate c. One solver
does every solve: a stacked SVD of the designs at a vector of c values
(``_factor``). It factors a grid of c once per distance row, so once for a
whole location table, then each Newton step, with a Gauss-Newton
curvature, for every species still stepping.

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


def _factor(
    x: np.ndarray, log_x: np.ndarray, cs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The designs [1, x^c, ln x] at each c of ``cs`` (k,), factored by one
    stacked SVD, as lstsq with rcond=None would: singular values at or
    below eps*max(n, 3)*s_max count as zero. Returns x^c (k, n), then U^T
    (k, 3, n) and V/s (k, 3, 3) with the dropped columns zeroed, and the
    rank (k,). The exponents are written into the design first, as in
    ``fitting._powers``, so x^c rounds alike for every shape of ``cs``.
    """
    n = len(x)
    design = np.empty((len(cs), n, 3))
    design[:, :, 0] = 1.0
    design[:, :, 1] = cs[:, None]
    design[:, :, 2] = log_x
    power = np.power(x, design[:, :, 1], out=design[:, :, 1])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > np.finfo(float).eps * max(n, 3) * s[:, :1]
    ut = (u * keep[:, None, :]).transpose(0, 2, 1).copy()
    vs = vt.transpose(0, 2, 1) / np.where(keep, s, np.inf)[:, None, :]
    return power, ut, vs, keep.sum(axis=1)


def _project(ut: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U^T y and the residual y - U U^T y of each y (..., n), with ``ut``
    (..., 3, n) from ``_factor``. Every product is elementwise and summed
    over a fixed axis, so a row's result does not depend on the rows
    stacked with it, as a stacked matmul's can.
    """
    w = (ut * y[..., None, :]).sum(axis=-1)
    fitted = (
        ut[..., 0, :] * w[..., 0, None]
        + ut[..., 1, :] * w[..., 1, None]
        + ut[..., 2, :] * w[..., 2, None]
    )
    return w, y - fitted


def _grid_profile(
    log_x: np.ndarray, x: np.ndarray, log_n: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """The RSS profiles over ``grid`` of every row of ``log_n``, one column
    per row. One stacked SVD of the grid's designs serves every row
    (``_factor``). The sums over the n distances, U^T y and then the squared
    residuals, run as a loop over the distances on (grid, 3, rows) and
    (grid, rows) arrays: each step is elementwise and each sum is taken in
    distance order, so a row's profile is the one it has alone.
    """
    ut = _factor(x, log_x, grid)[1].transpose(2, 0, 1).copy()
    w = np.zeros((len(grid), 3, len(log_n)))
    for u, y in zip(ut, log_n.T):
        w += u[:, :, None] * y
    rss = np.zeros((len(grid), len(log_n)))
    for u, y in zip(ut, log_n.T):
        r = y - (u[:, 0, None] * w[:, 0] + u[:, 1, None] * w[:, 1] + u[:, 2, None] * w[:, 2])
        rss += r * r
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
    data error that it raises. A bad ``c_interval`` raises ``UsageError``
    whatever the table holds. The distance row is checked, and the 161
    designs of the c grid are factored, once for the whole table
    (``_grid_profile``); each Newton step factors the designs of every
    species still stepping together.
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

    log_x = np.log(x)
    log_n = np.log(ns[todo])
    profiles = _grid_profile(log_x, x, log_n, grid)
    best = profiles.argmin(axis=0)

    def objective(cs: np.ndarray, rows) -> tuple:
        # Kaufman's variable projection (BIT 15:49, 1975): with z = x^c ln x
        # the RSS has slope -2b r.z and Gauss-Newton curvature 2b^2 |Pz|^2 in
        # c, P projecting onto the complement of the design's columns. The
        # right-hand side z/max(x^c) gives Pz; as r is orthogonal to the
        # columns, r.z = r.Pz. The scaling keeps z finite where max(x)^c
        # nears the largest float, while b*max(x^c) stays finite.
        power, ut, vs, rank = _factor(x, log_x, cs)
        top = power.max(axis=1)
        y = np.stack([log_n[rows], power / top[:, None] * log_x], axis=1)
        w, resid = _project(ut[:, None], y)
        r, pz = resid[:, 0], resid[:, 1]
        coef = (vs * w[:, None, 0]).sum(axis=-1)
        b_top = coef[:, 1] * top
        rss = np.einsum("ki,ki->k", r, r)
        return (
            rss,
            -2.0 * b_top * np.einsum("ki,ki->k", r, pz),
            2.0 * b_top * b_top * np.einsum("ki,ki->k", pz, pz),
            np.column_stack([rss, coef, rank]),
        )

    c_hats, fits = _newton_minima(
        np.broadcast_to(grid, (len(todo), len(grid))), best, objective
    )
    for i, profile, c_hat, (rss, a, b, d, rank) in zip(
        todo, profiles.T, c_hats.tolist(), fits.tolist()
    ):
        flat = float(profile.max() - profile.min()) <= max(
            1e-6 * float(profile.min()), 1e-12
        )
        if rank < 3:
            results[i] = DegenerateDesignError(
                "degenerate design: distance layout leaves the model underdetermined"
            )
            continue
        results[i] = DispersionFit(
            a=a, b=b, c=c_hat, d=d, rss_log=rss, n_used=len(x), profile_flat=bool(flat)
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

