"""Power-law fitting of mean-variance series.

The variance-mean relation V = a*M^b is fitted two ways: ordinary least
squares on ln V = ln a + b ln M, and least squares on the raw pairs by a
profile over b alone, a being solved exactly at each b (variable
projection, Golub & Pereyra 1973), scanned on a grid and finished by
safeguarded Newton steps on the profile's exact derivatives; that fit is
``converged`` only when the profile's minimum lies inside its bracket and
the profile is not flat. One kernel, ``_profile``, gives the grid's RSS,
each Newton step's objective and the a, RSS and standard-error sums the
fit reports at its b. The critical density and the slope test that a
fit feeds live in ``crossover``, which needs no numpy.

Both fits work on blocks of series of one length (see ``extraction``):
``fit_log_ols(series)`` and ``fit_nls(series)`` fit the series' whole
block in grouped numpy passes at their first call and keep every row's
result, or its data error, on the block; a series built on its own is a
block of one row. Each row is computed as a lone 1-D series is: its sums
run along the row (pairwise, or one ``np.einsum("...i,...i->...")``
per dot product, never a BLAS or LAPACK call, whose sums change with the
CPU kernel the library picks), and its powers m^b come from
``_profile``, which never lets numpy take its single-exponent loop, whose
m^2, m^0.5 and m^-1 round differently. So a row's fit has the same bits
in a block as alone, and under every BLAS kernel.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ._records import _Checked
from .errors import DataError, DegenerateDesignError, InsufficientDataError, fresh_copy

if TYPE_CHECKING:
    from .extraction import MVSeries

_B_GRID_POINTS = 161
_B_HALF_WIDTH = 3.0
_NEWTON_RTOL = 1e-11
_NEWTON_STEPS = 30
# The b grid around the log-space slope, and the values in one chunk of
# the batched grid: (rows, grid points, pairs).
_B_OFFSETS = _B_HALF_WIDTH * np.linspace(-1.0, 1.0, _B_GRID_POINTS)
_GRID_ELEMENTS = 2**16


class _PowerLawFitFields(NamedTuple):
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


class PowerLawFit(_Checked, _PowerLawFitFields):
    """Fitted coefficient ``a`` and exponent ``b`` with diagnostics.

    ``rss_log`` is set by the log-space OLS fit, ``rss_raw`` by the direct
    nonlinear fit; the other is None.
    """

    __slots__ = ()

    def _check(self) -> None:
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


def usable_mask(
    means: np.ndarray, variances: np.ndarray, method: str = "log_ols"
) -> np.ndarray:
    """The one rule for the pairs a fit uses, as a boolean mask over
    ``means``: log_ols needs M > 0 and V > 0, nls M > 0. It applies to one
    series' arrays or to a block's (rows, pairs) arrays alike."""
    usable = means > 0
    if method != "nls":
        usable &= variances > 0
    return usable


def _grouped(
    means: np.ndarray, variances: np.ndarray, method: str, need: int, fit_rows
) -> list:
    """Each row's result of ``fit_rows(m, v, rows)``, called once for each
    group of rows with the same number n of usable pairs (``usable_mask``)
    on their (len(rows), n) usable means and variances: each row holds the
    1-D arrays a lone series would select, in order. A row with fewer than
    ``need`` usable pairs gets an ``InsufficientDataError`` instead."""
    usable = usable_mask(means, variances, method)
    counts = usable.sum(axis=1)
    pairs = "pairs with positive mean" if method == "nls" else "usable pairs"
    results: list = [None] * len(means)
    # np.unique would import numpy.ma, some 10 ms of a command's start-up.
    for n in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == n)
        if n < need:
            message = f"insufficient data: {n} {pairs}, need {need}"
            group = [InsufficientDataError(message) for _ in rows]
        else:
            kept = usable[rows]
            m, v = (x[rows][kept].reshape(len(rows), n) for x in (means, variances))
            group = fit_rows(m, v, rows)
        for i, result in zip(rows.tolist(), group):
            results[i] = result
    return results


def _block_fit(series: MVSeries, fit_rows, *args) -> PowerLawFit:
    """Row ``series._row`` of ``fit_rows(means, variances, *args)`` over the
    series' block. The block keeps every row's result, so the first fit of
    any row fits them all; a row that fails raises its own error."""
    block = series._block
    key = (fit_rows, *args)
    results = block.fits.get(key)
    if results is None:
        results = block.fits[key] = fit_rows(block.means, block.variances, *args)
    result = results[series._row]
    if isinstance(result, DataError):
        raise fresh_copy(result)
    return result


class _OlsLine(NamedTuple):
    """Least-squares line y = intercept + slope*x, with the sums behind it."""

    slope: float
    intercept: float
    rss: float
    r_squared: float
    xbar: float
    sxx: float


def _ols_lines(x: np.ndarray, y: np.ndarray) -> list[_OlsLine]:
    """Ordinary least squares of y on x in each row of two (rows, n) arrays;
    no row of x may be constant. Each row is summed along its own length,
    its RSS by one einsum, so a row's line does not depend on the rows
    beside it."""
    xbar, ybar = x.mean(axis=1), y.mean(axis=1)
    dx, dy = x - xbar[:, None], y - ybar[:, None]
    sxx = np.sum(dx**2, axis=1)
    slope = np.sum(dx * dy, axis=1) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept[:, None] + slope[:, None] * x)
    rss = np.einsum("...i,...i->...", resid, resid)
    tss = np.sum(dy**2, axis=1)
    return [
        _OlsLine(b, c, r, 1.0 if t == 0.0 else _clamp_unit(1.0 - r / t), xb, sx)
        for b, c, r, t, xb, sx in zip(
            slope.tolist(),
            intercept.tolist(),
            rss.tolist(),
            tss.tolist(),
            xbar.tolist(),
            sxx.tolist(),
        )
    ]


def _clamp_unit(x: float) -> float:
    return min(1.0, max(0.0, x))


def fit_log_ols(series: MVSeries, min_pairs: int = 3) -> PowerLawFit:
    """Least squares of ln V on ln M after dropping non-positive pairs.

    ``min_pairs`` below 3 is treated as 3 (two parameters need a residual
    degree of freedom). The series' whole block is fitted at the first
    call (``_log_ols_rows``).
    """
    return _block_fit(series, _log_ols_rows, max(int(min_pairs), 3))


def _log_ols_rows(means: np.ndarray, variances: np.ndarray, min_pairs: int) -> list:
    """``fit_log_ols`` of each row of a block: its fit, or the data error in
    its place. Rows with the same usable count are fitted together."""
    width = means.shape[1]

    def fit_rows(m: np.ndarray, v: np.ndarray, rows: np.ndarray) -> list:
        x, y = np.log(m), np.log(v)
        equal = (x == x[:, :1]).all(axis=1)
        lines = iter(_ols_lines(x[~equal], y[~equal]))
        return [
            DegenerateDesignError("degenerate design: all retained means are equal")
            if degenerate
            else _log_ols_fit(next(lines), x.shape[1], width)
            for degenerate in equal.tolist()
        ]

    return _grouped(means, variances, "log_ols", min_pairs, fit_rows)


def _log_ols_fit(line: _OlsLine, n: int, width: int) -> PowerLawFit | DataError:
    # Means equal but for rounding give a near-vertical line whose
    # intercept can leave the range where exp is a positive float.
    try:
        a = math.exp(line.intercept)
    except OverflowError:
        a = math.inf
    if not 0.0 < a < math.inf:
        return DegenerateDesignError(
            f"degenerate design: coefficient a = exp({line.intercept:.6g}) "
            "is outside the float range"
        )
    sigma2 = line.rss / (n - 2)
    return PowerLawFit(
        a=a,
        b=line.slope,
        se_ln_a=math.sqrt(sigma2 * (1.0 / n + line.xbar**2 / line.sxx)),
        se_b=math.sqrt(sigma2 / line.sxx),
        r_squared=line.r_squared,
        n_used=n,
        n_dropped=width - n,
        method="log_ols",
        rss_log=line.rss,
    )


def _newton_minima(
    grid: np.ndarray, best: np.ndarray, objective, edge_stop=False
) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers of one-dimensional profiles, one per row, each sampled on
    its row of ``grid`` (rows, points) with its argmin at ``best``.
    ``objective(points, rows)`` returns, for those rows at those points,
    arrays of the profile's value, slope and curvature and a fourth array
    (rows, ...) of what the caller keeps from a point.

    Newton steps start at the argmin and stay inside the bracket of the
    grid points beside it (the argmin itself at a grid edge): the sign of
    each slope moves one end of the bracket to the current point, and a
    step that would leave the bracket, or a curvature that is not
    positive, is replaced by bisection. A slope pointing out of the grid at
    a grid edge does not close the bracket: the grid step can hide a lower
    minimum inside it, and near the c floor of the dispersion fit that
    slope is rounding noise. A row stops once its step is below
    ``_NEWTON_RTOL`` of |x|, at a zero slope, or after ``_NEWTON_STEPS``;
    the rows still stepping are evaluated together. A row keeps its grid
    point when the value there is lower than at its last point, as when
    the profile is flat to rounding.

    ``edge_stop`` (a mask over the rows, or one bool for all) adds a stop
    for a row whose argmin is a grid edge and whose slope there points out
    of the grid. Bisected towards the edge, such a row would spend the step
    cap and end at the grid point unless the profile dips below it within
    the grid step; it stops once a point inside has a slope that also
    points out and a value above the edge's, and keeps the grid point.

    Returns each row's minimizer and the fourth array there.
    """
    last = grid.shape[1] - 1
    lo, at, hi = (
        np.take_along_axis(grid, index[:, None], axis=1)[:, 0]
        for index in (np.maximum(best - 1, 0), best, np.minimum(best + 1, last))
    )
    x = at.copy()
    start = objective(x, slice(None))
    here = [value.copy() for value in start]
    edge = np.where(best == 0, 1.0, np.where(best == last, -1.0, 0.0))
    outward = np.where(edge_stop & (edge * start[1] > 0), edge, 0.0)
    active = np.ones(len(x), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        idx = np.flatnonzero(active)
        xi, lo_i, hi_i = x[idx], lo[idx], hi[idx]
        slope, curvature = here[1][idx], here[2][idx]
        stop = (slope == 0) | np.isnan(slope)  # stationary, or not a number
        stop |= (outward[idx] * slope > 0) & (here[0][idx] > start[0][idx])
        # The end on the slope's downhill side stays; the other moves to x,
        # unless x is that end, at a grid edge (see the docstring).
        hi_i = np.where((slope > 0) & (xi > lo_i), xi, hi_i)
        lo_i = np.where((slope < 0) & (xi < hi_i), xi, lo_i)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(curvature > 0, xi - slope / curvature, np.nan)
        step = np.where((lo_i < newton) & (newton < hi_i), newton, 0.5 * (lo_i + hi_i))
        tol = _NEWTON_RTOL * np.abs(xi)
        stop |= (np.abs(newton - xi) <= tol) | (np.abs(step - xi) <= tol)
        lo[idx], hi[idx] = lo_i, hi_i
        active[idx[stop]] = False
        move = idx[~stop]
        if not move.size:
            break
        x[move] = step[~stop]
        for kept, value in zip(here, objective(x[move], move)):
            kept[move] = value
    better = here[0] <= start[0]
    return np.where(better, x, at), np.where(better, here[3].T, start[3].T).T


def _powers(base: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """The (*exponents.shape, n) powers of the n values along the last axis
    of ``base``, each exponent raising the values broadcast against it. The
    exponents are written into the result first, so numpy never takes its
    single-exponent loop, whose x^2, x^0.5 and x^-1 round differently: a
    power rounds alike for every shape of ``exponents``."""
    out = np.empty((*exponents.shape, base.shape[-1]))
    out[...] = exponents[..., None]
    return np.power(base, out, out=out)


def _profile(
    b: np.ndarray, m: np.ndarray, v: np.ndarray, log_m: np.ndarray | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The profile R(b) = min_a sum((v - a m^b)^2) at each exponent of each
    row of ``b`` (rows, k), for the rows of ``m`` and ``v`` (rows, n): the
    one kernel of the raw-space fit, for the b grid, each Newton step and
    the fit reported. With p = m^b, a = sum(v p) / sum(p^2), and R is
    summed from the residuals r = v - a p, which overwrite p, not from
    sum(v^2) - a sum(v p), which cancels; it is inf where not finite. Each
    sum is one einsum along a row, so a row's values do not depend on the
    rows beside it. Call under ``np.errstate``.

    Without ``log_m`` it returns R (rows, k). Given ``log_m`` and k = 1 it
    returns the Newton objective: R, its exact slope and curvature (NaN
    where R is not finite) and the columns (a, RSS, l, sum(p^2), w.w)
    (rows, 5), where l = sum(p^2 ln m) / sum(p^2) makes w = p (ln m - l)
    orthogonal to p: R' = -2a r.w is the variable projection gradient and
    R'' = 2a^2 w.w - 2a sum(r w (ln m - l)) - 2 (r.w)^2 / sum(p^2). As r is
    orthogonal to p, these equal the plain forms in p ln m, but they do not
    cancel where one pair's p dwarfs the rest. On a grid of k > 1 points
    each a is an einsum over other strides, so the grid's R can differ from
    the Newton R at the same b in the last bits.
    """
    p = _powers(m[:, None, :], b)
    v = v[:, None, :]
    s2 = np.einsum("...i,...i->...", p, p)
    a = np.einsum("...i,...i->...", p, v) / s2
    if log_m is not None:
        log_m = log_m[:, None, :]
        l = np.einsum("...i,...i->...", p, p * log_m) / s2
        d = log_m - l[..., None]
        w = p * d
    r = p
    r *= -a[..., None]
    r += v
    rss = np.einsum("...i,...i->...", r, r)
    finite = np.isfinite(rss)
    profile = np.where(finite, rss, np.inf)
    if log_m is None:
        return profile
    rw = np.einsum("...i,...i->...", r, w)
    ww = np.einsum("...i,...i->...", w, w)
    rwd = np.einsum("...i,...i->...", r, w * d)
    slope = np.where(finite, -2.0 * a * rw, np.nan)
    curvature = np.where(finite, 2.0 * a * (a * ww - rwd) - 2.0 * rw * rw / s2, np.nan)
    return profile[:, 0], slope[:, 0], curvature[:, 0], np.column_stack([a, rss, l, s2, ww])


def fit_nls(series: MVSeries) -> PowerLawFit:
    """Least squares of V on a*M^b in raw space, by a profile over b.

    Pairs with non-positive mean are dropped; zero variances are kept.
    a is solved exactly for each b, so only b is searched: 161 points over
    the log-space slope +- 3 (1 +- 3 when that fit fails), refined by Newton
    steps on the profile's exact derivatives (``_newton_minima``).
    ``converged`` is True only when the minimum lies inside that
    bracket and the profile is not flat to one part in 1e6; otherwise b is
    not identified and (a, b) is arbitrary. A profile with no finite value,
    or an a that is not a positive float, raises ``DegenerateDesignError``.
    The series' whole block is fitted at the first call (``_nls_rows``).
    """
    return _block_fit(series, _nls_rows)


def _nls_rows(means: np.ndarray, variances: np.ndarray) -> list:
    """``fit_nls`` of each row of a block: its fit, or the data error in its
    place. Rows with the same number of positive means are fitted together."""
    width = means.shape[1]
    b0 = np.array(
        [
            fit.b if isinstance(fit, PowerLawFit) else 1.0
            for fit in _log_ols_rows(means, variances, 3)
        ]
    )
    return _grouped(
        means, variances, "nls", 3, lambda m, v, rows: _nls_fits(m, v, b0[rows], width)
    )


def _nls_fits(m: np.ndarray, v: np.ndarray, b0: np.ndarray, width: int) -> list:
    """The raw-space fit of each row of ``m`` (all positive) and ``v``, or
    its data error, searched around the log-space slopes ``b0``."""
    n = m.shape[1]
    with np.errstate(all="ignore"):
        # The grid is scanned in chunks of rows whose (rows, grid, pairs)
        # block of powers holds at most _GRID_ELEMENTS values, or one row
        # when a row alone holds more.
        grid = b0[:, None] + _B_OFFSETS
        best = np.empty(len(m), dtype=np.intp)
        low, spread = np.empty(len(m)), np.empty(len(m))
        step = max(1, _GRID_ELEMENTS // (grid.shape[1] * n))
        for i in range(0, len(m), step):
            rows = slice(i, i + step)
            profile = _profile(grid[rows], m[rows], v[rows])
            best[rows] = profile.argmin(axis=1)
            low[rows] = profile.min(axis=1)
            spread[rows] = np.ptp(profile, axis=1)
        overflow, flat = np.isinf(low), spread <= 1e-6 * low
        log_m = np.log(m)
        # A profile flat to rounding gets no edge stop: its b is arbitrary,
        # and where its steps end depends on rounding alone.
        b, kept = _newton_minima(
            grid,
            best,
            lambda b, rows: _profile(b[:, None], m[rows], v[rows], log_m[rows]),
            ~flat,
        )
        converged = (grid[:, 0] < b) & (b < grid[:, -1]) & ~flat
        a, rss, l, s2, ww = kept.T
        # se_a and se_b from the diagonal of sigma2 (J'J)^-1 for the Jacobian
        # J = [p, a p ln m], in closed form about l, as _log_ols_fit centres
        # on the mean of ln m: var_a = sigma2 (1/sum(p^2) + l^2 / w.w) and
        # var_b = sigma2 / (a^2 w.w). A row whose ln m are all equal, or
        # whose w.w is not positive, gets (0, 0).
        sigma2 = rss / (n - 2)
        variances = np.array([sigma2 * (1.0 / s2 + l * l / ww), sigma2 / (a * a * ww)])
        identified = (ww > 0.0) & ~(log_m == log_m[:, :1]).all(axis=1)
        se_a, se_b = np.sqrt(np.where(identified, variances, 0.0))
        tss = np.sum((v - v.mean(axis=1, keepdims=True)) ** 2, axis=1)
    results: list = []
    for overflow_i, a_i, b_i, se_a_i, se_b_i, rss_i, tss_i, converged_i in zip(
        overflow.tolist(),
        a.tolist(),
        b.tolist(),
        se_a.tolist(),
        se_b.tolist(),
        rss.tolist(),
        tss.tolist(),
        converged.tolist(),
    ):
        if overflow_i:
            fit = DegenerateDesignError(
                "degenerate design: the raw-space residuals overflow at every b"
            )
        elif not 0.0 < a_i < math.inf:
            fit = DegenerateDesignError(
                f"degenerate design: coefficient a = {a_i:.6g} is not a positive float"
            )
        else:
            fit = PowerLawFit(
                a=a_i,
                b=b_i,
                se_ln_a=se_a_i / a_i,
                se_b=se_b_i,
                r_squared=1.0 if tss_i == 0.0 else _clamp_unit(1.0 - rss_i / tss_i),
                n_used=n,
                n_dropped=width - n,
                method="nls",
                rss_raw=rss_i,
                converged=converged_i,
            )
        results.append(fit)
    return results
