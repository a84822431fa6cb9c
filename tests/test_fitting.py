"""Power-law fits, tail probabilities, crossover density, classification.

The two-sided tail oracle here integrates the t density numerically with
mpmath, a different route than the incomplete-beta identity used by the
implementation, so agreement is evidence rather than tautology; mpmath's
own incomplete beta at 40 digits holds the implementation to 1e-12. The same
dual-route idea backs the nonlinear fit: scipy's curve_fit serves as an
independent check on the hand-rolled minimizer.
"""

import ast
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import child_env, exact_series
from taylorlaw import (
    Classification,
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    MVPair,
    MVSeries,
    PacdResult,
    PowerLawFit,
    Scheme,
    UsageError,
    classify_from_params,
    extract_pairs,
    fit_log_ols,
    fit_nls,
    pacd,
    pacd_from_params,
    parse_cross_sectional,
    t_tail_probability,
)
from taylorlaw import crossover, fitting
from taylorlaw._fmt import sig12
from taylorlaw.extraction import _Block
from taylorlaw.fitting import _profile


def two_sided_tail_by_quadrature(t: float, dof: int) -> float:
    """Oracle: integrate the t density from |t| to infinity, doubled."""
    t_abs = mp.mpf(abs(float(t)))
    nu = mp.mpf(dof)
    norm = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
    tail = mp.quad(
        lambda x: norm * (1 + x * x / nu) ** (-(nu + 1) / 2), [t_abs, mp.inf]
    )
    return float(2 * tail)


def series_of(*mv_pairs) -> MVSeries:
    return MVSeries(
        None, tuple(MVPair(f"p{i}", m, v) for i, (m, v) in enumerate(mv_pairs))
    )


class TestTailProbability:
    @pytest.mark.parametrize("dof", [1, 2, 5, 20, 100])
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5, 6.0])
    def test_matches_density_quadrature(self, t, dof):
        assert t_tail_probability(t, dof) == pytest.approx(
            two_sided_tail_by_quadrature(t, dof), rel=1e-6
        )

    def test_zero_statistic_gives_one(self):
        assert t_tail_probability(0.0, 7) == 1.0

    def test_one_dof_closed_form(self):
        # p = 1 - (2/pi) * atan|t|
        for t in (0.25, 1.0, 3.0):
            assert t_tail_probability(t, 1) == pytest.approx(
                1 - (2 / math.pi) * math.atan(t), rel=1e-12
            )

    def test_two_dof_closed_form(self):
        # p = 1 - t / sqrt(2 + t^2)
        for t in (0.5, 2.0, 10.0):
            assert t_tail_probability(t, 2) == pytest.approx(
                1 - t / math.sqrt(2 + t * t), rel=1e-12
            )

    def test_huge_statistic_stays_positive(self):
        p = t_tail_probability(500.0, 50)
        assert 0.0 < p < 1e-30

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.floats(min_value=-40, max_value=40, allow_nan=False),
        dof=st.integers(1, 150),
    )
    def test_symmetric_and_bounded(self, t, dof):
        p = t_tail_probability(t, dof)
        assert 0.0 < p <= 1.0
        assert t_tail_probability(-t, dof) == p

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.floats(min_value=0, max_value=40, allow_nan=False),
        dof=st.integers(1, 150),
        bump=st.floats(min_value=0.01, max_value=5.0),
    )
    def test_monotone_in_magnitude(self, t, dof, bump):
        assert t_tail_probability(t + bump, dof) <= t_tail_probability(t, dof)


def tail_grid(seed: int = 20120101) -> list[tuple[float, int]]:
    """About 500 (t, dof) points: dof log-spaced over 1..10^4 with the
    d.o.f. the benchmark's fits reach, |t| log-uniform from 1e-3 up to where
    the tail reaches 1e-300, and both sides of each switch inside
    ``t_tail_probability``."""
    rng = np.random.default_rng(seed)
    dofs = {int(round(10 ** (k / 6))) for k in range(25)} | {4, 18, 198, 2498}
    points = []
    for dof in sorted(dofs):
        lo, hi = 0.0, 700.0  # ln|t| bracket of the 1e-300 tail
        for _ in range(60):
            mid = (lo + hi) / 2
            above = t_tail_probability(math.exp(mid), dof) > 1e-300
            lo, hi = (mid, hi) if above else (lo, mid)
        ln_t = rng.uniform(math.log(1e-3), lo, size=14)
        points += [(float(math.exp(v)), dof) for v in ln_t]
        # the series / continued-fraction switch, and u = t^2/dof = 1 where
        # the tail is still above 1e-300
        for u in (1.5 / (dof / 2 + 1), 1.0):
            t = math.sqrt(u * dof)
            if math.log(t) < lo:
                points += [(t * (1 - 1e-9), dof), (t * (1 + 1e-9), dof)]
    return points


def tail_by_incomplete_beta(t: float, dof: int) -> mp.mpf:
    """Oracle: I_x(dof/2, 1/2) at x = dof/(dof + t^2), at 40 digits."""
    with mp.workdps(40):
        nu = mp.mpf(dof)
        x = nu / (nu + mp.mpf(t) ** 2)
        return +mp.betainc(nu / 2, mp.mpf(1) / 2, 0, x, regularized=True)


def test_tail_matches_mpmath_to_twelve_digits():
    points = tail_grid()
    worst, misprinted = 0.0, []
    for t, dof in points:
        expected = tail_by_incomplete_beta(t, dof)
        got = t_tail_probability(t, dof)
        worst = max(worst, float(abs(got - expected) / expected))
        if sig12(got) != sig12(float(expected)):
            misprinted.append((t, dof))
    assert 480 <= len(points) <= 520
    assert worst <= 1e-12
    assert len(misprinted) <= 0.005 * len(points), misprinted



@pytest.mark.parametrize(
    "t,dof,printed",
    [(27.03585040862433, 18, "5.01727954392e-16"), (2.40109, 4, "0.0742684809956")],
)
def test_power_form_prints_the_mpmath_digits(t, dof, printed):
    # From t^2/dof = 1 on, the tail carries (t^2/dof)^(-dof/2); with t^2/dof
    # rounded, the first point came out 10.8 ulps low and printed ...391e-16.
    expected = tail_by_incomplete_beta(t, dof)
    got = t_tail_probability(t, dof)
    assert sig12(float(expected)) == sig12(got) == printed
    assert abs(got - expected) / expected <= 1.5e-15  # a few ulps


def test_fraction_form_prints_the_mpmath_digits():
    # Below t^2/dof = 1.5/(dof/2 + 1) the tail is a Gauss continued fraction
    # times 1/B(dof/2, 1/2). A forward Lentz product and a log/exp round trip
    # of 1/B left this point 6.3e-16 high, printing ...214.
    t, dof = 2.4010900133380075, 4
    expected = tail_by_incomplete_beta(t, dof)
    got = t_tail_probability(t, dof)
    assert sig12(float(expected)) == sig12(got) == "0.0742684799213"
    assert abs(got - expected) <= 2 * math.ulp(got)


@pytest.mark.parametrize("dof", [1, 2])
@pytest.mark.parametrize("ln2_t", [470, 479.9, 480, 499])
def test_tail_where_t_squared_nears_overflow(ln2_t, dof):
    # From |t| = 2^480 on the split products of t*t/dof could overflow, so
    # the tail falls back to (|t|/sqrt(dof))^-dof.
    t = 2.0**ln2_t
    expected = tail_by_incomplete_beta(t, dof)
    assert abs(t_tail_probability(t, dof) - expected) / expected <= 1e-14


def gauss_fraction_recomputing_numerators(a: float, w: float) -> float:
    """Reference: the Gauss continued fraction with every partial numerator
    computed once in the forward Lentz pass and again in the backward sum."""

    def numerator(n: int) -> float:
        m = n // 2
        if n % 2:
            return (a + m) * (m + 0.5) / ((a + 2 * m) * (a + 2 * m + 1)) * w
        return m * (a + m - 0.5) / ((a + 2 * m - 1) * (a + 2 * m)) * w

    c, d = 1.0, 0.0
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


def test_gauss_fraction_keeps_the_bits_of_recomputed_numerators():
    for a in (0.5, 1.0, 1.5, 2.0, 3.5, 5.0, 10.0, 20.5, 50.0):
        for w in np.geomspace(0.01, 50.0, 120).tolist():
            got = crossover._gauss_fraction(a, w)
            assert got.hex() == gauss_fraction_recomputing_numerators(a, w).hex()


class TestLogOls:
    def test_three_exact_pairs(self):
        fit = fit_log_ols(series_of((1, 2), (4, 16), (16, 128)))
        assert fit.method == "log_ols"
        assert fit.a == pytest.approx(2.0, rel=1e-12)
        assert fit.b == pytest.approx(1.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared <= 1.0
        assert (fit.n_used, fit.n_dropped) == (3, 0)

    def test_four_exact_pairs_from_fixture(self):
        fit = fit_log_ols(exact_series())
        assert fit.a == pytest.approx(2.0, rel=1e-12)
        assert fit.b == pytest.approx(1.5, rel=1e-12)

    def test_zero_pairs_dropped_and_counted(self):
        fit = fit_log_ols(series_of((1, 2), (4, 16), (16, 128), (0, 5), (9, 0)))
        assert (fit.n_used, fit.n_dropped) == (3, 2)
        assert fit.b == pytest.approx(1.5, rel=1e-12)

    def test_too_few_usable_pairs(self):
        with pytest.raises(InsufficientDataError, match="2 usable pairs, need 3"):
            fit_log_ols(series_of((1, 2), (4, 16), (0, 5)))

    def test_min_pairs_raises_the_bar(self):
        with pytest.raises(InsufficientDataError, match="need 5"):
            fit_log_ols(series_of((1, 2), (4, 16), (16, 128)), min_pairs=5)

    def test_equal_means_degenerate(self):
        with pytest.raises(DegenerateDesignError, match="all retained means"):
            fit_log_ols(series_of((4, 2), (4, 16), (4, 128)))

    @pytest.mark.parametrize("variances", [(1, 2, 3), (3, 2, 1)])
    def test_means_equal_but_for_rounding_degenerate(self, variances):
        # One ulp apart, the means give a slope near 1e16 and an intercept
        # whose exp overflows (or underflows, for falling variances).
        m1 = math.nextafter(0.25, 1.0)
        means = (0.25, m1, math.nextafter(m1, 1.0))
        with pytest.raises(DegenerateDesignError, match="outside the float range"):
            fit_log_ols(series_of(*zip(means, variances)))

    def test_matches_reference_regression_on_noisy_data(self):
        from scipy.stats import linregress

        rng = np.random.default_rng(7)
        ms = np.geomspace(0.5, 400, 15)
        vs = 3.0 * ms**1.2 * rng.uniform(0.7, 1.4, size=ms.size)
        fit = fit_log_ols(
            series_of(*[(m, v) for m, v in zip(ms, vs)])
        )
        ref = linregress(np.log(ms), np.log(vs))
        assert fit.b == pytest.approx(ref.slope, rel=1e-9)
        assert math.log(fit.a) == pytest.approx(ref.intercept, rel=1e-9)
        assert fit.se_b == pytest.approx(ref.stderr, rel=1e-9)
        assert fit.se_ln_a == pytest.approx(ref.intercept_stderr, rel=1e-9)
        assert fit.r_squared == pytest.approx(ref.rvalue**2, rel=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        ln_a=st.floats(min_value=-3, max_value=3),
        b=st.floats(min_value=0.2, max_value=3.0),
        n=st.integers(4, 12),
    )
    def test_recovers_exact_relationships(self, ln_a, b, n):
        a = math.exp(ln_a)
        ms = np.geomspace(0.5, 200.0, n)
        fit = fit_log_ols(series_of(*[(m, a * m**b) for m in ms]))
        assert fit.b == pytest.approx(b, rel=1e-9, abs=1e-9)
        assert fit.a == pytest.approx(a, rel=1e-9)
        assert fit.r_squared >= 1 - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.floats(min_value=1e-2, max_value=1e2),
        b=st.floats(min_value=0.3, max_value=2.5),
    )
    def test_count_rescaling_moves_only_the_intercept(self, scale, b):
        """(M, V) -> (cM, c^2 V) keeps b and shifts ln a by (2-b) ln c."""
        ms = np.geomspace(1.0, 64.0, 6)
        base = fit_log_ols(series_of(*[(m, 1.7 * m**b) for m in ms]))
        moved = fit_log_ols(
            series_of(*[(scale * m, scale**2 * 1.7 * m**b) for m in ms])
        )
        assert moved.b == pytest.approx(base.b, rel=1e-7, abs=1e-9)
        assert math.log(moved.a) == pytest.approx(
            math.log(base.a) + (2 - base.b) * math.log(scale), abs=1e-7
        )


class TestNls:
    def test_exact_recovery(self):
        fit = fit_nls(exact_series())
        assert fit.method == "nls"
        assert fit.converged
        assert fit.a == pytest.approx(2.0, rel=1e-9)
        assert fit.b == pytest.approx(1.5, rel=1e-9)
        assert fit.rss_raw <= 1e-20

    def test_agrees_with_log_fit_on_exact_data(self):
        ols = fit_log_ols(exact_series())
        nls = fit_nls(exact_series())
        assert nls.a == pytest.approx(ols.a, rel=1e-6)
        assert nls.b == pytest.approx(ols.b, rel=1e-6)

    def test_keeps_zero_variance_pairs(self):
        fit = fit_nls(series_of((1, 2), (4, 16), (16, 128), (9, 0)))
        assert (fit.n_used, fit.n_dropped) == (4, 0)

    def test_drops_zero_mean_pairs(self):
        fit = fit_nls(series_of((1, 2), (4, 16), (16, 128), (0, 5)))
        assert (fit.n_used, fit.n_dropped) == (3, 1)

    def test_overdispersed_counts_fit_between_linear_and_quadratic(self):
        ms = np.array([1, 2, 4, 8, 16, 32, 64, 128], float)
        fit = fit_nls(series_of(*[(m, m + m**2 / 5) for m in ms]))
        assert fit.converged
        assert 1.0 < fit.b < 2.0

    def test_exact_fit_through_a_subnormal_mean_reaches_rounding_level(self):
        # One subject's mean is subnormal; the other two pairs lie exactly on
        # a power law, so the attainable RSS is at rounding level and se_b
        # with it. A finish that stops at a 1e-8 bracket left 1.0e-17 and
        # 2.6e-9.
        table = parse_cross_sectional(
            "subject_id,sp1,sp2,sp3\ns1,1e-310,0,0\ns2,1,3,2\ns3,4,10,7\n"
        )
        fit = fit_nls(extract_pairs(table, Scheme("subjects_across_species")))
        assert fit.converged
        assert fit.rss_raw <= 1e-28
        assert fit.se_b <= 1e-13

    def test_matches_reference_optimizer_on_noisy_data(self):
        from scipy.optimize import curve_fit

        rng = np.random.default_rng(42)
        ms = np.geomspace(1, 300, 12)
        vs = 2.0 * ms**1.5 * rng.uniform(0.8, 1.25, size=ms.size)
        fit = fit_nls(series_of(*[(m, v) for m, v in zip(ms, vs)]))
        popt, pcov = curve_fit(
            lambda m, a, b: a * m**b, ms, vs, p0=(1.0, 1.0), maxfev=10000
        )
        ref_se = np.sqrt(np.diag(pcov))
        assert fit.converged
        assert fit.a == pytest.approx(popt[0], rel=1e-4)
        assert fit.b == pytest.approx(popt[1], rel=1e-4)
        assert fit.a * fit.se_ln_a == pytest.approx(ref_se[0], rel=1e-3)
        assert fit.se_b == pytest.approx(ref_se[1], rel=1e-3)

    def test_equal_means_give_zero_standard_errors(self):
        # The profile over b is flat and J'J singular: (0, 0), never
        # rounding noise, which the slope test would read as a real error.
        rng = np.random.default_rng(20261021)
        for case in range(1000):
            k = int(rng.integers(3, 9))
            ms = np.full(k, np.exp(rng.uniform(-5.0, 8.0)))
            vs = rng.lognormal(rng.uniform(-3.0, 8.0), rng.uniform(0.0, 2.0), k)
            vs[1:][rng.random(k - 1) < 0.2] = 0.0  # one positive v keeps a > 0
            fit = fit_nls(series_of(*zip(ms.tolist(), vs.tolist())))
            assert (fit.se_ln_a, fit.se_b) == (0.0, 0.0), case

    def test_reported_a_and_rss_belong_to_the_reported_b(self):
        # The fit reports the a and RSS the Newton finish kept, not a fresh
        # evaluation at b: on flat rows and on rows that stop at a grid
        # edge, where the finish keeps its grid point, as on the rest, they
        # are the exact a and the RSS at the reported b. All rows are fitted
        # in one block, so each is kept from its own evaluation.
        rng = np.random.default_rng(20261024)
        rows, k = 300, 8
        ms = np.exp(rng.uniform(-2.0, 6.0, (rows, k)))
        ms[::10] = ms[::10, :1]  # equal means: the profile is flat
        # Raw-space slopes far above the log-space ones: the minimum lies
        # past the grid's edge.
        steep = np.arange(rows) % 3 == 1
        exponents = np.where(steep, rng.uniform(4.0, 8.0, rows), rng.uniform(0.5, 2.5, rows))
        vs = 1.7 * ms ** exponents[:, None] * rng.lognormal(0.0, 0.5, (rows, k))
        vs[rng.random((rows, k)) < 0.1] = 0.0
        block = _Block(ms, vs)
        labels = tuple(f"p{i}" for i in range(k))
        flat = edge = 0
        for row in range(rows):
            series = MVSeries._of_block(None, labels, block, row)
            fit = fit_nls(series)
            p = series.means**fit.b
            a = np.sum(series.variances * p) / np.sum(p * p)
            rss = np.sum((series.variances - a * p) ** 2)
            assert fit.a == pytest.approx(a, rel=1e-12), row
            assert fit.rss_raw == pytest.approx(rss, rel=1e-12), row
            flat += row % 10 == 0 and not fit.converged
            b0 = fit_log_ols(series).b if row % 10 else 1.0
            edge += fit.b in (b0 - 3.0, b0 + 3.0)
        assert flat == rows // 10 and edge >= 40

    def test_standard_errors_match_the_inverse_of_jtj(self):
        # Oracle: sigma^2 (J'J)^-1 by LAPACK, J = [m^b, a m^b ln m].
        rng = np.random.default_rng(20261022)
        for case in range(200):
            k = int(rng.integers(3, 13))
            ms = np.exp(rng.uniform(-2.0, 5.0, k))
            vs = 1.7 * ms ** rng.uniform(0.5, 2.5) * rng.lognormal(0.0, 0.5, k)
            fit = fit_nls(series_of(*zip(ms.tolist(), vs.tolist())))
            p = ms**fit.b
            jac = np.column_stack([p, fit.a * p * np.log(ms)])
            cov = fit.rss_raw / (k - 2) * np.linalg.inv(jac.T @ jac)
            se_a, se_b = np.sqrt(np.diag(cov))
            assert fit.a * fit.se_ln_a == pytest.approx(se_a, rel=1e-8), case
            assert fit.se_b == pytest.approx(se_b, rel=1e-8), case


def brute_force_nls_scan(series, points=20001):
    """The raw-space RSS at ``points`` exponents over the bracket fit_nls
    searches (log-space slope +- 3, or 1 +- 3), with a in closed form at
    each."""
    kept = [p for p in series.pairs if p.mean > 0]
    m = np.array([p.mean for p in kept])
    v = np.array([p.variance for p in kept])
    try:
        b0 = fit_log_ols(series).b
    except (InsufficientDataError, DegenerateDesignError):
        b0 = 1.0
    powers = m ** np.linspace(b0 - 3.0, b0 + 3.0, points)[:, None]
    a = np.sum(powers * v, axis=1) / np.sum(powers**2, axis=1)
    return np.sum((v - a[:, None] * powers) ** 2, axis=1)


def newton_calls(profile: mock.Mock) -> int:
    """The calls of a mocked ``_profile`` given ``log_m``: the Newton
    objective's evaluations, not the grid's."""
    return sum(len(c.args) > 3 or "log_m" in c.kwargs for c in profile.call_args_list)


class TestNlsProfileOracle:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(20261018)
        unconverged = flat_cases = 0
        for case in range(300):
            k = int(rng.integers(3, 9))
            if case % 10 == 0:  # equal means: the profile over b is flat
                ms = np.full(k, 1.0 if case % 20 else np.exp(rng.uniform(-4.0, 7.0)))
            else:
                ms = np.exp(rng.uniform(-4.0, 7.0, k))
            vs = 1.7 * ms ** rng.uniform(0.5, 2.5) * rng.lognormal(0.0, 0.4, k)
            vs[rng.random(k) < 0.1] = 0.0
            series = series_of(*zip(ms.tolist(), vs.tolist()))
            fit = fit_nls(series)
            scan = brute_force_nls_scan(series)
            assert fit.rss_raw <= scan.min() * (1 + 4 * np.finfo(float).eps), case
            at_end = int(np.argmin(scan)) in (0, scan.size - 1)
            flat = np.ptp(scan) <= 1e-6 * scan.min()
            assert fit.converged is not (at_end or flat), case
            unconverged += not fit.converged
            flat_cases += bool(flat)
        # Both ways of failing to identify b occur: flat and at an end.
        assert flat_cases >= 25 and unconverged - flat_cases >= 20

    def test_newton_finish_takes_few_evaluations(self):
        # 5 to 40 noisy pairs: from the grid's argmin, the exact derivatives
        # reach a relative step of 1e-11 in a handful of evaluations.
        rng = np.random.default_rng(20261019)
        counts = []
        for _ in range(200):
            k = int(rng.integers(5, 41))
            ms = np.exp(rng.uniform(-2.0, 6.0, k))
            vs = 1.7 * ms ** rng.uniform(1.0, 2.5) * rng.lognormal(0.0, 0.3, k)
            with mock.patch.object(fitting, "_profile", wraps=_profile) as profile:
                fit_nls(series_of(*zip(ms.tolist(), vs.tolist())))
            counts.append(newton_calls(profile))
        assert np.median(counts) <= 6

    def test_a_minimum_past_the_grid_edge_stops_at_the_grid_point(self):
        # Raw-space slopes far above the log-space one: the profile falls
        # out of the grid. Bisecting towards the edge would spend the
        # 30-step cap; the finish stops at the first point inside, whose
        # slope also points out, and keeps the grid point.
        rng = np.random.default_rng(20261020)
        edges = 0
        for _ in range(100):
            k = int(rng.integers(4, 12))
            ms = np.exp(rng.uniform(-2.0, 6.0, k))
            vs = 1.7 * ms ** rng.uniform(4.0, 8.0) * rng.lognormal(0.0, 1.0, k)
            series = series_of(*zip(ms.tolist(), vs.tolist()))
            b0 = fit_log_ols(series).b
            with mock.patch.object(fitting, "_profile", wraps=_profile) as profile:
                fit = fit_nls(series)
            if fit.b in (b0 - 3.0, b0 + 3.0):
                edges += 1
                assert newton_calls(profile) <= 3
                assert not fit.converged
                assert fit.rss_raw <= brute_force_nls_scan(series).min() * (1 + 4e-16)
        assert edges >= 20


@st.composite
def raw_pairs(draw):
    """(m, v) of comparable size, where the summation order shows in the
    last bits, or spread over the whole float range; some v are zero."""
    n = draw(st.integers(3, 20))
    top = draw(st.sampled_from([1e3, 1e300]))
    m = draw(st.lists(st.floats(1 / top, top), min_size=n, max_size=n))
    v = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, top)), min_size=n, max_size=n))
    return np.array(m), np.array(v)


class TestNlsGoldenObjective:
    """``_profile``'s Newton RSS is its one-point grid's, bit for bit, and a
    row's objective is the same alone as in a block."""

    @settings(max_examples=500, deadline=None)
    @given(
        pairs=raw_pairs(),
        b=st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-5.0, 5.0)),
    )
    # a*m^b stays finite but the residual's square overflows to inf.
    @example(pairs=(np.array([1.0, 2.0, 3.0]), np.array([1e300, 0.0, 0.0])), b=0.0)
    # m^b overflows, a = inf/inf is NaN, and NaN is reported as inf.
    @example(pairs=(np.array([1e200, 1e201, 1e202]), np.array([1.0, 2.0, 3.0])), b=2.0)
    def test_scalar_rss_equals_the_profile(self, pairs, b):
        m, v = pairs
        with np.errstate(all="ignore"):
            expected = float(_profile(np.array([[b]]), m[None], v[None])[0, 0])
            got = _profile(np.array([[b]]), m[None], v[None], np.log(m)[None])[0]
            assert float(got[0]).hex() == expected.hex()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(raw_pairs(), min_size=3, max_size=3),
        row=st.integers(0, 2),
        b=st.floats(-5.0, 5.0),
    )
    def test_a_row_alone_equals_the_row_in_a_block(self, rows, row, b):
        # Given one exponent, np.power takes a loop of its own, whose m^2,
        # m^0.5 and m^-1 round differently from the loop a block runs.
        n = min(len(m) for m, _ in rows)
        m, v = (np.array([pair[j][:n] for pair in rows]) for j in (0, 1))
        one = slice(row, row + 1)
        for exponent in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, b):
            bs = np.full(3, exponent)
            with np.errstate(all="ignore"):
                block = _profile(bs[:, None], m, v, np.log(m))
                alone = _profile(bs[one, None], m[one], v[one], np.log(m[one]))
            for got, expected in zip(alone, block):
                assert got[0].tobytes() == expected[row].tobytes(), exponent


def openblas_kernels() -> list[str | None]:
    """The ``OPENBLAS_CORETYPE`` values to compare on this machine, None (the
    kernel OpenBLAS picks) first. Skips unless numpy links OpenBLAS on
    x86-64."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its build
        pytest.skip("numpy does not report its build as a dict")
    blas = config["Build Dependencies"]["blas"]["name"]
    cpu = config["Machine Information"]["host"]["cpu"]
    if "openblas" not in blas or cpu != "x86_64":
        pytest.skip(f"numpy links {blas} on {cpu}, not OpenBLAS on x86_64")
    simd = config["SIMD Extensions"]
    features = {*simd["baseline"], *simd.get("found", [])}
    # Haswell's kernels need AVX2 and FMA, the set numpy 2.4 calls X86_V3.
    haswell = "X86_V3" in features or {"AVX2", "FMA3"} <= features
    return [None, *(["Haswell"] if haswell else []), "Prescott"]


def test_nls_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # Sums taken by BLAS change their last bits with the kernel OpenBLAS
    # runs, and se_b, t and p print 12 digits.
    kernels = openblas_kernels()
    rng = np.random.default_rng(20261023)
    subjects, times, species = 10, 6, 20
    means = (
        rng.lognormal(0.0, 0.4, (subjects, 1, 1))
        * rng.lognormal(0.0, 0.3, (subjects, times, 1))
        * rng.lognormal(2.5, 0.8, (subjects, 1, species))
    )
    counts = rng.negative_binomial(3.0, 3.0 / (3.0 + means))
    lines = ["subject_id,time," + ",".join(f"sp{j}" for j in range(species))]
    for i in range(subjects):
        for t in range(times):
            lines.append(f"u{i},{t}," + ",".join(map(str, counts[i, t].tolist())))
    table = tmp_path / "counts.csv"
    table.write_text("\n".join(lines) + "\n")
    argv = [sys.executable, "-m", "taylorlaw", "fit-taylor", "--input", str(table)]
    argv += ["--scheme", "per_subject_species", "--subject", "all", "--method", "nls"]
    argv += ["--format", "csv"]
    assert_same_stdout_under(kernels, argv)


def test_dispersion_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # A profile flat to rounding picks its grid argmin by rounding alone, so
    # a sum taken by BLAS would move the flat species' c by whole grid steps.
    kernels = openblas_kernels()
    table = tmp_path / "mixed.csv"
    table.write_text(
        "species,s1,s2,s3,s4,s5\ndistance,0.5,1,2,4,8\n"
        "decayer,120,60,25,9,2\nvanisher,4,2,0,1,0\nflat,5,5,5,5,5\n"
    )
    argv = [sys.executable, "-m", "taylorlaw", "fit-dispersion", "--input", str(table)]
    assert_same_stdout_under(kernels, argv)


def test_no_source_file_calls_blas_or_lapack():
    # The kernel tests skip off OpenBLAS on x86-64. numpy hands each of these
    # to BLAS or LAPACK, so none of them may come back into the package.
    for path in sorted(Path(fitting.__file__).parent.glob("*.py")):
        text = path.read_text()
        for word in ("linalg", "matmul", "tensordot", ".dot(", "vdot"):
            assert word not in text, f"{path.name} contains {word}"
        products = [
            node.lineno
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        ]
        assert not products, f"{path.name} multiplies with @ on lines {products}"


def assert_same_stdout_under(kernels: list[str | None], argv: list[str]) -> None:
    """Runs ``argv`` once under each OpenBLAS kernel and asserts that every
    run prints the default kernel's stdout."""
    outputs = {}
    for kernel in kernels:
        env = child_env()
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        outputs[kernel] = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
    differing = [kernel for kernel in kernels if outputs[kernel] != outputs[None]]
    assert not differing, f"{differing} print other bytes than the default kernel"


class TestCrossoverDensity:
    def test_quarter_density_example(self):
        result = pacd_from_params(2.0, 1.5)
        assert result.defined
        assert result.m0 == 0.25

    def test_unit_coefficient_gives_unit_crossover(self):
        assert pacd_from_params(1.0, 1.7).m0 == 1.0

    def test_undefined_at_slope_one(self):
        result = pacd_from_params(2.0, 1.0)
        assert not result.defined
        assert result.m0 is None
        assert "undefined" in result.reason

    def test_undefined_within_tolerance_band(self):
        assert not pacd_from_params(2.0, 1.0 + 5e-10).defined

    def test_overflowing_crossover_reported_not_raised(self):
        result = pacd_from_params(0.1, 1.0 + 2e-9)
        assert not result.defined
        assert "overflows" in result.reason

    def test_underflowing_crossover_reported_not_raised(self):
        result = pacd_from_params(1e308, 1.0000001)
        assert (result.m0, result.defined) == (None, False)
        assert result.reason == "crossover density underflows"

    def test_non_positive_coefficient_rejected(self):
        with pytest.raises(DomainError, match="must be positive"):
            pacd_from_params(0.0, 1.5)

    def test_undefined_when_exponent_not_identified(self):
        fit = PowerLawFit(2.0, 1.5, 0.1, 0.1, 0.9, 4, 0, "nls", converged=False)
        assert pacd(fit) == PacdResult(None, False, "exponent b not identified")
        assert pacd(fit._replace(converged=True)).m0 == 0.25

    @pytest.mark.parametrize(
        "a,b",
        [(math.inf, 2.0), (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf)],
    )
    def test_non_finite_parameters_rejected(self, a, b):
        with pytest.raises(DomainError, match="must be finite"):
            pacd_from_params(a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        ln_a=st.floats(min_value=-6, max_value=6),
        b=st.floats(min_value=0.2, max_value=3.0),
    )
    def test_crossover_solves_unit_ratio(self, ln_a, b):
        """At the crossover density the variance-mean ratio is exactly 1."""
        assume(abs(b - 1.0) >= 0.01)
        a = math.exp(ln_a)
        result = pacd_from_params(a, b)
        assert result.defined
        assert a * result.m0 ** (b - 1.0) == pytest.approx(1.0, rel=1e-9)


class TestClassification:
    def test_clearly_aggregated(self):
        cl = classify_from_params(1.5, 0.1, 22)
        assert cl.pattern == "aggregated"
        assert cl.t_statistic == pytest.approx(5.0, rel=1e-12)
        assert cl.dof == 20
        assert cl.p_value == pytest.approx(6.873028579542e-05, rel=1e-10)

    def test_indistinguishable_from_random(self):
        cl = classify_from_params(1.04, 0.1, 22)
        assert cl.pattern == "random"
        assert cl.p_value == pytest.approx(0.69339657624, rel=1e-10)

    def test_clearly_regular(self):
        cl = classify_from_params(0.4, 0.1, 22)
        assert cl.pattern == "regular"
        assert cl.p_value == pytest.approx(7.2436999304e-06, rel=1e-10)

    def test_perfect_poisson_fit(self):
        cl = classify_from_params(1.0, 0.0, 10)
        assert cl == Classification(
            pattern="random", t_statistic=0.0, p_value=1.0, alpha=0.05, dof=8
        )

    def test_zero_error_off_slope_degenerate(self):
        with pytest.raises(DegenerateDesignError, match="zero slope standard"):
            classify_from_params(1.2, 0.0, 10)

    def test_too_few_pairs(self):
        with pytest.raises(InsufficientDataError, match="at least 3"):
            classify_from_params(1.2, 0.1, 2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0])
    def test_alpha_must_be_interior(self, alpha):
        with pytest.raises(UsageError, match="alpha"):
            classify_from_params(1.2, 0.1, 10, alpha=alpha)

    def test_alpha_moves_the_boundary(self):
        # p ~ 0.105 for this configuration: significant at 0.2, not at 0.05.
        strict = classify_from_params(1.17, 0.1, 22, alpha=0.05)
        loose = classify_from_params(1.17, 0.1, 22, alpha=0.2)
        assert strict.pattern == "random"
        assert loose.pattern == "aggregated"
        assert strict.p_value == loose.p_value

    @settings(max_examples=100, deadline=None)
    @given(
        b=st.floats(min_value=0.05, max_value=4.0),
        se=st.floats(min_value=1e-4, max_value=2.0),
        n=st.integers(3, 60),
    )
    def test_labels_follow_slope_and_significance(self, b, se, n):
        cl = classify_from_params(b, se, n)
        assert cl.p_value == pytest.approx(
            t_tail_probability((b - 1) / se, n - 2), rel=1e-12
        )
        if cl.p_value >= cl.alpha:
            assert cl.pattern == "random"
        elif b > 1:
            assert cl.pattern == "aggregated"
        else:
            assert cl.pattern == "regular"


class TestFitInvariants:
    def _kwargs(self, **overrides):
        base = dict(
            a=2.0,
            b=1.5,
            se_ln_a=0.1,
            se_b=0.1,
            r_squared=0.9,
            n_used=5,
            n_dropped=0,
            method="log_ols",
        )
        base.update(overrides)
        return base

    def test_valid_construction(self):
        PowerLawFit(**self._kwargs())

    @pytest.mark.parametrize(
        "bad",
        [
            dict(a=0.0),
            dict(a=-1.0),
            dict(r_squared=1.5),
            dict(r_squared=-0.1),
            dict(n_used=2),
            dict(se_b=-0.1),
            dict(se_ln_a=-0.1),
            dict(method="magic"),
        ],
    )
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises((ValueError, UsageError)):
            PowerLawFit(**self._kwargs(**bad))

    @pytest.mark.parametrize("bad", [dict(a=0.0), dict(n_used=2), dict(method="magic")])
    def test_replace_checks_like_the_constructor(self, bad):
        fit = PowerLawFit(**self._kwargs())
        with pytest.raises(ValueError):
            fit._replace(**bad)

    def test_a_fit_is_a_tuple_of_its_fields(self):
        fit = PowerLawFit(**self._kwargs())
        assert len(fit) == 11
        assert fit == tuple(fit._asdict().values())
        assert list(fit._asdict())[:3] == ["a", "b", "se_ln_a"]
