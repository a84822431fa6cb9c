"""Acceptance gate: ten go/no-go checks over the whole toolkit.

Each test prints one ``criterion N: PASS/FAIL`` line with its headline
numbers before asserting, so a scan of the output gives the full
scorecard. Stated runtime ceilings are asserted with wall-clock timing.
"""

import functools
import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from conftest import EXACT_TABLE_CSV, child_env, exact_series, synthetic_longitudinal

from taylorlaw import (
    Scheme,
    classify,
    estimate_pcf,
    extract_pairs,
    fit_dispersion,
    fit_log_ols,
    fit_nls,
    fit_pcf,
    pacd,
    pacd_from_params,
    parse_longitudinal,
    simulate_poisson,
    t_tail_probability,
    taylor_experiment,
    PcfEstimate,
)

SEED = 0


def announce(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


@functools.lru_cache(maxsize=None)
def sweep(kind: str):
    levels = {
        "poisson_sweep": (25, 50, 100, 200, 400, 800),
        "thomas_cluster_sweep": (2, 4, 8, 16, 32),
        "hardcore_sweep": (100, 200, 400, 800),
    }[kind]
    series = taylor_experiment(kind, list(levels), reps=10, q=16, seed=SEED)
    return series, fit_log_ols(series)


def test_criterion_01_exact_recovery():
    start = time.monotonic()
    series = exact_series()
    ols = fit_log_ols(series)
    nls = fit_nls(series)
    elapsed = time.monotonic() - start
    ols_err = max(abs(ols.a - 2.0) / 2.0, abs(ols.b - 1.5) / 1.5)
    nls_err = max(abs(nls.a - 2.0) / 2.0, abs(nls.b - 1.5) / 1.5)
    ok = ols_err <= 1e-9 and nls_err <= 1e-6 and elapsed < 1.0
    announce(1, ok, f"ols rel err {ols_err:.2e}, nls rel err {nls_err:.2e}, {elapsed:.2f}s")
    assert ols_err <= 1e-9
    assert nls_err <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_random_calibration():
    start = time.monotonic()
    series, fit = sweep("poisson_sweep")
    call = classify(fit, 0.05)
    elapsed = time.monotonic() - start
    ln_a = math.log(fit.a)
    ok = (
        0.9 <= fit.b <= 1.1
        and abs(ln_a) <= 0.15
        and call.pattern == "random"
        and elapsed < 10.0
    )
    announce(
        2,
        ok,
        f"b={fit.b:.4f}, ln a={ln_a:.4f}, {call.pattern} p={call.p_value:.3g}, "
        f"{elapsed:.2f}s",
    )
    assert 0.9 <= fit.b <= 1.1
    assert abs(ln_a) <= 0.15
    assert call.pattern == "random"
    assert elapsed < 10.0


def test_criterion_03_aggregated_range():
    start = time.monotonic()
    series, fit = sweep("thomas_cluster_sweep")
    call = classify(fit, 0.01)
    elapsed = time.monotonic() - start
    ok = 1.0 < fit.b <= 2.2 and call.pattern == "aggregated" and elapsed < 30.0
    announce(
        3,
        ok,
        f"b={fit.b:.4f}, {call.pattern} p={call.p_value:.3g}, {elapsed:.2f}s",
    )
    assert fit.b > 1.0
    assert fit.b <= 2.2
    assert call.pattern == "aggregated"
    assert elapsed < 30.0


def test_criterion_04_regular_signature():
    start = time.monotonic()
    series, _ = sweep("hardcore_sweep")
    elapsed = time.monotonic() - start
    vmrs = [p.variance / p.mean for p in series.pairs]
    ok = all(v < 1.0 for v in vmrs) and elapsed < 10.0
    announce(
        4,
        ok,
        "vmr " + ", ".join(f"{v:.3f}" for v in vmrs) + f", {elapsed:.2f}s",
    )
    assert all(v < 1.0 for v in vmrs)
    assert elapsed < 10.0


def test_criterion_05_crossover_consistency():
    fits = [
        fit_log_ols(exact_series()),
        fit_nls(exact_series()),
        sweep("poisson_sweep")[1],
        sweep("thomas_cluster_sweep")[1],
        sweep("hardcore_sweep")[1],
    ]
    worst = 0.0
    checked = 0
    for fit in fits:
        if abs(fit.b - 1.0) <= 1e-9:
            continue
        crossover = pacd(fit)
        assert crossover.defined
        checked += 1
        worst = max(worst, abs(fit.a * crossover.m0 ** (fit.b - 1.0) - 1.0))
    quarter = pacd_from_params(2.0, 1.5)
    ok = worst <= 1e-9 and checked >= 4 and quarter.m0 == 0.25
    announce(
        5,
        ok,
        f"{checked} fits, worst unit-ratio error {worst:.2e}, "
        f"pacd(2,1.5)={quarter.m0!r}",
    )
    assert worst <= 1e-9
    assert checked >= 4
    assert quarter.m0 == 0.25


def test_criterion_06_five_scheme_coverage():
    start = time.monotonic()
    table = parse_longitudinal(synthetic_longitudinal())
    subject = table.subject_ids[0]
    expected = {
        Scheme("subjects_across_species"): 120,
        Scheme("species_across_subjects"): 20,
        Scheme("mean_converted_subjects"): 10,
        Scheme("per_subject_time", subject): 12,
        Scheme("per_subject_species", subject): 20,
    }
    sizes = []
    for scheme, size in expected.items():
        series = extract_pairs(table, scheme)
        sizes.append(len(series))
        assert len(series) == size, scheme.tag
        fit = fit_log_ols(series)
        assert fit.n_used >= 3
    elapsed = time.monotonic() - start
    ok = sizes == [120, 20, 10, 12, 20] and elapsed < 5.0
    announce(6, ok, f"sizes {sizes}, all five fits completed, {elapsed:.2f}s")
    assert sizes == [120, 20, 10, 12, 20]
    assert elapsed < 5.0


def test_criterion_07_pcf_calibration():
    start = time.monotonic()
    g_sum = None
    for seed in range(20):
        pattern = simulate_poisson(2000.0, seed)
        est = estimate_pcf(pattern, bin_width=0.02, r_max=0.25)
        g_sum = est.g if g_sum is None else g_sum + est.g
    g_bar = g_sum / 20.0
    window = (est.radii >= 0.05) & (est.radii <= 0.25)
    max_dev = float(np.max(np.abs(g_bar[window] - 1.0)))

    radii_paper = np.arange(0.025, 0.0951, 0.01)
    paper_est = PcfEstimate(
        radii_paper, (0.1 / radii_paper) ** 1.8 - 1.0, 0.01, 2000
    )
    radii_xi = np.arange(0.025, 0.2451, 0.01)
    xi_est = PcfEstimate(radii_xi, 1.0 + (0.1 / radii_xi) ** 1.8, 0.01, 2000)
    paper_fit = fit_pcf(paper_est, "paper_form")
    xi_fit = fit_pcf(xi_est, "xi_form")
    recovery_err = max(
        abs(paper_fit.s - 1.8),
        abs(paper_fit.r0 - 0.1),
        abs(xi_fit.s - 1.8),
        abs(xi_fit.r0 - 0.1),
    )
    elapsed = time.monotonic() - start
    ok = max_dev <= 0.1 and recovery_err <= 0.01 and elapsed < 30.0
    announce(
        7,
        ok,
        f"csr max |g-1| {max_dev:.4f}, recovery err {recovery_err:.2e}, "
        f"{elapsed:.2f}s",
    )
    assert max_dev <= 0.1
    assert recovery_err <= 0.01
    assert elapsed < 30.0


def test_criterion_08_dispersion_recovery():
    start = time.monotonic()
    xs = np.linspace(0.5, 5.0, 20)
    exp_ns = np.exp(1.2 - 0.7 * xs)
    exp_fit = fit_dispersion(list(xs), list(exp_ns))
    exp_err = max(
        abs(exp_fit.a - 1.2),
        abs(exp_fit.b + 0.7),
        abs(exp_fit.c - 1.0),
        abs(exp_fit.d),
    )

    gx = np.geomspace(0.5, 5.0, 20)
    pow_ns = 3.0 * gx**-1.4
    pow_fit = fit_dispersion(list(gx), list(pow_ns))
    pow_err = max(abs(pow_fit.a - math.log(3.0)), abs(pow_fit.b), abs(pow_fit.d + 1.4))
    elapsed = time.monotonic() - start
    ok = (
        exp_fit.rss_log <= 1e-12
        and pow_fit.rss_log <= 1e-12
        and exp_err <= 1e-4
        and pow_err <= 1e-4
        and pow_fit.profile_flat
        and elapsed < 5.0
    )
    announce(
        8,
        ok,
        f"exponential err {exp_err:.2e} rss {exp_fit.rss_log:.2e}; "
        f"power err {pow_err:.2e} rss {pow_fit.rss_log:.2e} "
        f"flat={pow_fit.profile_flat}, {elapsed:.2f}s",
    )
    assert exp_fit.rss_log <= 1e-12
    assert pow_fit.rss_log <= 1e-12
    assert exp_err <= 1e-4
    assert pow_err <= 1e-4
    assert pow_fit.profile_flat
    assert elapsed < 5.0


def test_criterion_09_cli_determinism(tmp_path):
    exact = tmp_path / "exact.csv"
    exact.write_text(EXACT_TABLE_CSV)
    commands = [
        [
            "experiment",
            "--kind",
            "poisson_sweep",
            "--levels",
            "25,50,100",
            "--reps",
            "2",
            "--q",
            "8",
            "--seed",
            "7",
        ],
        [
            "fit-taylor",
            "--input",
            str(exact),
            "--scheme",
            "subjects_across_species",
        ],
    ]
    env = child_env()
    identical = []
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "taylorlaw", *argv],
                capture_output=True,
                check=True,
                env=env,
            )
            for _ in range(2)
        ]
        identical.append(runs[0].stdout == runs[1].stdout and len(runs[0].stdout) > 0)
    ok = all(identical)
    announce(9, ok, f"experiment identical={identical[0]}, fit-taylor identical={identical[1]}")
    assert all(identical)


def test_criterion_10_tail_probability_oracle():
    def oracle(t, dof):
        t_abs = mp.mpf(abs(float(t)))
        nu = mp.mpf(dof)
        norm = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
        tail = mp.quad(
            lambda x: norm * (1 + x * x / nu) ** (-(nu + 1) / 2), [t_abs, mp.inf]
        )
        return float(2 * tail)

    worst = 0.0
    points = 0
    for dof in (1, 2, 5, 20, 100):
        for t in (0.3, 1.0, 2.5, 6.0):
            expected = oracle(t, dof)
            got = t_tail_probability(t, dof)
            worst = max(worst, abs(got - expected) / expected)
            points += 1
    ok = points == 20 and worst <= 1e-6
    announce(10, ok, f"{points} spot points, worst rel err {worst:.2e}")
    assert points == 20
    assert worst <= 1e-6
