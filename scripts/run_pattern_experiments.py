#!/usr/bin/env python3
"""Sweep all three pattern generators and fit the mean-variance power law.

Runs the random, aggregated, and regular experiments side by side and
prints one row per sweep: the fitted exponent, its standard error, the
crossover density when defined, and the slope-test verdict. With the
default settings the three rows land in the three expected regimes
(b near 1, b between 1 and 2, b below 1).
"""

import argparse
import math

from taylorlaw import (
    EXPERIMENT_KINDS,
    classify,
    fit_log_ols,
    pacd,
    taylor_experiment,
)
from taylorlaw.cli import DEFAULT_LEVELS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--q", type=int, default=16, help="quadrat grid side")
    parser.add_argument("--alpha", type=float, default=0.05)
    args = parser.parse_args()

    header = f"{'sweep':<22} {'b':>7} {'se_b':>7} {'ln a':>7} {'m0':>10} {'verdict':>12} {'p':>9}"
    print(header)
    print("-" * len(header))
    for kind in EXPERIMENT_KINDS:
        series = taylor_experiment(
            kind, DEFAULT_LEVELS[kind], reps=args.reps, q=args.q, seed=args.seed
        )
        fit = fit_log_ols(series)
        crossover = pacd(fit)
        call = classify(fit, args.alpha)
        m0 = f"{crossover.m0:.4g}" if crossover.defined else "undefined"
        print(
            f"{kind:<22} {fit.b:7.3f} {fit.se_b:7.3f} {math.log(fit.a):7.3f} "
            f"{m0:>10} {call.pattern:>12} {call.p_value:9.3g}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
