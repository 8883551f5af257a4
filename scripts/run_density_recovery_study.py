#!/usr/bin/env python3
"""Reproduce the curve and jump-density recovery of the truncated-normal model (fig3, fig4).

Draws n stationary observations of Example 2 (compound Poisson with
truncated-normal jumps, lambda = 1, q = 0.5, alpha = 0.1) with
`gouest simulate`, then runs `gouest estimate` on them twice along the line
Re z = 1:
  fig3: V_n = 5 and 500 grid intervals, so that `laplace_curve.csv` holds the
        estimated curve and the true Laplace exponent at 501 points on
        v in [-5, 5];
  fig4: V_n = 6 and fitting band [0.5 V_n, V_n], the calibrated values, so
        that `levy_density.csv` holds the reconstruction, its imaginary
        residual and the true density nu_true on [0, 3].
Each estimate scores itself against the sample's model: mu_err, lambda_err
and mise in its manifest.

Writes, under --root (default results/):
  density_recovery_sample/  sample.csv, sample.json, manifest.json (simulate)
  density_recovery_curve/   laplace_curve.csv (fig3), levy_density.csv, triplet.json,
                            manifest.json (estimate at V_n = 5)
  density_recovery_study/   levy_density.csv (fig4), laplace_curve.csv, triplet.json,
                            manifest.json (estimate at V_n = 6)

  scripts/run_density_recovery_study.py [-n 10000] [--seed 1] [--root results]

The default seed 1 is one no committed rate study draws with.
"""

import argparse
import sys

from gouest.cli import main as gouest


def commands(n: int, seed: int, root: str) -> list:
    sample = f"{root}/density_recovery_sample"
    return [
        ["simulate", "--model", "trunc_norm_cp", "--lam", "1", "--q", "0.5", "--alpha", "0.1",
         "-n", str(n), "--seed", str(seed), "--out", sample],
        ["estimate", f"{sample}/sample.csv", "--u0", "1", "--vn", "5", "--grid-m", "500",
         "--out", f"{root}/density_recovery_curve"],
        ["estimate", f"{sample}/sample.csv", "--u0", "1", "--vn", "6", "--eps", "0.5",
         "--out", f"{root}/density_recovery_study"],
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=10**4, help="sample size (default 10^4)")
    parser.add_argument("--seed", type=int, default=1, help="simulation seed (default 1)")
    parser.add_argument("--root", default="results", help="output root (default results)")
    args = parser.parse_args(argv)
    for command in commands(args.n, args.seed, args.root):
        code = gouest(command)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
