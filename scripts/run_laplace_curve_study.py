#!/usr/bin/env python3
"""Reproduce the Laplace-exponent curve of the drift + exponential-jumps model (fig1).

Draws n stationary observations of Example 1 (mu = 1.8, a = 0.7, b = 0.2)
with `gouest simulate`, then runs `gouest estimate` on them along the line
Re z = 29 with V_n = 30 and 600 grid intervals, so that `laplace_curve.csv`
holds the estimated curve and the true Laplace exponent (re_phi, im_phi) at
601 points on v in [-30, 30]. The estimate scores itself against the
sample's model: mu_err, lambda_err and mise in its manifest.

Writes, under --root (default results/):
  laplace_curve_sample/  sample.csv, sample.json, manifest.json (simulate)
  laplace_curve_study/   laplace_curve.csv (fig1), levy_density.csv, triplet.json,
                         manifest.json (estimate)

The per-replicate estimates across the half-decade ladder from 1e3 to 1e6
are scripts/run_rate_study.py's results/rate_study/replicates.csv.

  scripts/run_laplace_curve_study.py [-n 10000] [--seed 1] [--root results]

The default seed 1 is one no committed rate study draws with, so the figure
sample is independent of the replicates.
"""

import argparse
import sys

from gouest.cli import main as gouest


def commands(n: int, seed: int, root: str) -> list:
    sample = f"{root}/laplace_curve_sample"
    return [
        ["simulate", "--model", "cp_exp", "--mu", "1.8", "--a", "0.7", "--b", "0.2",
         "-n", str(n), "--seed", str(seed), "--out", sample],
        ["estimate", f"{sample}/sample.csv", "--u0", "29", "--vn", "30", "--grid-m", "600",
         "--out", f"{root}/laplace_curve_study"],
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
