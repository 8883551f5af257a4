#!/usr/bin/env python3
"""Measure how the fitting errors shrink with the sample size.

Runs the `rate-study` command with its defaults, which are the paper's
setting: on the drift + exponential-jumps model of Example 1 (mu = 1.8,
a = 0.7, b = 0.2), for each n in the half-decade ladder 1e3 ... 1e6 it draws
25 independent replicates, fits drift and jump intensity on the line
Re z = 1 with the bandwidth V_n = n^{1/(2 beta + 2 s + 3)} of the polynomial
Mellin-decay rule at beta = a/mu and smoothness s = 0.5 (each tilted density
jumps at its left edge), scores the density estimate's integrated squared
error (MISE) on a 151-point grid on [0, 3], and reports median errors with
fitted log-log slopes.

Writes into results/rate_study/:
  mise_report.json     ladder, median and quartile errors, slopes, failures, meta
  replicates.csv       n, replicate, vn, mu_hat, lambda_hat, ill_count and
                       mise of each replicate that did not fail
  manifest.json        arguments, seed, settings, outputs, status

Any extra command-line arguments are passed through to the CLI, e.g.
  scripts/run_rate_study.py --n-ladder 1000,10000 --reps 50
"""

import sys

from gouest.cli import main

if __name__ == "__main__":
    sys.exit(main(["rate-study", "--out", "results/rate_study", *sys.argv[1:]]))
