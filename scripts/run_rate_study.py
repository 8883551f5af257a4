#!/usr/bin/env python3
"""Measure how the fitting errors shrink with the sample size.

Runs the `rate-study` pipeline on the drift + exponential-jumps model
(mu = 1.8, a = 0.7, b = 0.2): for each n in the ladder it draws 25
independent replicates, fits drift and jump intensity on the line
Re z = 29, and reports median squared errors with fitted log-log slopes
and the bandwidth schedule implied by the polynomial Mellin-decay rule.

Writes into results/rate_study/:
  mise_report.json     ladder, median squared errors, slopes, bandwidths
  manifest.json        arguments, seed, outputs, status

Any extra command-line arguments are passed through to the CLI, e.g.
  scripts/run_rate_study.py --n-ladder 1000,10000 --reps 50
"""

import sys

from gouest.cli import main

DEFAULTS = [
    "rate-study",
    "--model", "cp_exp",
    "--mu", "1.8",
    "--a", "0.7",
    "--b", "0.2",
    "--beta", str(0.7 / 1.8),
    "--u0", "29",
    "--out", "results/rate_study",
    "--seed", "0",
]

if __name__ == "__main__":
    sys.exit(main(DEFAULTS + sys.argv[1:]))
