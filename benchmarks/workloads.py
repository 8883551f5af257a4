"""The benchmark's workloads: the CLI command each runs, the inputs it
generates from the seed, the work it counts and the checks its outputs must
pass.

Each workload records why it was chosen and which per-layer metric should
move which end-to-end metric on it (``moves``), and which must stay flat
(``flat``), so a later change can be judged against a prediction written
before it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

# Example 1 of the paper: drift 1.8, exponential jumps of intensity 0.7 and
# rate 0.2. Its stationary law is Beta(b+1, a/mu)/mu in closed form.
EX1_MU, EX1_A, EX1_B = 1.8, 0.7, 0.2
# Example 2 at the CLI's defaults: intensity 1, q = 0.5, truncation 0.1.
EX2_LAM, EX2_Q, EX2_ALPHA = 1.0, 0.5, 0.1

# Tolerances of the estimate-large check. At n = 5e5 over eight seeds the
# errors were 0.5e-4..1.5e-4 for mu (sd 3e-5) and -0.004..-0.008 for lambda
# (sd 0.0014); the bounds leave room for noise and catch a broken fit.
MU_TOL, LAMBDA_TOL = 1e-3, 0.02
# Standard errors the simulated sample mean may stray from the truth.
MEAN_SE_TOL = 5.0

TIMESTAMP_KEYS = ("started_at", "finished_at")
# Inputs and outputs live here, relative to the checkout root, so the paths
# a manifest records (and so its hash) are the same in every checkout.
WORK = Path(".bench_work")


def _finite_csv(path: Path) -> bool:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table.size > 0 and bool(np.all(np.isfinite(table)))


def output_digests(out: Path) -> dict:
    """sha256 of every output file; the manifest is hashed without its
    timestamps, which differ on every run by design."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for key in TIMESTAMP_KEYS:
                manifest.pop(key, None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def write_sample(path: Path, values: np.ndarray) -> None:
    """Sample CSV in the layout gouest reads: header ``x``, %.17g, LF."""
    np.savetxt(path, values, fmt="%.17g", header="x", comments="")


def truncnorm_mean_a() -> float:
    """E[A] = 1/phi(1) for Example 2, from the closed form
    phi(1) = lam * (1 - e^{c^2/2} (1 - F(alpha + c)) / (1 - F(alpha))),
    c = -log q, with F the standard normal distribution function."""
    c = -math.log(EX2_Q)
    tail = special.ndtr(-EX2_ALPHA)
    phi1 = EX2_LAM * (1.0 - math.exp(0.5 * c * c) * special.ndtr(-(EX2_ALPHA + c)) / tail)
    return 1.0 / phi1


class Workload:
    name = ""
    why = ""
    items = 0
    item_unit = ""
    moves: dict = {}
    flat: tuple = ()

    def prepare(self, work: Path, seed: int) -> None:
        """Generate the inputs the command reads; part of set-up."""

    def argv(self, work: Path, seed: int, out: Path) -> list:
        raise NotImplementedError

    def warm_argv(self, work: Path, seed: int, out: Path) -> list:
        raise NotImplementedError

    def replicates(self, out: Path) -> tuple:
        """(attempted, failed) replicates recorded by the command, if any."""
        return 0, 0

    def checks(self, out: Path) -> dict:
        """Correctness checks on the outputs: name -> (passed, observed)."""
        raise NotImplementedError


class SimulateSeries(Workload):
    name = "simulate-series"
    why = ("Series sampler plus sample-CSV write, no Mellin work: sampling.draw_s and "
           "csv_write_s move run_s here while mellin.* stays at 0.")
    items = 500_000
    item_unit = "draws"
    moves = {"run_s": ("sampling.draw_s", "sampling.draws", "sampling.csv_write_s",
                       "sampling.csv_bytes", "cli.output_write_s", "cli.self_s")}
    flat = ("mellin.curve_s", "mellin.curve_calls", "mellin.grid_points",
            "mellin.phase_rows", "mellin.phase_evals", "mellin.bytes_computed")

    def argv(self, work, seed, out):
        return ["simulate", "--model", "trunc_norm_cp", "-n", str(self.items),
                "--seed", str(seed), "--out", str(out)]

    def warm_argv(self, work, seed, out):
        return ["simulate", "--model", "trunc_norm_cp", "-n", "1000",
                "--seed", str(seed), "--out", str(out)]

    def checks(self, out):
        path = out / "sample.csv"
        with open(path) as fh:
            header = fh.readline().strip()
        x = np.loadtxt(path, skiprows=1)
        mean, se = float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))
        truth = truncnorm_mean_a()
        return {
            "sample_layout": (header == "x" and x.size == self.items, int(x.size)),
            "sample_positive_finite": (bool(np.all(np.isfinite(x)) and np.all(x > 0.0)), None),
            "sample_mean": (abs(mean - truth) <= MEAN_SE_TOL * se,
                            {"mean": mean, "truth": truth, "se": se}),
        }


class EstimateLarge(Workload):
    name = "estimate-large"
    why = ("One large Example 1 sample where laplace_curve dominates: mellin.* and "
           "sampling.csv_read_s move run_s and peak_rss_mb here; sampling.draw_s must not.")
    items = 500_000
    item_unit = "observations"
    moves = {"run_s": ("sampling.csv_read_s", "mellin.curve_s", "mellin.curve_calls",
                       "mellin.grid_points", "mellin.phase_rows", "mellin.phase_evals",
                       "mellin.bytes_computed", "estimators.invert_s",
                       "estimators.invert_evals", "cli.output_write_s", "cli.self_s"),
             "peak_rss_mb": ("mellin.phase_rows", "mellin.phase_evals",
                             "mellin.bytes_computed")}
    flat = ("sampling.draw_s", "sampling.draws")

    @staticmethod
    def _draws(n: int, seed: int) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(seed))
        raw = np.maximum(rng.beta(EX1_B + 1.0, EX1_A / EX1_MU, size=n), np.finfo(float).tiny)
        return raw / EX1_MU

    def prepare(self, work, seed):
        write_sample(work / "sample.csv", self._draws(self.items, seed))
        write_sample(work / "warm.csv", self._draws(2000, seed))

    def argv(self, work, seed, out):
        return ["estimate", str(work / "sample.csv"), "--u0", "29", "--vn", "30",
                "--out", str(out)]

    def warm_argv(self, work, seed, out):
        return ["estimate", str(work / "warm.csv"), "--u0", "29", "--vn", "30",
                "--out", str(out)]

    def checks(self, out):
        triplet = json.loads((out / "triplet.json").read_text())
        mu, lam = triplet["mu_hat"], triplet["lambda_hat"]
        return {
            "mu_hat": (abs(mu - EX1_MU) <= MU_TOL, mu),
            "lambda_hat": (abs(lam - EX1_A) <= LAMBDA_TOL, lam),
            "laplace_curve_finite": (_finite_csv(out / "laplace_curve.csv"), None),
            "levy_density_finite": (_finite_csv(out / "levy_density.csv"), None),
        }


class RateStudy(Workload):
    name = "rate-study"
    why = ("Many small and mid-size fits on the 1e3/1e4/1e5 ladder: mellin.curve_s, "
           "estimators.fit_s, rates.* and models.truth_s move run_s, items_per_s and ok_frac.")
    ladder = (1000, 10_000, 100_000)
    reps = 3
    items = len(ladder) * reps
    item_unit = "replicates"
    moves = {"run_s": ("mellin.curve_s", "mellin.curve_calls", "mellin.grid_points",
                       "mellin.phase_rows", "mellin.phase_evals", "mellin.bytes_computed",
                       "estimators.fit_s", "estimators.fit_calls",
                       "estimators.fit_calls_per_replicate", "estimators.invert_s",
                       "estimators.invert_evals", "models.truth_s", "cli.output_write_s",
                       "cli.self_s"),
             "items_per_s": ("rates.replicate_ms.p50", "rates.replicate_ms.tail",
                             "rates.mise_s"),
             "ok_frac": ("rates.replicates_failed",)}
    flat = ()

    def argv(self, work, seed, out):
        return ["rate-study", "--model", "cp_exp", "--u0", "29",
                "--n-ladder", ",".join(map(str, self.ladder)), "--reps", str(self.reps),
                "--seed", str(seed), "--out", str(out)]

    def warm_argv(self, work, seed, out):
        return ["rate-study", "--model", "cp_exp", "--u0", "29", "--n-ladder", "200,400",
                "--reps", "2", "--seed", str(seed), "--out", str(out)]

    def replicates(self, out):
        manifest = json.loads((out / "manifest.json").read_text())
        return self.items, int((manifest.get("config") or {}).get("failures", self.items))

    def checks(self, out):
        report = json.loads((out / "mise_report.json").read_text())
        medians = [report[k] for k in ("median_sq_err_mu", "median_sq_err_lambda",
                                       "median_mise")]
        finite = all(len(m) == len(self.ladder)
                     and all(v is not None and math.isfinite(v) for v in m) for m in medians)
        return {"medians_finite": (finite, None)}


WORKLOADS = {w.name: w for w in (SimulateSeries(), EstimateLarge(), RateStudy())}
# BENCHMARK.json gates on estimate-large and rate-study only. On a shared
# two-CPU VM the quartile distance of simulate-series' run_s over ten seeds
# was 0.20-0.26 of its median, against 0.08-0.14 for the other two, because
# the series sampler's user time swings up to twofold with the host's load;
# no bound of at most 0.25 holds it. It stays runnable and traceable.
GATED = ("estimate-large", "rate-study")
