"""Bandwidth-selection rules and the Monte-Carlo convergence-rate harness.

The spectral cutoff V_n trades the bias of ignoring high frequencies
against the noise of the ratio estimator there; the optimal schedule
depends on how fast the stationary density's Mellin transform decays along
vertical lines (polynomially with exponent beta, or exponentially with
rate alpha).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DomainError, GouestError
from .estimators import (EstimationConfig, LevyDensityEstimate, default_x_grid, run_algorithm2,
                         whole_number)
from .models import SubordinatorModel, levy_density
from .sampling import MAX_N, make_generator, sample_stationary, write_json

__all__ = [
    "RateStudyConfig",
    "MiseReport",
    "choose_vn_polynomial",
    "choose_vn_exponential",
    "mise",
    "rate_study",
    "write_mise_report_json",
]

# Points of the x-grid a study scores MISE on when given none, over [0, 3].
STUDY_X_POINTS = 151


@dataclass(frozen=True)
class RateStudyConfig:
    """Inputs of a replicated convergence study across a ladder of sample sizes.

    ``decay_class`` selects the bandwidth rule; ``beta`` (polynomial Mellin
    decay) or ``alpha`` (exponential decay) feeds it; ``smoothness`` is the
    kernel-order parameter s, a float (a tilted density with a jump has
    s near 1/2).
    """

    n_ladder: tuple
    replicates: int = 25
    smoothness: float = 0.0
    beta: float | None = None
    alpha: float | None = None
    decay_class: str = "polynomial"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_ladder",
                           tuple(whole_number("n_ladder", n) for n in self.n_ladder))
        object.__setattr__(self, "replicates", whole_number("replicates", self.replicates))
        object.__setattr__(self, "smoothness", float(self.smoothness))
        if len(self.n_ladder) < 2:
            raise DomainError("n-ladder needs at least two sample sizes")
        if any(b <= a for a, b in zip(self.n_ladder, self.n_ladder[1:])):
            raise DomainError(f"n-ladder must be strictly increasing, got {self.n_ladder}")
        if self.n_ladder[-1] > MAX_N:
            raise DomainError(f"n-ladder entry {self.n_ladder[-1]} exceeds MAX_N = {MAX_N}")
        if self.replicates < 2:
            raise DomainError(f"need at least 2 replicates, got {self.replicates}")
        if not (0.0 <= self.smoothness < np.inf):
            raise DomainError(f"smoothness must be finite and >= 0, got {self.smoothness}")
        for name, value in (("beta", self.beta), ("alpha", self.alpha)):
            if value is not None and not np.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.decay_class not in ("polynomial", "exponential"):
            raise DomainError(f"unknown decay class {self.decay_class!r}")
        if self.decay_class == "polynomial" and self.beta is None:
            raise DomainError("polynomial decay class requires beta")
        if self.decay_class == "exponential" and self.alpha is None:
            raise DomainError("exponential decay class requires alpha")

    def bandwidth(self, n: int) -> float:
        if self.decay_class == "polynomial":
            return choose_vn_polynomial(n, self.beta, self.smoothness)
        return choose_vn_exponential(n, self.alpha, self.smoothness)


@dataclass
class MiseReport:
    """Per-n medians/quartiles of squared errors plus fitted log-log slopes.

    ``rows`` holds one (n, replicate, vn, mu_hat, lambda_hat, ill_count)
    tuple per successful replicate, in ladder order.
    """

    n: list
    median_sq_err_mu: list
    median_sq_err_lambda: list
    median_mise: list
    slope_mu: float
    slope_mise: float
    quartiles: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)


def choose_vn_polynomial(n: int, beta: float, s: float) -> float:
    """Bandwidth for polynomially decaying Mellin transforms:
    V_n = n^{1/(2 beta + 2 s + 3)}."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    denom = 2.0 * beta + 2.0 * s + 3.0
    if denom <= 0.0:
        raise DomainError(f"rate exponent denominator must be positive, got {denom}")
    return float(n) ** (1.0 / denom)


def choose_vn_exponential(n: int, alpha: float, s: float) -> float:
    """Bandwidth for exponentially decaying Mellin transforms:
    V_n = log(n)/(2 alpha) - ((s+2)/alpha) log log (n); rejects values <= 0
    (n too small for the given decay rate)."""
    if n < 3:
        raise DomainError(f"need n >= 3 for the iterated logarithm, got {n}")
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    value = np.log(n) / (2.0 * alpha) - (s + 2.0) / alpha * np.log(np.log(n))
    if not (value > 0.0):
        raise DomainError(
            f"exponential bandwidth rule gives {value:.4g} <= 0 at n={n}, alpha={alpha}, s={s}")
    return float(value)


def mise(estimate: LevyDensityEstimate, model: SubordinatorModel) -> float:
    """Integrated squared error of the tilted density estimate against the
    model's: trapezoid of |nu_bar_hat - e^{-u0 x} nu(x)|^2 over the
    estimate's own x-grid, with u0 from the estimate's config."""
    x = estimate.x
    err = estimate.nu_bar_hat - np.exp(-estimate.config.u0 * x) * levy_density(model, x)
    return float(np.trapezoid(err**2, x))


def _log_log_slope(n_values, medians) -> float:
    """Least-squares slope of log(median) on log(n), in closed form on
    centred logs; NaN unless every median is finite and positive."""
    medians = np.asarray(medians, dtype=float)
    if np.any(~np.isfinite(medians)) or np.any(medians <= 0.0):
        return float("nan")
    t, y = np.log(np.asarray(n_values, dtype=float)), np.log(medians)
    t -= t.mean()
    return float(np.sum(t * (y - y.mean())) / np.sum(t * t))


def rate_study(study: RateStudyConfig, model: SubordinatorModel,
               config_template: EstimationConfig, seed: int = 0,
               x_grid=None) -> MiseReport:
    """Replicated error study across the n-ladder with the matching bandwidth
    rule applied at every n.

    Per replicate: draw a fresh stationary sample (independent stream), run
    the density pipeline on ``x_grid`` (default: ``STUDY_X_POINTS`` points on
    [0, 3]), which fits (mu, lambda) on the way, and integrate its squared
    error over the grid. Replicate failures (a GouestError) are recorded,
    not fatal; any other error, a MemoryError included, ends the study.
    """
    # a negative seed is an input error, not a failure of every replicate
    make_generator(seed)
    x_grid = (default_x_grid(x_points=STUDY_X_POINTS) if x_grid is None
              else np.asarray(x_grid, dtype=float))
    meta = {"seed": seed, "decay_class": study.decay_class, "replicates": study.replicates,
            "x_range": [float(x_grid[0]), float(x_grid[-1])], "x_points": int(x_grid.size)}

    # per n, one list of per-replicate errors under each report name
    quartiles = {"sq_err_mu": [], "sq_err_lambda": [], "mise": []}
    medians = {name: [] for name in quartiles}
    failures, rows = [], []
    for i_n, n in enumerate(study.n_ladder):
        config = replace(config_template, vn=study.bandwidth(n))
        errors = {name: [] for name in quartiles}
        for r in range(study.replicates):
            stream = i_n * study.replicates + r
            try:
                sample = sample_stationary(model, n, seed=seed, stream=stream)
                # the estimators read only the multiset of values: sorted in
                # place, the draw needs no sorted copy in laplace_curve
                sample.values.sort()
                estimate = run_algorithm2(sample, config, x_grid)
                score = mise(estimate, model)
            except GouestError as exc:
                failures.append({"n": n, "replicate": r,
                                 "error": type(exc).__name__, "message": str(exc)})
                continue
            finally:
                # one draw alive at a time: this one goes before the next is made
                sample = None
            triplet = estimate.triplet
            errors["sq_err_mu"].append((triplet.mu_hat - model.drift) ** 2)
            errors["sq_err_lambda"].append((triplet.lambda_hat - model.jump_mass) ** 2)
            errors["mise"].append(score)
            rows.append((n, r, config.vn, triplet.mu_hat, triplet.lambda_hat,
                         triplet.ill_count))
        if not errors["sq_err_mu"]:
            raise DomainError(f"all {study.replicates} replicates failed at n={n}, the last "
                              f"with {failures[-1]['error']}: {failures[-1]['message']}")
        for name, values in errors.items():
            medians[name].append(float(np.median(values)))
            quartiles[name].append([float(q) for q in np.percentile(values, [25, 75])])

    return MiseReport(
        n=list(study.n_ladder),
        median_sq_err_mu=medians["sq_err_mu"],
        median_sq_err_lambda=medians["sq_err_lambda"],
        median_mise=medians["mise"],
        slope_mu=_log_log_slope(study.n_ladder, medians["sq_err_mu"]),
        slope_mise=_log_log_slope(study.n_ladder, medians["mise"]),
        quartiles=quartiles,
        failures=failures,
        meta=meta,
        rows=rows,
    )


def _json_safe(value: float):
    return None if not np.isfinite(value) else value


def write_mise_report_json(report: MiseReport, path: str | Path) -> Path:
    """Serialize the report's fields but ``rows``: the per-n medians and
    slopes (a NaN slope as null), the interquartile ranges behind them
    (``quartiles``), the failed replicates (``failures``) and the study's
    settings (``meta``)."""
    payload = asdict(report)
    del payload["rows"]
    payload.update(slope_mu=_json_safe(report.slope_mu), slope_mise=_json_safe(report.slope_mise))
    return write_json(path, payload)
