"""Stationary sampling of the exponential functional A = integral_0^inf e^{-xi_t} dt.

For the drift-plus-exponential-jumps model the stationary law is closed form
(Gamma when the drift is zero, scaled Beta otherwise). For the compound
Poisson model with truncated-normal jump heights the functional is simulated
from its series representation A = sum_k q^{S_k} (T_{k+1} - T_k).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .errors import DomainError, TruncationError
from .models import CPExp, SubordinatorModel, TruncNormCP, model_to_config

__all__ = [
    "Sample",
    "SeriesTruncationPolicy",
    "make_generator",
    "sample_gamma_case",
    "sample_beta_case",
    "sample_series_cp",
    "sample_stationary",
    "write_columns_csv",
    "write_json",
    "write_sample_csv",
    "read_sample_csv",
]


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for reproducible, parallel-safe streams.

    Distinct ``(seed, stream)`` pairs give statistically independent streams;
    replicate r of a study should pass ``stream=r``.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(stream)))))


@dataclass
class Sample:
    """Stationary observations X_1..X_n, all strictly positive.

    ``delta`` is the observation spacing (bookkeeping only; the estimators
    use the values as exchangeable stationary draws).
    """

    values: np.ndarray
    delta: float = 1.0
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise DomainError("Sample.values must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("Sample.values contain non-finite entries (inf or nan)")
        if not np.all(self.values > 0.0):
            raise DomainError("Sample.values must be strictly positive")
        if not (self.delta > 0.0):
            raise DomainError(f"Sample.delta must be positive, got {self.delta}")

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SeriesTruncationPolicy:
    """Stopping rule for the series sampler.

    The series is cut once the conditional-mean tail bound
    q^{S_k} / (lam * (1 - q^alpha)) drops below ``eta`` times the partial sum;
    ``n_max`` caps the number of terms per draw.
    """

    eta: float = 1e-12
    n_max: int = 10**6

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < 1.0):
            raise DomainError(f"tail tolerance must be in (0,1), got {self.eta}")
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")


def sample_gamma_case(n: int, a: float, b: float, seed: int = 0, delta: float = 1.0,
                      stream: int = 0) -> Sample:
    """Stationary draws for the zero-drift model: A ~ Gamma(shape b+1, rate a)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"need a, b > 0, got a={a}, b={b}")
    rng = make_generator(seed, stream)
    values = rng.gamma(shape=b + 1.0, scale=1.0 / a, size=n)
    meta = {"model": {"model": "cp_exp", "mu": 0.0, "a": a, "b": b}, "law": "gamma"}
    return Sample(values=values, delta=delta, seed=seed, meta=meta)


def sample_beta_case(n: int, a: float, b: float, mu: float, seed: int = 0, delta: float = 1.0,
                     stream: int = 0) -> Sample:
    """Stationary draws for the positive-drift model: A ~ Beta(b+1, a/mu) / mu.

    All values lie in (0, 1/mu].
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not (a > 0.0 and b > 0.0 and mu > 0.0):
        raise DomainError(f"need a, b, mu > 0, got a={a}, b={b}, mu={mu}")
    rng = make_generator(seed, stream)
    raw = rng.beta(b + 1.0, a / mu, size=n)
    # guard the measure-zero event of a draw rounding to exactly 0
    raw = np.maximum(raw, np.finfo(float).tiny)
    values = raw / mu
    meta = {"model": {"model": "cp_exp", "mu": mu, "a": a, "b": b}, "law": "beta"}
    return Sample(values=values, delta=delta, seed=seed, meta=meta)


def sample_series_cp(n: int, model: TruncNormCP,
                     policy: SeriesTruncationPolicy | None = None,
                     seed: int = 0, delta: float = 1.0, stream: int = 0) -> Sample:
    """Stationary draws for the truncated-normal compound-Poisson model.

    Simulates A = sum_{k>=0} q^{S_k} (T_{k+1} - T_k) term by term, where the
    gaps are Exp(lam) and S_k accumulates truncated-normal heights. Each
    draw's k-th term is a deterministic function of (seed, stream, draw
    index, k): random variates are generated in full-length blocks per term
    index regardless of which draws are still running, so tightening the
    tail tolerance only appends terms and never changes earlier ones.

    Raises
    ------
    TruncationError
        If any draw is still above the tail tolerance after n_max terms.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not isinstance(model, TruncNormCP):
        raise DomainError("sample_series_cp needs a TruncNormCP model")
    if policy is None:
        policy = SeriesTruncationPolicy()
    rng = make_generator(seed, stream)

    lam, q, alpha = model.lam, model.q, model.alpha
    log_q = np.log(q)
    tail_const = 1.0 / (lam * (1.0 - q**alpha))
    cdf_alpha = special.ndtr(alpha)
    sf_alpha = 1.0 - cdf_alpha

    total = np.zeros(n)
    log_q_s = np.zeros(n)  # log of q^{S_k}; S_0 = 0
    active = np.ones(n, dtype=bool)
    for _ in range(policy.n_max):
        gaps = rng.exponential(scale=1.0 / lam, size=n)
        u = rng.random(n)
        np.add(total, np.exp(log_q_s) * gaps, out=total, where=active)
        # truncated-normal heights by inverse cdf on the tail of (alpha, inf)
        heights = np.empty(n)
        heights[active] = special.ndtri(cdf_alpha + u[active] * sf_alpha)
        np.add(log_q_s, log_q * heights, out=log_q_s, where=active)
        active &= np.exp(log_q_s) * tail_const >= policy.eta * total
        if not active.any():
            break
    else:
        raise TruncationError(
            f"series sampler: {int(active.sum())} of {n} draws still above the "
            f"tail tolerance {policy.eta:g} after {policy.n_max} terms"
        )
    meta = {"model": model_to_config(model), "law": "series",
            "eta": policy.eta, "n_max": policy.n_max}
    return Sample(values=total, delta=delta, seed=seed, meta=meta)


def sample_stationary(model: SubordinatorModel, n: int, seed: int = 0, delta: float = 1.0,
                      policy: SeriesTruncationPolicy | None = None, stream: int = 0) -> Sample:
    """Dispatching sampler: closed-form laws for CPExp, series for TruncNormCP."""
    if isinstance(model, CPExp):
        if model.mu == 0.0:
            return sample_gamma_case(n, model.a, model.b, seed=seed, delta=delta, stream=stream)
        return sample_beta_case(n, model.a, model.b, model.mu, seed=seed, delta=delta, stream=stream)
    if isinstance(model, TruncNormCP):
        return sample_series_cp(n, model, policy=policy, seed=seed, delta=delta, stream=stream)
    raise DomainError(f"not a subordinator model: {model!r}")


# ---------------------------------------------------------------------------
# Serialization: the shared columnar CSV and JSON writers, and the sample CSV
# plus its JSON metadata sibling.


def write_columns_csv(path: str | Path, columns: dict) -> Path:
    """Write equal-length 1-d columns as CSV, headed by the mapping's keys in
    order: floats as %.17g, ints and bools as %d, LF line endings."""
    path = Path(path)
    arrays = [np.asarray(c) for c in columns.values()]
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
        raise DomainError("CSV columns must be 1-d arrays of equal length")
    row = ",".join("%d" if a.dtype.kind in "biu" else "%.17g" for a in arrays) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % values for values in zip(*(a.tolist() for a in arrays)))
    return path


def write_json(path: str | Path, payload) -> Path:
    """Write payload as JSON: sorted keys, indent 2, a final LF."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_sample_csv(sample: Sample, csv_path: str | Path) -> tuple[Path, Path]:
    """Write observations to CSV (header ``x``, LF endings, 17 significant
    digits) and metadata (model, seed, n, delta) to a sibling JSON file."""
    csv_path = write_columns_csv(csv_path, {"x": sample.values})
    meta_path = csv_path.with_suffix(".json")
    meta = {
        "model": sample.meta.get("model"),
        "seed": sample.seed,
        "n": sample.n,
        "delta": sample.delta,
    }
    extra = {k: v for k, v in sample.meta.items() if k != "model"}
    if extra:
        meta["extra"] = extra
    return csv_path, write_json(meta_path, meta)


def read_sample_csv(csv_path: str | Path) -> Sample:
    """Read a sample written by :func:`write_sample_csv`.

    The JSON sibling is optional; without it the sample gets delta=1 and no
    seed. Raises DomainError on a malformed header or sidecar and on
    non-finite or nonpositive values.
    """
    csv_path = Path(csv_path)
    with open(csv_path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise DomainError(f"{csv_path}: empty sample file")
        header = next(csv.reader([line]))
        if header != ["x"]:
            raise DomainError(f"{csv_path}: expected header ['x'], got {header}")
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below as having no observations
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, dtype=float, delimiter=",", usecols=0, ndmin=1,
                                    comments=None, quotechar='"')
        except ValueError as exc:
            raise DomainError(f"{csv_path}: malformed row ({exc})") from exc
    if values.size == 0:
        raise DomainError(f"{csv_path}: no observations")
    delta, seed, meta = 1.0, None, {}
    meta_path = csv_path.with_suffix(".json")
    if meta_path.exists():
        try:
            with open(meta_path) as fh:
                info = json.load(fh)
            delta = float(info.get("delta", 1.0))
        except (ValueError, TypeError, AttributeError) as exc:
            raise DomainError(f"{meta_path}: malformed sample sidecar ({exc})") from exc
        seed = info.get("seed")
        if info.get("model") is not None:
            meta["model"] = info["model"]
    return Sample(values=values, delta=delta, seed=seed, meta=meta)
