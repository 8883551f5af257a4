"""Triplet recovery from stationary observations.

Stage one (shared): the ratio estimator Y_n for the Laplace exponent
(mellin module). Stage two, fitting pipeline: the Laplace exponent of a
drift-plus-compound-Poisson subordinator satisfies
phi(u0+iv) = mu*(u0+iv) + lambda - F[nu_bar](-v)*(1+o(1)), so for large v
the imaginary part is asymptotically linear in v with slope mu and the real
part asymptotically constant at lambda + mu*u0; on a high-frequency band
[eps*V_n, V_n], a least-squares fit through the origin recovers mu and the
band's mean recovers lambda, every band point counted equally. Stage three,
inversion pipeline: subtracting the fitted affine part isolates the Fourier
transform of the exponentially tilted jump density
nu_bar(x) = e^{-u0 x} nu(x), which a kernel-regularized inverse Fourier sum
turns back into a density estimate.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import DomainError, GridMismatch
from .kernels import flat_top
from .mellin import LaplaceCurve, laplace_curve, symmetric_grid
from .sampling import Sample, write_columns_csv, write_json

__all__ = [
    "EstimationConfig",
    "TripletEstimate",
    "LevyDensityEstimate",
    "fit_alphas",
    "inversion_alphas",
    "estimate_fourier_nu_bar",
    "invert_levy_density",
    "run_algorithm1",
    "run_algorithm2",
    "default_x_grid",
    "write_levy_density_csv",
    "write_triplet_json",
]


def whole_number(name: str, value) -> int:
    """``value`` as an int; an integral float reads as its int, and a bool or
    a number with a fractional part is a DomainError naming ``name``."""
    if isinstance(value, (bool, np.bool_)) or (
            isinstance(value, (float, np.floating)) and not float(value).is_integer()):
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class EstimationConfig:
    """All tuning inputs the estimators leave free.

    ``m_fit`` points span the one-sided fitting band [eps, 1] (scaled by
    ``vn``); ``m_inv + 1`` points span the symmetric inversion band [-1, 1].
    The fit counts every band point equally and the inversion's window is
    the flat-top kernel; no field names either, and ``FIXED`` records both
    under the keys they have always had in manifests. ``floor`` is the
    ill-conditioning threshold for the empirical Mellin denominator (None:
    10/sqrt(n) at run time).
    """

    u0: float = 1.0
    vn: float = 5.0
    eps: float = 0.1
    m_fit: int = 50
    m_inv: int = 200
    floor: float | None = None

    FIXED: ClassVar[dict] = {"weight": "flat", "kernel": "flat_top"}

    def __post_init__(self) -> None:
        for name in ("m_fit", "m_inv"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        positive = {"u0": self.u0, "vn": self.vn}
        if self.floor is not None:
            positive["floor"] = self.floor
        for name, value in positive.items():
            if not (0.0 < value < np.inf):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not (0.0 < self.eps < 1.0):
            raise DomainError(f"eps must be in (0,1), got {self.eps}")
        if self.m_fit < 2 or self.m_inv < 2:
            raise DomainError(
                f"grid counts must be >= 2, got m_fit={self.m_fit}, m_inv={self.m_inv}")

    def to_dict(self) -> dict:
        """The fields, and the fixed fit weight and inversion window."""
        return {**asdict(self), **self.FIXED}


@dataclass
class TripletEstimate:
    """Fitted drift and jump intensity with per-run diagnostics."""

    mu_hat: float
    lambda_hat: float
    ill_count: int
    n: int
    config: EstimationConfig

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mu_hat) and np.isfinite(self.lambda_hat)):
            raise DomainError("triplet estimates must be finite")


@dataclass
class LevyDensityEstimate:
    """Recovered jump density on an x-grid with diagnostics.

    ``nu_hat`` is the real part of the regularized inversion (the jump
    density estimate); ``nu_bar_hat`` its exponentially tilted version
    e^{-u0 x} nu_hat used by the integrated-error theory; ``imag_residual``
    the imaginary part of the inversion on the same scale as ``nu_hat``,
    recorded and never dropped: the inversion grid has exact mirror pairs
    and the pipeline's transform estimate is exactly conjugate-symmetric on
    it, so the mirrored sum cancels the imaginary parts term by term and the
    residual is exactly 0; a nonzero one flags a broken symmetry.
    :func:`run_algorithm2` also keeps the fitted
    ``triplet`` and the symmetric-band ``curve`` it inverted.
    """

    x: np.ndarray
    nu_hat: np.ndarray
    nu_bar_hat: np.ndarray
    imag_residual: np.ndarray
    config: EstimationConfig
    triplet: TripletEstimate | None = None
    curve: LaplaceCurve | None = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.nu_hat = np.asarray(self.nu_hat, dtype=float)
        self.nu_bar_hat = np.asarray(self.nu_bar_hat, dtype=float)
        self.imag_residual = np.asarray(self.imag_residual, dtype=float)
        if np.any(np.diff(self.x) <= 0.0):
            raise DomainError("x-grid must be strictly increasing")
        if not (self.x.shape == self.nu_hat.shape == self.nu_bar_hat.shape
                == self.imag_residual.shape):
            raise DomainError("LevyDensityEstimate arrays must have equal length")


def fit_alphas(config: EstimationConfig) -> np.ndarray:
    """One-sided fitting grid alpha_j = eps + j(1-eps)/M, j = 1..M."""
    j = np.arange(1, config.m_fit + 1, dtype=float)
    return config.eps + j * (1.0 - config.eps) / config.m_fit


def inversion_alphas(config: EstimationConfig) -> np.ndarray:
    """Symmetric inversion grid alpha_m = (2m - M)/M, m = 0..M, with exact
    mirror pairs alpha_{M-m} = -alpha_m."""
    return symmetric_grid(1.0, config.m_inv)


def _check_symmetric(curve: LaplaceCurve) -> None:
    if not np.allclose(curve.v + curve.v[::-1], 0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(curve.v))))):
        raise GridMismatch("Fourier estimation requires an exactly symmetric v-grid")


def estimate_fourier_nu_bar(curve: LaplaceCurve, mu_hat: float, lambda_hat: float):
    """Estimate of the Fourier transform of the tilted jump density,
    F[nu_bar](-v) = integral e^{ivx} e^{-u0 x} nu(x) dx, at every v of the
    curve's symmetric grid.

    Computed as -Y(u0 - iv) + mu_hat*(u0 - iv) + lambda_hat: subtracting the
    fitted affine part of the Laplace exponent leaves exactly this transform
    when the plug-ins are exact.
    """
    _check_symmetric(curve)
    y_mirror = curve.y[::-1]
    z_mirror = curve.u0 - 1j * curve.v
    return -y_mirror + mu_hat * z_mirror + lambda_hat


@functools.lru_cache(maxsize=1)
def _half_phases(x_bytes: bytes, v_bytes: bytes) -> np.ndarray:
    """[cos(v x) | sin(v x)] on the x-grid and the nonnegative half of the
    inversion grid, both passed as float64 bytes; read-only, since every call
    with the same grids shares it. Filled in place: a miss computes the new
    matrix while the old entry is still held."""
    vx = np.multiply.outer(np.frombuffer(x_bytes), np.frombuffer(v_bytes))
    phases = np.empty((vx.shape[0], 2 * vx.shape[1]))
    np.cos(vx, out=phases[:, :vx.shape[1]])
    np.sin(vx, out=phases[:, vx.shape[1]:])
    phases.flags.writeable = False
    return phases


def invert_levy_density(fhat, config: EstimationConfig, x_grid) -> LevyDensityEstimate:
    """Kernel-regularized inverse Fourier sum recovering the jump density.

    nu_n(x) = e^{u0 x} * (V / (pi M)) * sum_m e^{-i v_m x} fhat_m K(a_m)
    over the symmetric grid v_m = a_m V, a_m = (2m - M)/M, m = 0..M: each
    point carries the grid spacing 2V/M, and since K vanishes at a = +/-1
    this is the trapezoid rule for the windowed inverse transform
    e^{u0 x} (1/2pi) int e^{-ivx} fhat(v) K(v/V) dv. The real part is
    the density estimate; the imaginary part (tilted scale) is stored as a
    residual. ``fhat`` must hold the transform estimate at -v_m for each
    grid point, as produced by :func:`estimate_fourier_nu_bar`.

    The grid's mirrors are exact, v_{M-m} = -v_m, and e^{-ivx} is
    cos(vx) - i sin(vx) at v and its conjugate at -v. So with a the
    coefficients on the nonnegative half and b those of their mirrors (0 at
    v = 0), the sum is C (a + b) - i S (a - b), with C and S the cosines and
    sines of the nonnegative half only: two real einsums and half the
    multiply-adds of the complex product over the whole grid. A
    conjugate-symmetric fhat, as the pipeline's is, gives b = conj(a) and a
    real a at v = 0, so a + b is real, a - b imaginary and the imaginary part
    exactly 0. einsum, not a BLAS product, so the result does not depend on
    the BLAS build or its threads. The cosines and sines are memoized for the last (x-grid,
    half-grid) pair, keyed by their bytes, so the replicates of a rate study
    at one sample size, which share vn, m_inv and the x-grid, compute them
    once. Raises DomainError when the un-tilting e^{u0 x} or the sum
    overflows float64, which shows as a non-finite result.
    """
    fhat = np.asarray(fhat, dtype=complex)
    alphas = inversion_alphas(config)
    if fhat.shape != alphas.shape:
        raise GridMismatch(
            f"fhat has {fhat.size} points but config m_inv={config.m_inv} needs {alphas.size}")
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("need a nonempty 1-d x-grid")
    v = alphas * config.vn
    coeff = fhat * flat_top(alphas)
    half = (config.m_inv + 1) // 2
    cos_sin = _half_phases(x.tobytes(), v[half:].tobytes())
    a = coeff[half:]
    b = np.zeros_like(a)
    b[a.size - half:] = coeff[half - 1::-1]
    p, q = a + b, a - b
    # C p - i S q = (C p.real + S q.imag) + i (C p.imag - S q.real)
    total = (np.einsum("xm,m->x", cos_sin, np.concatenate([p.real, q.imag]))
             + 1j * np.einsum("xm,m->x", cos_sin, np.concatenate([p.imag, -q.real])))
    prefactor = config.vn / (np.pi * config.m_inv)
    with np.errstate(over="ignore", invalid="ignore"):
        nu_complex = np.exp(config.u0 * x) * (prefactor * total)
        nu_bar_hat = np.exp(-config.u0 * x) * nu_complex.real
    if not (np.all(np.isfinite(nu_complex)) and np.all(np.isfinite(nu_bar_hat))):
        raise DomainError(
            f"density inversion overflows float64 at u0={config.u0:g}, vn={config.vn:g} "
            f"(largest |x| = {np.max(np.abs(x)):.6g})")
    return LevyDensityEstimate(
        x=x,
        nu_hat=nu_complex.real,
        nu_bar_hat=nu_bar_hat,
        imag_residual=nu_complex.imag,
        config=config,
    )


def run_algorithm1(curve: LaplaceCurve, config: EstimationConfig) -> TripletEstimate:
    """The fit of (mu, lambda) on a ratio-estimator ``curve`` over the
    one-sided fitting band alpha_m V, m = 1..M, with n from the curve:

    mu_hat = sum_m a_m Im Y(u0 + i a_m V) / (V sum_m a_m^2), the
    least-squares slope through the origin of Im Y against v, and
    lambda_hat = sum_m Re Y(u0 + i a_m V) / M - mu_hat*u0, the band's mean
    of Re Y less the drift part. GridMismatch if the curve's grid or u0 is
    not the config's."""
    alphas = fit_alphas(config)
    if curve.v.size != alphas.size or not np.allclose(curve.v, alphas * config.vn,
                                                      rtol=1e-9, atol=1e-12):
        raise GridMismatch(
            f"curve grid does not match the fitting grid eps + j(1-eps)/M scaled by "
            f"vn={config.vn} (m_fit={config.m_fit}, eps={config.eps})")
    if not np.isclose(curve.u0, config.u0, rtol=1e-12):
        raise GridMismatch(f"curve u0={curve.u0} differs from config u0={config.u0}")
    mu_hat = float(np.sum(alphas * curve.y.imag) / (config.vn * np.sum(alphas**2)))
    lambda_hat = float(np.sum(curve.y.real) / config.m_fit - mu_hat * config.u0)
    return TripletEstimate(mu_hat=mu_hat, lambda_hat=lambda_hat,
                           ill_count=int(np.sum(curve.ill)), n=curve.n, config=config)


def _band(curve: LaplaceCurve, v: np.ndarray) -> LaplaceCurve:
    """The points of ``curve`` at the grid v, which its own grid contains."""
    i = np.searchsorted(curve.v, v)
    return LaplaceCurve(u0=curve.u0, v=curve.v[i], y=curve.y[i],
                        denom_abs=curve.denom_abs[i], ill=curve.ill[i], n=curve.n,
                        meta=dict(curve.meta))


def run_algorithm2(sample: Sample, config: EstimationConfig, x_grid) -> LevyDensityEstimate:
    """The estimation pipeline: one curve over the union of the one-sided
    fitting band and the symmetric band (one pass over the sample), the fit
    of (mu, lambda) on the first, the Fourier-transform estimate on the
    second, and its inversion. The result keeps the fitted triplet and the
    symmetric-band curve."""
    v_fit = fit_alphas(config) * config.vn
    v_inv = inversion_alphas(config) * config.vn
    # the union grid, sorted without repeats: np.union1d would load numpy.ma
    v = np.sort(np.concatenate([v_fit, v_inv]))
    v = v[np.concatenate([[True], v[1:] != v[:-1]])]
    both = laplace_curve(sample, config.u0, v, floor=config.floor)
    triplet = run_algorithm1(_band(both, v_fit), config)
    curve = _band(both, v_inv)
    fhat = estimate_fourier_nu_bar(curve, triplet.mu_hat, triplet.lambda_hat)
    estimate = invert_levy_density(fhat, config, x_grid)
    estimate.triplet = triplet
    estimate.curve = curve
    return estimate


def default_x_grid(x_min: float = 0.0, x_max: float = 3.0, x_points: int = 301) -> np.ndarray:
    for name, value in (("x_min", x_min), ("x_max", x_max)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not (x_max > x_min):
        raise DomainError(f"need x_max > x_min, got [{x_min}, {x_max}]")
    if x_points < 2:
        raise DomainError(f"need x_points >= 2, got {x_points}")
    return np.linspace(x_min, x_max, x_points)


def write_levy_density_csv(estimate: LevyDensityEstimate, path: str | Path) -> Path:
    """Write the density estimate as CSV: x, nu_hat, nu_bar_hat, imag_residual."""
    return write_columns_csv(path, {
        "x": estimate.x, "nu_hat": estimate.nu_hat, "nu_bar_hat": estimate.nu_bar_hat,
        "imag_residual": estimate.imag_residual,
    })


def write_triplet_json(triplet: TripletEstimate, path: str | Path) -> Path:
    payload = {
        "mu_hat": triplet.mu_hat,
        "lambda_hat": triplet.lambda_hat,
        "ill_count": triplet.ill_count,
        "n": triplet.n,
        "config": triplet.config.to_dict(),
    }
    return write_json(path, payload)
