"""Empirical and theoretical Mellin transforms and the ratio estimator for
the Laplace exponent.

The stationary observations satisfy a one-step moment recursion linking the
Mellin transform M(z) = E[X^{z-1}] to the driving Laplace exponent:
phi(z) = z * M(z) / M(z+1). Replacing M by the empirical moment
M_n(z) = (1/n) sum X_k^{z-1} gives the estimator Y_n(z), the shared first
stage of both estimation pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, PoleError
from .models import complex_log_gamma
from .sampling import Sample, write_columns_csv

__all__ = [
    "LaplaceCurve",
    "default_floor",
    "laplace_curve",
    "laplace_curve_from_mellin",
    "mellin_theoretical_beta",
    "mellin_theoretical_gamma",
    "write_laplace_curve_csv",
]


@dataclass
class LaplaceCurve:
    """Ratio-estimator values Y_n(u0 + i v) on an ordered v-grid."""

    u0: float
    v: np.ndarray
    y: np.ndarray
    denom_abs: np.ndarray
    ill: np.ndarray
    n: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.v = np.asarray(self.v, dtype=float)
        self.y = np.asarray(self.y, dtype=complex)
        self.denom_abs = np.asarray(self.denom_abs, dtype=float)
        self.ill = np.asarray(self.ill, dtype=bool)
        if not (self.u0 > 0.0):
            raise DomainError(f"u0 must be positive, got {self.u0}")
        if np.any(np.diff(self.v) < 0.0):
            raise DomainError("v-grid must be ordered")
        if not (self.v.shape == self.y.shape == self.denom_abs.shape == self.ill.shape):
            raise DomainError("LaplaceCurve arrays must have equal length")
        if not np.all(self.denom_abs > 0.0):
            raise DomainError("conditioning diagnostics must be positive")


def default_floor(n: int) -> float:
    """Conditioning floor 10/sqrt(n): below the sampling-noise scale of the
    empirical moment the ratio estimator carries no signal."""
    return 10.0 / np.sqrt(n)


def _values_of(sample) -> np.ndarray:
    """Observations of a Sample, or of a raw array validated as one."""
    return (sample if isinstance(sample, Sample) else Sample(values=sample)).values


_CHUNK_ELEMENTS = 4_000_000


def laplace_curve(sample, u0: float, v_grid, floor: float | None = None) -> LaplaceCurve:
    """Ratio-estimator curve Y_n(u0+iv) over an ordered v-grid.

    Both moment grids (at u0+iv and u0+1+iv) are computed in one pass over
    the sample, sharing the real factors exp((u0-1) log x) and x across all
    grid points; negative v come from the positive half by conjugation.
    """
    values = _values_of(sample)
    if not (u0 > 0.0):
        raise DomainError(f"u0 must be positive, got {u0}")
    if floor is None:
        floor = default_floor(values.size)
    v = np.asarray(v_grid, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("need a nonempty 1-d v-grid")

    log_x = np.log(values)
    r1 = np.exp((u0 - 1.0) * log_x)
    r2 = r1 * values

    v_abs, inverse = np.unique(np.abs(v), return_inverse=True)
    m1_u = np.empty(v_abs.size, dtype=complex)
    m2_u = np.empty(v_abs.size, dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // values.size)
    inv_n = 1.0 / values.size
    for start in range(0, v_abs.size, chunk):
        stop = min(start + chunk, v_abs.size)
        phase = np.exp(1j * np.multiply.outer(v_abs[start:stop], log_x))
        m1_u[start:stop] = phase @ r1 * inv_n
        m2_u[start:stop] = phase @ r2 * inv_n

    m1 = m1_u[inverse]
    m2 = m2_u[inverse]
    neg = v < 0.0
    np.conj(m1, out=m1, where=neg)
    np.conj(m2, out=m2, where=neg)

    z = u0 + 1j * v
    if np.any(m2 == 0.0):
        raise PoleError("empirical Mellin denominator vanished on the curve grid")
    y = z * m1 / m2
    denom_abs = np.abs(m2)
    return LaplaceCurve(u0=float(u0), v=v, y=y, denom_abs=denom_abs,
                        ill=denom_abs < floor, n=values.size,
                        meta={"floor": float(floor)})


def laplace_curve_from_mellin(mellin_fn, u0: float, v_grid, n: int = 0) -> LaplaceCurve:
    """Plug-in curve with the empirical moment replaced by an exact Mellin
    transform; by the moment recursion the result is the exact Laplace
    exponent. Used for zero-noise oracle checks."""
    v = np.asarray(v_grid, dtype=float)
    z = u0 + 1j * v
    m1 = np.asarray([mellin_fn(zz) for zz in z], dtype=complex)
    m2 = np.asarray([mellin_fn(zz + 1.0) for zz in z], dtype=complex)
    if np.any(m2 == 0.0):
        raise PoleError("Mellin denominator vanished on the curve grid")
    return LaplaceCurve(u0=float(u0), v=v, y=z * m1 / m2, denom_abs=np.abs(m2),
                        ill=np.zeros(v.size, dtype=bool), n=int(n),
                        meta={"plugin": True})


def _reflect_scalar(fn, z: complex) -> complex:
    """Evaluate fn preserving exact conjugate symmetry."""
    z = complex(z)
    if z.imag < 0.0:
        return complex(np.conj(fn(np.conj(z))))
    return complex(fn(z))


def mellin_theoretical_beta(z, a: float, b: float, mu: float):
    """Exact Mellin transform E[X^{z-1}] of the scaled-Beta stationary law
    (positive drift mu, exponential jump model with intensity a, rate b).

    Arranged as exp of log-gamma differences that vanish identically at
    z = 1, so M(1) = 1 exactly. Requires Re(z) > -b.
    """
    if not (a > 0.0 and b > 0.0 and mu > 0.0):
        raise DomainError(f"need a, b, mu > 0, got a={a}, b={b}, mu={mu}")
    beta = a / mu

    def upper(zz: complex) -> complex:
        if zz.real <= -b:
            raise DomainError(f"need Re(z) > {-b}, got {zz}")
        log_m = ((1.0 - zz) * np.log(mu)
                 + complex_log_gamma(b + zz) - complex_log_gamma(b + 1.0)
                 + complex_log_gamma(b + 1.0 + beta) - complex_log_gamma(b + zz + beta))
        return np.exp(log_m)

    if np.ndim(z) == 0:
        return _reflect_scalar(upper, z)
    return np.asarray([_reflect_scalar(upper, zz) for zz in np.asarray(z, dtype=complex)])


def mellin_theoretical_gamma(z, a: float, b: float):
    """Exact Mellin transform of the Gamma stationary law (zero drift,
    exponential jump model): Gamma(b+1, rate a) moments. M(1) = 1 exactly.
    Requires Re(z) > -b."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"need a, b > 0, got a={a}, b={b}")

    def upper(zz: complex) -> complex:
        if zz.real <= -b:
            raise DomainError(f"need Re(z) > {-b}, got {zz}")
        log_m = (complex_log_gamma(b + zz) - complex_log_gamma(b + 1.0)
                 - (zz - 1.0) * np.log(a))
        return np.exp(log_m)

    if np.ndim(z) == 0:
        return _reflect_scalar(upper, z)
    return np.asarray([_reflect_scalar(upper, zz) for zz in np.asarray(z, dtype=complex)])


def write_laplace_curve_csv(curve: LaplaceCurve, path: str | Path) -> Path:
    """Write the curve as CSV: v, re_Y, im_Y, abs_Y, denom_abs, ill_flag."""
    return write_columns_csv(path, {
        "v": curve.v, "re_Y": curve.y.real, "im_Y": curve.y.imag,
        "abs_Y": np.hypot(curve.y.real, curve.y.imag),
        "denom_abs": curve.denom_abs, "ill_flag": curve.ill,
    })
